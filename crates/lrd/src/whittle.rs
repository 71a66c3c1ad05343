//! Whittle maximum-likelihood estimator of the Hurst exponent under a
//! fractional-Gaussian-noise spectral model, with asymptotic 95 % confidence
//! intervals (Fox–Taqqu / Dahlhaus theory).

use crate::estimate::{EstimatorKind, HurstEstimate};
use crate::Result;
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::periodogram;

const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

// Alias terms summed exactly on each side of λ in the fGn spectral density;
// the remainder is the integral tail (Paxson's device) plus its
// Euler–Maclaurin correction. The smallest count that keeps Ĥ within 1e-6
// of a 30-term midpoint-tail fit (see the `oracle` tests).
const ALIAS_TERMS: usize = 4;

// Brent's stopping tolerance on Ĥ: its error stays under 2.5e-7, which
// leaves the rest of the 1e-6 budget to the alias truncation and to the
// oracle's own golden-section error.
const SEARCH_TOL: f64 = 3e-7;

// Objective evaluations after which the search reports `NoConvergence`.
const MAX_EVALUATIONS: u64 = 200;

/// The H-independent logarithms the fGn alias sum needs at one frequency λ:
/// with them, each power `x^{−2H−1}` costs one `exp`.
#[derive(Debug, Clone, Copy)]
struct AliasLogs {
    /// `ln λ`.
    ln_lambda: f64,
    /// `ln(2πj + λ)` and `ln(2πj − λ)` for `j = 1..=ALIAS_TERMS`.
    ln_alias: [f64; 2 * ALIAS_TERMS],
    /// `ln(edge ± λ)`, `edge = 2π(ALIAS_TERMS + ½)`.
    ln_edge: [f64; 2],
    /// `(edge ± λ)^{−2}`.
    inv_edge_sq: [f64; 2],
}

impl AliasLogs {
    fn new(lambda: f64) -> Self {
        let mut ln_alias = [0.0; 2 * ALIAS_TERMS];
        for (j, pair) in ln_alias.chunks_exact_mut(2).enumerate() {
            let tj = TWO_PI * (j + 1) as f64;
            pair[0] = (tj + lambda).ln();
            pair[1] = (tj - lambda).ln();
        }
        let edge = TWO_PI * (ALIAS_TERMS as f64 + 0.5);
        let (hi, lo) = (edge + lambda, edge - lambda);
        AliasLogs {
            ln_lambda: lambda.ln(),
            ln_alias,
            ln_edge: [hi.ln(), lo.ln()],
            inv_edge_sq: [1.0 / (hi * hi), 1.0 / (lo * lo)],
        }
    }

    /// `Σ_{j∈ℤ} |2πj + λ|^{e}`, `e = −2H − 1`: the terms `|j| ≤ J` exactly,
    /// the rest as `∫_{J+½}^∞ g + g′(J+½)/24` with
    /// `g(x) = (2πx + λ)^e + (2πx − λ)^e`. The correction term
    /// `(2π·e/24)·(edge ± λ)^{e−1}` reuses the tail power `(edge ± λ)^{e+1}`.
    #[inline]
    fn sum(&self, h: f64) -> f64 {
        let e = -(2.0 * h + 1.0);
        let mut b = (e * self.ln_lambda).exp();
        for &l in &self.ln_alias {
            b += (e * l).exp();
        }
        let integral = 1.0 / (2.0 * h * TWO_PI);
        let slope = TWO_PI * e / 24.0;
        for (&l, &inv_sq) in self.ln_edge.iter().zip(&self.inv_edge_sq) {
            b += ((e + 1.0) * l).exp() * (integral + slope * inv_sq);
        }
        b
    }
}

/// `2(1 − cos λ)`, written without the cancellation of `1 − cos λ` near 0.
fn two_one_minus_cos(lambda: f64) -> f64 {
    let s = (0.5 * lambda).sin();
    4.0 * s * s
}

/// Spectral density of unit-scale fractional Gaussian noise at angular
/// frequency `λ ∈ (0, π]` for Hurst exponent `h`, up to a positive constant
/// that the Whittle likelihood profiles out:
///
/// `f(λ; H) ∝ (1 − cos λ) · Σ_{j∈ℤ} |2πj + λ|^{−2H−1}`.
///
/// The infinite sum keeps 4 alias terms on each side of λ; the rest is the
/// integral tail `∫_{4½}^∞` plus its first Euler–Maclaurin correction.
/// Whittle fits with this density stay within |ΔĤ| ≤ 1e-6 of fits with 30
/// alias terms and the plain integral tail, over H ∈ [0.5, 0.95] and
/// 2 048–16 384 points: the measured maximum is 7.4e-7 for Ĥ and 7.6e-7
/// for the CI endpoints (3 terms give 2.1e-6).
///
/// # Panics
///
/// Panics if `λ` is outside `(0, π]` or `h` outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::fgn_spectral_density;
///
/// // LRD spectra blow up at the origin: f(0.01) >> f(1.0) for H > 0.5.
/// let near = fgn_spectral_density(0.01, 0.8);
/// let far = fgn_spectral_density(1.0, 0.8);
/// assert!(near > 10.0 * far);
/// ```
pub fn fgn_spectral_density(lambda: f64, h: f64) -> f64 {
    assert!(
        lambda > 0.0 && lambda <= std::f64::consts::PI,
        "lambda must be in (0, π], got {lambda}"
    );
    assert!(h > 0.0 && h < 1.0, "h must be in (0, 1), got {h}");
    two_one_minus_cos(lambda) * AliasLogs::new(lambda).sum(h)
}

/// The Whittle objective's per-call tables, one row per Fourier frequency:
/// its [`AliasLogs`] and `w = I(λ) / 2(1 − cos λ)`. About
/// `(2·ALIAS_TERMS + 6)` f64 per frequency, freed when the fit returns.
struct WhittleTable {
    rows: Vec<(AliasLogs, f64)>,
}

impl WhittleTable {
    fn new(data: &[f64]) -> Result<Self> {
        let n = data.len();
        if n < 128 {
            return Err(StatsError::InsufficientData {
                needed: 128,
                got: n,
            });
        }
        let p = periodogram(data)?;
        // Exclude the Nyquist ordinate when n is even (it has a different
        // distribution), keep everything else.
        let m = if n.is_multiple_of(2) {
            p.power().len() - 1
        } else {
            p.power().len()
        };
        let freqs = &p.freqs()[..m];
        let power = &p.power()[..m];
        if power.iter().all(|&x| x == 0.0) {
            return Err(StatsError::DegenerateInput {
                what: "all-zero periodogram",
            });
        }
        let rows = freqs
            .iter()
            .zip(power)
            .map(|(&lambda, &i_l)| (AliasLogs::new(lambda), i_l / two_one_minus_cos(lambda)))
            .collect();
        Ok(WhittleTable { rows })
    }

    /// The profiled Whittle likelihood
    /// `Q(H) = log( (1/m) Σ_j I(λ_j)/f(λ_j;H) ) + (1/m) Σ_j log f(λ_j;H)`
    /// less its H-independent part `(1/m) Σ_j log 2(1 − cos λ_j)`: one
    /// `ln` and `2·ALIAS_TERMS + 3` `exp` per frequency.
    fn objective(&self, h: f64) -> f64 {
        let mut ratio_sum = 0.0;
        let mut log_sum = 0.0;
        for (logs, w) in &self.rows {
            let b = logs.sum(h);
            ratio_sum += w / b;
            log_sum += b.ln();
        }
        let m = self.rows.len() as f64;
        (ratio_sum / m).ln() + log_sum / m
    }
}

/// Whittle estimator: minimizes the (scale-profiled) Whittle likelihood
///
/// `Q(H) = log( (1/m) Σ_j I(λ_j)/g(λ_j;H) ) + (1/m) Σ_j log g(λ_j;H)`
///
/// over `H ∈ [0.01, 0.99]` by Brent's method, where `I` is the periodogram
/// and `g` the fGn spectral shape ([`fgn_spectral_density`]). The 95 %
/// confidence interval comes from the asymptotic variance of the profiled
/// Whittle estimate. The `lrd/whittle_iterations` counter adds the
/// number of likelihood evaluations each fit made.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for series shorter than 128
/// points, [`StatsError::DegenerateInput`] for an all-zero periodogram, and
/// [`StatsError::NoConvergence`] if the likelihood search fails.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{fgn::FgnGenerator, whittle};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = FgnGenerator::new(0.7)?.seed(11).generate(8192)?;
/// let est = whittle(&x)?;
/// let (lo, hi) = est.ci95.unwrap();
/// assert!(lo < 0.7 && 0.7 < hi, "CI [{lo}, {hi}] misses the truth");
/// # Ok(())
/// # }
/// ```
pub fn whittle(data: &[f64]) -> Result<HurstEstimate> {
    let table = WhittleTable::new(data)?;
    let min = brent_min(|h| table.objective(h), 0.01, 0.99, SEARCH_TOL)?;
    webpuzzle_obs::metrics::sharded_counter("lrd/whittle_iterations").add(min.evaluations);
    if !min.fx.is_finite() {
        return Err(StatsError::NoConvergence {
            what: "Whittle likelihood evaluation",
        });
    }
    Ok(with_asymptotic_ci(min.x, data.len(), fgn_spectral_density))
}

// Asymptotic variance of the profiled Whittle estimate:
// Var(Ĥ) = 1 / (n · I_eff),
// I_eff = (1/4π)∫_{−π}^{π} D² dλ − (1/8π²)(∫_{−π}^{π} D dλ)²,
// with D(λ) = ∂ log f(λ;H)/∂H, evaluated at Ĥ (numeric derivative,
// symmetric integrals computed on (0, π)).
fn with_asymptotic_ci(h_hat: f64, n: usize, density: fn(f64, f64) -> f64) -> HurstEstimate {
    let var = whittle_asymptotic_variance(h_hat, n, density);
    let half = 1.96 * var.sqrt();
    HurstEstimate::with_ci(EstimatorKind::Whittle, h_hat, h_hat - half, h_hat + half)
}

fn whittle_asymptotic_variance(h: f64, n: usize, density: fn(f64, f64) -> f64) -> f64 {
    let pi = std::f64::consts::PI;
    let grid = 512usize;
    let dh = 1e-5;
    let mut int_d = 0.0;
    let mut int_d2 = 0.0;
    // Midpoint rule on (0, π); integrand is symmetric so the full-range
    // integrals are twice these.
    for i in 0..grid {
        let lambda = (i as f64 + 0.5) * pi / grid as f64;
        let d = (density(lambda, h + dh).ln() - density(lambda, h - dh).ln()) / (2.0 * dh);
        int_d += d;
        int_d2 += d * d;
    }
    let w = pi / grid as f64;
    let full_d = 2.0 * int_d * w;
    let full_d2 = 2.0 * int_d2 * w;
    let i_eff = full_d2 / (4.0 * pi) - full_d * full_d / (8.0 * pi * pi);
    if i_eff <= 0.0 {
        // Should not happen for fGn; return a conservative wide variance.
        return 1.0 / n as f64;
    }
    1.0 / (n as f64 * i_eff)
}

/// A minimiser found by [`brent_min`], its function value, and how many
/// times the function was evaluated.
#[derive(Debug)]
struct Minimum {
    x: f64,
    fx: f64,
    evaluations: u64,
}

/// Brent's method on `[a, b]` (Forsythe, Malcolm & Moler's `fmin`):
/// successive parabolic interpolation, safeguarded by golden-section steps.
/// Stops when `x` lies within `2·(√ε·|x| + tol/3)` of both ends of the
/// bracket.
fn brent_min<F: Fn(f64) -> f64>(f: F, mut a: f64, mut b: f64, tol: f64) -> Result<Minimum> {
    const GOLDEN: f64 = 0.381_966_011_250_105_1; // (3 − √5) / 2
    let eps = f64::EPSILON.sqrt();
    let mut x = a + GOLDEN * (b - a);
    let mut fx = f(x);
    let (mut v, mut w, mut fv, mut fw) = (x, x, fx, fx);
    // `d` is the last step, `e` the one before it.
    let (mut d, mut e) = (0.0f64, 0.0f64);
    let mut evaluations = 1;
    loop {
        let xm = 0.5 * (a + b);
        let tol1 = eps * x.abs() + tol / 3.0;
        let tol2 = 2.0 * tol1;
        if (x - xm).abs() <= tol2 - 0.5 * (b - a) {
            return Ok(Minimum { x, fx, evaluations });
        }
        if evaluations >= MAX_EVALUATIONS {
            return Err(StatsError::NoConvergence {
                what: "Brent search",
            });
        }
        let mut parabolic = false;
        if e.abs() > tol1 {
            // Parabola through (v, fv), (w, fw), (x, fx); step p / q.
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let e_before = e;
            e = d;
            // Accept only a step inside (a, b) shorter than half the one
            // before last.
            if p.abs() < (0.5 * q * e_before).abs() && p > q * (a - x) && p < q * (b - x) {
                d = p / q;
                let u = x + d;
                if u - a < tol2 || b - u < tol2 {
                    d = tol1.copysign(xm - x);
                }
                parabolic = true;
            }
        }
        if !parabolic {
            e = if x >= xm { a - x } else { b - x };
            d = GOLDEN * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = f(u);
        evaluations += 1;
        if fu <= fx {
            if u >= x {
                a = x;
            } else {
                b = x;
            }
            (v, fv, w, fw, x, fx) = (w, fw, x, fx, u, fu);
        } else {
            if u < x {
                a = u;
            } else {
                b = u;
            }
            if fu <= fw || w == x {
                (v, fv, w, fw) = (w, fw, u, fu);
            } else if fu <= fv || v == x || v == w {
                (v, fv) = (u, fu);
            }
        }
    }
}

#[cfg(test)]
mod oracle {
    //! The estimator as it was before per-call tables: 30 alias terms with
    //! the plain integral tail, and golden-section search to 1e-6. The
    //! tests hold [`whittle`](super::whittle) to it.

    use super::*;

    const ALIAS_TERMS: usize = 30;

    /// The fGn alias sum `Σ_{j∈ℤ} |2πj + λ|^{−2H−1}` with `terms` terms on
    /// each side of λ by direct `powf`, its tail `∫_{terms+½}^∞`, and, if
    /// `corrected`, the tail's Euler–Maclaurin term `g′(terms+½)/24`.
    pub(super) fn direct_alias_sum(lambda: f64, h: f64, terms: usize, corrected: bool) -> f64 {
        let e = -(2.0 * h + 1.0);
        let mut b = lambda.powf(e);
        for j in 1..=terms {
            let tj = TWO_PI * j as f64;
            b += (tj + lambda).powf(e) + (tj - lambda).powf(e);
        }
        let edge = TWO_PI * (terms as f64 + 0.5);
        b += ((edge + lambda).powf(e + 1.0) + (edge - lambda).powf(e + 1.0)) / (2.0 * h * TWO_PI);
        if corrected {
            b +=
                TWO_PI * e / 24.0 * ((edge + lambda).powf(e - 1.0) + (edge - lambda).powf(e - 1.0));
        }
        b
    }

    fn density(lambda: f64, h: f64) -> f64 {
        2.0 * (1.0 - lambda.cos()) * direct_alias_sum(lambda, h, ALIAS_TERMS, false)
    }

    /// Whittle's Ĥ and CI under the 30-term density, by golden section.
    pub(super) fn whittle_oracle(data: &[f64]) -> HurstEstimate {
        let p = periodogram(data).unwrap();
        let m = if data.len().is_multiple_of(2) {
            p.power().len() - 1
        } else {
            p.power().len()
        };
        // ln x for every power x^e the density takes, so each costs one exp.
        let rows: Vec<(Vec<f64>, f64, f64)> = p.freqs()[..m]
            .iter()
            .zip(&p.power()[..m])
            .map(|(&lambda, &i_l)| {
                let mut logs = vec![lambda.ln()];
                for j in 1..=ALIAS_TERMS {
                    let tj = TWO_PI * j as f64;
                    logs.extend([(tj + lambda).ln(), (tj - lambda).ln()]);
                }
                let edge = TWO_PI * (ALIAS_TERMS as f64 + 0.5);
                logs.extend([(edge + lambda).ln(), (edge - lambda).ln()]);
                (logs, 2.0 * (1.0 - lambda.cos()), i_l)
            })
            .collect();
        let objective = |h: f64| -> f64 {
            let e = -(2.0 * h + 1.0);
            let mut ratio_sum = 0.0;
            let mut log_sum = 0.0;
            for (logs, v, i_l) in &rows {
                let (alias, tail) = logs.split_at(logs.len() - 2);
                let mut b: f64 = alias.iter().map(|&l| (e * l).exp()).sum();
                b += tail.iter().map(|&l| ((e + 1.0) * l).exp()).sum::<f64>() / (2.0 * h * TWO_PI);
                let g = v * b;
                ratio_sum += i_l / g;
                log_sum += g.ln();
            }
            (ratio_sum / m as f64).ln() + log_sum / m as f64
        };
        let h_hat = golden_section(objective, 0.01, 0.99, 1e-6);
        with_asymptotic_ci(h_hat, data.len(), density)
    }

    /// Golden-section minimization of a unimodal function on `[a, b]`.
    pub(super) fn golden_section<F: Fn(f64) -> f64>(f: F, mut a: f64, mut b: f64, tol: f64) -> f64 {
        const INV_PHI: f64 = 0.618_033_988_749_894_8;
        let mut c = b - INV_PHI * (b - a);
        let mut d = a + INV_PHI * (b - a);
        let mut fc = f(c);
        let mut fd = f(d);
        while (b - a).abs() > tol {
            if fc < fd {
                b = d;
                d = c;
                fd = fc;
                c = b - INV_PHI * (b - a);
                fc = f(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + INV_PHI * (b - a);
                fd = f(d);
            }
        }
        (a + b) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{direct_alias_sum, golden_section, whittle_oracle};
    use super::*;
    use crate::fgn::FgnGenerator;

    #[test]
    fn spectral_density_positive_and_integrable_shape() {
        for &h in &[0.3, 0.5, 0.7, 0.9] {
            for &l in &[1e-4, 0.01, 0.5, 1.5, std::f64::consts::PI] {
                let f = fgn_spectral_density(l, h);
                assert!(f > 0.0 && f.is_finite(), "f({l}; {h}) = {f}");
            }
        }
    }

    #[test]
    fn spectral_density_flat_for_white_noise() {
        // H = 0.5 is white noise: the spectrum should be (nearly) constant.
        let f1 = fgn_spectral_density(0.1, 0.5);
        let f2 = fgn_spectral_density(2.0, 0.5);
        assert!((f1 / f2 - 1.0).abs() < 0.02, "{f1} vs {f2}");
    }

    #[test]
    fn spectral_density_origin_exponent() {
        // Near 0, f(λ) ∝ λ^{1−2H}.
        let h = 0.8;
        let l1 = 1e-3;
        let l2 = 2e-3;
        let slope =
            (fgn_spectral_density(l2, h) / fgn_spectral_density(l1, h)).ln() / (l2 / l1).ln();
        assert!((slope - (1.0 - 2.0 * h)).abs() < 0.02, "slope = {slope}");
    }

    #[test]
    fn recovers_h_for_fgn() {
        for &h in &[0.6, 0.75, 0.9] {
            let x = FgnGenerator::new(h)
                .unwrap()
                .seed(111)
                .generate(16_384)
                .unwrap();
            let est = whittle(&x).unwrap();
            assert!(
                (est.h - h).abs() < 0.05,
                "true H = {h}, estimated {}",
                est.h
            );
        }
    }

    #[test]
    fn ci_covers_truth_most_of_the_time() {
        let h = 0.7;
        let mut covered = 0;
        let trials = 20;
        for seed in 0..trials {
            let x = FgnGenerator::new(h)
                .unwrap()
                .seed(seed)
                .generate(4096)
                .unwrap();
            let est = whittle(&x).unwrap();
            let (lo, hi) = est.ci95.unwrap();
            if lo <= h && h <= hi {
                covered += 1;
            }
        }
        // Nominal 95% coverage: demand at least 16/20.
        assert!(covered >= 16, "coverage {covered}/{trials}");
    }

    #[test]
    fn ci_narrows_with_length() {
        let gen = FgnGenerator::new(0.8).unwrap().seed(7);
        let short = whittle(&gen.generate(2048).unwrap()).unwrap();
        let long = whittle(&gen.generate(32_768).unwrap()).unwrap();
        let width = |e: &HurstEstimate| {
            let (lo, hi) = e.ci95.unwrap();
            hi - lo
        };
        assert!(
            width(&long) < width(&short) / 2.0,
            "short {} long {}",
            width(&short),
            width(&long)
        );
    }

    #[test]
    fn white_noise_near_half() {
        let x = FgnGenerator::new(0.5)
            .unwrap()
            .seed(113)
            .generate(16_384)
            .unwrap();
        let est = whittle(&x).unwrap();
        assert!((est.h - 0.5).abs() < 0.04, "H = {}", est.h);
    }

    #[test]
    fn short_series_rejected() {
        assert!(whittle(&[1.0; 64]).is_err());
    }

    #[test]
    fn golden_section_finds_parabola_min() {
        let min = golden_section(|x| (x - 0.37) * (x - 0.37), 0.0, 1.0, 1e-8);
        assert!((min - 0.37).abs() < 1e-6);
    }

    /// The accuracy grid: H × n × 2 seeds of exact fGn.
    fn oracle_grid() -> Vec<(f64, usize, Vec<f64>)> {
        let mut grid = Vec::new();
        for &h in &[0.5, 0.55, 0.65, 0.75, 0.85, 0.95] {
            for &n in &[2_048, 10_080, 16_384] {
                for seed in [1, 2] {
                    let x = FgnGenerator::new(h)
                        .unwrap()
                        .seed(seed)
                        .generate(n)
                        .unwrap();
                    grid.push((h, n, x));
                }
            }
        }
        grid
    }

    fn assert_within_oracle(x: &[f64], what: &str) -> HurstEstimate {
        let fit = whittle(x).unwrap();
        let oracle = whittle_oracle(x);
        let (lo, hi) = fit.ci95.unwrap();
        let (olo, ohi) = oracle.ci95.unwrap();
        for (name, a, b) in [("H", fit.h, oracle.h), ("lo", lo, olo), ("hi", hi, ohi)] {
            assert!(
                (a - b).abs() <= 1e-6,
                "{what}: {name} = {a} against oracle {b} (Δ {:e})",
                a - b
            );
        }
        fit
    }

    #[test]
    fn whittle_matches_oracle_within_1e6() {
        let grid = oracle_grid();
        std::thread::scope(|s| {
            for half in grid.chunks(grid.len().div_ceil(2)) {
                s.spawn(move || {
                    for (h, n, x) in half {
                        assert_within_oracle(x, &format!("H = {h}, n = {n}"));
                    }
                });
            }
        });
        // A trending series puts the minimum on the search's upper edge.
        let noise = FgnGenerator::new(0.8)
            .unwrap()
            .seed(3)
            .generate(10_080)
            .unwrap();
        let trending: Vec<f64> = noise
            .iter()
            .enumerate()
            .map(|(i, v)| v + i as f64 * 1e-2)
            .collect();
        let fit = assert_within_oracle(&trending, "trending");
        assert!(fit.h >= 0.99 - 1e-6, "edge minimum: H = {}", fit.h);
    }

    #[test]
    fn tabled_log_density_matches_the_formula() {
        let pi = std::f64::consts::PI;
        for &h in &[0.01, 0.2, 0.5, 0.75, 0.9, 0.99] {
            for &lambda in &[1e-6, 2.0 * pi / 604_800.0, 1e-3, 0.1, 1.0, 2.5, pi] {
                let ln_v = two_one_minus_cos(lambda).ln();
                let tabled = ln_v + AliasLogs::new(lambda).sum(h).ln();
                let direct = ln_v + direct_alias_sum(lambda, h, ALIAS_TERMS, true).ln();
                let public = fgn_spectral_density(lambda, h).ln();
                for (what, want) in [("direct", direct), ("public", public)] {
                    assert!(
                        (tabled - want).abs() <= 1e-13 * want.abs().max(1.0),
                        "λ = {lambda}, H = {h}: tabled {tabled} against {what} {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn brent_finds_interior_edge_and_flat_minima() {
        let parabola = brent_min(|x| (x - 0.37) * (x - 0.37), 0.0, 1.0, 1e-8).unwrap();
        assert!((parabola.x - 0.37).abs() < 1e-7, "{parabola:?}");
        assert!(parabola.fx < 1e-14);
        let left = brent_min(|x| x, 0.01, 0.99, 1e-6).unwrap();
        assert!(left.x <= 0.01 + 1e-6, "{left:?}");
        let right = brent_min(|x| -x, 0.01, 0.99, 1e-6).unwrap();
        assert!(right.x >= 0.99 - 1e-6, "{right:?}");
        let flat = brent_min(|_| 1.0, 0.01, 0.99, 1e-6).unwrap();
        assert!((0.01..=0.99).contains(&flat.x), "{flat:?}");
        assert_eq!(flat.fx, 1.0);
    }

    #[test]
    fn brent_evaluation_counts_on_oracle_grid() {
        let mut counts: Vec<u64> = oracle_grid()
            .iter()
            .map(|(_, _, x)| {
                let table = WhittleTable::new(x).unwrap();
                let min = brent_min(|h| table.objective(h), 0.01, 0.99, SEARCH_TOL).unwrap();
                assert_eq!(min.x.to_bits(), whittle(x).unwrap().h.to_bits());
                min.evaluations
            })
            .collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let max = *counts.last().unwrap();
        assert!(median <= 14 && max <= 34, "evaluations: {counts:?}");
    }
}
