//! Whittle maximum-likelihood estimator of the Hurst exponent under a
//! fractional-Gaussian-noise spectral model, with asymptotic 95 % confidence
//! intervals (Fox–Taqqu / Dahlhaus theory).

use crate::estimate::{EstimatorKind, HurstEstimate};
use crate::periodogram_est::{check_spectral_len, spectral_periodogram};
use crate::Result;
use std::f64::consts::PI;
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::Periodogram;

const TWO_PI: f64 = 2.0 * PI;

// Alias terms summed exactly on each side of λ in the fGn spectral density;
// the remainder is the integral tail (Paxson's device) plus its
// Euler–Maclaurin correction. The smallest count that keeps Ĥ within 1e-6
// of a 30-term midpoint-tail fit (see the `oracle` tests).
const ALIAS_TERMS: usize = 4;

// Chebyshev nodes, and so terms, of the series that stands in for the alias
// sum without its j = 0 term. That sum is analytic in t = 2λ²/π² − 1 out to
// λ = 2π (t = 7, Bernstein ρ = 7 + √48 ≈ 13.9), so each term gains about
// 1.1 digits: against `AliasLogs::sum`, 8 terms leave 2.3e-7 relative error,
// 12 leave 1.3e-11 and 14 leave 9.2e-14; from 16 on, what is left (4–6e-15)
// is the rounding of the node values (`series_matches_alias_logs`). The four
// terms past 16 cost one multiply-add per frequency each.
const SERIES_TERMS: usize = 20;

// Frequencies per Clenshaw pass: the recurrence runs over a block in an
// inner loop of its own, which vectorizes, while its state stays in L1.
const BLOCK: usize = 64;

// Brent's stopping tolerance on Ĥ: its error stays under 2.5e-7, which
// leaves the rest of the 1e-6 budget to the alias truncation and to the
// oracle's own golden-section error.
const SEARCH_TOL: f64 = 3e-7;

// Objective evaluations after which the search reports `NoConvergence`.
const MAX_EVALUATIONS: u64 = 200;

// Step of the numeric derivative ∂ log f / ∂H in the asymptotic variance.
const CI_DH: f64 = 1e-5;

/// The H-independent logarithms of the fGn alias sum's terms other than
/// `λ^e` at one frequency λ: with them, each power costs one `exp`.
#[derive(Debug, Clone, Copy)]
struct AliasLogs {
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
            ln_alias,
            ln_edge: [hi.ln(), lo.ln()],
            inv_edge_sq: [1.0 / (hi * hi), 1.0 / (lo * lo)],
        }
    }

    /// `S(λ; H) = Σ_{j≠0} |2πj + λ|^{e}`, `e = −2H − 1`: the terms
    /// `1 ≤ |j| ≤ J` exactly, the rest as `∫_{J+½}^∞ g + g′(J+½)/24` with
    /// `g(x) = (2πx + λ)^e + (2πx − λ)^e`. The correction term
    /// `(2π·e/24)·(edge ± λ)^{e−1}` reuses the tail power `(edge ± λ)^{e+1}`.
    #[inline]
    fn sum(&self, h: f64) -> f64 {
        let e = -(2.0 * h + 1.0);
        let mut s = 0.0;
        for &l in &self.ln_alias {
            s += (e * l).exp();
        }
        let integral = 1.0 / (2.0 * h * TWO_PI);
        let slope = TWO_PI * e / 24.0;
        for (&l, &inv_sq) in self.ln_edge.iter().zip(&self.inv_edge_sq) {
            s += ((e + 1.0) * l).exp() * (integral + slope * inv_sq);
        }
        s
    }
}

/// `t = 2λ²/π² − 1`, which maps λ ∈ [0, π] onto the Chebyshev interval.
fn series_arg(lambda: f64) -> f64 {
    let r = lambda / PI;
    2.0 * r * r - 1.0
}

/// What building an [`AliasSeries`] needs that does not depend on H: the
/// [`AliasLogs`] of the Chebyshev nodes and the cosine sum that turns
/// values there into coefficients.
struct SeriesNodes {
    logs: [AliasLogs; SERIES_TERMS],
    /// Row `j`: `(2/K)·cos(πj(i + ½)/K)` over the nodes `i` (halved for
    /// `j = 0`), `K = SERIES_TERMS`.
    cos: [[f64; SERIES_TERMS]; SERIES_TERMS],
}

impl SeriesNodes {
    fn new() -> Self {
        let k = SERIES_TERMS as f64;
        // Node i sits at t = cos θ_i, θ_i = π(i + ½)/K, that is at
        // λ = π·cos(θ_i / 2).
        let logs =
            std::array::from_fn(|i| AliasLogs::new(PI * (0.5 * PI * (i as f64 + 0.5) / k).cos()));
        let cos = std::array::from_fn(|j| {
            let scale = if j == 0 { 1.0 / k } else { 2.0 / k };
            std::array::from_fn(|i| scale * (PI * j as f64 * (i as f64 + 0.5) / k).cos())
        });
        SeriesNodes { logs, cos }
    }

    /// `S(·; H)` interpolated at the nodes: `10·K` `exp` and a K × K sum.
    fn series(&self, h: f64) -> AliasSeries {
        let values = self.logs.map(|logs| logs.sum(h));
        AliasSeries {
            e: -(2.0 * h + 1.0),
            coeffs: self
                .cos
                .map(|row| row.iter().zip(&values).map(|(c, v)| c * v).sum()),
        }
    }
}

/// [`AliasLogs::sum`] at one H for every λ ∈ (0, π], as the Chebyshev
/// series `Σ_j c_j T_j(t)` in `t` of [`series_arg`] (the sum is even in λ),
/// and the exponent `e = −2H − 1` of the alias sum's `λ^e` term.
struct AliasSeries {
    e: f64,
    coeffs: [f64; SERIES_TERMS],
}

impl AliasSeries {
    /// The series at each `t[i]` into `s[i]`, by Clenshaw's recurrence run
    /// over the whole block once per coefficient.
    fn eval_block(&self, t: &[f64], s: &mut [f64]) {
        debug_assert_eq!(t.len(), s.len());
        let mut b2 = [0.0; BLOCK];
        let b2 = &mut b2[..t.len()];
        s.fill(0.0);
        for &c in self.coeffs[1..].iter().rev() {
            for ((b1, b2), &t) in s.iter_mut().zip(b2.iter_mut()).zip(t) {
                let b0 = c + 2.0 * t * *b1 - *b2;
                *b2 = *b1;
                *b1 = b0;
            }
        }
        for ((b1, &b2), &t) in s.iter_mut().zip(b2.iter()).zip(t) {
            *b1 = self.coeffs[0] + t * *b1 - b2;
        }
    }

    /// The whole alias sum `λ^e + S(λ; H)` at one frequency, from `ln λ`
    /// and `t`.
    fn total(&self, ln_lambda: f64, t: f64) -> f64 {
        let mut s = [0.0];
        self.eval_block(&[t], &mut s);
        (self.e * ln_lambda).exp() + s[0]
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
/// for the CI endpoints (3 terms give 2.1e-6). [`whittle`] evaluates the
/// alias sum through a Chebyshev series in λ² that matches it to 1e-14
/// relative.
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
        lambda > 0.0 && lambda <= PI,
        "lambda must be in (0, π], got {lambda}"
    );
    assert!(h > 0.0 && h < 1.0, "h must be in (0, 1), got {h}");
    let origin = (-(2.0 * h + 1.0) * lambda.ln()).exp();
    two_one_minus_cos(lambda) * (origin + AliasLogs::new(lambda).sum(h))
}

/// The Fourier frequencies and periodogram ordinates a fit uses: all but
/// the Nyquist ordinate of an even-length series, which has a different
/// distribution.
fn fit_ordinates(p: &Periodogram) -> Result<(&[f64], &[f64])> {
    let n = p.series_len();
    check_spectral_len(n)?;
    let m = if n.is_multiple_of(2) {
        p.power().len() - 1
    } else {
        p.power().len()
    };
    let power = &p.power()[..m];
    if power.iter().all(|&x| x == 0.0) {
        return Err(StatsError::DegenerateInput {
            what: "all-zero periodogram",
        });
    }
    Ok((&p.freqs()[..m], power))
}

/// The Whittle objective's per-call tables: per Fourier frequency λ, `t`
/// (see [`series_arg`]), `ln λ` and `w = I(λ) / 2(1 − cos λ)`, 24 B in all,
/// and the [`SeriesNodes`]; freed when the fit returns.
struct WhittleTable {
    t: Vec<f64>,
    ln_lambda: Vec<f64>,
    w: Vec<f64>,
    nodes: SeriesNodes,
}

impl WhittleTable {
    fn new(p: &Periodogram) -> Result<Self> {
        let (freqs, power) = fit_ordinates(p)?;
        Ok(WhittleTable {
            t: freqs.iter().map(|&l| series_arg(l)).collect(),
            ln_lambda: freqs.iter().map(|l| l.ln()).collect(),
            w: freqs
                .iter()
                .zip(power)
                .map(|(&l, &i_l)| i_l / two_one_minus_cos(l))
                .collect(),
            nodes: SeriesNodes::new(),
        })
    }

    /// The profiled Whittle likelihood
    /// `Q(H) = log( (1/m) Σ_j I(λ_j)/f(λ_j;H) ) + (1/m) Σ_j log f(λ_j;H)`
    /// less its H-independent part `(1/m) Σ_j log 2(1 − cos λ_j)`: one
    /// [`AliasSeries`], then per frequency one `exp`, one `ln` and a
    /// Clenshaw step per series term.
    fn objective(&self, h: f64) -> f64 {
        let series = self.nodes.series(h);
        let mut s = [0.0; BLOCK];
        let mut ratio_sum = 0.0;
        let mut log_sum = 0.0;
        for ((t, ln_lambda), w) in self
            .t
            .chunks(BLOCK)
            .zip(self.ln_lambda.chunks(BLOCK))
            .zip(self.w.chunks(BLOCK))
        {
            let s = &mut s[..t.len()];
            series.eval_block(t, s);
            for ((&s, &ln_lambda), &w) in s.iter().zip(ln_lambda).zip(w) {
                let b = (series.e * ln_lambda).exp() + s;
                ratio_sum += w / b;
                log_sum += b.ln();
            }
        }
        let m = self.w.len() as f64;
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
    whittle_from_periodogram(&spectral_periodogram(data)?)
}

/// [`whittle`] on a periodogram already computed, so that one periodogram
/// can serve it and [`crate::periodogram_hurst_from_periodogram`].
///
/// # Errors
///
/// Those of [`whittle`] for a series of [`Periodogram::series_len`]
/// points.
pub fn whittle_from_periodogram(p: &Periodogram) -> Result<HurstEstimate> {
    let table = WhittleTable::new(p)?;
    let min = brent_min(|h| table.objective(h), 0.01, 0.99, SEARCH_TOL)?;
    webpuzzle_obs::metrics::sharded_counter("lrd/whittle_iterations").add(min.evaluations);
    if !min.fx.is_finite() {
        return Err(StatsError::NoConvergence {
            what: "Whittle likelihood evaluation",
        });
    }
    // 2(1 − cos λ) does not depend on H, so it cancels in D.
    let lo = table.nodes.series(min.x - CI_DH);
    let hi = table.nodes.series(min.x + CI_DH);
    Ok(with_asymptotic_ci(min.x, p.series_len(), |lambda| {
        let (ln_lambda, t) = (lambda.ln(), series_arg(lambda));
        (hi.total(ln_lambda, t) / lo.total(ln_lambda, t)).ln() / (2.0 * CI_DH)
    }))
}

// Asymptotic variance of the profiled Whittle estimate:
// Var(Ĥ) = 1 / (n · I_eff),
// I_eff = (1/4π)∫_{−π}^{π} D² dλ − (1/8π²)(∫_{−π}^{π} D dλ)²,
// with D(λ) = ∂ log f(λ;H)/∂H at Ĥ, which `d` computes (a symmetric
// difference of step CI_DH); the symmetric integrals are computed on (0, π).
fn with_asymptotic_ci(h_hat: f64, n: usize, d: impl Fn(f64) -> f64) -> HurstEstimate {
    let var = whittle_asymptotic_variance(n, d);
    let half = 1.96 * var.sqrt();
    HurstEstimate::with_ci(EstimatorKind::Whittle, h_hat, h_hat - half, h_hat + half)
}

fn whittle_asymptotic_variance(n: usize, d: impl Fn(f64) -> f64) -> f64 {
    let grid = 512usize;
    let mut int_d = 0.0;
    let mut int_d2 = 0.0;
    // Midpoint rule on (0, π); integrand is symmetric so the full-range
    // integrals are twice these.
    for i in 0..grid {
        let d = d((i as f64 + 0.5) * PI / grid as f64);
        int_d += d;
        int_d2 += d * d;
    }
    let w = PI / grid as f64;
    let full_d = 2.0 * int_d * w;
    let full_d2 = 2.0 * int_d2 * w;
    let i_eff = full_d2 / (4.0 * PI) - full_d * full_d / (8.0 * PI * PI);
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
    //! Two earlier estimators that the tests hold [`whittle`](super::whittle)
    //! to: the one before per-call tables (30 alias terms with the plain
    //! integral tail, golden-section search to 1e-6), and the one before the
    //! alias series (`λ^e` and [`AliasLogs::sum`] at every frequency, the CI
    //! from [`fgn_spectral_density`]).

    use super::*;
    use webpuzzle_timeseries::periodogram;

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
        with_asymptotic_ci(h_hat, data.len(), log_density_slope(density, h_hat))
    }

    /// `D(λ) = ∂ log f(λ;H)/∂H` at `h` by symmetric difference of `density`.
    fn log_density_slope(density: fn(f64, f64) -> f64, h: f64) -> impl Fn(f64) -> f64 {
        move |lambda| {
            (density(lambda, h + CI_DH).ln() - density(lambda, h - CI_DH).ln()) / (2.0 * CI_DH)
        }
    }

    /// The objective's tables before the alias series: `ln λ`, the
    /// [`AliasLogs`] and `w` per frequency, so 11 `exp` and one `ln` per
    /// frequency and evaluation.
    pub(super) struct PerFrequencyTable {
        rows: Vec<(f64, AliasLogs, f64)>,
    }

    impl PerFrequencyTable {
        pub(super) fn new(p: &Periodogram) -> Self {
            let (freqs, power) = fit_ordinates(p).unwrap();
            let rows = freqs
                .iter()
                .zip(power)
                .map(|(&l, &i_l)| (l.ln(), AliasLogs::new(l), i_l / two_one_minus_cos(l)))
                .collect();
            PerFrequencyTable { rows }
        }

        pub(super) fn objective(&self, h: f64) -> f64 {
            let e = -(2.0 * h + 1.0);
            let mut ratio_sum = 0.0;
            let mut log_sum = 0.0;
            for (ln_lambda, logs, w) in &self.rows {
                let b = (e * ln_lambda).exp() + logs.sum(h);
                ratio_sum += w / b;
                log_sum += b.ln();
            }
            let m = self.rows.len() as f64;
            (ratio_sum / m).ln() + log_sum / m
        }
    }

    /// Ĥ by Brent over [`PerFrequencyTable::objective`], and the CI from
    /// [`fgn_spectral_density`].
    pub(super) fn whittle_per_frequency(p: &Periodogram) -> HurstEstimate {
        let table = PerFrequencyTable::new(p);
        let min = brent_min(|h| table.objective(h), 0.01, 0.99, SEARCH_TOL).unwrap();
        with_asymptotic_ci(
            min.x,
            p.series_len(),
            log_density_slope(fgn_spectral_density, min.x),
        )
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
    use super::oracle::{
        direct_alias_sum, golden_section, whittle_oracle, whittle_per_frequency, PerFrequencyTable,
    };
    use super::*;
    use crate::fgn::FgnGenerator;
    use webpuzzle_timeseries::periodogram;

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
                let origin = lambda.powf(-(2.0 * h + 1.0));
                let tabled = ln_v + (origin + AliasLogs::new(lambda).sum(h)).ln();
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
                let table = WhittleTable::new(&periodogram(x).unwrap()).unwrap();
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

    #[test]
    fn series_matches_alias_logs() {
        let mut lambdas = vec![
            TWO_PI / 604_800.0,
            TWO_PI / 10_080.0,
            1e-3,
            0.1,
            1.0,
            2.5,
            std::f64::consts::PI,
        ];
        lambdas.extend((1..=500).map(|i| f64::from(i) * std::f64::consts::PI / 500.0));
        lambdas.extend((0..60).map(|i| 1e-6 * 10f64.powf(f64::from(i) / 10.0)));
        // H from 0.01 to 0.99 by 0.01, and the CI's steps past either end.
        let mut hs: Vec<f64> = (1..=99).map(|i| f64::from(i) / 100.0).collect();
        hs.extend([0.01 - CI_DH, 0.99 + CI_DH]);
        let nodes = SeriesNodes::new();
        let mut worst = 0.0f64;
        for h in hs {
            let series = nodes.series(h);
            let t: Vec<f64> = lambdas.iter().map(|&l| series_arg(l)).collect();
            for (lambdas, t) in lambdas.chunks(BLOCK).zip(t.chunks(BLOCK)) {
                let mut s = vec![0.0; t.len()];
                series.eval_block(t, &mut s);
                for (&lambda, &s) in lambdas.iter().zip(&s) {
                    let want = AliasLogs::new(lambda).sum(h);
                    let rel = (s / want - 1.0).abs();
                    assert!(
                        rel <= 1e-14,
                        "λ = {lambda}, H = {h}: series {s} against {want} (rel {rel:e})"
                    );
                    worst = worst.max(rel);
                }
            }
        }
        eprintln!("series against AliasLogs: worst relative error {worst:e}");
    }

    #[test]
    fn series_objective_and_fit_match_per_frequency_path() {
        let (mut worst_q, mut worst_h) = (0.0f64, 0.0f64);
        for (h, n, x) in oracle_grid() {
            let p = periodogram(&x).unwrap();
            let table = WhittleTable::new(&p).unwrap();
            let old = PerFrequencyTable::new(&p);
            // Every H either search visits.
            let visits = std::cell::RefCell::new(Vec::new());
            let visit = |q: &dyn Fn(f64) -> f64| {
                brent_min(
                    |h| {
                        visits.borrow_mut().push(h);
                        q(h)
                    },
                    0.01,
                    0.99,
                    SEARCH_TOL,
                )
                .unwrap()
            };
            visit(&|h| table.objective(h));
            visit(&|h| old.objective(h));
            for &v in visits.borrow().iter() {
                let (q, q_old) = (table.objective(v), old.objective(v));
                let rel = ((q - q_old) / q_old).abs();
                assert!(
                    rel <= 1e-13,
                    "H = {h}, n = {n}, at {v}: Q = {q} against {q_old} (rel {rel:e})"
                );
                worst_q = worst_q.max(rel);
            }
            let fit = whittle_from_periodogram(&p).unwrap();
            let before = whittle_per_frequency(&p);
            let (lo, hi) = fit.ci95.unwrap();
            let (blo, bhi) = before.ci95.unwrap();
            for (name, a, b) in [("H", fit.h, before.h), ("lo", lo, blo), ("hi", hi, bhi)] {
                assert!(
                    (a - b).abs() <= 3e-7,
                    "H = {h}, n = {n}: {name} = {a} against {b} (Δ {:e})",
                    a - b
                );
                worst_h = worst_h.max((a - b).abs());
            }
        }
        eprintln!("objective: worst relative {worst_q:e}; Ĥ and CI: worst {worst_h:e}");
    }
}
