//! Downey's curvature test: can the extreme-tail curvature of an empirical
//! LLCD plot be explained by a fitted Pareto (straight) or lognormal
//! (curving) model?
//!
//! The test statistic is the quadratic coefficient of a degree-2 polynomial
//! fitted to the tail of the LLCD plot. Its null distribution is obtained by
//! Monte Carlo: draw replicate samples from the fitted model, compute their
//! curvatures, and read off a two-sided rank p-value. A small p-value means
//! the observed curvature is not something the model produces — reject the
//! model.
//!
//! The replicates differ by model. A lognormal replicate has the data's
//! size and is measured over the same upper fraction. A Pareto replicate
//! has `n_tail` points, as many as the data has at or above its threshold,
//! and is measured over its upper 0.999, which is all of it below 1 000
//! points. A replicate whose curvature cannot be computed (an overflowed
//! draw, or too few tail points) is dropped, and
//! [`CurvatureTest::replicates`] counts only the ones kept.
//!
//! The paper notes (§5.2.1) that the test is sensitive to the estimated α
//! and the particular random replicates; [`curvature_test`] therefore takes
//! both the tail fraction and the RNG seed explicitly so the sensitivity is
//! reproducible.

use crate::ccdf::{llcd_tail, Threshold};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use webpuzzle_stats::dist::Sampler;
use webpuzzle_stats::fit::{fit_lognormal, fit_pareto_tail};
use webpuzzle_stats::StatsError;

/// Candidate model for the curvature test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CurvatureModel {
    /// Pareto tail: LLCD is a straight line — zero curvature under the null.
    Pareto,
    /// Lognormal: LLCD curves downward in the extreme tail.
    LogNormal,
}

/// Result of a curvature test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurvatureTest {
    /// Model tested.
    pub model: CurvatureModel,
    /// Observed curvature (quadratic coefficient of the LLCD fit).
    pub curvature: f64,
    /// Two-sided Monte-Carlo rank p-value.
    pub p_value: f64,
    /// Number of Monte-Carlo replicates used.
    pub replicates: usize,
    /// Fitted tail index (Pareto) or log-σ (lognormal) — recorded because
    /// the paper found the p-value sensitive to it.
    pub fitted_param: f64,
}

impl CurvatureTest {
    /// Whether the model is rejected at 5 %.
    pub fn reject_5pct(&self) -> bool {
        self.p_value < 0.05
    }
}

/// Run Downey's curvature test of `model` against the upper `tail_fraction`
/// of `data`, using `replicates` Monte-Carlo draws seeded by `seed`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `tail_fraction` outside
/// `(0, 1)` or `replicates < 19` (a rank p-value needs at least 19 draws
/// for 5 % resolution), plus fit/CCDF failures.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_heavytail::{curvature_test, CurvatureModel};
/// use webpuzzle_stats::dist::{Pareto, Sampler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let sample = Pareto::new(1.5, 1.0)?.sample_n(&mut rng, 3_000);
/// let test = curvature_test(&sample, CurvatureModel::Pareto, 0.3, 99, 7)?;
/// assert!(!test.reject_5pct(), "true Pareto rejected: p = {}", test.p_value);
/// # Ok(())
/// # }
/// ```
pub fn curvature_test(
    data: &[f64],
    model: CurvatureModel,
    tail_fraction: f64,
    replicates: usize,
    seed: u64,
) -> Result<CurvatureTest> {
    let _span = webpuzzle_obs::span!("tail/curvature");
    if !(tail_fraction > 0.0 && tail_fraction < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "tail_fraction",
            value: tail_fraction,
            constraint: "must be in (0, 1)",
        });
    }
    if replicates < 19 {
        return Err(StatsError::InvalidParameter {
            name: "replicates",
            value: replicates as f64,
            constraint: "must be >= 19 for a 5% rank p-value",
        });
    }
    let (observed, threshold) = tail_curvature(&mut data.to_vec(), tail_fraction)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (fitted_param, null) = match model {
        CurvatureModel::Pareto => {
            let pareto = fit_pareto_tail(data, threshold)?;
            let n_tail = data.iter().filter(|&&x| x >= threshold).count();
            let null = null_curvatures(&pareto, n_tail, 0.999, replicates, &mut rng);
            (pareto.alpha(), null)
        }
        CurvatureModel::LogNormal => {
            let ln = fit_lognormal(data)?;
            let null = null_curvatures(&ln, data.len(), tail_fraction, replicates, &mut rng);
            (ln.sigma(), null)
        }
    };
    let used = null.len();
    let more_extreme_low = null.iter().filter(|&&c| c <= observed).count();
    let more_extreme_high = null.iter().filter(|&&c| c >= observed).count();
    webpuzzle_obs::metrics::sharded_counter("heavytail/curvature_replicates").add(used as u64);
    if used < 19 {
        return Err(StatsError::NoConvergence {
            what: "curvature Monte Carlo (too many degenerate replicates)",
        });
    }
    // Two-sided rank p-value with the +1 correction.
    let p_low = (more_extreme_low + 1) as f64 / (used + 1) as f64;
    let p_high = (more_extreme_high + 1) as f64 / (used + 1) as f64;
    let p_value = (2.0 * p_low.min(p_high)).min(1.0);

    Ok(CurvatureTest {
        model,
        curvature: observed,
        p_value,
        replicates: used,
        fitted_param,
    })
}

/// Curvatures of `replicates` samples of `size` draws from `model`, each
/// drawn into one reused buffer and measured over its upper
/// `tail_fraction`; degenerate replicates are left out.
fn null_curvatures<S: Sampler>(
    model: &S,
    size: usize,
    tail_fraction: f64,
    replicates: usize,
    rng: &mut StdRng,
) -> Vec<f64> {
    let mut sample = Vec::with_capacity(size);
    (0..replicates)
        .filter_map(|_| {
            sample.clear();
            sample.extend((0..size).map(|_| model.sample(rng)));
            let (curvature, _) = tail_curvature(&mut sample, tail_fraction).ok()?;
            Some(curvature)
        })
        .collect()
}

/// Curvature (quadratic coefficient) of the LLCD plot over the upper
/// `tail_fraction` of the sample, which it reorders, and the threshold θ
/// where that tail starts.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when fewer than 10 tail points
/// remain, plus CCDF validation failures.
fn tail_curvature(sample: &mut [f64], tail_fraction: f64) -> Result<(f64, f64)> {
    let (theta, pts) = llcd_tail(sample, Threshold::Quantile(1.0 - tail_fraction))?;
    Ok((quadratic_coefficient(&pts)?, theta))
}

// Least-squares quadratic coefficient of y ≈ a + b·x + c·x² via the 3×3
// normal equations. Centering x first keeps the system well-conditioned.
fn quadratic_coefficient(pts: &[(f64, f64)]) -> Result<f64> {
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let (mut s1, mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0, 0.0);
    let (mut sy, mut sxy, mut sx2y) = (0.0, 0.0, 0.0);
    for &(x0, y) in pts {
        let x = x0 - mx;
        let x2 = x * x;
        s1 += x;
        s2 += x2;
        s3 += x2 * x;
        s4 += x2 * x2;
        sy += y;
        sxy += x * y;
        sx2y += x2 * y;
    }
    // Normal equations:
    // [ n  s1 s2 ] [a]   [sy  ]
    // [ s1 s2 s3 ] [b] = [sxy ]
    // [ s2 s3 s4 ] [c]   [sx2y]
    let mut m = [[n, s1, s2, sy], [s1, s2, s3, sxy], [s2, s3, s4, sx2y]];
    // Gaussian elimination with partial pivoting.
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&a, &b| m[a][col].abs().partial_cmp(&m[b][col].abs()).unwrap())
            .unwrap();
        m.swap(col, pivot);
        if m[col][col].abs() < 1e-12 {
            return Err(StatsError::DegenerateInput {
                what: "singular system in quadratic LLCD fit",
            });
        }
        for row in col + 1..3 {
            let f = m[row][col] / m[col][col];
            let pivot_row = m[col];
            for (k, cell) in m[row].iter_mut().enumerate().skip(col) {
                *cell -= f * pivot_row[k];
            }
        }
    }
    // Back-substitute only c (the last unknown).
    Ok(m[2][3] / m[2][2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_stats::dist::{Exponential, LogNormal, Pareto};

    fn pareto_sample(alpha: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Pareto::new(alpha, 1.0).unwrap().sample_n(&mut rng, n)
    }

    fn lognormal_sample(sigma: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        LogNormal::new(0.0, sigma).unwrap().sample_n(&mut rng, n)
    }

    #[test]
    fn quadratic_fit_exact() {
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64 * 0.3;
                (x, 1.0 + 2.0 * x - 0.7 * x * x)
            })
            .collect();
        let c = quadratic_coefficient(&pts).unwrap();
        assert!((c + 0.7).abs() < 1e-9, "c = {c}");
    }

    #[test]
    fn pareto_tail_has_near_zero_curvature() {
        let mut sample = pareto_sample(1.5, 20_000, 31);
        let c = tail_curvature(&mut sample, 0.2).unwrap().0;
        assert!(c.abs() < 0.5, "curvature = {c}");
    }

    #[test]
    fn lognormal_tail_curves_down() {
        let mut sample = lognormal_sample(1.5, 20_000, 32);
        let c = tail_curvature(&mut sample, 0.2).unwrap().0;
        assert!(c < -0.2, "curvature = {c}");
    }

    #[test]
    fn true_pareto_not_rejected_under_pareto() {
        let sample = pareto_sample(1.6, 5_000, 33);
        let t = curvature_test(&sample, CurvatureModel::Pareto, 0.3, 99, 1).unwrap();
        assert!(!t.reject_5pct(), "p = {}", t.p_value);
    }

    #[test]
    fn true_lognormal_not_rejected_under_lognormal() {
        let sample = lognormal_sample(1.8, 5_000, 34);
        let t = curvature_test(&sample, CurvatureModel::LogNormal, 0.3, 99, 2).unwrap();
        assert!(!t.reject_5pct(), "p = {}", t.p_value);
    }

    #[test]
    fn exponential_rejected_under_pareto() {
        // Exponential data curves hard; a fitted Pareto cannot reproduce it.
        let mut rng = StdRng::seed_from_u64(35);
        let sample = Exponential::new(1.0).unwrap().sample_n(&mut rng, 5_000);
        let t = curvature_test(&sample, CurvatureModel::Pareto, 0.3, 99, 3).unwrap();
        assert!(t.reject_5pct(), "p = {}", t.p_value);
    }

    #[test]
    fn p_value_sensitive_to_seed() {
        // Paper observation (3): the MC p-value moves with the simulated
        // sample. Check it varies across seeds without changing the verdict
        // wildly.
        let sample = pareto_sample(1.5, 3_000, 36);
        let p1 = curvature_test(&sample, CurvatureModel::Pareto, 0.3, 99, 10)
            .unwrap()
            .p_value;
        let p2 = curvature_test(&sample, CurvatureModel::Pareto, 0.3, 99, 11)
            .unwrap()
            .p_value;
        assert_ne!(p1, p2);
    }

    #[test]
    fn validation() {
        let sample = pareto_sample(1.5, 1_000, 37);
        assert!(curvature_test(&sample, CurvatureModel::Pareto, 0.0, 99, 1).is_err());
        assert!(curvature_test(&sample, CurvatureModel::Pareto, 0.3, 5, 1).is_err());
    }

    #[test]
    fn reports_fitted_param() {
        let sample = pareto_sample(1.4, 5_000, 38);
        let t = curvature_test(&sample, CurvatureModel::Pareto, 0.3, 99, 4).unwrap();
        assert!((t.fitted_param - 1.4).abs() < 0.2, "α̂ = {}", t.fitted_param);
        assert_eq!(t.model, CurvatureModel::Pareto);
        assert_eq!(t.replicates, 99);
    }
}
