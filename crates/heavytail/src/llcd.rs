//! LLCD (log-log complementary distribution) tail-index estimation.

use crate::ccdf::{llcd_tail, Threshold};
use crate::Result;
use serde::{Deserialize, Serialize};
use webpuzzle_stats::regression::ols;
use webpuzzle_stats::StatsError;

/// Result of a least-squares fit to the linear portion of an LLCD plot —
/// the paper's `α_LLCD`, `σ_α` and `R²` columns in Tables 2–4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlcdFit {
    /// Estimated tail index `α = −slope`.
    pub alpha: f64,
    /// Standard error of the slope (and hence of α).
    pub std_err: f64,
    /// Coefficient of determination of the log-log regression.
    pub r_squared: f64,
    /// Threshold θ above which the fit was performed.
    pub threshold: f64,
    /// Number of order statistics in the fitted tail.
    pub n_tail: usize,
}

/// Fit the LLCD slope over the upper `tail_fraction` of the sample
/// (e.g. `0.2` fits above the 80th percentile), the practical version of
/// "select θ above which the plot appears linear".
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] when `tail_fraction` is outside
/// `(0, 1]`, and propagates CCDF/regression failures (including
/// [`StatsError::InsufficientData`] when fewer than 10 tail points remain).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_heavytail::llcd_fit;
/// use webpuzzle_stats::dist::{Pareto, Sampler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(8);
/// let sample = Pareto::new(1.67, 10.0)?.sample_n(&mut rng, 10_000);
/// let fit = llcd_fit(&sample, 0.5)?;
/// assert!((fit.alpha - 1.67).abs() < 0.1);
/// assert!(fit.r_squared > 0.98);
/// # Ok(())
/// # }
/// ```
pub fn llcd_fit(data: &[f64], tail_fraction: f64) -> Result<LlcdFit> {
    let _span = webpuzzle_obs::span!("tail/llcd");
    if !(tail_fraction > 0.0 && tail_fraction <= 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "tail_fraction",
            value: tail_fraction,
            constraint: "must be in (0, 1]",
        });
    }
    fit_tail(data, Threshold::Quantile(1.0 - tail_fraction))
}

/// Fit the LLCD slope above an explicit threshold θ (the paper's Figure 11
/// usage: "for sessions longer than about 1000 seconds, the plot is nearly
/// linear").
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for a non-positive threshold and
/// [`StatsError::InsufficientData`] when fewer than 10 points lie above it.
pub fn llcd_fit_above(data: &[f64], threshold: f64) -> Result<LlcdFit> {
    if !threshold.is_finite() || threshold <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "threshold",
            value: threshold,
            constraint: "must be finite and > 0",
        });
    }
    fit_tail(data, Threshold::Value(threshold))
}

fn fit_tail(data: &[f64], threshold: Threshold) -> Result<LlcdFit> {
    let (threshold, pts) = llcd_tail(&mut data.to_vec(), threshold)?;
    let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
    let fit = ols(&xs, &ys)?;
    Ok(LlcdFit {
        alpha: -fit.slope,
        std_err: fit.slope_std_err,
        r_squared: fit.r_squared,
        threshold,
        n_tail: pts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_stats::dist::{Exponential, LogNormal, Pareto, Sampler};

    #[test]
    fn recovers_alpha_for_pure_pareto() {
        let mut rng = StdRng::seed_from_u64(1);
        for &alpha in &[0.8, 1.5, 2.3] {
            let sample = Pareto::new(alpha, 1.0).unwrap().sample_n(&mut rng, 20_000);
            let fit = llcd_fit(&sample, 0.5).unwrap();
            assert!(
                (fit.alpha - alpha).abs() < 0.12,
                "α = {alpha}, estimated {}",
                fit.alpha
            );
            assert!(fit.r_squared > 0.97, "R² = {}", fit.r_squared);
        }
    }

    #[test]
    fn threshold_variant_matches_fraction_variant() {
        let mut rng = StdRng::seed_from_u64(2);
        let sample = Pareto::new(1.6, 5.0).unwrap().sample_n(&mut rng, 10_000);
        let by_frac = llcd_fit(&sample, 0.2).unwrap();
        let by_thresh = llcd_fit_above(&sample, by_frac.threshold).unwrap();
        assert!((by_frac.alpha - by_thresh.alpha).abs() < 1e-9);
        assert_eq!(by_frac.n_tail, by_thresh.n_tail);
    }

    #[test]
    fn exponential_tail_not_hyperbolic() {
        // An exponential LLCD curves down sharply: the fit should produce a
        // large "alpha" and/or poor linearity relative to a Pareto.
        let mut rng = StdRng::seed_from_u64(3);
        let sample = Exponential::new(0.5).unwrap().sample_n(&mut rng, 20_000);
        let fit = llcd_fit(&sample, 0.2).unwrap();
        assert!(fit.alpha > 2.5, "exponential pseudo-α = {}", fit.alpha);
    }

    #[test]
    fn lognormal_looks_linear_to_a_point() {
        // Downey's warning: a high-variance lognormal produces a deceptively
        // good LLCD fit — R² alone cannot reject it. This test pins the
        // deceptive behaviour we must guard against with the curvature test.
        let mut rng = StdRng::seed_from_u64(4);
        let sample = LogNormal::new(0.0, 2.5).unwrap().sample_n(&mut rng, 20_000);
        let fit = llcd_fit(&sample, 0.2).unwrap();
        assert!(fit.r_squared > 0.95, "R² = {}", fit.r_squared);
    }

    #[test]
    fn fit_reports_tail_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let sample = Pareto::new(1.2, 1.0).unwrap().sample_n(&mut rng, 1_000);
        let fit = llcd_fit(&sample, 0.14).unwrap();
        assert!(fit.n_tail >= 120 && fit.n_tail <= 160, "{}", fit.n_tail);
    }

    #[test]
    fn validation() {
        assert!(llcd_fit(&[1.0; 100], 0.0).is_err());
        assert!(llcd_fit(&[1.0; 100], 1.5).is_err());
        assert!(llcd_fit_above(&[1.0; 100], -1.0).is_err());
        // Too few points above threshold.
        let small: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        assert!(llcd_fit_above(&small, 15.0).is_err());
    }
}
