//! The Dekkers–Einmahl–de Haan "moment" estimator of the extreme-value
//! index — an extension beyond the paper's LLCD/Hill pair.
//!
//! The Hill estimator is only consistent for γ = 1/α > 0 (true power laws).
//! The moment estimator
//!
//! `γ̂ = M₁ + 1 − ½ (1 − M₁²/M₂)⁻¹`,
//! `Mᵣ = (1/k) Σ_{i<k} (ln X₍ᵢ₎ − ln X₍ₖ₎)ʳ`
//!
//! is consistent for *all* γ ∈ ℝ: it returns γ ≈ 1/α on Pareto tails,
//! γ ≈ 0 on light (exponential-class) tails, and γ < 0 on finite-endpoint
//! tails. That makes it a sharper companion verdict for the paper's tables:
//! NS cells (where Hill climbs forever) resolve to "γ ≈ 0, light tail"
//! instead of an unexplained blank.

use crate::ccdf::upper_order_statistics;
use crate::Result;
use serde::{Deserialize, Serialize};
use webpuzzle_stats::StatsError;

/// Result of the moment estimator at one tail fraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MomentEstimate {
    /// Extreme-value index γ̂ (γ = 1/α for heavy tails).
    pub gamma: f64,
    /// Number of upper-order statistics used.
    pub k: usize,
}

impl MomentEstimate {
    /// The implied tail index `α = 1/γ` when the tail is heavy
    /// (`γ > threshold`); `None` for light or bounded tails.
    pub fn alpha(&self, heavy_threshold: f64) -> Option<f64> {
        (self.gamma > heavy_threshold).then(|| 1.0 / self.gamma)
    }
}

/// Run the moment estimator on the upper `tail_fraction` of the sample.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for a tail fraction outside
/// `(0, 1]`, [`StatsError::InsufficientData`] for fewer than 50
/// observations (or fewer than 10 tail points), and
/// [`StatsError::DegenerateInput`] for non-positive or tied-constant data.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_heavytail::moment_estimator;
/// use webpuzzle_stats::dist::{Pareto, Sampler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(6);
/// let sample = Pareto::new(2.0, 1.0)?.sample_n(&mut rng, 20_000);
/// let est = moment_estimator(&sample, 0.1)?;
/// // γ = 1/α = 0.5.
/// assert!((est.gamma - 0.5).abs() < 0.1, "γ = {}", est.gamma);
/// # Ok(())
/// # }
/// ```
pub fn moment_estimator(data: &[f64], tail_fraction: f64) -> Result<MomentEstimate> {
    let _span = webpuzzle_obs::span!("tail/moment");
    if !(tail_fraction > 0.0 && tail_fraction <= 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "tail_fraction",
            value: tail_fraction,
            constraint: "must be in (0, 1]",
        });
    }
    let n = data.len();
    if n < 50 {
        return Err(StatsError::InsufficientData { needed: 50, got: n });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    if data.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::DegenerateInput {
            what: "moment estimator requires strictly positive data",
        });
    }
    let k = (((n as f64) * tail_fraction) as usize).min(n - 1).max(10);
    let desc = upper_order_statistics(data, k);
    let ln_xk = desc[k].ln();
    let mut m1 = 0.0;
    let mut m2 = 0.0;
    for &x in &desc[..k] {
        let d = x.ln() - ln_xk;
        m1 += d;
        m2 += d * d;
    }
    m1 /= k as f64;
    m2 /= k as f64;
    if m2 <= 0.0 {
        return Err(StatsError::DegenerateInput {
            what: "tail has no spread above the threshold order statistic",
        });
    }
    let gamma = m1 + 1.0 - 0.5 / (1.0 - m1 * m1 / m2);
    Ok(MomentEstimate { gamma, k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_stats::dist::{Exponential, LogNormal, Pareto, Sampler, Weibull};

    #[test]
    fn pareto_gamma_is_inverse_alpha() {
        let mut rng = StdRng::seed_from_u64(1);
        for &alpha in &[1.0, 1.5, 2.5] {
            let data = Pareto::new(alpha, 1.0).unwrap().sample_n(&mut rng, 30_000);
            let est = moment_estimator(&data, 0.1).unwrap();
            assert!(
                (est.gamma - 1.0 / alpha).abs() < 0.12,
                "α = {alpha}: γ = {}",
                est.gamma
            );
            let implied = est.alpha(0.1).expect("heavy tail detected");
            assert!((implied - alpha).abs() < 0.6);
        }
    }

    #[test]
    fn exponential_gamma_near_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Exponential::new(1.0).unwrap().sample_n(&mut rng, 30_000);
        let est = moment_estimator(&data, 0.1).unwrap();
        assert!(est.gamma.abs() < 0.12, "γ = {}", est.gamma);
        assert!(est.alpha(0.15).is_none());
    }

    #[test]
    fn weibull_light_tail_gamma_near_zero() {
        // Weibull (any shape) is in the Gumbel domain: γ = 0.
        let mut rng = StdRng::seed_from_u64(3);
        let data = Weibull::new(0.7, 1.0).unwrap().sample_n(&mut rng, 30_000);
        let est = moment_estimator(&data, 0.1).unwrap();
        assert!(est.gamma.abs() < 0.2, "γ = {}", est.gamma);
    }

    #[test]
    fn bounded_tail_gamma_negative() {
        // Uniform-like (finite endpoint): γ = -1 in theory.
        let data: Vec<f64> = (1..=20_000).map(|i| i as f64 / 20_000.0).collect();
        let est = moment_estimator(&data, 0.1).unwrap();
        assert!(est.gamma < -0.3, "γ = {}", est.gamma);
    }

    #[test]
    fn lognormal_sits_between() {
        // Lognormal is subexponential but γ = 0 asymptotically; at finite n
        // the estimate is small-positive — visibly below a true Pareto with
        // comparable body.
        let mut rng = StdRng::seed_from_u64(4);
        let ln_data = LogNormal::new(0.0, 1.5).unwrap().sample_n(&mut rng, 30_000);
        let pareto_data = Pareto::new(1.2, 1.0).unwrap().sample_n(&mut rng, 30_000);
        let g_ln = moment_estimator(&ln_data, 0.1).unwrap().gamma;
        let g_par = moment_estimator(&pareto_data, 0.1).unwrap().gamma;
        assert!(g_ln < g_par - 0.2, "lognormal γ {g_ln} vs Pareto γ {g_par}");
    }

    #[test]
    fn validation() {
        assert!(moment_estimator(&[1.0; 10], 0.1).is_err());
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!(moment_estimator(&data, 0.0).is_err());
        assert!(moment_estimator(&data, 1.5).is_err());
        let mut bad = data.clone();
        bad[0] = -1.0;
        assert!(moment_estimator(&bad, 0.1).is_err());
        assert!(moment_estimator(&[5.0; 100], 0.5).is_err());
    }
}
