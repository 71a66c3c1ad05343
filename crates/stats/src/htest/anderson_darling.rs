//! Anderson–Darling goodness-of-fit test for the exponential distribution
//! with estimated rate.
//!
//! This is the per-interval exponentiality test of the paper's §4.2: the null
//! is `H₀: F(x) = 1 − e^{−λ̂x}` with `λ̂ = 1/x̄` estimated from the sample.
//! Following Stephens (1967/1974), the statistic is modified to
//! `A²·(1 + 0.6/n)` and compared to the 5 % critical value **1.341** (the
//! exact constants quoted by the paper).

use crate::{Result, StatsError};

/// The 5 % critical value for the modified statistic `A²(1 + 0.6/n)` when
/// the exponential rate is estimated from the data (Stephens).
pub const AD_EXPONENTIAL_CRITICAL_5PCT: f64 = 1.341;

/// Outcome of an Anderson–Darling exponentiality test.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AndersonDarlingResult {
    /// The raw A² statistic.
    pub a_squared: f64,
    /// The modified statistic `A²(1 + 0.6/n)` actually compared to the
    /// critical value.
    pub modified: f64,
    /// Critical value used (5 %).
    pub critical: f64,
    /// Whether the exponential null is rejected at 5 %.
    pub reject: bool,
    /// Estimated rate `λ̂ = 1/x̄`.
    pub rate: f64,
    /// Sample size.
    pub n: usize,
}

/// Run the Anderson–Darling test for exponentially distributed data with the
/// rate estimated by `λ̂ = 1/x̄`.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for fewer than 5 observations,
/// [`StatsError::NonFiniteData`] for non-finite input, and
/// [`StatsError::DegenerateInput`] if any observation is negative or the
/// mean is zero.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_stats::dist::{Exponential, Sampler};
/// use webpuzzle_stats::htest::anderson_darling_exponential;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let sample = Exponential::new(1.0).unwrap().sample_n(&mut rng, 1000);
/// let res = anderson_darling_exponential(&sample).unwrap();
/// assert!(!res.reject);
/// ```
pub fn anderson_darling_exponential(data: &[f64]) -> Result<AndersonDarlingResult> {
    let n = data.len();
    if n < 5 {
        return Err(StatsError::InsufficientData { needed: 5, got: n });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    if data.iter().any(|&x| x < 0.0) {
        return Err(StatsError::DegenerateInput {
            what: "exponential test requires non-negative data",
        });
    }
    let mean = data.iter().sum::<f64>() / n as f64;
    if mean <= 0.0 {
        return Err(StatsError::DegenerateInput {
            what: "zero-mean sample cannot be exponential",
        });
    }
    let rate = 1.0 / mean;

    let mut sorted = data.to_vec();
    // −0.0 sorts before +0.0 here, but both map to the same u below.
    sorted.sort_unstable_by(f64::total_cmp);

    // Transform to uniforms under the null, clamped away from {0, 1} so the
    // logs below stay finite (ties at zero occur with 1-second-granularity
    // timestamps spread deterministically).
    const EPS: f64 = 1e-12;
    let u: Vec<f64> = sorted
        .iter()
        .map(|&x| (1.0 - (-rate * x).exp()).clamp(EPS, 1.0 - EPS))
        .collect();

    let nf = n as f64;
    let mut sum = 0.0;
    for i in 0..n {
        let weight = (2 * i + 1) as f64;
        sum += weight * (u[i].ln() + (1.0 - u[n - 1 - i]).ln());
    }
    let a_squared = -nf - sum / nf;
    let modified = a_squared * (1.0 + 0.6 / nf);
    Ok(AndersonDarlingResult {
        a_squared,
        modified,
        critical: AD_EXPONENTIAL_CRITICAL_5PCT,
        reject: modified > AD_EXPONENTIAL_CRITICAL_5PCT,
        rate,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, LogNormal, Pareto, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accepts_true_exponential() {
        let mut rng = StdRng::seed_from_u64(100);
        let mut rejections = 0;
        let trials = 40;
        for _ in 0..trials {
            let sample = Exponential::new(3.0).unwrap().sample_n(&mut rng, 500);
            if anderson_darling_exponential(&sample).unwrap().reject {
                rejections += 1;
            }
        }
        // 5% test: expect ~2 rejections out of 40; allow generous slack.
        assert!(rejections <= 6, "{rejections}/{trials} rejections");
    }

    #[test]
    fn rejects_pareto() {
        let mut rng = StdRng::seed_from_u64(101);
        let sample = Pareto::new(1.5, 1.0).unwrap().sample_n(&mut rng, 1000);
        assert!(anderson_darling_exponential(&sample).unwrap().reject);
    }

    #[test]
    fn rejects_lognormal() {
        let mut rng = StdRng::seed_from_u64(102);
        let sample = LogNormal::new(0.0, 1.5).unwrap().sample_n(&mut rng, 1000);
        assert!(anderson_darling_exponential(&sample).unwrap().reject);
    }

    #[test]
    fn rejects_uniform() {
        // Uniform data is very much not exponential.
        let sample: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 / 1000.0).collect();
        assert!(anderson_darling_exponential(&sample).unwrap().reject);
    }

    #[test]
    fn scale_invariance() {
        // The test is scale-free: multiplying the sample by a constant must
        // not change the statistic (rate is re-estimated).
        let mut rng = StdRng::seed_from_u64(103);
        let sample = Exponential::new(1.0).unwrap().sample_n(&mut rng, 300);
        let scaled: Vec<f64> = sample.iter().map(|x| x * 1000.0).collect();
        let a = anderson_darling_exponential(&sample).unwrap();
        let b = anderson_darling_exponential(&scaled).unwrap();
        assert!((a.a_squared - b.a_squared).abs() < 1e-9);
    }

    #[test]
    fn input_validation() {
        assert!(anderson_darling_exponential(&[1.0, 2.0]).is_err());
        assert!(anderson_darling_exponential(&[1.0, -2.0, 3.0, 4.0, 5.0]).is_err());
        assert!(anderson_darling_exponential(&[1.0, f64::NAN, 3.0, 4.0, 5.0]).is_err());
        assert!(anderson_darling_exponential(&[0.0; 10]).is_err());
    }

    #[test]
    fn zeros_from_tied_timestamps_tolerated() {
        // Deterministic spreading can yield zero inter-arrivals at interval
        // boundaries; the clamp must keep the statistic finite.
        let mut sample = vec![0.0, 0.0, 0.0];
        sample.extend((1..200).map(|i| i as f64 * 0.01));
        let res = anderson_darling_exponential(&sample).unwrap();
        assert!(res.a_squared.is_finite());
    }

    #[test]
    fn signed_zeros_do_not_move_the_statistic() {
        // −0.0 and +0.0 sort apart under `total_cmp`, but both map to
        // the clamped u = 1e-12, so a sample holding both must score
        // exactly as the one with +0.0 throughout.
        let mut rng = StdRng::seed_from_u64(104);
        let mut mixed = Exponential::new(2.0).unwrap().sample_n(&mut rng, 200);
        for i in (0..200).step_by(7) {
            mixed[i] = if i % 2 == 0 { -0.0 } else { 0.0 };
        }
        let plus: Vec<f64> = mixed
            .iter()
            .map(|&x| if x == 0.0 { 0.0 } else { x })
            .collect();
        let got = anderson_darling_exponential(&mixed).unwrap();
        let want = anderson_darling_exponential(&plus).unwrap();
        assert_eq!(got.a_squared.to_bits(), want.a_squared.to_bits());
        assert_eq!(got.modified.to_bits(), want.modified.to_bits());
    }
}
