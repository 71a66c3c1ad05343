//! Ljung–Box portmanteau test for autocorrelation.
//!
//! An extension beyond the paper's §4.2 lag-1 test: instead of examining
//! only the first autocorrelation of the inter-arrival sequence, the
//! Ljung-Box statistic pools the first `h` lags,
//! `Q = n(n+2) Σ_{k=1..h} r_k²/(n−k)`, which is asymptotically χ²(h) under
//! independence. Useful as a more powerful cross-check on the §4.2
//! independence verdicts.

use crate::descriptive::{autocorrelation_base, autocovariance_sum};
use crate::special::chi_squared_cdf;
use crate::{Result, StatsError};

/// Outcome of a Ljung-Box test.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LjungBoxResult {
    /// The Q statistic.
    pub statistic: f64,
    /// Lags pooled.
    pub lags: usize,
    /// Asymptotic p-value from χ²(lags).
    pub p_value: f64,
    /// Whether independence is rejected at 5 %.
    pub reject: bool,
}

/// Run the Ljung-Box test over the first `lags` autocorrelations.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when `data.len() <= lags + 1`,
/// [`StatsError::InvalidParameter`] for `lags == 0`, and propagates
/// autocorrelation failures (constant series, non-finite values).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_stats::dist::{Exponential, Sampler};
/// use webpuzzle_stats::htest::ljung_box;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let iid = Exponential::new(1.0).unwrap().sample_n(&mut rng, 2000);
/// let res = ljung_box(&iid, 10).unwrap();
/// assert!(!res.reject, "iid data rejected: p = {}", res.p_value);
/// ```
pub fn ljung_box(data: &[f64], lags: usize) -> Result<LjungBoxResult> {
    if lags == 0 {
        return Err(StatsError::InvalidParameter {
            name: "lags",
            value: 0.0,
            constraint: "must be >= 1",
        });
    }
    let n = data.len();
    if n <= lags + 1 {
        return Err(StatsError::InsufficientData {
            needed: lags + 2,
            got: n,
        });
    }
    let nf = n as f64;
    let (m, denom) = autocorrelation_base(data)?;
    let mut q = 0.0;
    for k in 1..=lags {
        let r = autocovariance_sum(data, m, k) / denom;
        q += r * r / (nf - k as f64);
    }
    q *= nf * (nf + 2.0);
    let p_value = 1.0 - chi_squared_cdf(q, lags as f64);
    Ok(LjungBoxResult {
        statistic: q,
        lags,
        p_value,
        reject: p_value < 0.05,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn iid_rarely_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let exp = Exponential::new(2.0).unwrap();
        let mut rejections = 0;
        for _ in 0..30 {
            let x = exp.sample_n(&mut rng, 1000);
            if ljung_box(&x, 10).unwrap().reject {
                rejections += 1;
            }
        }
        assert!(rejections <= 5, "{rejections}/30 rejections on iid data");
    }

    #[test]
    fn ar1_strongly_rejected() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(2);
        let mut x = vec![0.0f64; 2000];
        for t in 1..x.len() {
            x[t] = 0.5 * x[t - 1] + rng.random::<f64>() - 0.5;
        }
        let res = ljung_box(&x, 10).unwrap();
        assert!(res.reject);
        assert!(res.p_value < 1e-6);
    }

    #[test]
    fn statistic_grows_with_dependence() {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(3);
        let noise: Vec<f64> = (0..3000).map(|_| rng.random::<f64>() - 0.5).collect();
        let mut weak = vec![0.0f64; 3000];
        let mut strong = vec![0.0f64; 3000];
        for t in 1..3000 {
            weak[t] = 0.2 * weak[t - 1] + noise[t];
            strong[t] = 0.8 * strong[t - 1] + noise[t];
        }
        let qw = ljung_box(&weak, 5).unwrap().statistic;
        let qs = ljung_box(&strong, 5).unwrap().statistic;
        assert!(qs > qw);
    }

    #[test]
    fn statistic_equals_the_per_lag_autocorrelation_sum() {
        use crate::descriptive::autocorrelation;
        let mut rng = StdRng::seed_from_u64(5);
        let exp = Exponential::new(0.7).unwrap();
        for (n, lags) in [(12, 10), (200, 10), (1_000, 3), (5_000, 10)] {
            let x = exp.sample_n(&mut rng, n);
            let nf = n as f64;
            let mut q = 0.0;
            for k in 1..=lags {
                let r = autocorrelation(&x, k).unwrap();
                q += r * r / (nf - k as f64);
            }
            q *= nf * (nf + 2.0);
            assert_eq!(
                ljung_box(&x, lags).unwrap().statistic.to_bits(),
                q.to_bits()
            );
        }
        let mut bad = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        bad[2] = f64::INFINITY;
        assert_eq!(ljung_box(&bad, 2), Err(StatsError::NonFiniteData));
    }

    #[test]
    fn validation() {
        assert!(ljung_box(&[1.0, 2.0, 3.0], 0).is_err());
        assert!(ljung_box(&[1.0, 2.0, 3.0], 5).is_err());
        assert!(ljung_box(&[2.0; 100], 3).is_err()); // constant
    }
}
