//! Sample autocorrelation function.

use crate::Result;
use webpuzzle_stats::StatsError;

/// Sample autocorrelation function for lags `0..=max_lag`.
///
/// Uses the standard biased estimator
/// `r(k) = Σ_{t}(x_t−x̄)(x_{t+k}−x̄) / Σ_t (x_t−x̄)²`,
/// which is positive semi-definite and is what slowly-decaying-ACF plots
/// (the paper's Figures 3 and 5) display.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when `max_lag >= data.len()`,
/// [`StatsError::NonFiniteData`] for non-finite input, and
/// [`StatsError::DegenerateInput`] for a constant series.
///
/// # Examples
///
/// ```
/// let x = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
/// let r = webpuzzle_timeseries::acf(&x, 2).unwrap();
/// assert!((r[0] - 1.0).abs() < 1e-12);
/// assert!(r[1] < 0.0); // alternating series
/// ```
pub fn acf(data: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    let (centered, denom) = centered_and_energy(data, max_lag)?;
    Ok((0..=max_lag)
        .map(|k| lag_product(&centered, k) / denom)
        .collect())
}

/// The sample autocorrelation at the given `lags` only, in their order
/// (repeats allowed).
///
/// Each value is bit-identical to the same lag of [`acf`], at
/// `O(n · lags.len())` instead of `O(n · max_lag)`: the analysis battery
/// reports a handful of powers of two out of hundreds of lags.
///
/// # Errors
///
/// Exactly those of [`acf`] with `max_lag` the largest of `lags` (0 for
/// none).
///
/// # Examples
///
/// ```
/// let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
/// let all = webpuzzle_timeseries::acf(&x, 4).unwrap();
/// let some = webpuzzle_timeseries::acf_at(&x, &[4, 1]).unwrap();
/// assert_eq!(some, [all[4], all[1]]);
/// ```
pub fn acf_at(data: &[f64], lags: &[usize]) -> Result<Vec<f64>> {
    let max_lag = lags.iter().copied().max().unwrap_or(0);
    let (centered, denom) = centered_and_energy(data, max_lag)?;
    Ok(lags
        .iter()
        .map(|&k| lag_product(&centered, k) / denom)
        .collect())
}

/// The checks [`acf`] makes for `max_lag`, then the demeaned series and
/// its energy `Σ_t (x_t−x̄)²`.
fn centered_and_energy(data: &[f64], max_lag: usize) -> Result<(Vec<f64>, f64)> {
    let n = data.len();
    if n <= max_lag || n < 2 {
        return Err(StatsError::InsufficientData {
            needed: max_lag + 1,
            got: n,
        });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    let mean = data.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = data.iter().map(|x| x - mean).collect();
    let denom: f64 = centered.iter().map(|c| c * c).sum();
    if denom <= 0.0 {
        return Err(StatsError::DegenerateInput {
            what: "constant series has undefined autocorrelation",
        });
    }
    Ok((centered, denom))
}

/// `Σ_t c_t c_{t+k}` over the demeaned series.
fn lag_product(centered: &[f64], k: usize) -> f64 {
    let n = centered.len();
    (0..n - k).map(|t| centered[t] * centered[t + k]).sum()
}

/// A crude non-summability diagnostic: the partial sums of `|r(k)|` over a
/// lag grid, as used informally when eyeballing "the ACF still seems
/// non-summable" (paper §4.1). Returns `(lags, partial_sums)` where
/// `partial_sums[i] = Σ_{k=1..=lags[i]} |r(k)|`.
///
/// A summable (short-range dependent) ACF shows partial sums that flatten;
/// an LRD series shows partial sums still climbing at the largest lags.
///
/// # Errors
///
/// Same conditions as [`acf`].
pub fn acf_summability_diagnostic(data: &[f64], max_lag: usize) -> Result<(Vec<usize>, Vec<f64>)> {
    let r = acf(data, max_lag)?;
    let mut lags = Vec::new();
    let mut sums = Vec::new();
    let mut acc = 0.0;
    for (k, rk) in r.iter().enumerate().skip(1) {
        acc += rk.abs();
        if k.is_power_of_two() || k == max_lag {
            lags.push(k);
            sums.push(acc);
        }
    }
    Ok((lags, sums))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn lag_zero_is_one() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let r = acf(&x, 3).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn white_noise_acf_near_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<f64> = (0..20_000).map(|_| rng.random::<f64>() - 0.5).collect();
        let r = acf(&x, 50).unwrap();
        let band = 3.0 / (x.len() as f64).sqrt();
        let violations = r[1..].iter().filter(|v| v.abs() > band).count();
        assert!(violations <= 2, "{violations} lags outside the 3σ band");
    }

    #[test]
    fn ar1_acf_decays_geometrically() {
        // AR(1) with φ = 0.8: r(k) ≈ 0.8^k.
        let mut rng = StdRng::seed_from_u64(2);
        let mut x = vec![0.0f64; 100_000];
        for t in 1..x.len() {
            x[t] = 0.8 * x[t - 1] + rng.random::<f64>() - 0.5;
        }
        let r = acf(&x, 5).unwrap();
        for (k, rk) in r.iter().enumerate().skip(1) {
            assert!(
                (rk - 0.8f64.powi(k as i32)).abs() < 0.03,
                "lag {k}: {rk} vs {}",
                0.8f64.powi(k as i32)
            );
        }
    }

    #[test]
    fn acf_bounded_by_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let x: Vec<f64> = (0..1000).map(|_| rng.random::<f64>()).collect();
        for v in acf(&x, 100).unwrap() {
            assert!(v.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn errors() {
        assert!(acf(&[1.0, 2.0], 5).is_err());
        assert!(acf(&[2.0; 10], 3).is_err());
        assert!(acf(&[1.0, f64::NAN, 2.0], 1).is_err());
    }

    proptest::proptest! {
        #[test]
        fn acf_at_is_acf_at_those_lags(
            data in proptest::collection::vec(-50.0f64..50.0, 0..120),
            lags in proptest::collection::vec(0usize..130, 0..8),
        ) {
            let max_lag = lags.iter().copied().max().unwrap_or(0);
            match (acf_at(&data, &lags), acf(&data, max_lag)) {
                (Ok(some), Ok(all)) => {
                    let want: Vec<u64> = lags.iter().map(|&k| all[k].to_bits()).collect();
                    let got: Vec<u64> = some.iter().map(|v| v.to_bits()).collect();
                    proptest::prop_assert_eq!(got, want);
                }
                (some, all) => proptest::prop_assert_eq!(some.unwrap_err(), all.unwrap_err()),
            }
        }
    }

    #[test]
    fn acf_at_errors_are_acfs() {
        for (data, lags) in [
            (vec![2.0; 10], vec![3, 1]),
            (vec![1.0, f64::NAN, 2.0], vec![1]),
            (vec![1.0, 2.0], vec![5]),
            (vec![1.0], vec![]),
        ] {
            let max_lag = lags.iter().copied().max().unwrap_or(0);
            assert_eq!(acf_at(&data, &lags), Err(acf(&data, max_lag).unwrap_err()));
        }
        assert_eq!(acf_at(&[1.0, 3.0, 2.0], &[]), Ok(vec![]));
    }

    #[test]
    fn summability_partial_sums_monotone() {
        let mut rng = StdRng::seed_from_u64(4);
        let x: Vec<f64> = (0..5000).map(|_| rng.random::<f64>()).collect();
        let (lags, sums) = acf_summability_diagnostic(&x, 512).unwrap();
        assert!(!lags.is_empty());
        for w in sums.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert_eq!(*lags.last().unwrap(), 512);
    }
}
