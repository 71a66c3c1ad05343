//! Descriptive statistics: moments, quantiles, and summary reports.

use crate::{Result, StatsError};

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty sample and
/// [`StatsError::NonFiniteData`] if any value is NaN or infinite.
///
/// # Examples
///
/// ```
/// let m = webpuzzle_stats::descriptive::mean(&[1.0, 2.0, 3.0]).unwrap();
/// assert!((m - 2.0).abs() < 1e-12);
/// ```
pub fn mean(data: &[f64]) -> Result<f64> {
    check_sample(data, 1)?;
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Unbiased (n−1 denominator) sample variance.
///
/// Uses a two-pass algorithm for numerical stability.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for samples with fewer than two
/// observations, [`StatsError::NonFiniteData`] for non-finite input.
pub fn variance(data: &[f64]) -> Result<f64> {
    check_sample(data, 2)?;
    let m = data.iter().sum::<f64>() / data.len() as f64;
    let ss: f64 = data.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (data.len() - 1) as f64)
}

/// Sample standard deviation (square root of the unbiased variance).
///
/// # Errors
///
/// Same conditions as [`variance`].
pub fn std_dev(data: &[f64]) -> Result<f64> {
    Ok(variance(data)?.sqrt())
}

/// Population (n denominator) variance, used where the series itself is the
/// population of interest (e.g. variance-time plots).
///
/// # Errors
///
/// Same conditions as [`mean`].
pub fn population_variance(data: &[f64]) -> Result<f64> {
    check_sample(data, 1)?;
    let m = data.iter().sum::<f64>() / data.len() as f64;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Empirical quantile using linear interpolation between order statistics
/// (type-7, the R default). `q` must lie in `[0, 1]`.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty sample,
/// [`StatsError::InvalidParameter`] for `q` outside `[0, 1]`, and
/// [`StatsError::NonFiniteData`] for non-finite input.
///
/// # Examples
///
/// ```
/// let med = webpuzzle_stats::descriptive::quantile(&[3.0, 1.0, 2.0], 0.5).unwrap();
/// assert!((med - 2.0).abs() < 1e-12);
/// ```
pub fn quantile(data: &[f64], q: f64) -> Result<f64> {
    check_sample(data, 1)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            name: "q",
            value: q,
            constraint: "must be in [0, 1]",
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile of an already ascending-sorted sample (type-7 interpolation).
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(
        !sorted.is_empty(),
        "quantile_sorted requires a non-empty slice"
    );
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median of a sample.
///
/// # Errors
///
/// Same conditions as [`quantile`].
pub fn median(data: &[f64]) -> Result<f64> {
    quantile(data, 0.5)
}

/// Lag-`k` sample autocorrelation of a series.
///
/// Uses the biased (divide-by-n, overall-mean) estimator that is standard in
/// time-series analysis; it guarantees the estimated autocorrelation sequence
/// is positive semi-definite.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when `lag >= data.len()`, and
/// [`StatsError::DegenerateInput`] when the series has zero variance.
///
/// # Examples
///
/// ```
/// // A strongly alternating series has negative lag-1 autocorrelation.
/// let x: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let r = webpuzzle_stats::descriptive::autocorrelation(&x, 1).unwrap();
/// assert!(r < -0.9);
/// ```
pub fn autocorrelation(data: &[f64], lag: usize) -> Result<f64> {
    if data.len() <= lag {
        return Err(StatsError::InsufficientData {
            needed: lag + 1,
            got: data.len(),
        });
    }
    let (m, denom) = autocorrelation_base(data)?;
    Ok(autocovariance_sum(data, m, lag) / denom)
}

/// The lag-independent part of [`autocorrelation`]: the mean and the
/// sum of squared deviations, after the same checks.
pub(crate) fn autocorrelation_base(data: &[f64]) -> Result<(f64, f64)> {
    check_sample(data, 2)?;
    let m = data.iter().sum::<f64>() / data.len() as f64;
    let denom: f64 = data.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= 0.0 {
        return Err(StatsError::DegenerateInput {
            what: "zero-variance series has undefined autocorrelation",
        });
    }
    Ok((m, denom))
}

/// `Σ_t (x_t − m)(x_{t+lag} − m)`, the numerator of [`autocorrelation`];
/// `lag < data.len()`.
pub(crate) fn autocovariance_sum(data: &[f64], m: f64, lag: usize) -> f64 {
    (0..data.len() - lag)
        .map(|t| (data[t] - m) * (data[t + lag] - m))
        .sum()
}

/// A compact numeric summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Lower quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q75: f64,
    /// Maximum value.
    pub max: f64,
}

impl Summary {
    /// Compute the summary of a sample.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] for samples with fewer than
    /// two observations and [`StatsError::NonFiniteData`] for non-finite input.
    ///
    /// # Examples
    ///
    /// ```
    /// use webpuzzle_stats::descriptive::Summary;
    /// let s = Summary::from_sample(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(s.n, 4);
    /// assert!((s.median - 2.5).abs() < 1e-12);
    /// ```
    pub fn from_sample(data: &[f64]) -> Result<Self> {
        check_sample(data, 2)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Ok(Summary {
            n: data.len(),
            mean: mean(data)?,
            std_dev: std_dev(data)?,
            min: sorted[0],
            q25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q75: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }
}

pub(crate) fn check_sample(data: &[f64], needed: usize) -> Result<()> {
    if data.len() < needed {
        return Err(StatsError::InsufficientData {
            needed,
            got: data.len(),
        });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data).unwrap() - 5.0).abs() < 1e-12);
        // population variance = 4, sample variance = 32/7
        assert!((population_variance(&data).unwrap() - 4.0).abs() < 1e-12);
        assert!((variance(&data).unwrap() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_errors() {
        assert!(matches!(
            mean(&[]),
            Err(StatsError::InsufficientData { .. })
        ));
        assert!(matches!(
            variance(&[1.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn nan_rejected() {
        assert_eq!(mean(&[1.0, f64::NAN]), Err(StatsError::NonFiniteData));
        assert_eq!(
            quantile(&[1.0, f64::INFINITY], 0.5),
            Err(StatsError::NonFiniteData)
        );
    }

    #[test]
    fn quantile_interpolation() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&data, 0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((quantile(&data, 1.0).unwrap() - 4.0).abs() < 1e-12);
        assert!((quantile(&data, 0.5).unwrap() - 2.5).abs() < 1e-12);
        // type-7: h = 0.25 * 3 = 0.75 → 1 + 0.75*(2-1) = 1.75
        assert!((quantile(&data, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::InvalidParameter { name: "q", .. })
        ));
    }

    #[test]
    fn autocorrelation_constant_series_degenerate() {
        let x = [3.0; 50];
        assert!(matches!(
            autocorrelation(&x, 1),
            Err(StatsError::DegenerateInput { .. })
        ));
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        assert!((autocorrelation(&x, 0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_positive_for_trend() {
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        assert!(autocorrelation(&x, 1).unwrap() > 0.9);
    }

    #[test]
    fn summary_fields_consistent() {
        let s = Summary::from_sample(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.min - 1.0).abs() < 1e-12);
        assert!((s.max - 5.0).abs() < 1e-12);
        assert!(s.q25 <= s.median && s.median <= s.q75);
    }
}
