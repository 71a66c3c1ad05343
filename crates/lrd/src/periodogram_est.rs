//! Periodogram (log-log regression) estimator of the Hurst exponent.

use crate::estimate::{EstimatorKind, HurstEstimate};
use crate::Result;
use webpuzzle_stats::regression::ols;
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::{periodogram, Periodogram};

/// Periodogram estimator: near the origin the spectral density of an LRD
/// process behaves as `f(λ) ∝ λ^{1−2H}`, so an OLS fit of `log I(λ_k)` on
/// `log λ_k` over the lowest frequencies has slope `1 − 2H`, giving
/// `H = (1 − slope)/2`.
///
/// Uses the lowest 10 % of Fourier frequencies, the conventional cutoff
/// (Taqqu & Teverovsky).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for series shorter than 128
/// points, and propagates periodogram/regression failures.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{fgn::FgnGenerator, periodogram_hurst};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = FgnGenerator::new(0.7)?.seed(5).generate(8192)?;
/// let est = periodogram_hurst(&x)?;
/// assert!((est.h - 0.7).abs() < 0.15, "H = {}", est.h);
/// # Ok(())
/// # }
/// ```
pub fn periodogram_hurst(data: &[f64]) -> Result<HurstEstimate> {
    periodogram_hurst_from_periodogram(&spectral_periodogram(data)?)
}

/// [`periodogram_hurst`] on a periodogram already computed, so that one
/// periodogram can serve it and [`crate::whittle_from_periodogram`].
///
/// # Errors
///
/// Those of [`periodogram_hurst`] for a series of
/// [`Periodogram::series_len`] points.
pub fn periodogram_hurst_from_periodogram(p: &Periodogram) -> Result<HurstEstimate> {
    check_spectral_len(p.series_len())?;
    let n_low = (p.power().len() / 10).max(8).min(p.power().len());
    let mut log_f = Vec::with_capacity(n_low);
    let mut log_i = Vec::with_capacity(n_low);
    for k in 0..n_low {
        let power = p.power()[k];
        if power > 0.0 {
            log_f.push(p.freqs()[k].ln());
            log_i.push(power.ln());
        }
    }
    if log_f.len() < 4 {
        return Err(StatsError::DegenerateInput {
            what: "too few positive periodogram ordinates in the low band",
        });
    }
    let fit = ols(&log_f, &log_i)?;
    Ok(HurstEstimate::new(
        EstimatorKind::Periodogram,
        (1.0 - fit.slope) / 2.0,
    ))
}

/// The periodogram the spectral estimators fit, after the length check
/// they share (it fires before any error of the periodogram itself).
pub(crate) fn spectral_periodogram(data: &[f64]) -> Result<Periodogram> {
    check_spectral_len(data.len())?;
    periodogram(data)
}

/// The spectral estimators need at least 128 points.
pub(crate) fn check_spectral_len(n: usize) -> Result<()> {
    if n < 128 {
        return Err(StatsError::InsufficientData {
            needed: 128,
            got: n,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnGenerator;

    #[test]
    fn recovers_h_for_fgn() {
        for &h in &[0.6, 0.75, 0.9] {
            let x = FgnGenerator::new(h)
                .unwrap()
                .seed(99)
                .generate(65_536)
                .unwrap();
            let est = periodogram_hurst(&x).unwrap();
            assert!((est.h - h).abs() < 0.1, "true H = {h}, estimated {}", est.h);
        }
    }

    #[test]
    fn white_noise_near_half() {
        let x = FgnGenerator::new(0.5)
            .unwrap()
            .seed(100)
            .generate(65_536)
            .unwrap();
        let est = periodogram_hurst(&x).unwrap();
        assert!((est.h - 0.5).abs() < 0.1, "H = {}", est.h);
    }

    #[test]
    fn short_series_rejected() {
        assert!(periodogram_hurst(&[0.0; 64]).is_err());
    }

    #[test]
    fn kind_is_periodogram() {
        let x = FgnGenerator::new(0.7)
            .unwrap()
            .seed(101)
            .generate(1024)
            .unwrap();
        assert_eq!(
            periodogram_hurst(&x).unwrap().kind,
            EstimatorKind::Periodogram
        );
    }
}
