//! Run all five Hurst estimators on one series (the Figure 4/6/9/10 rows).

use crate::periodogram_est::spectral_periodogram;
use crate::{
    abry_veitch, periodogram_hurst_from_periodogram, rescaled_range, variance_time,
    whittle_from_periodogram, HurstEstimate, Result,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use webpuzzle_timeseries::Periodogram;

/// Results of the full estimator battery on one series.
///
/// Estimators that fail on a particular series (e.g. too short after
/// aggregation) are recorded as `None` rather than failing the whole suite —
/// mirroring how the paper reports NS/NA cells.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{fgn::FgnGenerator, HurstSuite};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = FgnGenerator::new(0.8)?.seed(23).generate(8192)?;
/// let suite = HurstSuite::estimate(&x)?;
/// assert!(suite.consensus_lrd(), "all estimators should agree on LRD");
/// let mean_h = suite.mean_h().unwrap();
/// assert!((mean_h - 0.8).abs() < 0.15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HurstSuite {
    /// Variance-time estimate, if computable.
    pub variance_time: Option<HurstEstimate>,
    /// R/S estimate, if computable.
    pub rescaled_range: Option<HurstEstimate>,
    /// Periodogram estimate, if computable.
    pub periodogram: Option<HurstEstimate>,
    /// Whittle estimate (with CI), if computable.
    pub whittle: Option<HurstEstimate>,
    /// Abry-Veitch estimate (with CI), if computable.
    pub abry_veitch: Option<HurstEstimate>,
}

impl HurstSuite {
    /// Run every estimator on `data`. Individual estimator failures become
    /// `None`; the call only errors when *no* estimator could run. The
    /// periodogram and Whittle estimators share one periodogram.
    ///
    /// # Errors
    ///
    /// Returns the last estimator error when all five fail.
    pub fn estimate(data: &[f64]) -> Result<Self> {
        let mut last_err = None;
        let mut run = |r: Result<HurstEstimate>| match r {
            Ok(e) => Some(e),
            Err(e) => {
                webpuzzle_obs::metrics::counter("lrd/estimator_failures").incr();
                last_err = Some(e);
                None
            }
        };
        let timed = |name: &'static str, r: &dyn Fn() -> Result<HurstEstimate>| {
            let _span = webpuzzle_obs::spans::enter(name);
            r()
        };
        let spectrum = &{
            let _span = webpuzzle_obs::span!("hurst/spectrum");
            spectral_periodogram(data)
        };
        let spectral = |fit: fn(&Periodogram) -> Result<HurstEstimate>| {
            move || spectrum.as_ref().map_err(Clone::clone).and_then(fit)
        };
        let suite = HurstSuite {
            variance_time: run(timed("hurst/variance_time", &|| variance_time(data))),
            rescaled_range: run(timed("hurst/rs", &|| rescaled_range(data))),
            periodogram: run(timed(
                "hurst/periodogram",
                &spectral(periodogram_hurst_from_periodogram),
            )),
            whittle: run(timed("hurst/whittle", &spectral(whittle_from_periodogram))),
            abry_veitch: run(timed("hurst/abry_veitch", &|| abry_veitch(data))),
        };
        if suite.iter().next().is_none() {
            Err(last_err.expect("all estimators failed so an error exists"))
        } else {
            Ok(suite)
        }
    }

    /// Iterate over the estimates that succeeded.
    pub fn iter(&self) -> impl Iterator<Item = &HurstEstimate> {
        [
            self.variance_time.as_ref(),
            self.rescaled_range.as_ref(),
            self.periodogram.as_ref(),
            self.whittle.as_ref(),
            self.abry_veitch.as_ref(),
        ]
        .into_iter()
        .flatten()
    }

    /// Mean of the available point estimates, or `None` if none succeeded.
    pub fn mean_h(&self) -> Option<f64> {
        let hs: Vec<f64> = self.iter().map(|e| e.h).collect();
        if hs.is_empty() {
            None
        } else {
            Some(hs.iter().sum::<f64>() / hs.len() as f64)
        }
    }

    /// The paper's LRD criterion applied across estimators: true when every
    /// available estimate lies in `(0.5, 1)` — "long-range dependence may
    /// exist, even if the estimators differ in value, provided the estimates
    /// show 0.5 < H < 1" (§3.1).
    pub fn consensus_lrd(&self) -> bool {
        let mut any = false;
        for e in self.iter() {
            if !e.indicates_lrd() {
                return false;
            }
            any = true;
        }
        any
    }

    /// Largest absolute pairwise disagreement between point estimates —
    /// a diagnostic for the estimator inconsistency highlighted in reference
    /// \[13\] (Karagiannis et al., "Now you see it, now you don't").
    pub fn max_disagreement(&self) -> Option<f64> {
        let hs: Vec<f64> = self.iter().map(|e| e.h).collect();
        if hs.len() < 2 {
            return None;
        }
        let max = hs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = hs.iter().cloned().fold(f64::INFINITY, f64::min);
        Some(max - min)
    }
}

impl fmt::Display for HurstSuite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for e in self.iter() {
            if !first {
                writeln!(f)?;
            }
            write!(f, "{e}")?;
            first = false;
        }
        if first {
            write!(f, "(no estimates)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnGenerator;

    #[test]
    fn all_five_run_on_long_fgn() {
        let x = FgnGenerator::new(0.8)
            .unwrap()
            .seed(200)
            .generate(16_384)
            .unwrap();
        let s = HurstSuite::estimate(&x).unwrap();
        assert_eq!(s.iter().count(), 5);
        assert!(s.consensus_lrd());
    }

    #[test]
    fn white_noise_not_lrd() {
        let x = FgnGenerator::new(0.5)
            .unwrap()
            .seed(201)
            .generate(16_384)
            .unwrap();
        let s = HurstSuite::estimate(&x).unwrap();
        // At least one estimator should land at or below 0.5 + noise;
        // consensus LRD must fail for white noise.
        assert!(!s.consensus_lrd(), "suite: {s}");
    }

    #[test]
    fn estimators_consistent_on_fgn() {
        // Paper observation (4): estimators are consistent on clean data.
        let x = FgnGenerator::new(0.75)
            .unwrap()
            .seed(202)
            .generate(32_768)
            .unwrap();
        let s = HurstSuite::estimate(&x).unwrap();
        assert!(
            s.max_disagreement().unwrap() < 0.25,
            "disagreement {:?}",
            s.max_disagreement()
        );
    }

    #[test]
    fn partial_failure_tolerated() {
        // 200 points: variance-time and R/S need 256 and fail, periodogram
        // (needs 128) still runs.
        let x = FgnGenerator::new(0.7)
            .unwrap()
            .seed(203)
            .generate(200)
            .unwrap();
        let s = HurstSuite::estimate(&x).unwrap();
        assert!(s.variance_time.is_none());
        assert!(s.rescaled_range.is_none());
        assert!(s.periodogram.is_some());
    }

    #[test]
    fn total_failure_errors() {
        assert!(HurstSuite::estimate(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn display_lists_estimators() {
        let x = FgnGenerator::new(0.7)
            .unwrap()
            .seed(204)
            .generate(8192)
            .unwrap();
        let s = HurstSuite::estimate(&x).unwrap().to_string();
        for name in ["Variance", "R/S", "Periodogram", "Whittle", "Abry-Veitch"] {
            assert!(s.contains(name), "missing {name} in {s}");
        }
    }
}
