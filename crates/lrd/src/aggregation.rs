//! Hurst estimation across aggregation levels (Figures 7–8).
//!
//! Because long-range dependence is an *asymptotic* property, the paper
//! re-estimates H on the m-aggregated series `X^{(m)}` for increasing m: if
//! Ĥ(m) stays roughly constant (and its confidence band keeps excluding
//! 0.5), the measured self-similarity is genuine rather than an artifact of
//! short-range structure.

use crate::{abry_veitch, whittle, HurstEstimate, Result};
use serde::{Deserialize, Serialize};
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::{aggregate, aggregation_levels};

/// Which CI-producing estimator to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SweepEstimator {
    /// Whittle maximum likelihood.
    Whittle,
    /// Abry-Veitch wavelet regression.
    AbryVeitch,
}

/// One point of an Ĥ(m) sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregatedEstimate {
    /// Aggregation level m.
    pub m: usize,
    /// Points remaining in the aggregated series.
    pub len: usize,
    /// The estimate (with CI) at this level.
    pub estimate: HurstEstimate,
}

/// Estimate H on `X^{(m)}` for a geometric grid of aggregation levels,
/// keeping at least `min_points` points at the deepest level (the paper's
/// footnote 2: CIs widen as m grows because fewer observations remain).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when even `m = 1` cannot be
/// estimated.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::{aggregated_hurst_sweep, fgn::FgnGenerator, SweepEstimator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = FgnGenerator::new(0.8)?.seed(31).generate(32_768)?;
/// let sweep = aggregated_hurst_sweep(&x, SweepEstimator::Whittle, 512)?;
/// assert!(sweep.len() >= 4);
/// // Ĥ(m) should stay in the LRD band throughout.
/// assert!(sweep.iter().all(|p| p.estimate.h > 0.6 && p.estimate.h < 1.0));
/// # Ok(())
/// # }
/// ```
pub fn aggregated_hurst_sweep(
    data: &[f64],
    estimator: SweepEstimator,
    min_points: usize,
) -> Result<Vec<AggregatedEstimate>> {
    aggregated_hurst_sweep_reusing(data, estimator, min_points, None)
}

/// [`aggregated_hurst_sweep`], taking the `m = 1` point from `level_one`
/// when the caller has already run `estimator` on `data` itself. With
/// `None` the sweep estimates every level, `m = 1` included.
///
/// # Errors
///
/// As [`aggregated_hurst_sweep`].
pub fn aggregated_hurst_sweep_reusing(
    data: &[f64],
    estimator: SweepEstimator,
    min_points: usize,
    level_one: Option<HurstEstimate>,
) -> Result<Vec<AggregatedEstimate>> {
    let levels = aggregation_levels(data.len(), min_points.max(128));
    let mut out = Vec::new();
    for &m in &levels {
        let aggregated;
        let series = if m == 1 {
            data
        } else {
            aggregated = aggregate(data, m)?;
            &aggregated
        };
        let est = match (m, level_one) {
            (1, Some(estimate)) => Ok(estimate),
            _ => match estimator {
                SweepEstimator::Whittle => whittle(series),
                SweepEstimator::AbryVeitch => abry_veitch(series),
            },
        };
        if let Ok(estimate) = est {
            out.push(AggregatedEstimate {
                m,
                len: series.len(),
                estimate,
            });
        }
    }
    if out.is_empty() {
        return Err(StatsError::InsufficientData {
            needed: 128,
            got: data.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnGenerator;

    #[test]
    fn sweep_stable_for_fgn() {
        let h = 0.8;
        let x = FgnGenerator::new(h)
            .unwrap()
            .seed(300)
            .generate(65_536)
            .unwrap();
        let sweep = aggregated_hurst_sweep(&x, SweepEstimator::Whittle, 512).unwrap();
        assert!(sweep.len() >= 5, "{} levels", sweep.len());
        for p in &sweep {
            assert!(
                (p.estimate.h - h).abs() < 0.15,
                "m = {}: H = {}",
                p.m,
                p.estimate.h
            );
        }
        // m grid is increasing and lengths decreasing.
        for w in sweep.windows(2) {
            assert!(w[0].m < w[1].m);
            assert!(w[0].len >= w[1].len);
        }
    }

    #[test]
    fn ci_widens_with_aggregation() {
        // Footnote 2 of the paper: fewer points at larger m → wider CIs.
        let x = FgnGenerator::new(0.75)
            .unwrap()
            .seed(301)
            .generate(65_536)
            .unwrap();
        let sweep = aggregated_hurst_sweep(&x, SweepEstimator::Whittle, 256).unwrap();
        let width = |p: &AggregatedEstimate| {
            let (lo, hi) = p.estimate.ci95.unwrap();
            hi - lo
        };
        assert!(width(sweep.last().unwrap()) > width(&sweep[0]));
    }

    #[test]
    fn abry_veitch_sweep_runs() {
        let x = FgnGenerator::new(0.7)
            .unwrap()
            .seed(302)
            .generate(32_768)
            .unwrap();
        let sweep = aggregated_hurst_sweep(&x, SweepEstimator::AbryVeitch, 512).unwrap();
        assert!(!sweep.is_empty());
        for p in &sweep {
            assert!(
                (p.estimate.h - 0.7).abs() < 0.2,
                "m={}: {}",
                p.m,
                p.estimate.h
            );
        }
    }

    #[test]
    fn tiny_series_rejected() {
        assert!(aggregated_hurst_sweep(&[1.0; 50], SweepEstimator::Whittle, 128).is_err());
    }

    #[test]
    fn reusing_without_level_one_equals_the_plain_sweep() {
        let x = FgnGenerator::new(0.75)
            .unwrap()
            .seed(303)
            .generate(10_080)
            .unwrap();
        for est in [SweepEstimator::Whittle, SweepEstimator::AbryVeitch] {
            assert_eq!(
                aggregated_hurst_sweep_reusing(&x, est, 512, None).unwrap(),
                aggregated_hurst_sweep(&x, est, 512).unwrap()
            );
        }
    }
}
