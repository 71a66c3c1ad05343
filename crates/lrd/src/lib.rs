//! Long-range dependence (LRD) toolkit for the `webpuzzle` suite.
//!
//! Implements the five Hurst-exponent estimators the paper applies to
//! request- and session-arrival series (via the SELFIS tool in the original):
//!
//! * time domain — [`variance_time`] (also over sorted event bin indices,
//!   [`variance_time_events`]) and [`rescaled_range`] (R/S);
//! * frequency domain — [`periodogram_hurst`] and [`whittle`] (with
//!   asymptotic 95 % confidence intervals);
//! * wavelet domain — [`abry_veitch`] (with confidence intervals from the
//!   weighted log-scale regression).
//!
//! [`HurstSuite::estimate`] runs all five at once (Figures 4, 6, 9, 10), and
//! [`aggregated_hurst_sweep`] reproduces the Ĥ(m)-vs-aggregation-level
//! analysis of Figures 7–8.
//!
//! The [`fgn`] module synthesizes exact fractional Gaussian noise via
//! Davies-Harte circulant embedding — the ground-truth generator used both
//! to validate every estimator and to drive the long-range-dependent arrival
//! processes in `webpuzzle-workload`.
//!
//! # Examples
//!
//! ```
//! use webpuzzle_lrd::{fgn::FgnGenerator, whittle};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let noise = FgnGenerator::new(0.8)?.seed(42).generate(4096)?;
//! let est = whittle(&noise)?;
//! assert!((est.h - 0.8).abs() < 0.08, "estimated H = {}", est.h);
//! # Ok(())
//! # }
//! ```

mod abry_veitch;
mod aggregation;
pub mod arfima;
mod estimate;
mod extra_estimators;
pub mod fgn;
mod periodogram_est;
mod rs;
mod suite;
mod variance_time;
pub mod wavelet;
mod whittle;

pub use abry_veitch::{abry_veitch, abry_veitch_with_scales};
pub use aggregation::{
    aggregated_hurst_sweep, aggregated_hurst_sweep_reusing, AggregatedEstimate, SweepEstimator,
};
pub use estimate::{EstimatorKind, HurstEstimate};
pub use extra_estimators::{absolute_moments, variance_of_residuals};
pub use periodogram_est::periodogram_hurst;
pub use rs::rescaled_range;
pub use suite::HurstSuite;
pub use variance_time::{
    variance_time, variance_time_detailed, variance_time_events, VarianceTimeFit, VT_CI_INFLATION,
};
pub use whittle::{fgn_spectral_density, whittle};

pub use webpuzzle_stats::StatsError;

/// Crate-wide result alias (errors are [`StatsError`]).
pub type Result<T> = std::result::Result<T, StatsError>;
