//! Time-series machinery for the `webpuzzle` workload-characterization suite.
//!
//! The paper's analysis pipeline treats a Web log as a counting process:
//! events (requests or session starts) are binned into counts per unit time
//! ([`CountSeries`]), tested for stationarity, decomposed into trend +
//! seasonal + stationary remainder ([`decompose`]), aggregated at increasing
//! block sizes ([`aggregate`]), and examined through the autocorrelation
//! function ([`acf`]) and periodogram ([`periodogram`]).
//!
//! The [`fft`] module provides the FFT everything is built on: a
//! mixed-radix (2, 3, 4, 5, 7) transform with Bluestein for lengths that
//! have a larger prime factor, behind periodograms and seasonality
//! detection, and the previous radix-2 + Bluestein transform as
//! [`fft::fft_reference`], which the Davies-Harte fractional Gaussian
//! noise synthesizer in `webpuzzle-lrd` keeps so that its samples keep
//! their bits.
//!
//! # Examples
//!
//! Bin event times and compute the lag-1 autocorrelation:
//!
//! ```
//! use webpuzzle_timeseries::{acf, CountSeries};
//!
//! let events = [0.1, 0.4, 1.2, 1.9, 2.5, 5.5];
//! let series = CountSeries::from_event_times(&events, 1.0).unwrap();
//! assert_eq!(series.counts(), &[2.0, 2.0, 1.0, 0.0, 0.0, 1.0]);
//! let r = acf(series.counts(), 2).unwrap();
//! assert_eq!(r.len(), 3); // lags 0, 1, 2
//! ```

mod acf;
mod aggregate;
mod decompose;
pub mod fft;
mod periodogram;
mod series;

pub use acf::{acf, acf_at, acf_summability_diagnostic};
pub use aggregate::{aggregate, aggregation_levels};
pub use decompose::{decompose, remove_linear_trend, seasonal_difference, Decomposition};
pub use periodogram::{
    dominant_period, dominant_period_from_periodogram, periodogram, periodogram_reference,
    Periodogram,
};
pub use series::CountSeries;

pub use webpuzzle_stats::StatsError;

/// Crate-wide result alias (errors are [`StatsError`]).
pub type Result<T> = std::result::Result<T, StatsError>;
