//! # webpuzzle-stream
//!
//! One-pass, bounded-memory streaming analysis of Web server logs — the
//! scaling counterpart to the batch FULL-Web pipeline in
//! `webpuzzle-core`. Where the batch path materializes a week of
//! records (`Vec<LogRecord>`) and sessionizes the whole slice, this
//! crate processes a log as a stream:
//!
//! * [`pipeline`] — the pull-based [`Source`] trait every record
//!   producer implements.
//! * [`reader`] — [`ClfSource`]: a chunked `io::BufRead`-driven Common
//!   Log Format reader (never `read_to_string`), with a lenient mode
//!   that skips and counts malformed lines.
//! * [`sessionizer`] — [`StreamSessionizer`]: incremental
//!   sessionization over a TTL hash map; sessions are evicted (emitted)
//!   once the paper's 30-minute inactivity threshold elapses, so memory
//!   holds only the *open* sessions.
//! * [`online`] — fixed-memory estimators: [`Welford`] mean/variance and
//!   [`TopK`] order statistics feeding an incremental Hill tail-index
//!   estimate.
//! * [`window`] — [`WindowedArrivals`]: the arrival times of each fixed
//!   analysis window, read at close by the variance-time estimator (at
//!   per-second and per-10-ms bins) and the §4.2 Poisson battery.
//! * [`observatory`] — [`DriftObservatory`]: online change-point
//!   detection (CUSUM, Page–Hinkley, EWMA control bands) over the
//!   per-window estimates, publishing typed drift events to the
//!   `webpuzzle-obs` event ring.
//! * [`engine`] — [`StreamAnalyzer`]: the wired-up engine behind the
//!   `stream-analyze` binary, producing a [`StreamSummary`].
//! * [`diagnostics`] — per-window estimator confidence: Hill-plot
//!   stability scans, variance-time fit CIs, Welford mean CIs, and the
//!   `2H = 3 − α` cross-estimator agreement verdict, assembled into the
//!   schema-versioned report served at `/diagnostics`.
//! * [`checkpoint`] — [`Checkpoint`]: versioned, checksummed,
//!   atomically-written snapshots of the full engine state; a resumed
//!   run reproduces the uninterrupted summary bit for bit.
//! * [`fault`] — [`FaultSource`]: a deterministic fault-injecting
//!   decorator over any source (transient errors, poison records,
//!   stalls, crash-at-record-N) for recovery testing.
//! * [`supervisor`] — [`Supervisor`]: the retry / skip / restore loop
//!   that classifies failures, retries transients with backoff, skips
//!   poison under lenient, and restores from the last checkpoint when
//!   the engine panics.
//! * [`watchdog`] — [`Watchdog`]: per-stage stall detection; stages
//!   beat on progress, silence past a deadline publishes a `Critical`
//!   event for the supervising loop to escalate on.
//!
//! Total memory is `O(open sessions + window arrivals + top-k)` —
//! independent of log length. See DESIGN.md §9 for the memory-bound
//! and estimator-equivalence contracts.
//!
//! # Examples
//!
//! ```
//! use webpuzzle_stream::{StreamAnalyzer, StreamConfig};
//! use webpuzzle_weblog::{LogRecord, Method};
//!
//! # fn main() -> Result<(), webpuzzle_stream::StreamError> {
//! let mut engine = StreamAnalyzer::new(StreamConfig::default())?;
//! for i in 0..100u32 {
//!     let rec = LogRecord::new(i as f64 * 30.0, i % 3, Method::Get, i, 200, 512);
//!     engine.push(&rec)?;
//! }
//! let summary = engine.finish()?;
//! assert_eq!(summary.records, 100);
//! assert_eq!(summary.sessions, 3);
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
pub mod diagnostics;
pub mod engine;
pub mod fault;
pub mod observatory;
pub mod online;
pub mod pipeline;
pub mod reader;
pub mod sessionizer;
pub mod supervisor;
pub mod watchdog;
pub mod window;

pub use checkpoint::{Checkpoint, CheckpointError, SourcePosition};
pub use diagnostics::{AGREEMENT_BAND_MAX, CONFIDENCE_LEVEL};
pub use engine::{EngineState, StreamAnalyzer, StreamConfig, StreamSummary, TailSnapshot};
pub use fault::{FaultCounts, FaultSource, FaultSpec};
pub use observatory::{
    ChannelAlarms, DriftObservatory, DriftSummary, ObservatoryConfig, ObservatoryState,
    WindowObservation,
};
pub use online::{Moments, TopK, Welford};
pub use pipeline::{IterSource, Source};
pub use reader::ClfSource;
pub use sessionizer::{SessionizerState, StreamSessionizer};
pub use supervisor::{
    classify, ErrorClass, RecordCallback, RecoverableSource, Supervisor, SupervisorConfig,
    SupervisorReport,
};
pub use watchdog::{StageHandle, Watchdog, WatchdogConfig};
pub use window::{ArrivalsState, WindowConfig, WindowReport, WindowedArrivals};

use std::error::Error;
use std::fmt;

/// Error type of the streaming engine: IO from the chunked reader,
/// log-domain errors from parsing/sessionization, and statistics errors
/// from the per-window estimators.
#[derive(Debug)]
pub enum StreamError {
    /// Reading the underlying byte stream failed.
    Io(std::io::Error),
    /// A log-domain error (malformed line in strict mode, out-of-order
    /// input, invalid threshold).
    Weblog(webpuzzle_weblog::WeblogError),
    /// A statistics error from a per-window estimator.
    Stats(webpuzzle_core::StatsError),
    /// A checkpoint could not be written, read, or validated.
    Checkpoint(checkpoint::CheckpointError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream IO error: {e}"),
            StreamError::Weblog(e) => write!(f, "stream log error: {e}"),
            StreamError::Stats(e) => write!(f, "stream estimator error: {e}"),
            StreamError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Weblog(e) => Some(e),
            StreamError::Stats(e) => Some(e),
            StreamError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<webpuzzle_weblog::WeblogError> for StreamError {
    fn from(e: webpuzzle_weblog::WeblogError) -> Self {
        StreamError::Weblog(e)
    }
}

impl From<webpuzzle_core::StatsError> for StreamError {
    fn from(e: webpuzzle_core::StatsError) -> Self {
        StreamError::Stats(e)
    }
}

impl From<checkpoint::CheckpointError> for StreamError {
    fn from(e: checkpoint::CheckpointError) -> Self {
        StreamError::Checkpoint(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StreamError>;
