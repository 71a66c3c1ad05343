//! Helpers of the `perfbench` end-to-end benchmark that carry their own
//! logic and therefore their own tests (`perfbench/tests/helpers.rs`):
//!
//! * [`best`] — the fastest-of-passes timing that steadies wall times
//!   and latencies on a shared machine;
//! * [`quantile`] — medians, percentiles, and the rule that a
//!   percentile is only reported when at least ten samples lie beyond
//!   it;
//! * [`schedule`] — the open-loop send schedule of the `live` workload,
//!   with per-record latency and generator lateness;
//! * [`windows`] — which pushes close an analysis window, so that a
//!   push's cost is attributed to window close or to per-record work;
//! * [`trace`] — in-memory spans and the per-layer self-time accounting
//!   whose rows plus an explicit remainder sum to the traced wall time;
//! * [`outcome`] — metric sets, `error_rate` accounting and the one-line
//!   JSON result;
//! * [`catalog`] — every metric's name, unit, direction, and the
//!   end-to-end metric and workload each per-layer metric should move.

pub mod best;
pub mod catalog;
pub mod outcome;
pub mod quantile;
pub mod schedule;
pub mod trace;
pub mod windows;
