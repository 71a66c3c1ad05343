//! # webpuzzle-obs
//!
//! Instrumentation layer for the webpuzzle workspace:
//!
//! - **Spans** ([`spans`], [`span!`]): nested wall-clock timing with an
//!   allocation-free hot path. Repeated entries aggregate, so the span
//!   tree stays small even for per-interval loops.
//! - **Metrics** ([`metrics`]): a thread-safe registry of named
//!   counters, gauges, and log-bucket histograms. [`metrics::Histogram`]
//!   is the workspace's one histogram type: base-2 buckets in the
//!   registry, 16 sub-buckets per octave in the flight recorder.
//! - **Message sink** ([`sink`]): where span closes, progress and
//!   messages surface. The default is silence; binaries select human
//!   lines or JSON lines on stderr ([`sink::Mode`]) per their flags.
//! - **Progress** ([`progress::ProgressMeter`]): rate-limited progress
//!   events for long loops.
//! - **Reports** ([`report::RunReport`]): a serializable snapshot of
//!   the span tree + metrics + run configuration, written as
//!   `report.json` by `repro --json`.
//! - **Live telemetry** ([`server::serve`]): a std-only HTTP endpoint
//!   exposing `/metrics` (Prometheus text format), `/healthz`, and
//!   `/report` while a run executes (`--telemetry-addr` in the
//!   binaries).
//! - **Sharded counters** ([`sharded::ShardedCounter`]): per-thread
//!   cache-line-sharded counters for contended hot loops.
//! - **Drift events** ([`events`]): typed, schema-versioned change
//!   events in a run's bounded ring with per-severity counters and an
//!   append-only JSONL log, served live at `/events?since=`.
//! - **Flight recorder** ([`profile`]): a profiled run's sampled
//!   per-stage latency histograms (p50/p95/p99/p999 + max),
//!   slowest-record trace exemplars, and folded flamegraph dumps for
//!   the streaming pipeline, served live at `/profile`.
//! - **Estimator diagnostics** ([`diagnostics`]): schema-versioned
//!   per-window confidence intervals, Hill-plateau evidence, and
//!   cross-estimator agreement verdicts published by the streaming
//!   engine, served live at `/diagnostics`.
//! - **Fidelity** ([`fidelity`]): paper-fidelity scoreboard comparing a
//!   run report's `fidelity/...` gauges against `paper_targets.toml`
//!   (the `paper-check` binary).
//! - **Telemetry history** ([`tsdb`]): a fixed-memory in-process
//!   time-series store sampling the registry on a cadence into
//!   delta-encoded rings (dense recent tier + downsampled coarse tier,
//!   hard global memory budget), served at
//!   `/timeseries?metric=&since=&step=`.
//! - **SLOs** ([`slo`]): burn-rate objectives loaded from `slo.toml`,
//!   evaluated multi-window over the history rings, publishing `slo/*`
//!   events and a deep-health rollup served at `/healthz?deep=1`.
//! - **Overload governor** ([`governor`]): a pressure budget over
//!   sessionizer occupancy, ingest queue bytes, and telemetry memory,
//!   staged Green/Yellow/Red with hysteresis, driving priority-aware
//!   shedding and honest engine degradation.
//!
//! # Run-scoped and process-wide state
//!
//! A run's state lives in its [`Telemetry`] handle, which the binaries
//! build from their flags and pass to the ingest hub, the supervisor
//! (and so to every engine), the watchdog and [`serve`]: its drift
//! events (ring, per-severity totals and `--events` JSONL log), its
//! latest diagnostics block, and, when the run asks for them, its
//! history store and sampler, SLO judge, governor and flight recorder.
//! Two runs in one process share none of it.
//!
//! What stays process-wide, and why:
//!
//! - the metrics registry ([`metrics`]): perfbench reads it through
//!   [`RunReport::collect`], and library numerics write fidelity
//!   gauges into it without a handle;
//! - the span arena ([`spans`]): library numerics write to it without
//!   a handle;
//! - the message sink's mode ([`sink`]): one process has one stderr;
//! - the shutdown flag ([`shutdown`]): a signal handler sets it;
//! - the thread-local trace that carries one sampled record from the
//!   source to the engine on one thread ([`profile::begin_trace`]).
//!
//! [`reset`] clears the span arena and the metrics registry between
//! analyses.
//!
//! ```
//! use webpuzzle_obs as obs;
//!
//! {
//!     let _span = obs::span!("hurst/whittle");
//!     // One Whittle fit's likelihood evaluations.
//!     obs::metrics::counter("lrd/whittle_iterations").add(12);
//! } // span recorded here
//!
//! let report = obs::report::RunReport::collect(
//!     "example", Some(42), serde::Value::Null, vec![]);
//! assert!(report.find_span("hurst/whittle").is_some());
//! ```

pub mod diagnostics;
pub mod events;
pub mod fidelity;
pub mod governor;
pub mod http;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod report;
pub mod server;
pub mod sharded;
pub mod shutdown;
pub mod sink;
pub mod slo;
pub mod spans;
pub mod telemetry;
pub mod tsdb;

pub use progress::ProgressMeter;
pub use report::RunReport;
pub use server::{serve, ReportContext, TelemetryServer};
pub use sharded::ShardedCounter;
pub use sink::{info, warn};
pub use telemetry::{Telemetry, TelemetryConfig};

/// Reset the span arena and the metrics registry (the message sink's
/// mode is left as it is).
///
/// For tests and tools that run several independent analyses in one
/// process; run-scoped state goes with its [`Telemetry`] handle.
pub fn reset() {
    spans::reset();
    metrics::reset();
}

/// Serializes tests that read back the process-wide metrics registry.
/// Lock poisoning is ignored: a failed test must not cascade
/// into unrelated ones.
#[cfg(test)]
pub(crate) fn global_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
