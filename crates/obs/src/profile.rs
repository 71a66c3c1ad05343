//! Pipeline flight recorder: sampled per-stage latency attribution.
//!
//! The streaming engine is instrumented at every stage boundary
//! (source read, CLF parse, sessionize, online estimators, window
//! close, checkpoint encode, event sink). When profiling is enabled
//! ([`enable`]), a deterministic 1-in-N sample of records (record
//! index `i` is sampled iff `i % N == 0`) is timed through the whole
//! pipeline:
//!
//! 1. each stage's nanoseconds land in a per-stage
//!    [`Histogram<4>`](Histogram) (the registry's log-bucket histogram
//!    with 4 sub-bits: 976 buckets, ~6.25 % relative resolution) from
//!    which p50/p95/p99/p999 and the exact max are read;
//! 2. the sampled record carries a trace context (thread-local) with
//!    its full per-stage breakdown; a bounded slowest-K ring keeps the
//!    worst traces as [`Exemplar`]s, exported as schema-versioned JSONL
//!    and served at `/profile`;
//! 3. per-stage cumulative self-time totals ([`stage_totals`], the
//!    histogram sums) feed per-window timing timeline events in the
//!    engine.
//!
//! Rare, inherently per-batch operations (window close, checkpoint
//! encode, event-sink append) are timed on *every* occurrence while
//! profiling is on — they are orders of magnitude less frequent than
//! records, so always-on timing is free, and sampling 1-in-N of
//! something that happens once per 4-hour window would record nothing.
//!
//! Overhead: when profiling is **off**, the per-record cost is one
//! atomic load; when **on**, unsampled records pay one atomic load plus
//! an integer modulo — no `Instant::now()` call. Only the 1-in-N
//! sampled records (and the rare per-batch stages) take timestamps.
//! The `stream-analyze --profile` path measures this end to end and
//! records `profile/overhead_pct` in the run report; CI gates it ≤ 3 %.
//!
//! Sampling is keyed on the deterministic record index, not on wall
//! clock or RNG, so the *set* of sampled records is reproducible across
//! runs and survives checkpoint/resume (the restored engine continues
//! from the restored record count). The profiler's accumulated state
//! itself intentionally resets on resume, like every other registry
//! metric (see `EngineState` in `webpuzzle-stream`): histograms and
//! exemplars have process lifetime.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::Histogram;

/// Version stamped into serialized profile reports and exemplar JSONL
/// lines (`schema` field). Bump on breaking field changes only.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Default sampling period: 1 record in 32 is traced.
pub const DEFAULT_SAMPLE_EVERY: u64 = 32;

/// Default capacity of the slowest-record exemplar ring.
pub const DEFAULT_EXEMPLAR_CAPACITY: usize = 8;

/// One instrumented pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Pulling raw bytes for one line out of the buffered reader.
    SourceRead,
    /// Parsing the line as Common Log Format.
    ClfParse,
    /// TTL-map sessionization of the parsed record.
    Sessionize,
    /// Online estimators: moments, histograms, tails, arrival times.
    Estimators,
    /// Closing an analysis window (variance-time + Poisson battery).
    WindowClose,
    /// Encoding and atomically writing a checkpoint.
    CheckpointEncode,
    /// Appending an event to the JSONL event sink.
    EventSink,
}

/// Number of instrumented stages.
pub const STAGE_COUNT: usize = 7;

/// All stages in pipeline order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::SourceRead,
    Stage::ClfParse,
    Stage::Sessionize,
    Stage::Estimators,
    Stage::WindowClose,
    Stage::CheckpointEncode,
    Stage::EventSink,
];

impl Stage {
    /// Stable snake-case token used in reports, folded stacks, and the
    /// summary table.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::SourceRead => "source_read",
            Stage::ClfParse => "clf_parse",
            Stage::Sessionize => "sessionize",
            Stage::Estimators => "estimators",
            Stage::WindowClose => "window_close",
            Stage::CheckpointEncode => "checkpoint_encode",
            Stage::EventSink => "event_sink",
        }
    }

    /// True for the stages every record passes through (their histogram
    /// counts equal the sampled-record count, so per-record throughput
    /// can be derived from them).
    pub fn is_per_record(self) -> bool {
        matches!(
            self,
            Stage::SourceRead | Stage::ClfParse | Stage::Sessionize | Stage::Estimators
        )
    }

    fn idx(self) -> usize {
        self as usize
    }
}

// --- global profiler state ------------------------------------------------

struct ProfilerState {
    // One latency histogram per stage. The registry's base-2 layout is
    // too coarse for latency tails; 16 linear sub-buckets per power of
    // two (4 sub-bits) give ≤ 6.25 % relative error across the full
    // u64 nanosecond range.
    stages: Vec<Histogram<4>>,
    exemplars: Vec<Exemplar>,
    exemplar_capacity: usize,
    records_sampled: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_EVERY);
static STATE: Mutex<ProfilerState> = Mutex::new(ProfilerState {
    stages: Vec::new(),
    exemplars: Vec::new(),
    exemplar_capacity: DEFAULT_EXEMPLAR_CAPACITY,
    records_sampled: 0,
});

/// Lock the profiler state, recovering from poisoning: a panic while
/// the lock was held (the supervisor recovers engine panics via
/// `catch_unwind`) leaves at worst one partially recorded observation,
/// which is strictly better than aborting inside the unwind.
fn lock_state() -> MutexGuard<'static, ProfilerState> {
    let mut state = STATE.lock().unwrap_or_else(PoisonError::into_inner);
    if state.stages.is_empty() {
        state.stages = (0..STAGE_COUNT).map(|_| Histogram::default()).collect();
    }
    state
}

struct TraceCtx {
    index: u64,
    stream_time: f64,
    stage_ns: [u64; STAGE_COUNT],
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// Turn profiling on with the given sampling period (`0` is clamped to
/// `1`, i.e. trace every record). Accumulated data is kept; call
/// [`clear`] first for a fresh run.
pub fn enable(sample_every: u64) {
    SAMPLE_EVERY.store(sample_every.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn profiling off. Accumulated data stays readable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Is profiling currently enabled?
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Current sampling period N (1-in-N records traced).
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Should the record with this deterministic 0-based index be traced?
/// Always samples index 0, so even tiny streams produce an exemplar.
pub fn should_sample(index: u64) -> bool {
    is_enabled() && index.is_multiple_of(SAMPLE_EVERY.load(Ordering::Relaxed))
}

/// Resize the slowest-K exemplar ring (existing overflow drops the
/// fastest exemplars first).
pub fn set_exemplar_capacity(capacity: usize) {
    let mut state = lock_state();
    state.exemplar_capacity = capacity.max(1);
    let cap = state.exemplar_capacity;
    state.exemplars.truncate(cap);
}

/// Begin a trace for the sampled record `index` on this thread. A
/// still-active previous trace is discarded (its owner leaked it, e.g.
/// across an error return).
pub fn begin_trace(index: u64, stream_time: f64) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(TraceCtx {
            index,
            stream_time,
            stage_ns: [0; STAGE_COUNT],
        });
    });
}

/// Is a trace active on this thread?
pub fn trace_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Drop this thread's active trace, if any, without recording an
/// exemplar (error paths).
pub fn abandon_trace() {
    CURRENT.with(|c| c.borrow_mut().take());
}

/// Accumulate `ns` nanoseconds of `stage` self-time into this thread's
/// active trace. No-op without an active trace. This is how the
/// **per-record** stages are fed: the trace carries the running totals
/// and [`finish_trace`] flushes exactly one histogram observation per
/// stage per sampled record.
pub fn trace_add(stage: Stage, ns: u64) {
    CURRENT.with(|c| {
        if let Some(trace) = c.borrow_mut().as_mut() {
            trace.stage_ns[stage.idx()] += ns;
        }
    });
}

/// Record one occurrence of a **per-batch** stage (window close,
/// checkpoint encode, event sink): one histogram observation, and into
/// this thread's active trace when one exists. No-op while profiling is
/// disabled. Per-record stages go through [`trace_add`] instead —
/// feeding them here would double-count once the trace flushes.
pub fn record_stage_ns(stage: Stage, ns: u64) {
    if !is_enabled() {
        return;
    }
    lock_state().stages[stage.idx()].record(ns);
    trace_add(stage, ns);
}

/// Finish this thread's active trace: flush its per-record stage times
/// into the stage histograms (one observation per stage) and fold the
/// whole breakdown into the slowest-K exemplar ring. No-op when no
/// trace is active.
pub fn finish_trace() {
    let Some(trace) = CURRENT.with(|c| c.borrow_mut().take()) else {
        return;
    };
    let total_ns: u64 = trace.stage_ns.iter().sum();
    let exemplar = Exemplar {
        schema: PROFILE_SCHEMA_VERSION,
        record_index: trace.index,
        stream_time: trace.stream_time,
        total_ns,
        stages: STAGES
            .iter()
            .filter(|s| trace.stage_ns[s.idx()] > 0)
            .map(|s| StageBreakdown {
                stage: s.as_str().to_string(),
                ns: trace.stage_ns[s.idx()],
            })
            .collect(),
    };
    let mut state = lock_state();
    for s in STAGES {
        let ns = trace.stage_ns[s.idx()];
        if s.is_per_record() && ns > 0 {
            state.stages[s.idx()].record(ns);
        }
    }
    state.records_sampled += 1;
    if state.exemplars.len() == state.exemplar_capacity
        && state
            .exemplars
            .last()
            .is_some_and(|e| e.total_ns >= total_ns)
    {
        return;
    }
    let at = state
        .exemplars
        .partition_point(|e| e.total_ns >= exemplar.total_ns);
    state.exemplars.insert(at, exemplar);
    let cap = state.exemplar_capacity;
    state.exemplars.truncate(cap);
}

/// Cumulative per-stage self-time totals (the stage histograms' sums),
/// nanoseconds, in [`STAGES`] order. The engine diffs consecutive
/// readings to attribute self-time to each analysis window.
pub fn stage_totals() -> [u64; STAGE_COUNT] {
    let state = lock_state();
    std::array::from_fn(|i| state.stages[i].sum())
}

/// Per-record timer for one `push` through the engine. Obtained via
/// [`record_timer`]; [`RecordTimer::mark`] attributes the time since
/// the previous mark to a stage. Inactive timers (unsampled records,
/// profiling off) are free: no timestamps are ever taken.
#[must_use = "an unused timer records nothing"]
pub struct RecordTimer {
    last: Option<Instant>,
}

/// Start (or adopt) the trace for the record with deterministic index
/// `index` at stream time `stream_time` seconds. If the source already
/// began a trace for this record on this thread, the timer continues
/// it; otherwise a fresh trace begins iff the index is sampled.
pub fn record_timer(index: u64, stream_time: f64) -> RecordTimer {
    if !is_enabled() {
        return RecordTimer { last: None };
    }
    // Adopt only a trace for *this* record index; a leftover trace for
    // another index was leaked (a record pulled but never pushed, e.g.
    // around fault injection) and must not pollute this record.
    let adopted = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        match cur.as_ref() {
            Some(t) if t.index == index => true,
            Some(_) => {
                *cur = None;
                false
            }
            None => false,
        }
    });
    if adopted || index.is_multiple_of(SAMPLE_EVERY.load(Ordering::Relaxed)) {
        if !adopted {
            begin_trace(index, stream_time);
        }
        return RecordTimer {
            last: Some(Instant::now()),
        };
    }
    RecordTimer { last: None }
}

impl RecordTimer {
    /// Attribute the time since the previous mark to the per-record
    /// `stage` (accumulated in the trace, flushed at finish).
    pub fn mark(&mut self, stage: Stage) {
        if let Some(last) = self.last {
            let now = Instant::now();
            trace_add(stage, now.duration_since(last).as_nanos() as u64);
            self.last = Some(now);
        }
    }

    /// Restart the interval without attributing the elapsed time (used
    /// around sections that time themselves, like a window close).
    pub fn resync(&mut self) {
        if self.last.is_some() {
            self.last = Some(Instant::now());
        }
    }

    /// Complete the record: the active trace becomes an exemplar
    /// candidate.
    pub fn finish(mut self) {
        if self.last.take().is_some() {
            finish_trace();
        }
    }
}

impl Drop for RecordTimer {
    /// An active timer dropped without [`RecordTimer::finish`] (error
    /// return mid-push) abandons the trace so the next record cannot
    /// adopt stale stage times.
    fn drop(&mut self) {
        if self.last.is_some() {
            abandon_trace();
        }
    }
}

// --- reports --------------------------------------------------------------

/// Per-stage self-time breakdown entry of one exemplar trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Stage token ([`Stage::as_str`]).
    pub stage: String,
    /// Nanoseconds the record spent in the stage.
    pub ns: u64,
}

/// One slowest-record trace retained by the exemplar ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// Serialization schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Deterministic 0-based record index in the stream.
    pub record_index: u64,
    /// Record timestamp, stream seconds.
    pub stream_time: f64,
    /// Total traced nanoseconds across all stages.
    pub total_ns: u64,
    /// Per-stage breakdown (stages with zero time omitted).
    pub stages: Vec<StageBreakdown>,
}

/// Latency distribution of one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatencyReport {
    /// Stage token ([`Stage::as_str`]).
    pub stage: String,
    /// Timed occurrences (= sampled records for per-record stages).
    pub count: u64,
    /// Total nanoseconds across occurrences.
    pub total_ns: u64,
    /// Interpolated median, nanoseconds.
    pub p50_ns: Option<f64>,
    /// Interpolated 95th percentile.
    pub p95_ns: Option<f64>,
    /// Interpolated 99th percentile.
    pub p99_ns: Option<f64>,
    /// Interpolated 99.9th percentile.
    pub p999_ns: Option<f64>,
    /// Exact maximum observed, nanoseconds.
    pub max_ns: u64,
}

/// Complete serializable snapshot of the flight recorder, served at
/// `/profile` and embedded in the `stream-analyze` run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Serialization schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Was profiling enabled at snapshot time?
    pub enabled: bool,
    /// Sampling period N (1-in-N records traced).
    pub sample_every: u64,
    /// Records fully traced so far.
    pub records_sampled: u64,
    /// One entry per stage, pipeline order, empty stages included.
    pub stages: Vec<StageLatencyReport>,
    /// Slowest sampled records, worst first.
    pub exemplars: Vec<Exemplar>,
}

impl ProfileReport {
    /// Look up one stage's latency report by token.
    pub fn stage(&self, token: &str) -> Option<&StageLatencyReport> {
        self.stages.iter().find(|s| s.stage == token)
    }

    /// Collapsed-stack ("folded") rendering of the per-stage self-time
    /// totals — one `pipeline;<stage> <total_ns>` line per non-empty
    /// stage, the format `flamegraph.pl` / inferno consume directly.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            if s.total_ns > 0 {
                out.push_str(&format!("pipeline;{} {}\n", s.stage, s.total_ns));
            }
        }
        out
    }

    /// Exemplars as JSONL, worst record first, one schema-versioned
    /// JSON object per line.
    pub fn exemplars_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.exemplars {
            out.push_str(&serde_json::to_string(e).unwrap_or_else(|_| "{}".to_string()));
            out.push('\n');
        }
        out
    }
}

/// Snapshot the flight recorder into a [`ProfileReport`].
pub fn snapshot() -> ProfileReport {
    let state = lock_state();
    ProfileReport {
        schema: PROFILE_SCHEMA_VERSION,
        enabled: is_enabled(),
        sample_every: sample_every(),
        records_sampled: state.records_sampled,
        stages: STAGES
            .iter()
            .map(|s| {
                let h = state.stages[s.idx()].report(s.as_str());
                StageLatencyReport {
                    stage: h.name,
                    count: h.count,
                    total_ns: h.sum,
                    p50_ns: h.p50,
                    p95_ns: h.p95,
                    p99_ns: h.p99,
                    p999_ns: h.p999,
                    max_ns: h.max.unwrap_or(0),
                }
            })
            .collect(),
        exemplars: state.exemplars.clone(),
    }
}

/// Clear accumulated data (histograms, exemplars, sampled count) but
/// keep the enabled flag, sampling period, and exemplar capacity. Used
/// between the profiler's self-overhead measurement and the real run.
pub fn clear() {
    let mut state = lock_state();
    for h in &mut state.stages {
        *h = Histogram::default();
    }
    state.exemplars.clear();
    state.records_sampled = 0;
}

/// Full reset: disable profiling, restore the default sampling period
/// and exemplar capacity, and clear all data. Called by
/// [`crate::reset`]; any trace active on the calling thread is
/// abandoned.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    SAMPLE_EVERY.store(DEFAULT_SAMPLE_EVERY, Ordering::Relaxed);
    abandon_trace();
    let mut state = lock_state();
    for h in &mut state.stages {
        *h = Histogram::default();
    }
    state.exemplars.clear();
    state.exemplar_capacity = DEFAULT_EXEMPLAR_CAPACITY;
    state.records_sampled = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::{check_layout, check_quantiles};

    // Profiler state is process-global; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn latency_buckets_partition_the_u64_range() {
        check_layout::<4>(976);
        // Relative resolution is 1/16 of the value's power-of-two band.
        type Fine = Histogram<4>;
        for b in 16..Fine::BUCKETS {
            let lo = Fine::lower_bound(b);
            let width = Fine::upper_bound(b) - lo;
            assert!(width as f64 / lo as f64 <= 1.0 / 16.0, "bucket {b}");
        }
        let b = Fine::bucket_index(1_000_000);
        let width = (Fine::upper_bound(b) - Fine::lower_bound(b)) as f64;
        assert!(width / 1_000_000.0 < 0.07, "width {width}");
    }

    #[test]
    fn quantiles_interpolate_and_order() {
        // True quantiles are 500_050, 950_005, ...: the histogram's
        // ~6 % resolution must hold.
        let h = check_quantiles::<4>((1..=10_000u64).map(|v| v * 100));
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p999 = h.quantile(0.999).unwrap();
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.08, "p50 = {p50}");
        assert!((p95 - 950_000.0).abs() / 950_000.0 < 0.08, "p95 = {p95}");
        assert!((p999 - 999_000.0).abs() / 999_000.0 < 0.08, "p999 = {p999}");
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn sampling_is_deterministic_and_gated() {
        let _lock = locked();
        reset();
        assert!(!should_sample(0), "disabled profiler samples nothing");
        enable(10);
        assert!(should_sample(0));
        assert!(!should_sample(1));
        assert!(should_sample(10));
        assert!(should_sample(20));
        enable(0); // clamped to every record
        assert!(should_sample(7));
        reset();
    }

    #[test]
    fn traces_accumulate_into_exemplars_and_histograms() {
        let _lock = locked();
        reset();
        enable(1);
        for i in 0..5u64 {
            begin_trace(i, i as f64);
            trace_add(Stage::ClfParse, 100 * (i + 1));
            trace_add(Stage::Sessionize, 50);
            finish_trace();
        }
        let report = snapshot();
        assert_eq!(report.records_sampled, 5);
        let parse = report.stage("clf_parse").unwrap();
        assert_eq!(parse.count, 5);
        assert_eq!(parse.total_ns, 100 + 200 + 300 + 400 + 500);
        assert_eq!(parse.max_ns, 500);
        assert!(parse.p999_ns.is_some());
        // Worst record first.
        assert_eq!(report.exemplars[0].record_index, 4);
        assert_eq!(report.exemplars[0].total_ns, 550);
        assert_eq!(report.exemplars[0].stages.len(), 2);
        // Folded output covers the non-empty stages.
        let folded = report.folded();
        assert!(folded.contains("pipeline;clf_parse 1500\n"));
        assert!(folded.contains("pipeline;sessionize 250\n"));
        assert!(!folded.contains("window_close"));
        reset();
    }

    #[test]
    fn exemplar_ring_keeps_the_slowest_k() {
        let _lock = locked();
        reset();
        enable(1);
        set_exemplar_capacity(3);
        for i in 0..10u64 {
            begin_trace(i, 0.0);
            // Total ns: 10, 20, ..., 100 — only 80/90/100 survive.
            trace_add(Stage::Estimators, (i + 1) * 10);
            finish_trace();
        }
        let report = snapshot();
        assert_eq!(report.records_sampled, 10);
        let totals: Vec<u64> = report.exemplars.iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![100, 90, 80]);
        reset();
    }

    #[test]
    fn record_timer_adopts_or_starts_and_abandons_on_drop() {
        let _lock = locked();
        reset();
        enable(2);
        // Unsampled index: inactive timer, no trace.
        let t = record_timer(1, 0.0);
        t.finish();
        assert!(!trace_active());
        assert_eq!(snapshot().records_sampled, 0);
        // Sampled index: active timer, finish records an exemplar.
        let mut t = record_timer(2, 17.0);
        trace_add(Stage::Sessionize, 5);
        t.mark(Stage::Estimators);
        t.finish();
        assert_eq!(snapshot().records_sampled, 1);
        assert_eq!(snapshot().exemplars[0].stream_time, 17.0);
        // A source-started trace for the same index is adopted even
        // when the index itself is not on the sampling grid.
        begin_trace(1, 1.0);
        trace_add(Stage::SourceRead, 7);
        let t = record_timer(1, 1.0);
        assert!(trace_active());
        t.finish();
        assert_eq!(snapshot().records_sampled, 2);
        // A leaked trace for a *different* index is discarded, not
        // adopted.
        begin_trace(99, 3.0);
        let t = record_timer(3, 3.0);
        assert!(!trace_active());
        t.finish();
        assert_eq!(snapshot().records_sampled, 2);
        // Dropping an active timer abandons the trace (error path).
        let t = record_timer(4, 2.0);
        assert!(trace_active());
        drop(t);
        assert!(!trace_active());
        assert_eq!(snapshot().records_sampled, 2);
        reset();
    }

    #[test]
    fn clear_keeps_config_reset_restores_defaults() {
        let _lock = locked();
        reset();
        enable(5);
        set_exemplar_capacity(2);
        begin_trace(0, 0.0);
        record_stage_ns(Stage::EventSink, 9);
        finish_trace();
        assert_eq!(snapshot().records_sampled, 1);
        clear();
        let report = snapshot();
        assert!(report.enabled);
        assert_eq!(report.sample_every, 5);
        assert_eq!(report.records_sampled, 0);
        assert!(report.stages.iter().all(|s| s.count == 0));
        reset();
        assert!(!is_enabled());
        assert_eq!(sample_every(), DEFAULT_SAMPLE_EVERY);
    }

    #[test]
    fn report_round_trips_through_json() {
        let _lock = locked();
        reset();
        enable(1);
        begin_trace(3, 42.5);
        record_stage_ns(Stage::WindowClose, 1_234);
        finish_trace();
        let report = snapshot();
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.schema, PROFILE_SCHEMA_VERSION);
        // Exemplar JSONL lines parse individually.
        let jsonl = report.exemplars_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let e: Exemplar = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(e.record_index, 3);
        reset();
    }
}
