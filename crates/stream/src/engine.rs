//! The wired-up streaming engine: one [`StreamAnalyzer::push`] per log
//! record in, one [`StreamSummary`] out, bounded memory throughout.
//!
//! The analyzer composes the crate's pieces the way the batch pipeline
//! composes its phases: records flow into the TTL
//! [`StreamSessionizer`]; evicted sessions update Welford moments and
//! top-k Hill tails for the paper's three intra-session metrics
//! (§5.2: duration, requests, bytes); request and session-start
//! timestamps feed two [`WindowedArrivals`] accumulators whose
//! completed windows run the variance-time estimator and the §4.2
//! Poisson battery. Everything is also mirrored into `stream/*`
//! counters, gauges, and histograms in the `webpuzzle-obs` registry, so
//! a live `--telemetry-addr` endpoint sees progress mid-stream.

use crate::diagnostics;
use crate::observatory::{
    DriftObservatory, DriftSummary, ObservatoryConfig, ObservatoryState, WindowObservation,
};
use crate::online::{Moments, TopK, Welford};
use crate::sessionizer::{SessionizerState, StreamSessionizer};
use crate::window::{ArrivalsState, WindowConfig, WindowReport, WindowedArrivals};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use webpuzzle_obs::diagnostics::{DiagnosticsReport, WindowDiagnostics};
use webpuzzle_obs::metrics;
use webpuzzle_obs::profile::{self, Stage};
use webpuzzle_obs::Telemetry;
use webpuzzle_weblog::{LogRecord, Session, DEFAULT_SESSION_THRESHOLD};

/// Estimator sampling stride under governor degradation (Yellow or
/// Red): one record in this many feeds the per-record estimators
/// (byte moments, histograms, inter-arrival CI accumulators). Counts
/// shrink by the same factor, so confidence intervals widen honestly —
/// the recorded [`StreamSummary::sampling_stride`] tells readers why.
/// Sessionization and arrival counting always see every record.
pub const DEGRADED_SAMPLING_STRIDE: u64 = 4;

/// Session-TTL scale under governor degradation (Yellow or Red): idle
/// sessions are evicted at `threshold · scale` instead of the nominal
/// threshold, shrinking the TTL map. Early evictions are counted in
/// [`StreamSummary::early_evicted_sessions`].
pub const DEGRADED_TTL_SCALE: f64 = 0.5;

/// Configuration of the streaming engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Session inactivity threshold, seconds (paper: 30 minutes).
    pub session_threshold: f64,
    /// Windowing of the request arrival process.
    pub request_window: WindowConfig,
    /// Windowing of the session arrival process (fine bins are
    /// pointless at session rates, so they default to off here).
    pub session_window: WindowConfig,
    /// Order statistics retained per tail metric. Memory is
    /// `O(tail_k)`; when `tail_k` exceeds `⌊tail_fraction·n⌋` the Hill
    /// assessment window coincides with the batch pipeline's.
    pub tail_k: usize,
    /// Tail fraction for the Hill assessment cap (paper/batch: 0.14).
    pub tail_fraction: f64,
    /// Drift-observatory tuning (detectors over the per-window
    /// estimates; see [`crate::observatory`]).
    pub observatory: ObservatoryConfig,
    /// Hard cap on simultaneously-open sessions (`0` = unbounded, the
    /// historical behavior). Over the cap the TTL map sheds its
    /// oldest-ending session early — counted in
    /// [`StreamSummary::shed_sessions`] and the `stream/records_shed`
    /// counter, never silent. This is the graceful-degradation valve
    /// for adversarial client cardinality under memory pressure.
    pub max_open_sessions: usize,
    /// Compute per-window estimator diagnostics (Hill stability scans,
    /// CI propagation, agreement verdicts) at every window close. Off
    /// by default: the scan costs an extra `O(k_max)` pass per close,
    /// and diagnostics publish `low_confidence` /
    /// `estimator_disagreement` events that default runs must not emit.
    pub diagnostics: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            session_threshold: DEFAULT_SESSION_THRESHOLD,
            request_window: WindowConfig::default(),
            session_window: WindowConfig {
                fine_bin_width: None,
                ..WindowConfig::default()
            },
            tail_k: 8_192,
            tail_fraction: 0.14,
            observatory: ObservatoryConfig::default(),
            max_open_sessions: 0,
            diagnostics: false,
        }
    }
}

/// State of one top-k Hill tail estimate at summary time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailSnapshot {
    /// Positive observations offered to the heap.
    pub seen: u64,
    /// Order statistics retained (`min(seen, tail_k)`).
    pub retained: usize,
    /// Hill tail index α, assessed over the batch window
    /// `[k_max/2, k_max]`, `k_max = ⌊tail_fraction·seen⌋` (capped at
    /// what the heap retains). `None` with too little data.
    pub alpha: Option<f64>,
}

/// One-pass summary of a log stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Records pushed.
    pub records: u64,
    /// Sessions completed (after [`StreamAnalyzer::finish`], all of
    /// them).
    pub sessions: u64,
    /// Sessions still open (zero after [`StreamAnalyzer::finish`]).
    pub open_sessions: usize,
    /// Peak simultaneously-open sessions — the memory high-water mark
    /// of the TTL map.
    pub peak_open_sessions: usize,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Per-request transfer size moments.
    pub response_bytes: Moments,
    /// Session duration moments, seconds (§5.2.1).
    pub session_duration: Moments,
    /// Requests-per-session moments (§5.2.2).
    pub session_requests: Moments,
    /// Bytes-per-session moments (§5.2.3).
    pub session_bytes: Moments,
    /// Hill tail of session durations.
    pub duration_tail: TailSnapshot,
    /// Hill tail of requests per session.
    pub requests_tail: TailSnapshot,
    /// Hill tail of bytes per session.
    pub bytes_tail: TailSnapshot,
    /// Per-window analysis of the request arrival process.
    pub request_windows: Vec<WindowReport>,
    /// Per-window analysis of the session arrival process.
    pub session_windows: Vec<WindowReport>,
    /// Drift-observatory results (alarms over the per-window
    /// estimates).
    pub drift: DriftSummary,
    /// Sessions shed early by the [`StreamConfig::max_open_sessions`]
    /// cap (0 when unbounded). Shed sessions still reach the moment and
    /// tail estimators — "shed" means truncated early, not dropped.
    pub shed_sessions: u64,
    /// Records already absorbed into sessions that were then shed.
    pub shed_records: u64,
    /// Per-window estimator confidence & agreement evidence
    /// ([`StreamConfig::diagnostics`]; empty rows when disabled, with
    /// `enabled: false` recorded so readers can tell off from missing).
    pub diagnostics: DiagnosticsReport,
    /// Records refused outright under Red-state degradation (the
    /// client had no open session, so admitting it would have grown
    /// the TTL map). Not part of [`StreamSummary::records`].
    pub hard_shed_records: u64,
    /// Per-record estimator updates skipped under degraded sampling
    /// (the records themselves were fully sessionized and counted).
    pub sampled_out: u64,
    /// Estimator sampling stride in effect when the summary was taken
    /// (1 = unsampled; [`DEGRADED_SAMPLING_STRIDE`] under Yellow/Red).
    pub sampling_stride: u64,
    /// Sessions evicted earlier than the nominal TTL under degradation
    /// (see [`DEGRADED_TTL_SCALE`]).
    pub early_evicted_sessions: u64,
}

/// Complete mutable state of a [`StreamAnalyzer`], for checkpointing
/// via [`StreamAnalyzer::export_state`] /
/// [`StreamAnalyzer::restore`].
///
/// Welford accumulators travel as `(n, mean, m2)` raw parts, top-k
/// tails as `(k, seen, retained-values)`. Registry metrics (`stream/*`
/// counters, gauges, histograms) are deliberately **not** part of this
/// state: they have process lifetime, and a resumed process accumulates
/// its own from zero — the summary-facing totals here are
/// authoritative.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// TTL sessionizer state (open sessions, watermark, counts).
    pub sessionizer: SessionizerState,
    /// Request arrival times and window cursor.
    pub request_arrivals: ArrivalsState,
    /// Session arrival times and window cursor.
    pub session_arrivals: ArrivalsState,
    /// Closed request-window reports so far.
    pub request_windows: Vec<WindowReport>,
    /// Closed session-window reports so far.
    pub session_windows: Vec<WindowReport>,
    /// Per-request transfer-size moments.
    pub response_bytes: (u64, f64, f64),
    /// Session-duration moments.
    pub session_duration: (u64, f64, f64),
    /// Requests-per-session moments.
    pub session_requests: (u64, f64, f64),
    /// Bytes-per-session moments.
    pub session_bytes: (u64, f64, f64),
    /// Session-duration tail heap `(k, seen, retained)`.
    pub duration_tail: (usize, u64, Vec<f64>),
    /// Requests-per-session tail heap.
    pub requests_tail: (usize, u64, Vec<f64>),
    /// Bytes-per-session tail heap.
    pub bytes_tail: (usize, u64, Vec<f64>),
    /// Records pushed.
    pub records: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Drift-observatory detector positions and alarm counts.
    pub observatory: ObservatoryState,
    /// Current-window bytes accumulator (feeds the drift bytes
    /// channel when the window closes).
    pub window_bytes: (u64, f64, f64),
    /// Eviction-rate bookkeeping: sessions emitted at last sync.
    pub last_emitted: u64,
    /// Eviction-rate bookkeeping: watermark at last eviction.
    pub last_evict_time: f64,
    /// Current-window inter-arrival accumulator (feeds the diagnostics
    /// inter-arrival CI when the window closes).
    pub window_interarrival: (u64, f64, f64),
    /// Timestamp of the last record pushed (`-inf` before the first) —
    /// the inter-arrival accumulator's anchor.
    pub last_arrival: f64,
    /// Diagnostics rows for closed windows so far (empty when
    /// [`StreamConfig::diagnostics`] is off).
    pub diagnostics_windows: Vec<WindowDiagnostics>,
    /// Governor degradation mode the engine last observed
    /// (0 = Green, 1 = Yellow, 2 = Red).
    pub degradation_mode: u8,
    /// Per-record estimator updates skipped under degraded sampling.
    pub sampled_out: u64,
    /// Records refused under Red-state degradation.
    pub hard_shed_records: u64,
    /// A forced checkpoint (Red entry) was requested but not yet taken.
    pub forced_checkpoint_due: bool,
}

/// The one-pass analysis engine. See the crate docs for an example.
#[derive(Debug)]
pub struct StreamAnalyzer {
    cfg: StreamConfig,
    sessionizer: StreamSessionizer,
    session_buf: Vec<Session>,
    window_buf: Vec<WindowReport>,
    request_arrivals: WindowedArrivals,
    session_arrivals: WindowedArrivals,
    request_windows: Vec<WindowReport>,
    session_windows: Vec<WindowReport>,
    response_bytes: Welford,
    session_duration: Welford,
    session_requests: Welford,
    session_bytes: Welford,
    duration_tail: TopK,
    requests_tail: TopK,
    bytes_tail: TopK,
    records: u64,
    bytes: u64,
    finished: bool,
    observatory: DriftObservatory,
    window_bytes: Welford,
    window_interarrival: Welford,
    last_arrival: f64,
    diagnostics_windows: Vec<WindowDiagnostics>,
    last_emitted: u64,
    last_evict_time: f64,
    shed_synced: u64,
    shed_records_synced: u64,
    degradation_mode: u8,
    sampled_out: u64,
    hard_shed_records: u64,
    forced_checkpoint_due: bool,
    /// The run's observatory: governor and diagnostics slot.
    telemetry: Telemetry,
    // Flight-recorder bookkeeping: cumulative per-stage totals at the
    // last window-timing event, for per-window self-time deltas. Not
    // part of EngineState — profiler data has process lifetime, like
    // every other registry metric (see the EngineState docs).
    profile_totals: [u64; profile::STAGE_COUNT],
    records_counter: Arc<webpuzzle_obs::ShardedCounter>,
    shed_counter: Arc<metrics::Counter>,
    hard_shed_counter: Arc<metrics::Counter>,
    sampled_out_counter: Arc<metrics::Counter>,
    mode_gauge: Arc<metrics::Gauge>,
    bytes_counter: Arc<metrics::Counter>,
    sessions_counter: Arc<metrics::Counter>,
    windows_counter: Arc<metrics::Counter>,
    open_gauge: Arc<metrics::Gauge>,
    peak_gauge: Arc<metrics::Gauge>,
    occupancy_gauge: Arc<metrics::Gauge>,
    watermark_lag_gauge: Arc<metrics::Gauge>,
    evict_rate_gauge: Arc<metrics::Gauge>,
    backlog_gauge: Arc<metrics::Gauge>,
    live_bytes_hist: Arc<metrics::Histogram>,
    live_duration_hist: Arc<metrics::Histogram>,
    alpha_ci_gauge: Arc<metrics::Gauge>,
    h_ci_gauge: Arc<metrics::Gauge>,
    r_squared_gauge: Arc<metrics::Gauge>,
    agreement_gauge: Arc<metrics::Gauge>,
}

impl StreamAnalyzer {
    /// Build an engine.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive session threshold, exactly
    /// as batch [`webpuzzle_weblog::sessionize`] would.
    pub fn new(cfg: StreamConfig) -> Result<Self> {
        let sessionizer =
            StreamSessionizer::new(cfg.session_threshold)?.with_max_open(cfg.max_open_sessions);
        let request_arrivals = WindowedArrivals::new(cfg.request_window.clone());
        let session_arrivals = WindowedArrivals::new(cfg.session_window.clone());
        Ok(StreamAnalyzer {
            sessionizer,
            request_arrivals,
            session_arrivals,
            session_buf: Vec::new(),
            window_buf: Vec::new(),
            request_windows: Vec::new(),
            session_windows: Vec::new(),
            response_bytes: Welford::new(),
            session_duration: Welford::new(),
            session_requests: Welford::new(),
            session_bytes: Welford::new(),
            duration_tail: TopK::new(cfg.tail_k),
            requests_tail: TopK::new(cfg.tail_k),
            bytes_tail: TopK::new(cfg.tail_k),
            records: 0,
            bytes: 0,
            finished: false,
            observatory: DriftObservatory::new(&cfg.observatory, cfg.request_window.window_len),
            window_bytes: Welford::new(),
            window_interarrival: Welford::new(),
            last_arrival: f64::NEG_INFINITY,
            diagnostics_windows: Vec::new(),
            last_emitted: 0,
            last_evict_time: f64::NEG_INFINITY,
            shed_synced: 0,
            shed_records_synced: 0,
            degradation_mode: 0,
            sampled_out: 0,
            hard_shed_records: 0,
            forced_checkpoint_due: false,
            telemetry: Telemetry::default(),
            profile_totals: profile::stage_totals(),
            records_counter: metrics::sharded_counter("stream/records"),
            shed_counter: metrics::counter("stream/records_shed"),
            hard_shed_counter: metrics::counter("stream/records_hard_shed"),
            sampled_out_counter: metrics::counter("stream/estimator_samples_skipped"),
            mode_gauge: metrics::gauge("stream/degradation_mode"),
            bytes_counter: metrics::counter("stream/bytes"),
            sessions_counter: metrics::counter("stream/sessions_completed"),
            windows_counter: metrics::counter("stream/windows_closed"),
            open_gauge: metrics::gauge("stream/open_sessions"),
            peak_gauge: metrics::gauge("stream/peak_open_sessions"),
            occupancy_gauge: metrics::gauge("stream/ttl_map_occupancy"),
            watermark_lag_gauge: metrics::gauge("stream/watermark_lag_secs"),
            evict_rate_gauge: metrics::gauge("stream/eviction_rate_per_sec"),
            backlog_gauge: metrics::gauge("stream/chunk_backlog"),
            live_bytes_hist: metrics::histogram("stream/response_bytes"),
            live_duration_hist: metrics::histogram("stream/session_duration_secs"),
            alpha_ci_gauge: metrics::gauge("estimator_confidence/alpha_ci_half_width"),
            h_ci_gauge: metrics::gauge("estimator_confidence/h_ci_half_width"),
            r_squared_gauge: metrics::gauge("estimator_confidence/r_squared"),
            agreement_gauge: metrics::gauge("estimator_confidence/agreement_score"),
            cfg,
        })
    }

    /// Attach the run's observatory. Without a governor a restored
    /// degradation mode is dropped: nothing would ever walk it back.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        if self.telemetry.governor().is_none() && self.degradation_mode != 0 {
            self.degradation_mode = 0;
            self.apply_degradation(false);
        }
        self
    }

    /// Feed one record (timestamps must be nondecreasing).
    ///
    /// # Errors
    ///
    /// [`webpuzzle_weblog::WeblogError::Unsorted`] on out-of-order
    /// input; estimator errors from a window that closed on this push.
    pub fn push(&mut self, record: &LogRecord) -> Result<()> {
        // Degradation mode tracks the governor on the same 64-record
        // cadence as the health gauges; the counter includes hard sheds
        // so a Red engine keeps re-reading the governor and relaxes.
        if (self.records + self.hard_shed_records).is_multiple_of(64) {
            self.update_degradation();
        }
        // Red: refuse records that would open a *new* session — the
        // one admission that grows the TTL map. Existing sessions keep
        // absorbing, and every refusal is counted.
        if self.degradation_mode == 2 && !self.sessionizer.is_open(record.client) {
            self.hard_shed_records += 1;
            self.hard_shed_counter.incr();
            return Ok(());
        }
        // Flight recorder: adopt the trace the source began for this
        // record, or start one iff the deterministic record index is
        // sampled. Inactive timers take no timestamps at all.
        let mut timer = profile::record_timer(self.records, record.timestamp);
        let started = self.sessionizer.push(record, &mut self.session_buf)?;
        timer.mark(Stage::Sessionize);
        // Degraded sampling gates the per-record estimators only:
        // totals, sessionization, and arrival windows stay exact. The
        // stride is deterministic in the record index, so a resumed
        // run samples identically.
        let sampled =
            self.degradation_mode == 0 || self.records.is_multiple_of(DEGRADED_SAMPLING_STRIDE);
        self.records += 1;
        self.bytes += record.bytes;
        self.records_counter.incr();
        self.bytes_counter.add(record.bytes);
        if sampled {
            self.response_bytes.push(record.bytes as f64);
            self.live_bytes_hist.record(record.bytes);
        } else {
            self.sampled_out += 1;
            self.sampled_out_counter.incr();
        }

        // Window closes are rare and expensive (variance-time + the
        // Poisson battery), so while profiling they are timed on every
        // occurrence, not 1-in-N — a one-comparison pre-check decides
        // whether any timestamp is taken.
        let closing = profile::is_enabled() && self.request_arrivals.would_close(record.timestamp);
        let close_start = closing.then(std::time::Instant::now);
        let closed_from = self.request_windows.len();
        self.request_arrivals
            .push(record.timestamp, &mut self.window_buf)?;
        Self::drain_windows(
            &mut self.window_buf,
            &mut self.request_windows,
            &self.windows_counter,
        );
        if self.request_windows.len() > closed_from {
            self.observe_closed_windows(closed_from);
        }
        // The record that crossed a window boundary belongs to the new
        // window, so it joins the per-window accumulators *after* the
        // closed window was observed (the boundary-spanning
        // inter-arrival gap is charged to the new window).
        if sampled {
            self.window_bytes.push(record.bytes as f64);
            if self.last_arrival.is_finite() {
                self.window_interarrival
                    .push(record.timestamp - self.last_arrival);
            }
        }
        self.last_arrival = record.timestamp;
        if started {
            self.session_arrivals
                .push(record.timestamp, &mut self.window_buf)?;
            Self::drain_windows(
                &mut self.window_buf,
                &mut self.session_windows,
                &self.windows_counter,
            );
        }
        if let Some(t0) = close_start {
            profile::record_stage_ns(Stage::WindowClose, t0.elapsed().as_nanos() as u64);
            timer.resync();
            self.publish_window_timing(closed_from);
        }

        if !self.session_buf.is_empty() {
            self.backlog_gauge.set(self.session_buf.len() as f64);
            let evicted = std::mem::take(&mut self.session_buf);
            for session in &evicted {
                self.absorb_session(session);
            }
        }
        // Gauges are scraped at ≥ 1 s granularity, so refreshing them on
        // every 64th record keeps the hot path free of per-push atomic
        // stores without visible staleness (finish() does a final sync).
        if self.records.is_multiple_of(64) {
            self.update_health_gauges();
        }
        timer.mark(Stage::Estimators);
        timer.finish();
        Ok(())
    }

    /// Close all open sessions and the trailing window, and return the
    /// final summary. Further [`StreamAnalyzer::push`] calls are
    /// rejected as unsorted by the sessionizer's watermark only if they
    /// go backwards; calling `finish` twice is harmless.
    ///
    /// # Errors
    ///
    /// Estimator errors from the trailing window analysis.
    pub fn finish(&mut self) -> Result<StreamSummary> {
        if !self.finished {
            self.finished = true;
            let mut drained = std::mem::take(&mut self.session_buf);
            self.sessionizer.finish(&mut drained);
            for session in &drained {
                self.absorb_session(session);
            }
            let closed_from = self.request_windows.len();
            let close_start = profile::is_enabled().then(std::time::Instant::now);
            self.request_arrivals.finish(&mut self.window_buf)?;
            Self::drain_windows(
                &mut self.window_buf,
                &mut self.request_windows,
                &self.windows_counter,
            );
            if self.request_windows.len() > closed_from {
                self.observe_closed_windows(closed_from);
            }
            if let Some(t0) = close_start {
                if self.request_windows.len() > closed_from {
                    profile::record_stage_ns(Stage::WindowClose, t0.elapsed().as_nanos() as u64);
                    self.publish_window_timing(closed_from);
                }
            }
            self.session_arrivals.finish(&mut self.window_buf)?;
            Self::drain_windows(
                &mut self.window_buf,
                &mut self.session_windows,
                &self.windows_counter,
            );
            self.update_health_gauges();
            self.open_gauge.set(0.0);
            self.occupancy_gauge.set(0.0);
            if self.cfg.diagnostics {
                self.telemetry.set_diagnostics(self.diagnostics_report());
            }
        }
        Ok(self.summary())
    }

    /// A snapshot of everything estimated so far — valid mid-stream
    /// (open sessions and the current partial window are *not*
    /// included) and after [`StreamAnalyzer::finish`] (everything is).
    pub fn summary(&self) -> StreamSummary {
        StreamSummary {
            records: self.records,
            sessions: self.sessionizer.emitted(),
            open_sessions: self.sessionizer.open_sessions(),
            peak_open_sessions: self.sessionizer.peak_open_sessions(),
            bytes: self.bytes,
            response_bytes: self.response_bytes.snapshot(),
            session_duration: self.session_duration.snapshot(),
            session_requests: self.session_requests.snapshot(),
            session_bytes: self.session_bytes.snapshot(),
            duration_tail: self.tail_snapshot(&self.duration_tail),
            requests_tail: self.tail_snapshot(&self.requests_tail),
            bytes_tail: self.tail_snapshot(&self.bytes_tail),
            request_windows: self.request_windows.clone(),
            session_windows: self.session_windows.clone(),
            drift: self.observatory.summary(),
            shed_sessions: self.sessionizer.shed_sessions(),
            shed_records: self.sessionizer.shed_records(),
            diagnostics: self.diagnostics_report(),
            hard_shed_records: self.hard_shed_records,
            sampled_out: self.sampled_out,
            sampling_stride: if self.degradation_mode >= 1 {
                DEGRADED_SAMPLING_STRIDE
            } else {
                1
            },
            early_evicted_sessions: self.sessionizer.early_evicted(),
        }
    }

    /// Engine configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Records pushed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Drift results so far (cheaper than a full [`StreamAnalyzer::summary`]).
    pub fn drift_summary(&self) -> DriftSummary {
        self.observatory.summary()
    }

    /// Export the engine's complete mutable state for checkpointing.
    ///
    /// Valid at any push boundary; the internal session/window buffers
    /// are always drained within the push that filled them, so they are
    /// never part of the state.
    pub fn export_state(&self) -> EngineState {
        EngineState {
            sessionizer: self.sessionizer.export_state(),
            request_arrivals: self.request_arrivals.export_state(),
            session_arrivals: self.session_arrivals.export_state(),
            request_windows: self.request_windows.clone(),
            session_windows: self.session_windows.clone(),
            response_bytes: self.response_bytes.raw_parts(),
            session_duration: self.session_duration.raw_parts(),
            session_requests: self.session_requests.raw_parts(),
            session_bytes: self.session_bytes.raw_parts(),
            duration_tail: self.duration_tail.export_state(),
            requests_tail: self.requests_tail.export_state(),
            bytes_tail: self.bytes_tail.export_state(),
            records: self.records,
            bytes: self.bytes,
            observatory: self.observatory.export_state(),
            window_bytes: self.window_bytes.raw_parts(),
            last_emitted: self.last_emitted,
            last_evict_time: self.last_evict_time,
            window_interarrival: self.window_interarrival.raw_parts(),
            last_arrival: self.last_arrival,
            diagnostics_windows: self.diagnostics_windows.clone(),
            degradation_mode: self.degradation_mode,
            sampled_out: self.sampled_out,
            hard_shed_records: self.hard_shed_records,
            forced_checkpoint_due: self.forced_checkpoint_due,
        }
    }

    /// Rebuild an engine from a configuration plus exported state. The
    /// restored engine produces a [`StreamSummary`] bit-identical to
    /// the uninterrupted run when fed the remaining records.
    ///
    /// Registry metrics restart from zero (process lifetime, see
    /// [`EngineState`]); the shed-event bookkeeping is seeded so a
    /// restore never re-announces sheds already reported.
    ///
    /// # Errors
    ///
    /// Rejects a state whose sessionizer threshold is invalid, as
    /// [`StreamAnalyzer::new`] would.
    pub fn restore(cfg: StreamConfig, state: &EngineState) -> Result<Self> {
        let mut engine = StreamAnalyzer::new(cfg)?;
        engine.sessionizer = StreamSessionizer::from_state(state.sessionizer.clone())?;
        engine.request_arrivals = WindowedArrivals::restore(
            engine.cfg.request_window.clone(),
            state.request_arrivals.clone(),
        );
        engine.session_arrivals = WindowedArrivals::restore(
            engine.cfg.session_window.clone(),
            state.session_arrivals.clone(),
        );
        engine.request_windows = state.request_windows.clone();
        engine.session_windows = state.session_windows.clone();
        let (n, mean, m2) = state.response_bytes;
        engine.response_bytes = Welford::from_raw_parts(n, mean, m2);
        let (n, mean, m2) = state.session_duration;
        engine.session_duration = Welford::from_raw_parts(n, mean, m2);
        let (n, mean, m2) = state.session_requests;
        engine.session_requests = Welford::from_raw_parts(n, mean, m2);
        let (n, mean, m2) = state.session_bytes;
        engine.session_bytes = Welford::from_raw_parts(n, mean, m2);
        let (k, seen, retained) = &state.duration_tail;
        engine.duration_tail = TopK::from_state(*k, *seen, retained);
        let (k, seen, retained) = &state.requests_tail;
        engine.requests_tail = TopK::from_state(*k, *seen, retained);
        let (k, seen, retained) = &state.bytes_tail;
        engine.bytes_tail = TopK::from_state(*k, *seen, retained);
        engine.records = state.records;
        engine.bytes = state.bytes;
        engine.observatory = DriftObservatory::restore(
            &engine.cfg.observatory,
            engine.cfg.request_window.window_len,
            &state.observatory,
        );
        let (n, mean, m2) = state.window_bytes;
        engine.window_bytes = Welford::from_raw_parts(n, mean, m2);
        engine.last_emitted = state.last_emitted;
        engine.last_evict_time = state.last_evict_time;
        let (n, mean, m2) = state.window_interarrival;
        engine.window_interarrival = Welford::from_raw_parts(n, mean, m2);
        engine.last_arrival = state.last_arrival;
        engine.diagnostics_windows = state.diagnostics_windows.clone();
        engine.shed_synced = engine.sessionizer.shed_sessions();
        engine.shed_records_synced = engine.sessionizer.shed_records();
        engine.degradation_mode = state.degradation_mode;
        engine.sampled_out = state.sampled_out;
        engine.hard_shed_records = state.hard_shed_records;
        engine.forced_checkpoint_due = state.forced_checkpoint_due;
        // Re-apply the restored mode (gauge + TTL scale); the restore
        // path never re-forces a checkpoint the flag doesn't carry.
        engine.apply_degradation(false);
        Ok(engine)
    }

    /// Feed every request window closed since `from` to the drift
    /// observatory, publishing any alarms to the global event ring.
    /// The per-window bytes accumulator describes the oldest closed
    /// window (later ones, if any, were empty quiet stretches) and is
    /// recycled here.
    fn observe_closed_windows(&mut self, from: usize) {
        let window_len = self.cfg.request_window.window_len;
        let alpha = self
            .bytes_tail
            .hill_with_k_max(self.bytes_tail.batch_k_max(self.cfg.tail_fraction));
        let observations: Vec<WindowObservation> = self.request_windows[from..]
            .iter()
            .enumerate()
            .map(|(i, w)| WindowObservation {
                index: w.index,
                start: w.start,
                rate: w.events as f64 / window_len,
                bytes_mean: if i == 0 && self.window_bytes.count() > 0 {
                    Some(self.window_bytes.mean())
                } else {
                    None
                },
                hill_alpha: alpha,
                h_variance_time: w.h_variance_time,
            })
            .collect();
        let diag_rows: Vec<WindowDiagnostics> = if self.cfg.diagnostics {
            let scan = diagnostics::scan_tail(&self.bytes_tail, self.cfg.tail_fraction);
            self.request_windows[from..]
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    diagnostics::window_row(
                        w,
                        scan.as_ref(),
                        (i == 0).then_some(&self.window_bytes),
                        (i == 0).then_some(&self.window_interarrival),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        self.window_bytes = Welford::new();
        self.window_interarrival = Welford::new();
        for obs in &observations {
            for event in self.observatory.observe(obs) {
                webpuzzle_obs::events::publish(event);
            }
        }
        if self.cfg.diagnostics {
            for row in &diag_rows {
                if let Some(v) = row.alpha_ci_half_width {
                    self.alpha_ci_gauge.set(v);
                }
                if let Some(v) = row.h_ci_half_width {
                    self.h_ci_gauge.set(v);
                }
                if let Some(v) = row.h_r_squared {
                    self.r_squared_gauge.set(v);
                }
                if let Some(v) = row.agreement_score {
                    self.agreement_gauge.set(v);
                }
                if let Some(event) = diagnostics::events_for(row) {
                    webpuzzle_obs::events::publish(event);
                }
            }
            self.diagnostics_windows.extend(diag_rows);
            self.telemetry.set_diagnostics(self.diagnostics_report());
        }
    }

    /// The estimator confidence/agreement evidence accumulated so far,
    /// as the schema-versioned report served at `/diagnostics` and
    /// embedded in [`StreamSummary`]. When the engine runs with
    /// [`StreamConfig::diagnostics`] off, the report is empty with
    /// `enabled: false`.
    pub fn diagnostics_report(&self) -> DiagnosticsReport {
        diagnostics::build_report(self.cfg.diagnostics, self.diagnostics_windows.clone())
    }

    /// Publish one Info timeline event for the window-close batch that
    /// just happened: per-stage self-time accumulated since the
    /// previous timing event, plus the watermark lag behind the newest
    /// closed window's end. Batches are singletons except across quiet
    /// gaps (empty windows closed by one push share a delta). Only
    /// called while profiling is enabled, so runs without `--profile`
    /// leave the event ring and JSONL log untouched.
    fn publish_window_timing(&mut self, closed_from: usize) {
        if self.request_windows.len() <= closed_from {
            return;
        }
        let Some(last) = self.request_windows.last() else {
            return;
        };
        let totals = profile::stage_totals();
        let mut breakdown = String::new();
        let mut delta_total_ns = 0u64;
        for (i, stage) in profile::STAGES.iter().enumerate() {
            let d = totals[i].wrapping_sub(self.profile_totals[i]);
            if d > 0 {
                if !breakdown.is_empty() {
                    breakdown.push_str(", ");
                }
                breakdown.push_str(&format!("{} {:.2}ms", stage.as_str(), d as f64 / 1e6));
                delta_total_ns += d;
            }
        }
        self.profile_totals = totals;
        let end = last.start + self.cfg.request_window.window_len;
        let lag = (self.sessionizer.watermark() - end).max(0.0);
        let self_time_ms = delta_total_ns as f64 / 1e6;
        webpuzzle_obs::events::publish(webpuzzle_obs::events::Event::new(
            webpuzzle_obs::events::Severity::Info,
            "flight_recorder",
            "window_timing",
            last.index,
            last.start,
            0.0,
            self_time_ms,
            lag,
            0.0,
            format!(
                "window {} pipeline self-time {:.2} ms ({}), watermark lag {:.1} s",
                last.index,
                self_time_ms,
                if breakdown.is_empty() {
                    "sampled stages idle"
                } else {
                    &breakdown
                },
                lag
            ),
        ));
    }

    /// Re-read the run's governor (when it has one) and apply any stage
    /// change. Called on the 64-record cadence, so a mode is stable
    /// between cadence boundaries and a resumed run — which restores
    /// the mode and the counters the cadence is computed from —
    /// re-applies it at the same record indexes.
    fn update_degradation(&mut self) {
        let Some(governor) = self.telemetry.governor() else {
            return;
        };
        let mode = governor.state().code();
        if mode != self.degradation_mode {
            self.degradation_mode = mode;
            self.apply_degradation(true);
        }
    }

    /// Wire the current mode into the sessionizer and gauges. `entered`
    /// distinguishes a live transition (Red entry forces a checkpoint)
    /// from a restore re-applying saved state.
    fn apply_degradation(&mut self, entered: bool) {
        let scale = if self.degradation_mode >= 1 {
            DEGRADED_TTL_SCALE
        } else {
            1.0
        };
        self.sessionizer.set_ttl_scale(scale);
        if entered && self.degradation_mode == 2 {
            self.forced_checkpoint_due = true;
        }
        self.mode_gauge.set(self.degradation_mode as f64);
    }

    /// True once after the engine enters Red — the supervisor's cue to
    /// write an immediate checkpoint. Reading clears the flag (it is
    /// checkpointed, so a crash between Red entry and the forced write
    /// re-arms on restore).
    pub fn take_forced_checkpoint(&mut self) -> bool {
        std::mem::take(&mut self.forced_checkpoint_due)
    }

    /// Governor degradation mode the engine is currently applying
    /// (0 = Green, 1 = Yellow, 2 = Red).
    pub fn degradation_mode(&self) -> u8 {
        self.degradation_mode
    }

    #[cfg(test)]
    pub(crate) fn force_mode(&mut self, mode: u8) {
        self.degradation_mode = mode;
        self.apply_degradation(true);
    }

    /// Refresh the pipeline-health gauges: TTL-map occupancy, eviction
    /// staleness relative to the watermark, and the eviction rate over
    /// the stretch since sessions last left the map.
    fn update_health_gauges(&mut self) {
        // The eviction buffer is drained within the push that filled it,
        // so by sync time the true backlog is always zero; the gauge
        // holds the last batch size until this decay.
        self.backlog_gauge.set(0.0);
        let open = self.sessionizer.open_sessions() as f64;
        self.open_gauge.set(open);
        self.occupancy_gauge.set(open);
        // Session occupancy is one of the governor's budget inputs;
        // evaluate here too so a hub-less binary (stream-analyze)
        // still walks the stage machine on the health-gauge cadence.
        if let Some(governor) = self.telemetry.governor() {
            governor.set_sessions(self.sessionizer.open_sessions() as u64);
            governor.evaluate();
        }
        self.peak_gauge
            .set(self.sessionizer.peak_open_sessions() as f64);
        let sweep = self.sessionizer.last_sweep();
        if sweep.is_finite() {
            self.watermark_lag_gauge
                .set(self.sessionizer.watermark() - sweep);
        }
        let shed = self.sessionizer.shed_sessions();
        if shed > self.shed_synced {
            let shed_records = self.sessionizer.shed_records();
            self.shed_counter
                .add(shed_records - self.shed_records_synced);
            webpuzzle_obs::events::publish(webpuzzle_obs::events::Event::new(
                webpuzzle_obs::events::Severity::Warn,
                "load_shed",
                "stream/open_sessions",
                0,
                self.sessionizer.watermark(),
                self.sessionizer.max_open() as f64,
                self.sessionizer.open_sessions() as f64,
                shed as f64,
                self.sessionizer.max_open() as f64,
                format!(
                    "load shedding: {} sessions ({} records) truncated early at \
                     max_open_sessions = {}",
                    shed,
                    shed_records,
                    self.sessionizer.max_open()
                ),
            ));
            self.shed_synced = shed;
            self.shed_records_synced = shed_records;
        }
        let emitted = self.sessionizer.emitted();
        if emitted > self.last_emitted {
            if self.last_evict_time.is_finite() {
                let dt = self.sessionizer.watermark() - self.last_evict_time;
                if dt > 0.0 {
                    self.evict_rate_gauge
                        .set((emitted - self.last_emitted) as f64 / dt);
                }
            }
            self.last_emitted = emitted;
            self.last_evict_time = self.sessionizer.watermark();
        }
    }

    fn tail_snapshot(&self, tail: &TopK) -> TailSnapshot {
        TailSnapshot {
            seen: tail.seen(),
            retained: tail.retained(),
            alpha: tail.hill_with_k_max(tail.batch_k_max(self.cfg.tail_fraction)),
        }
    }

    fn absorb_session(&mut self, session: &Session) {
        self.sessions_counter.incr();
        let duration = session.duration();
        self.session_duration.push(duration);
        self.session_requests.push(session.request_count as f64);
        self.session_bytes.push(session.bytes as f64);
        self.duration_tail.push(duration);
        self.requests_tail.push(session.request_count as f64);
        self.bytes_tail.push(session.bytes as f64);
        self.live_duration_hist.record(duration.max(0.0) as u64);
    }

    fn drain_windows(
        buf: &mut Vec<WindowReport>,
        into: &mut Vec<WindowReport>,
        counter: &metrics::Counter,
    ) {
        if !buf.is_empty() {
            counter.add(buf.len() as u64);
            into.append(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_weblog::{sessionize, Method};

    fn record(t: f64, client: u32, bytes: u64) -> LogRecord {
        LogRecord::new(t, client, Method::Get, client, 200, bytes)
    }

    fn small_config() -> StreamConfig {
        StreamConfig {
            session_threshold: 100.0,
            request_window: WindowConfig {
                window_len: 600.0,
                fine_bin_width: None,
                min_poisson_arrivals: 5,
                ..WindowConfig::default()
            },
            session_window: WindowConfig {
                window_len: 600.0,
                fine_bin_width: None,
                min_poisson_arrivals: 5,
                ..WindowConfig::default()
            },
            ..StreamConfig::default()
        }
    }

    #[test]
    fn counts_match_batch_pipeline() {
        let records: Vec<LogRecord> = (0..2_000)
            .map(|i| {
                record(
                    i as f64 * 1.7,
                    (i % 37) as u32,
                    100 + (i * 13) as u64 % 5_000,
                )
            })
            .collect();
        let mut engine = StreamAnalyzer::new(small_config()).unwrap();
        for r in &records {
            engine.push(r).unwrap();
        }
        let summary = engine.finish().unwrap();
        let batch = sessionize(&records, 100.0).unwrap();
        assert_eq!(summary.records, 2_000);
        assert_eq!(summary.sessions, batch.len() as u64);
        assert_eq!(summary.bytes, records.iter().map(|r| r.bytes).sum::<u64>());
        assert_eq!(summary.open_sessions, 0);
        assert_eq!(
            summary.session_requests.count + summary.session_duration.count,
            2 * batch.len() as u64
        );
    }

    #[test]
    fn moments_match_batch_sessions() {
        let records: Vec<LogRecord> = (0..5_000)
            .map(|i| record(i as f64 * 0.9, (i % 113) as u32, (i * 7) as u64 % 9_000 + 1))
            .collect();
        let mut engine = StreamAnalyzer::new(small_config()).unwrap();
        for r in &records {
            engine.push(r).unwrap();
        }
        let summary = engine.finish().unwrap();
        let batch = sessionize(&records, 100.0).unwrap();
        let durations: Vec<f64> = batch.iter().map(|s| s.duration()).collect();
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        assert!((summary.session_duration.mean - mean).abs() < 1e-9);
        let bytes_mean = batch.iter().map(|s| s.bytes as f64).sum::<f64>() / batch.len() as f64;
        assert!((summary.session_bytes.mean - bytes_mean).abs() < 1e-6);
    }

    #[test]
    fn windows_appear_in_the_summary() {
        let mut engine = StreamAnalyzer::new(small_config()).unwrap();
        // 0.5 s spacing over 310 clients: each client recurs every
        // 155 s — past the 100 s threshold — so sessions start (and
        // complete) throughout the stream, not just at the front.
        for i in 0..3_100u32 {
            engine.push(&record(i as f64 * 0.5, i % 310, 256)).unwrap();
        }
        let summary = engine.finish().unwrap();
        // 1549.5 s of traffic over 600 s windows: 2 full windows plus a
        // more-than-half-covered trailing stub.
        assert_eq!(summary.request_windows.len(), 3);
        assert!(summary.request_windows[0].events > 0);
        assert_eq!(summary.session_windows.len(), 3);
    }

    #[test]
    fn mid_stream_summary_is_partial_but_consistent() {
        let mut engine = StreamAnalyzer::new(small_config()).unwrap();
        for i in 0..500u32 {
            engine.push(&record(i as f64 * 2.0, i % 7, 64)).unwrap();
        }
        let partial = engine.summary();
        assert_eq!(partial.records, 500);
        assert_eq!(partial.open_sessions, 7);
        assert!(partial.sessions < 500);
        let fin = engine.finish().unwrap();
        assert_eq!(fin.open_sessions, 0);
        assert!(fin.sessions >= partial.sessions);
        // finish() is idempotent.
        let again = engine.finish().unwrap();
        assert_eq!(again, fin);
    }

    #[test]
    fn state_round_trip_reproduces_the_summary_bit_for_bit() {
        let records: Vec<LogRecord> = (0..4_000)
            .map(|i| {
                record(
                    i as f64 * 0.8,
                    (i % 211) as u32,
                    50 + (i * 31) as u64 % 12_000,
                )
            })
            .collect();
        let split = 1_777;

        let mut whole = StreamAnalyzer::new(small_config()).unwrap();
        for r in &records {
            whole.push(r).unwrap();
        }
        let expected = whole.finish().unwrap();

        let mut first = StreamAnalyzer::new(small_config()).unwrap();
        for r in &records[..split] {
            first.push(r).unwrap();
        }
        let state = first.export_state();
        let mut second = StreamAnalyzer::restore(small_config(), &state).unwrap();
        assert_eq!(second.export_state(), state);
        for r in &records[split..] {
            second.push(r).unwrap();
        }
        let resumed = second.finish().unwrap();

        assert_eq!(resumed, expected);
    }

    #[test]
    fn diagnostics_rows_accrue_only_when_enabled() {
        let cfg = StreamConfig {
            diagnostics: true,
            ..small_config()
        };
        let mut engine = StreamAnalyzer::new(cfg).unwrap();
        for i in 0..3_100u32 {
            engine
                .push(&record(
                    i as f64 * 0.5,
                    i % 310,
                    100 + (i as u64 * 37) % 20_000,
                ))
                .unwrap();
        }
        let summary = engine.finish().unwrap();
        assert!(summary.diagnostics.enabled);
        assert_eq!(
            summary.diagnostics.windows.len(),
            summary.request_windows.len()
        );
        for (row, w) in summary
            .diagnostics
            .windows
            .iter()
            .zip(&summary.request_windows)
        {
            assert_eq!(row.index, w.index);
            assert_eq!(row.h, w.h_variance_time);
            assert_eq!(row.h_ci_half_width, w.h_ci_half_width);
        }
        // The first closed window carries the mean CIs; later windows
        // in the same run get their own accumulators.
        let first = &summary.diagnostics.windows[0];
        assert!(first.bytes_mean.is_some());
        assert!(first.bytes_mean_ci_half_width.is_some());
        assert!(first.interarrival_mean.is_some());

        // A default-config run publishes the block but no rows.
        let mut off = StreamAnalyzer::new(small_config()).unwrap();
        for i in 0..3_100u32 {
            off.push(&record(i as f64 * 0.5, i % 310, 256)).unwrap();
        }
        let off_summary = off.finish().unwrap();
        assert!(!off_summary.diagnostics.enabled);
        assert!(off_summary.diagnostics.windows.is_empty());
    }

    #[test]
    fn diagnostics_state_round_trips_bit_for_bit() {
        let cfg = || StreamConfig {
            diagnostics: true,
            ..small_config()
        };
        let records: Vec<LogRecord> = (0..4_000)
            .map(|i| {
                record(
                    i as f64 * 0.8,
                    (i % 211) as u32,
                    50 + (i * 31) as u64 % 12_000,
                )
            })
            .collect();
        let split = 2_333;

        let mut whole = StreamAnalyzer::new(cfg()).unwrap();
        for r in &records {
            whole.push(r).unwrap();
        }
        let expected = whole.finish().unwrap();
        assert!(!expected.diagnostics.windows.is_empty());

        let mut first = StreamAnalyzer::new(cfg()).unwrap();
        for r in &records[..split] {
            first.push(r).unwrap();
        }
        let state = first.export_state();
        let mut second = StreamAnalyzer::restore(cfg(), &state).unwrap();
        assert_eq!(second.export_state(), state);
        for r in &records[split..] {
            second.push(r).unwrap();
        }
        let resumed = second.finish().unwrap();

        assert_eq!(resumed, expected);
        assert_eq!(resumed.diagnostics, expected.diagnostics);
    }

    #[test]
    fn capped_engine_sheds_and_reports() {
        let cfg = StreamConfig {
            max_open_sessions: 20,
            ..small_config()
        };
        let mut engine = StreamAnalyzer::new(cfg).unwrap();
        // 97 clients interleaved at 0.5 s spacing: every client's
        // session stays live (recurrence 48.5 s < 100 s threshold), so
        // the 20-session cap must shed.
        for i in 0..2_000u32 {
            engine.push(&record(i as f64 * 0.5, i % 97, 128)).unwrap();
        }
        let summary = engine.finish().unwrap();
        assert!(summary.shed_sessions > 0);
        assert!(summary.shed_records > 0);
        assert!(summary.peak_open_sessions <= 20);
        // Shed sessions are truncated, not dropped: every record still
        // belongs to exactly one completed session.
        let total_requests = summary.session_requests.mean * summary.session_requests.count as f64;
        assert!((total_requests - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn yellow_sampling_widens_counts_honestly_and_round_trips() {
        let records: Vec<LogRecord> = (0..2_000)
            .map(|i| {
                record(
                    i as f64 * 0.9,
                    (i % 61) as u32,
                    100 + (i * 17) as u64 % 4_000,
                )
            })
            .collect();
        let run = |split: Option<usize>| {
            let mut engine = StreamAnalyzer::new(small_config()).unwrap();
            engine.force_mode(1);
            let split = split.unwrap_or(records.len());
            for r in &records[..split] {
                engine.push(r).unwrap();
            }
            if split < records.len() {
                let state = engine.export_state();
                engine = StreamAnalyzer::restore(small_config(), &state).unwrap();
                assert_eq!(engine.export_state(), state);
                for r in &records[split..] {
                    engine.push(r).unwrap();
                }
            }
            engine.finish().unwrap()
        };
        let whole = run(None);
        // 1-in-4 sampling: the estimator count shrinks by the stride,
        // every skip is counted, totals stay exact.
        assert_eq!(whole.sampling_stride, DEGRADED_SAMPLING_STRIDE);
        assert_eq!(whole.sampled_out, 1_500);
        assert_eq!(whole.response_bytes.count, 500);
        assert_eq!(whole.records, 2_000);
        assert_eq!(
            whole.bytes,
            records.iter().map(|r| r.bytes).sum::<u64>(),
            "byte totals are never sampled"
        );
        // The stride is deterministic in the record index, so a
        // kill-and-resume run reproduces the summary bit for bit.
        let resumed = run(Some(777));
        assert_eq!(resumed, whole);
    }

    #[test]
    fn red_hard_sheds_new_sessions_but_feeds_open_ones() {
        let mut engine = StreamAnalyzer::new(small_config()).unwrap();
        // Open sessions for clients 0..5 while Green.
        for i in 0..5u32 {
            engine.push(&record(i as f64, i, 64)).unwrap();
        }
        engine.force_mode(2);
        assert!(
            engine.take_forced_checkpoint(),
            "Red entry forces a checkpoint"
        );
        assert!(!engine.take_forced_checkpoint(), "the flag reads once");
        // Known clients keep absorbing; strangers are refused, counted.
        for i in 0..20u32 {
            engine.push(&record(10.0 + i as f64, i % 10, 64)).unwrap();
        }
        let summary = engine.finish().unwrap();
        assert_eq!(
            summary.hard_shed_records, 10,
            "clients 5..10 refused twice each"
        );
        assert_eq!(summary.records, 5 + 10);
        assert_eq!(summary.sessions, 5, "no new sessions under Red");
    }

    #[test]
    fn rejects_invalid_threshold() {
        let cfg = StreamConfig {
            session_threshold: 0.0,
            ..StreamConfig::default()
        };
        assert!(StreamAnalyzer::new(cfg).is_err());
    }
}
