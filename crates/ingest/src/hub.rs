//! Thread-safe heart of the ingest service: connection threads push
//! parsed records in, one analyzer thread pops the merged stream out.
//!
//! The hub wraps a [`WatermarkMerger`] in a mutex + two condvars and
//! adds the three operational behaviors the pure merger does not have:
//!
//! - **Backpressure**: each source's buffer is bounded by
//!   `queue_capacity`. [`SourceHandle::push_batch`] blocks while its
//!   source is full, which stops the connection thread reading, which
//!   fills the kernel TCP buffers, which blocks the *sender's* socket.
//!   The slow consumer slows the producer; nothing is dropped silently,
//!   and everything that is dropped (late, resume-duplicate,
//!   stall-late) is counted. A blocked pusher is woken once its buffer
//!   is half drained, or when the merge has nothing to release and the
//!   pusher has room, so a saturated source costs one wake-up per half
//!   buffer, not per record.
//! - **Stall grace**: a source that stays open but silent would dam the
//!   merge forever (its watermark vetoes every release). When nothing
//!   has moved for `stall_grace` and records are buffered, the hub
//!   marks idle sources stalled — releases proceed without them and a
//!   `Warn` event records the decision.
//! - **Metrics**: per-source queue depth and watermark lag, global
//!   queue depth, shed counters — all live on `/metrics` while the
//!   service runs.
//! - **Adaptive admission** (overload governor): every source carries a
//!   [`Priority`] class; when the run's [`webpuzzle_obs::governor`]
//!   leaves Green, push-side admission sheds the lowest-priority
//!   records first, proportionally to pressure, counted under
//!   `ingest/records_pressure_shed` — never silently. Backpressure still
//!   protects Green operation; shedding only starts once the run's
//!   budget is threatened.
//! - **Circuit breakers**: a source whose malformed/torn/oversized rate
//!   stays above [`BreakerConfig::trip_ratio`] across a
//!   [`BreakerConfig::window`]-line window is tripped open — its
//!   records are dropped (counted under
//!   `ingest/records_breaker_dropped`) until a cooldown elapses, then
//!   re-admitted through a half-open probe window that closes the
//!   breaker only if the probes come back clean.
//!
//! End-of-stream is explicit: with `expected_sources = Some(n)` the
//! merged stream ends once `n` sources have connected, all of them have
//! closed, and the buffers are drained (how the CI equivalence gate and
//! the tests get a deterministic finish); [`IngestHub::finish`] forces
//! the same from outside. Declaring `expected_sources` also gates the
//! *start*: nothing is released until all `n` sources have registered,
//! so an early-connecting source cannot race its records past a
//! later-connecting source whose timestamps sort first. A source that
//! never shows up lifts the gate after the stall grace (counted, with a
//! `Warn` event) instead of damming the merge forever.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use webpuzzle_obs::governor::{Governor, PressureState};
use webpuzzle_obs::{events, metrics, Telemetry};
use webpuzzle_stream::SourcePosition;
use webpuzzle_weblog::clf::MALFORMED_SKIPPED_COUNTER;
use webpuzzle_weblog::{LogRecord, MalformedBreakdown, MalformedKind};

use crate::merge::{PushOutcome, WatermarkMerger};

/// How often the blocking pop re-checks for stalls while idle.
const POP_TICK: Duration = Duration::from_millis(100);
/// Pop-side gauge refresh cadence, in records.
const GAUGE_EVERY: u64 = 64;

/// Admission priority of a source. Under governor pressure the hub
/// sheds `Low` before `Normal` and never sheds `High` — the operator's
/// knob for "my canary trickle must survive the bot flood".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Shed last (never by the hub): control traffic, canaries.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Shed first: bulk backfill, untrusted floods.
    Low,
}

impl Priority {
    /// Lower-case token used in wire directives and counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parse a wire/CLI token (case-insensitive).
    pub fn parse(token: &str) -> Option<Priority> {
        match token.trim().to_ascii_lowercase().as_str() {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// Per-source circuit-breaker thresholds. All counts are in *lines*
/// (records pushed plus malformed/torn/oversized notes), so breaker
/// behavior is a deterministic function of the wire history — the shed
/// conservation property test relies on that.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Lines per evaluation window.
    pub window: u64,
    /// Bad-line fraction at or above which the breaker trips.
    pub trip_ratio: f64,
    /// Lines (including dropped ones) the breaker stays open before
    /// probing.
    pub cooldown: u64,
    /// Clean probe records required to close from half-open.
    pub probes: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 64,
            trip_ratio: 0.5,
            cooldown: 256,
            probes: 16,
        }
    }
}

/// Breaker state machine. `Closed` admits and watches the bad-line
/// rate; `Open` drops everything while a cooldown runs down; `HalfOpen`
/// admits a bounded probe batch and re-trips on the first bad line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { cooldown_left: u64 },
    HalfOpen { probes_left: u64 },
}

/// Push-side admission state for one source: its priority class, its
/// breaker, and the fractional-shed accumulator (Bresenham-style, so a
/// shed fraction of 0.3 drops exactly 3 of every 10 records,
/// deterministically).
#[derive(Debug)]
struct Admission {
    priority: Priority,
    breaker: BreakerState,
    window_lines: u64,
    window_bad: u64,
    shed_accum: f64,
    /// Pushers of this source waiting for room in its buffer.
    waiting: u32,
    /// Times a pusher of this source has returned from that wait.
    wakeups: u64,
}

impl Admission {
    fn new(priority: Priority) -> Self {
        Admission {
            priority,
            breaker: BreakerState::Closed,
            window_lines: 0,
            window_bad: 0,
            shed_accum: 0.0,
            waiting: 0,
            wakeups: 0,
        }
    }
}

/// What the breaker decided about one observed line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerVerdict {
    /// Admit the record (or count the bad line) normally.
    Admit,
    /// Breaker is open: drop the record, counted.
    Drop,
    /// This observation tripped the breaker open.
    Tripped,
    /// This observation closed the breaker from half-open.
    Recovered,
}

/// Advance one source's breaker for one observed line (`bad` = a
/// malformed/torn/oversized note, good = a pushed record). Pure state
/// machine — event publication happens at the call sites, outside the
/// per-record loop's fast path.
fn breaker_observe(adm: &mut Admission, cfg: &BreakerConfig, bad: bool) -> BreakerVerdict {
    match adm.breaker {
        BreakerState::Closed => {
            adm.window_lines += 1;
            if bad {
                adm.window_bad += 1;
            }
            if adm.window_lines >= cfg.window {
                let tripped = adm.window_bad as f64 >= cfg.trip_ratio * adm.window_lines as f64;
                adm.window_lines = 0;
                adm.window_bad = 0;
                if tripped {
                    adm.breaker = BreakerState::Open {
                        cooldown_left: cfg.cooldown,
                    };
                    return BreakerVerdict::Tripped;
                }
            }
            BreakerVerdict::Admit
        }
        BreakerState::Open { cooldown_left } => {
            let left = cooldown_left.saturating_sub(1);
            adm.breaker = if left == 0 {
                BreakerState::HalfOpen {
                    probes_left: cfg.probes.max(1),
                }
            } else {
                BreakerState::Open {
                    cooldown_left: left,
                }
            };
            BreakerVerdict::Drop
        }
        BreakerState::HalfOpen { probes_left } => {
            if bad {
                // A dirty probe: straight back to open.
                adm.breaker = BreakerState::Open {
                    cooldown_left: cfg.cooldown,
                };
                return BreakerVerdict::Tripped;
            }
            let left = probes_left.saturating_sub(1);
            if left == 0 {
                adm.breaker = BreakerState::Closed;
                adm.window_lines = 0;
                adm.window_bad = 0;
                return BreakerVerdict::Recovered;
            }
            adm.breaker = BreakerState::HalfOpen { probes_left: left };
            BreakerVerdict::Admit
        }
    }
}

/// Fraction of this priority class to shed at the given governor state
/// and pressure. Lowest priority sheds first and proportionally to
/// pressure; `High` is never shed by the hub (the engine's Red-state
/// hard shed is the last resort above it).
fn shed_fraction(state: PressureState, pressure: f64, priority: Priority) -> f64 {
    use PressureState::*;
    match (state, priority) {
        (Yellow, Priority::Low) => pressure.clamp(0.0, 1.0),
        (Red, Priority::Low) => 1.0,
        (Red, Priority::Normal) => pressure.clamp(0.0, 1.0),
        _ => 0.0,
    }
}

/// Hub configuration; see the module docs for the semantics.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Per-source disorder budget in seconds (0 = sources must be
    /// internally sorted; anything out of order is counted late).
    pub reorder_window: f64,
    /// Records at or below this timestamp are dropped as resume
    /// duplicates (`NEG_INFINITY` = accept everything). Set from the
    /// checkpoint watermark on `--resume`.
    pub admit_floor: f64,
    /// Max records buffered per source before its pushers block.
    pub queue_capacity: usize,
    /// Max concurrently open sources; registration beyond this fails
    /// (the listener counts and closes the connection).
    pub max_sources: usize,
    /// End the merged stream after this many sources have connected and
    /// all of them have closed (`None` = run until [`IngestHub::finish`]).
    pub expected_sources: Option<u64>,
    /// How long the merge may sit still (records buffered, none
    /// releasable) before idle sources are marked stalled. `None`
    /// disables stall release: an idle open source blocks forever.
    pub stall_grace: Option<Duration>,
    /// Per-source circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// The run's observatory; its governor drives pressure shedding.
    pub telemetry: Telemetry,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            reorder_window: 0.0,
            admit_floor: f64::NEG_INFINITY,
            queue_capacity: 8192,
            max_sources: 64,
            expected_sources: None,
            stall_grace: Some(Duration::from_secs(5)),
            breaker: BreakerConfig::default(),
            telemetry: Telemetry::default(),
        }
    }
}

/// Why a source could not be registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterError {
    /// `max_sources` sources are already open.
    AtCapacity,
    /// The merged stream has already ended.
    Finished,
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::AtCapacity => write!(f, "ingest hub at max_sources capacity"),
            RegisterError::Finished => write!(f, "ingest hub already finished"),
        }
    }
}

impl std::error::Error for RegisterError {}

struct PerSourceGauges {
    name: String,
    queue_depth: Arc<metrics::Gauge>,
    lag_secs: Arc<metrics::Gauge>,
}

impl PerSourceGauges {
    /// Drop this source's series from the metrics registry so a
    /// disconnected source does not linger on `/metrics` forever.
    fn retire(&self) {
        metrics::remove_gauge(&format!("ingest/source/{}/queue_depth", self.name));
        metrics::remove_gauge(&format!("ingest/source/{}/lag_secs", self.name));
    }
}

struct HubState {
    merger: WatermarkMerger,
    finished: bool,
    /// With `expected_sources = Some(n)`: set once all `n` registered
    /// (or the stall grace gave up waiting); releases are held back
    /// until then.
    gate_lifted: bool,
    sources_seen: u64,
    bytes_received: u64,
    lines_received: u64,
    skipped: u64,
    malformed: MalformedBreakdown,
    oversized: u64,
    torn: u64,
    baseline: SourcePosition,
    last_progress: Instant,
    pops_since_gauges: u64,
    merge_late_reported: u64,
    /// One slot per registered source, index-aligned with the merger;
    /// `None` once a closed source drained and its gauges were retired.
    source_gauges: Vec<Option<PerSourceGauges>>,
    /// Push-side admission state, index-aligned with the merger.
    admissions: Vec<Admission>,
    /// Records shed by governor pressure (lowest priority first).
    pressure_shed: u64,
    /// Records dropped while a source's breaker was open.
    breaker_dropped: u64,
    /// Breaker trips (initial and half-open re-trips).
    breaker_trips: u64,
    /// Records discarded because the hub finished mid-batch.
    shutdown_dropped: u64,
}

struct HubCounters {
    admitted: Arc<metrics::Counter>,
    late: Arc<metrics::Counter>,
    duplicates: Arc<metrics::Counter>,
    merge_late: Arc<metrics::Counter>,
    stalls: Arc<metrics::Counter>,
    oversized: Arc<metrics::Counter>,
    torn: Arc<metrics::Counter>,
    sources_total: Arc<metrics::Counter>,
    records_parsed: Arc<webpuzzle_obs::ShardedCounter>,
    malformed_skipped: Arc<metrics::Counter>,
    pressure_shed: Arc<metrics::Counter>,
    breaker_dropped: Arc<metrics::Counter>,
    breaker_trips: Arc<metrics::Counter>,
    shutdown_dropped: Arc<metrics::Counter>,
    queue_depth: Arc<metrics::Gauge>,
    queue_bytes: Arc<metrics::Gauge>,
    breakers_open: Arc<metrics::Gauge>,
    sources_active: Arc<metrics::Gauge>,
    watermark: Arc<metrics::Gauge>,
    max_lag: Arc<metrics::Gauge>,
}

impl HubCounters {
    fn new() -> Self {
        HubCounters {
            admitted: metrics::counter("ingest/records_admitted"),
            late: metrics::counter("ingest/records_late_dropped"),
            duplicates: metrics::counter("ingest/records_duplicate_dropped"),
            merge_late: metrics::counter("ingest/records_stall_late_dropped"),
            stalls: metrics::counter("ingest/watermark_stalls"),
            oversized: metrics::counter("ingest/lines_oversized"),
            torn: metrics::counter("ingest/lines_torn"),
            sources_total: metrics::counter("ingest/sources_total"),
            records_parsed: metrics::sharded_counter("weblog/records_parsed"),
            malformed_skipped: metrics::counter(MALFORMED_SKIPPED_COUNTER),
            pressure_shed: metrics::counter("ingest/records_pressure_shed"),
            breaker_dropped: metrics::counter("ingest/records_breaker_dropped"),
            breaker_trips: metrics::counter("ingest/breaker_trips"),
            shutdown_dropped: metrics::counter("ingest/records_shutdown_dropped"),
            queue_depth: metrics::gauge("ingest/queue_depth"),
            queue_bytes: metrics::gauge("ingest/queue_bytes"),
            breakers_open: metrics::gauge("ingest/breakers_open"),
            sources_active: metrics::gauge("ingest/sources_active"),
            watermark: metrics::gauge("ingest/watermark"),
            max_lag: metrics::gauge("ingest/max_source_lag_secs"),
        }
    }
}

/// The shared ingest hub; see the module docs.
pub struct IngestHub {
    cfg: HubConfig,
    state: Mutex<HubState>,
    readable: Condvar,
    writable: Condvar,
    counters: HubCounters,
}

impl IngestHub {
    /// Build a hub. The `Arc` is what sources, the listener, and the
    /// analyzer-side [`crate::NetSource`] all share.
    pub fn new(cfg: HubConfig) -> Arc<Self> {
        let merger = WatermarkMerger::new(cfg.reorder_window, cfg.admit_floor);
        Arc::new(IngestHub {
            cfg,
            state: Mutex::new(HubState {
                merger,
                finished: false,
                gate_lifted: false,
                sources_seen: 0,
                bytes_received: 0,
                lines_received: 0,
                skipped: 0,
                malformed: MalformedBreakdown::default(),
                oversized: 0,
                torn: 0,
                baseline: SourcePosition::default(),
                last_progress: Instant::now(),
                pops_since_gauges: 0,
                merge_late_reported: 0,
                source_gauges: Vec::new(),
                admissions: Vec::new(),
                pressure_shed: 0,
                breaker_dropped: 0,
                breaker_trips: 0,
                shutdown_dropped: 0,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            counters: HubCounters::new(),
        })
    }

    /// Seed position counters from a restored checkpoint so
    /// [`IngestHub::position`] (and therefore new checkpoints) continue
    /// from where the previous process stood instead of restarting at
    /// zero.
    pub fn set_baseline(&self, baseline: SourcePosition) {
        let mut st = self.state.lock().expect("hub lock");
        st.baseline = baseline;
    }

    /// Register a live source under `kind` (e.g. `"tcp"`, `"http"`).
    ///
    /// # Errors
    ///
    /// [`RegisterError::AtCapacity`] over `max_sources`,
    /// [`RegisterError::Finished`] after the stream ended.
    pub fn register_source(self: &Arc<Self>, kind: &str) -> Result<SourceHandle, RegisterError> {
        self.register_source_with(kind, Priority::Normal)
    }

    /// [`IngestHub::register_source`] with an explicit admission
    /// priority — the class governor-pressure shedding orders by.
    ///
    /// # Errors
    ///
    /// As [`IngestHub::register_source`].
    pub fn register_source_with(
        self: &Arc<Self>,
        kind: &str,
        priority: Priority,
    ) -> Result<SourceHandle, RegisterError> {
        let mut st = self.state.lock().expect("hub lock");
        if st.finished || self.ended(&st) {
            return Err(RegisterError::Finished);
        }
        if st.merger.open_sources() >= self.cfg.max_sources {
            return Err(RegisterError::AtCapacity);
        }
        st.sources_seen += 1;
        let name = format!("{kind}-{}", st.sources_seen);
        let id = st.merger.register(name.clone());
        st.source_gauges.push(Some(PerSourceGauges {
            name: name.clone(),
            queue_depth: metrics::gauge(&format!("ingest/source/{name}/queue_depth")),
            lag_secs: metrics::gauge(&format!("ingest/source/{name}/lag_secs")),
        }));
        st.admissions.push(Admission::new(priority));
        self.counters.sources_total.incr();
        self.counters
            .sources_active
            .set(st.merger.open_sources() as f64);
        // A new source starts with watermark −∞ and would veto every
        // release; wake the popper so its stall clock restarts fairly.
        st.last_progress = Instant::now();
        drop(st);
        self.readable.notify_all();
        Ok(SourceHandle {
            hub: Arc::clone(self),
            id,
            name,
            closed: false,
        })
    }

    /// Blocking pop of the next merged record; `None` is end-of-stream
    /// (all expected sources done, or [`IngestHub::finish`] called, and
    /// the buffers drained).
    pub fn pop_blocking(&self) -> Option<LogRecord> {
        let mut st = self.state.lock().expect("hub lock");
        loop {
            let popped = self.gate_open(&st).then(|| st.merger.pop_with_source());
            if let Some((source, record)) = popped.flatten() {
                st.last_progress = Instant::now();
                st.pops_since_gauges += 1;
                if st.pops_since_gauges >= GAUGE_EVERY {
                    st.pops_since_gauges = 0;
                    self.refresh_gauges(&mut st);
                }
                let merge_late = st.merger.merge_late();
                let delta = merge_late - st.merge_late_reported;
                st.merge_late_reported = merge_late;
                // Wake a full source's pusher once its buffer is half
                // drained, not on every pop: a saturated source then
                // costs one wake-up per half buffer.
                let wake = st.admissions[source].waiting > 0
                    && st.merger.buffered_of(source) <= self.cfg.queue_capacity / 2;
                drop(st);
                if delta > 0 {
                    self.counters.merge_late.add(delta);
                }
                if wake {
                    self.writable.notify_all();
                }
                return Some(record);
            }
            if self.ended(&st) {
                self.refresh_gauges(&mut st);
                drop(st);
                // Unblock any pusher still waiting on capacity.
                self.writable.notify_all();
                return None;
            }
            // Nothing releasable: a waiting pusher with room may hold the
            // record the merge needs next. Pushers whose buffers are still
            // full stay asleep; waking them would only wake this loop back.
            let cap = self.cfg.queue_capacity;
            let pushable = st
                .admissions
                .iter()
                .enumerate()
                .any(|(source, adm)| adm.waiting > 0 && st.merger.buffered_of(source) < cap);
            if pushable {
                self.writable.notify_all();
            }
            let (guard, _timeout) = self.readable.wait_timeout(st, POP_TICK).expect("hub lock");
            st = guard;
            self.maybe_release_stall(&mut st);
        }
    }

    /// Force end-of-stream: close every open source, reject future
    /// registrations, drain what is buffered, then pops return `None`.
    pub fn finish(&self) {
        let mut st = self.state.lock().expect("hub lock");
        st.finished = true;
        for i in 0..st.merger.source_count() {
            st.merger.close(i);
        }
        drop(st);
        self.readable.notify_all();
        self.writable.notify_all();
    }

    /// Aggregate source position (checkpoint bookkeeping): bytes and
    /// lines received over the wire, records delivered to the engine,
    /// malformed lines skipped — each continuing from the restored
    /// baseline, if any.
    pub fn position(&self) -> SourcePosition {
        let st = self.state.lock().expect("hub lock");
        let mut malformed = st.baseline.malformed;
        for kind in MalformedKind::ALL {
            for _ in 0..st.malformed.count(kind) {
                malformed.record(kind);
            }
        }
        SourcePosition {
            byte_offset: st.baseline.byte_offset + st.bytes_received,
            line_no: st.baseline.line_no + st.lines_received,
            parsed: st.baseline.parsed + st.merger.emitted(),
            skipped: st.baseline.skipped + st.skipped,
            malformed,
        }
    }

    /// Point-in-time operational stats (tests, `stream-serve` summary).
    pub fn stats(&self) -> HubStats {
        let st = self.state.lock().expect("hub lock");
        HubStats {
            sources_seen: st.sources_seen,
            sources_open: st.merger.open_sources(),
            buffered: st.merger.buffered(),
            emitted: st.merger.emitted(),
            admitted: st.merger.admitted_total(),
            late_dropped: st.merger.late_total(),
            duplicate_dropped: st.merger.duplicate_total(),
            stall_late_dropped: st.merger.merge_late(),
            skipped_malformed: st.skipped,
            oversized_lines: st.oversized,
            torn_lines: st.torn,
            pressure_shed: st.pressure_shed,
            breaker_dropped: st.breaker_dropped,
            breaker_trips: st.breaker_trips,
            shutdown_dropped: st.shutdown_dropped,
            breakers_open: st
                .admissions
                .iter()
                .filter(|a| !matches!(a.breaker, BreakerState::Closed))
                .count(),
            bytes_received: st.bytes_received,
            lines_received: st.lines_received,
            emitted_watermark: st.merger.emitted_watermark(),
        }
    }

    /// Whether releases may proceed: either every expected source has
    /// registered, or the gate was lifted (stall grace, finish).
    fn gate_open(&self, st: &HubState) -> bool {
        st.finished
            || st.gate_lifted
            || match self.cfg.expected_sources {
                Some(n) => st.sources_seen >= n,
                None => true,
            }
    }

    fn ended(&self, st: &HubState) -> bool {
        if !st.merger.is_drained() {
            return false;
        }
        if st.finished {
            return true;
        }
        match self.cfg.expected_sources {
            Some(n) => st.sources_seen >= n,
            None => false,
        }
    }

    /// If the merge has sat still past the stall grace with records
    /// buffered, stop waiting for the sources that are holding it back.
    fn maybe_release_stall(&self, st: &mut MutexGuard<'_, HubState>) {
        let Some(grace) = self.cfg.stall_grace else {
            return;
        };
        if st.last_progress.elapsed() < grace {
            return;
        }
        if !self.gate_open(st) {
            // Expected sources that never connected: stop holding the
            // start gate for them.
            st.gate_lifted = true;
            st.last_progress = Instant::now();
            self.counters.stalls.incr();
            events::publish(events::Event::new(
                events::Severity::Warn,
                "ingest",
                "ingest/watermark_stalls",
                0,
                0.0,
                self.cfg.expected_sources.unwrap_or(0) as f64,
                st.sources_seen as f64,
                grace.as_secs_f64(),
                grace.as_secs_f64(),
                format!(
                    "only {} of {} expected source(s) connected within {:.1}s; \
                     releasing without the rest",
                    st.sources_seen,
                    self.cfg.expected_sources.unwrap_or(0),
                    grace.as_secs_f64()
                ),
            ));
            return;
        }
        if !st.merger.blocked_by_idle_source() {
            return;
        }
        let buffered = st.merger.buffered();
        for i in 0..st.merger.source_count() {
            st.merger.mark_stalled(i);
        }
        st.last_progress = Instant::now();
        self.counters.stalls.incr();
        events::publish(events::Event::new(
            events::Severity::Warn,
            "ingest",
            "ingest/watermark_stalls",
            0,
            st.merger.emitted_watermark(),
            0.0,
            buffered as f64,
            grace.as_secs_f64(),
            grace.as_secs_f64(),
            format!(
                "watermark stalled for {:.1}s with {buffered} records buffered; \
                 releasing without idle sources",
                grace.as_secs_f64()
            ),
        ));
    }

    /// Publish breaker trip/recovery events for one source. Called
    /// outside the state lock; `trips`/`recoveries` are the counts the
    /// caller observed inside it.
    fn publish_breaker_events(&self, source: &str, trips: u64, recoveries: u64) {
        for _ in 0..trips {
            events::publish(events::Event::new(
                events::Severity::Warn,
                "ingest",
                "ingest/breaker_trips",
                0,
                0.0,
                0.0,
                1.0,
                self.cfg.breaker.trip_ratio,
                self.cfg.breaker.trip_ratio,
                format!(
                    "circuit breaker tripped for source {source}: sustained \
                     malformed/torn/oversized rate at or above {:.0}% over {} lines",
                    self.cfg.breaker.trip_ratio * 100.0,
                    self.cfg.breaker.window
                ),
            ));
        }
        for _ in 0..recoveries {
            events::publish(events::Event::new(
                events::Severity::Info,
                "ingest",
                "ingest/breaker_trips",
                0,
                0.0,
                1.0,
                0.0,
                0.0,
                self.cfg.breaker.trip_ratio,
                format!(
                    "circuit breaker closed for source {source}: {} half-open \
                     probe(s) came back clean",
                    self.cfg.breaker.probes
                ),
            ));
        }
    }

    /// Feed one bad line (malformed/torn/oversized) into a source's
    /// breaker, handling trip events and the open-breakers gauge.
    fn breaker_note_bad(&self, st: &mut MutexGuard<'_, HubState>, id: usize, name: &str) {
        match breaker_observe(&mut st.admissions[id], &self.cfg.breaker, true) {
            BreakerVerdict::Tripped => {
                st.breaker_trips += 1;
                self.counters.breaker_trips.incr();
                let open = st
                    .admissions
                    .iter()
                    .filter(|a| !matches!(a.breaker, BreakerState::Closed))
                    .count();
                self.counters.breakers_open.set(open as f64);
                self.publish_breaker_events(name, 1, 0);
            }
            BreakerVerdict::Drop => {
                // An open breaker observed a bad line: nothing to drop
                // (the line never parsed into a record), cooldown ticked.
            }
            BreakerVerdict::Admit | BreakerVerdict::Recovered => {}
        }
    }

    /// Publish the buffered record count and bytes to the gauges and to
    /// the run's governor, returned for callers that re-evaluate it.
    fn note_buffered(&self, buffered: usize) -> Option<&Governor> {
        self.counters.queue_depth.set(buffered as f64);
        let queue_bytes = (buffered * std::mem::size_of::<LogRecord>()) as u64;
        self.counters.queue_bytes.set(queue_bytes as f64);
        let governor = self.cfg.telemetry.governor();
        governor.inspect(|g| g.set_queue_bytes(queue_bytes))
    }

    fn refresh_gauges(&self, st: &mut MutexGuard<'_, HubState>) {
        if let Some(governor) = self.note_buffered(st.merger.buffered()) {
            governor.evaluate();
        }
        let open_breakers = st
            .admissions
            .iter()
            .filter(|a| !matches!(a.breaker, BreakerState::Closed))
            .count();
        self.counters.breakers_open.set(open_breakers as f64);
        self.counters
            .sources_active
            .set(st.merger.open_sources() as f64);
        let wm = st.merger.emitted_watermark();
        if wm.is_finite() {
            self.counters.watermark.set(wm);
        }
        let frontier = st.merger.max_source_watermark();
        let mut max_lag = 0.0f64;
        for i in 0..st.merger.source_count() {
            let stats = st.merger.source_stats(i);
            if st.source_gauges[i].is_none() {
                continue;
            }
            if !stats.open && stats.buffered == 0 {
                // Closed and drained: retire the per-source series so a
                // disconnected source disappears from the scrape.
                if let Some(gauges) = st.source_gauges[i].take() {
                    gauges.retire();
                }
                continue;
            }
            let gauges = st.source_gauges[i].as_ref().expect("checked above");
            gauges.queue_depth.set(stats.buffered as f64);
            if frontier.is_finite() && stats.watermark.is_finite() && stats.open {
                let lag = (frontier - stats.watermark).max(0.0);
                gauges.lag_secs.set(lag);
                max_lag = max_lag.max(lag);
            }
        }
        self.counters.max_lag.set(max_lag);
    }
}

/// Point-in-time hub stats; see [`IngestHub::stats`].
#[derive(Debug, Clone)]
pub struct HubStats {
    /// Sources ever registered.
    pub sources_seen: u64,
    /// Sources currently open.
    pub sources_open: usize,
    /// Records currently buffered.
    pub buffered: usize,
    /// Records released to the analyzer.
    pub emitted: u64,
    /// Records admitted into buffers in total.
    pub admitted: u64,
    /// Records dropped outside the reorder window.
    pub late_dropped: u64,
    /// Records dropped at or below the admit floor.
    pub duplicate_dropped: u64,
    /// Records dropped behind the output after a stall release.
    pub stall_late_dropped: u64,
    /// Malformed lines skipped (lenient connections).
    pub skipped_malformed: u64,
    /// Lines dropped for exceeding the line-length cap.
    pub oversized_lines: u64,
    /// Partial lines cut off by a disconnect.
    pub torn_lines: u64,
    /// Records shed by governor pressure (lowest priority first).
    pub pressure_shed: u64,
    /// Records dropped while a source's circuit breaker was open.
    pub breaker_dropped: u64,
    /// Circuit-breaker trips (initial and half-open re-trips).
    pub breaker_trips: u64,
    /// Records discarded because the hub finished mid-batch.
    pub shutdown_dropped: u64,
    /// Sources whose breaker is currently not closed.
    pub breakers_open: usize,
    /// Wire bytes consumed.
    pub bytes_received: u64,
    /// Wire lines consumed.
    pub lines_received: u64,
    /// Max timestamp released (−∞ before the first record).
    pub emitted_watermark: f64,
}

/// A connection's handle on the hub: push records, report line
/// accounting, close on drop.
pub struct SourceHandle {
    hub: Arc<IngestHub>,
    id: usize,
    name: String,
    closed: bool,
}

impl std::fmt::Debug for SourceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceHandle")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("closed", &self.closed)
            .finish()
    }
}

impl SourceHandle {
    /// The source's registry name (`tcp-3`, `http-7`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Push a batch of parsed records, blocking while this source's
    /// buffer is at capacity (this is the backpressure point: a blocked
    /// push stops the connection read loop, which fills the kernel
    /// buffers, which blocks the sender).
    pub fn push_batch(&self, records: &[LogRecord]) {
        if records.is_empty() {
            return;
        }
        // One governor read per batch: admission reacts to pressure at
        // batch granularity, and a Green read keeps the whole loop on
        // the pre-governor fast path.
        let governor = self.hub.cfg.telemetry.governor();
        let gov_state = governor.map_or(PressureState::Green, |g| g.state());
        let gov_pressure = governor.map_or(0.0, |g| g.pressure());
        let mut admitted = 0u64;
        let mut late = 0u64;
        let mut duplicates = 0u64;
        let mut pressure_shed = 0u64;
        let mut breaker_dropped = 0u64;
        let mut shutdown_dropped = 0u64;
        let mut trips = 0u64;
        let mut recoveries = 0u64;
        let mut st = self.hub.state.lock().expect("hub lock");
        for (i, record) in records.iter().enumerate() {
            // Breaker first: an open breaker drops regardless of
            // pressure, and its cooldown advances per observed line.
            match breaker_observe(&mut st.admissions[self.id], &self.hub.cfg.breaker, false) {
                BreakerVerdict::Drop => {
                    breaker_dropped += 1;
                    continue;
                }
                BreakerVerdict::Tripped => {
                    // A record can only trip the breaker by closing a
                    // window whose bad rate was already over the bar;
                    // the record itself is clean, so it is admitted.
                    trips += 1;
                }
                BreakerVerdict::Recovered => recoveries += 1,
                BreakerVerdict::Admit => {}
            }
            // Pressure shed: lowest priority first, proportional to
            // pressure, Bresenham accumulator for exact fractions.
            if gov_state != PressureState::Green {
                let adm = &mut st.admissions[self.id];
                let frac = shed_fraction(gov_state, gov_pressure, adm.priority);
                if frac > 0.0 {
                    adm.shed_accum += frac;
                    if adm.shed_accum >= 1.0 {
                        adm.shed_accum -= 1.0;
                        pressure_shed += 1;
                        continue;
                    }
                }
            }
            while st.merger.buffered_of(self.id) >= self.hub.cfg.queue_capacity && !st.finished {
                // The records pushed so far may be what the merge waits
                // for: with a reorder window the consumer can be asleep
                // with this buffer full, and would otherwise only see them
                // at its next tick.
                self.hub.readable.notify_all();
                st.admissions[self.id].waiting += 1;
                st = self.hub.writable.wait(st).expect("hub lock");
                st.admissions[self.id].waiting -= 1;
                st.admissions[self.id].wakeups += 1;
            }
            if st.finished {
                // The analyzer is gone; the rest of the batch cannot be
                // delivered. Count it — shutdown is not silence.
                shutdown_dropped += (records.len() - i) as u64;
                break;
            }
            match st.merger.push(self.id, *record) {
                PushOutcome::Admitted => admitted += 1,
                PushOutcome::Late => late += 1,
                PushOutcome::Duplicate => duplicates += 1,
            }
        }
        st.last_progress = Instant::now();
        st.pressure_shed += pressure_shed;
        st.breaker_dropped += breaker_dropped;
        st.breaker_trips += trips;
        st.shutdown_dropped += shutdown_dropped;
        if let Some(gauges) = st.source_gauges[self.id].as_ref() {
            gauges
                .queue_depth
                .set(st.merger.buffered_of(self.id) as f64);
        }
        self.hub.note_buffered(st.merger.buffered());
        let source_name = (trips > 0 || recoveries > 0).then(|| self.name.clone());
        drop(st);
        self.hub.counters.admitted.add(admitted);
        self.hub.counters.late.add(late);
        self.hub.counters.duplicates.add(duplicates);
        self.hub.counters.pressure_shed.add(pressure_shed);
        self.hub.counters.breaker_dropped.add(breaker_dropped);
        self.hub.counters.breaker_trips.add(trips);
        self.hub.counters.shutdown_dropped.add(shutdown_dropped);
        self.hub.counters.records_parsed.add(records.len() as u64);
        if let Some(name) = source_name {
            self.hub.publish_breaker_events(&name, trips, recoveries);
        }
        self.hub.readable.notify_all();
    }

    /// Change this source's admission priority. Wire clients declare it
    /// in-band (`#priority <class>` line, `X-Ingest-Priority` header),
    /// so the handle starts at the registration default and is adjusted
    /// once the declaration arrives.
    pub fn set_priority(&self, priority: Priority) {
        let mut st = self.hub.state.lock().expect("hub lock");
        st.admissions[self.id].priority = priority;
    }

    /// This source's current admission priority.
    pub fn priority(&self) -> Priority {
        let st = self.hub.state.lock().expect("hub lock");
        st.admissions[self.id].priority
    }

    /// Account wire consumption (bytes and newline-terminated lines).
    pub fn note_consumed(&self, bytes: u64, lines: u64) {
        let mut st = self.hub.state.lock().expect("hub lock");
        st.bytes_received += bytes;
        st.lines_received += lines;
    }

    /// Count one malformed line skipped under lenient parsing, by cause
    /// (mirrors `ClfSource`'s counters so `/metrics` tells one story
    /// regardless of how records arrive).
    pub fn note_malformed(&self, kind: MalformedKind) {
        let mut st = self.hub.state.lock().expect("hub lock");
        st.skipped += 1;
        st.malformed.record(kind);
        self.hub.breaker_note_bad(&mut st, self.id, &self.name);
        drop(st);
        self.hub.counters.malformed_skipped.incr();
        metrics::counter(&format!(
            "{}{}",
            metrics::MALFORMED_LINES_PREFIX,
            kind.as_str()
        ))
        .incr();
    }

    /// Count one line dropped for exceeding the line-length cap.
    pub fn note_oversized(&self) {
        let mut st = self.hub.state.lock().expect("hub lock");
        st.oversized += 1;
        self.hub.breaker_note_bad(&mut st, self.id, &self.name);
        drop(st);
        self.hub.counters.oversized.incr();
    }

    /// Count one partial line cut off by a disconnect.
    pub fn note_torn(&self) {
        let mut st = self.hub.state.lock().expect("hub lock");
        st.torn += 1;
        self.hub.breaker_note_bad(&mut st, self.id, &self.name);
        drop(st);
        self.hub.counters.torn.incr();
    }

    /// Close the source: its buffer flushes and it stops vetoing
    /// releases. Idempotent; also called on drop.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        let mut st = self.hub.state.lock().expect("hub lock");
        st.merger.close(self.id);
        self.hub
            .counters
            .sources_active
            .set(st.merger.open_sources() as f64);
        // Refresh immediately: an already-drained source retires its
        // per-source gauges right here instead of lingering until the
        // next periodic pass.
        self.hub.refresh_gauges(&mut st);
        drop(st);
        self.hub.readable.notify_all();
    }
}

impl Drop for SourceHandle {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_weblog::Method;

    fn rec(t: f64, client: u32) -> LogRecord {
        LogRecord::new(t, client, Method::Get, 0, 200, 0)
    }

    fn hub(cfg: HubConfig) -> Arc<IngestHub> {
        IngestHub::new(cfg)
    }

    /// A drained, closed source must disappear from the scrape: its
    /// `ingest/source/<name>/*` gauges are removed from the registry,
    /// while a still-open source keeps its series. The `"retire"` kind
    /// keeps these names out of the way of other tests sharing the
    /// process-global registry.
    #[test]
    fn closed_drained_source_retires_its_gauges() {
        let has_gauge = |name: &str| {
            webpuzzle_obs::metrics::snapshot()
                .gauges
                .iter()
                .any(|(n, _)| n == name)
        };
        let h = hub(HubConfig {
            expected_sources: Some(2),
            ..HubConfig::default()
        });
        let a = h.register_source("retire").unwrap();
        let mut b = h.register_source("retire").unwrap();
        a.push_batch(&[rec(1.0, 1)]);
        b.push_batch(&[rec(2.0, 2)]);
        assert!(has_gauge("ingest/source/retire-1/queue_depth"));
        assert!(has_gauge("ingest/source/retire-2/lag_secs"));

        // Drain everything, then disconnect source 2.
        drop(a);
        b.close();
        while h.pop_blocking().is_some() {}
        assert!(
            !has_gauge("ingest/source/retire-2/queue_depth"),
            "drained source still on the scrape"
        );
        assert!(!has_gauge("ingest/source/retire-2/lag_secs"));
        assert!(!has_gauge("ingest/source/retire-1/queue_depth"));
        drop(b);
    }

    #[test]
    fn expected_sources_ends_the_stream_deterministically() {
        let h = hub(HubConfig {
            expected_sources: Some(2),
            ..HubConfig::default()
        });
        let a = h.register_source("tcp").unwrap();
        let b = h.register_source("tcp").unwrap();
        a.push_batch(&[rec(1.0, 1), rec(3.0, 1)]);
        b.push_batch(&[rec(2.0, 2)]);
        drop(a);
        drop(b);
        let times: Vec<f64> = std::iter::from_fn(|| h.pop_blocking())
            .map(|r| r.timestamp)
            .collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
        // Stream has ended; later registrations are refused.
        assert_eq!(
            h.register_source("tcp").unwrap_err(),
            RegisterError::Finished
        );
    }

    #[test]
    fn backpressure_blocks_the_pusher_until_the_popper_drains() {
        let h = hub(HubConfig {
            queue_capacity: 8,
            expected_sources: Some(1),
            ..HubConfig::default()
        });
        let handle = h.register_source("tcp").unwrap();
        let records: Vec<LogRecord> = (0..64).map(|i| rec(i as f64, 1)).collect();
        let pusher = std::thread::spawn(move || {
            handle.push_batch(&records);
            drop(handle);
        });
        // The pusher cannot finish until we pop: 64 records through a
        // capacity-8 buffer.
        let mut popped = 0;
        while let Some(_r) = h.pop_blocking() {
            popped += 1;
        }
        assert_eq!(popped, 64);
        pusher.join().unwrap();
        let stats = h.stats();
        assert_eq!(stats.admitted, 64);
        assert_eq!(stats.late_dropped, 0);
    }

    #[test]
    fn a_blocked_pusher_is_woken_when_the_merge_needs_its_records() {
        // With a reorder window, a full buffer's newest records are not
        // yet releasable: the pops stop above half capacity, and only
        // the pusher's next records let the merge go on. The long stall
        // grace keeps a stall release from standing in for the wake-up.
        // About 50 such rounds must not each wait out a 100 ms pop tick.
        let h = hub(HubConfig {
            queue_capacity: 8,
            reorder_window: 0.5,
            expected_sources: Some(1),
            stall_grace: Some(Duration::from_secs(20)),
            ..HubConfig::default()
        });
        let started = Instant::now();
        let handle = h.register_source("tcp").unwrap();
        let records: Vec<LogRecord> = (0..160).map(|i| rec(i as f64 * 0.1, 1)).collect();
        let pusher = std::thread::spawn(move || {
            handle.push_batch(&records);
            drop(handle);
        });
        let mut popped = 0;
        while let Some(_r) = h.pop_blocking() {
            popped += 1;
        }
        assert_eq!(popped, 160);
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "waited for pop ticks or a stall release"
        );
        pusher.join().unwrap();
    }

    #[test]
    fn a_silent_source_leaves_a_full_pusher_asleep() {
        // One source floods a small buffer while another stays open and
        // silent, with no stall grace: nothing can be released, so the
        // merge and the full source's pusher must both sleep instead of
        // waking each other until the silent source closes.
        let h = hub(HubConfig {
            queue_capacity: 8,
            expected_sources: Some(2),
            stall_grace: None,
            ..HubConfig::default()
        });
        let flood = h.register_source("tcp").unwrap();
        let silent = h.register_source("tcp").unwrap();
        let flood_id = flood.id;
        let wakeups = |h: &IngestHub| h.state.lock().unwrap().admissions[flood_id].wakeups;
        let records: Vec<LogRecord> = (0..64).map(|i| rec(i as f64 * 0.1, 1)).collect();
        let pusher = std::thread::spawn(move || {
            flood.push_batch(&records);
            drop(flood);
        });
        let consumer = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || std::iter::from_fn(|| h.pop_blocking()).count())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.stats().buffered < 8 {
            assert!(
                Instant::now() < deadline,
                "the flooding source never filled its buffer"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(300));
        let idle = wakeups(&h);
        assert!(
            idle <= 2,
            "pusher woken {idle} times while nothing could move"
        );
        drop(silent);
        assert_eq!(consumer.join().unwrap(), 64);
        pusher.join().unwrap();
        assert!(wakeups(&h) > idle, "draining woke the pusher");
    }

    #[test]
    fn capacity_cap_rejects_excess_sources() {
        let h = hub(HubConfig {
            max_sources: 1,
            ..HubConfig::default()
        });
        let _a = h.register_source("tcp").unwrap();
        assert_eq!(
            h.register_source("tcp").unwrap_err(),
            RegisterError::AtCapacity
        );
    }

    #[test]
    fn stall_grace_unblocks_an_idle_source() {
        let h = hub(HubConfig {
            stall_grace: Some(Duration::from_millis(150)),
            expected_sources: Some(2),
            ..HubConfig::default()
        });
        let a = h.register_source("tcp").unwrap();
        let _idle = h.register_source("tcp").unwrap();
        a.push_batch(&[rec(1.0, 1)]);
        // The idle source's −∞ watermark vetoes the release until the
        // stall grace expires.
        let started = Instant::now();
        let r = h.pop_blocking().expect("stall release yields the record");
        assert_eq!(r.timestamp, 1.0);
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "released before the grace window"
        );
        let stats = h.stats();
        assert_eq!(stats.emitted, 1);
    }

    #[test]
    fn start_gate_waits_for_all_expected_sources() {
        let h = hub(HubConfig {
            expected_sources: Some(2),
            stall_grace: Some(Duration::from_secs(10)),
            ..HubConfig::default()
        });
        let a = h.register_source("tcp").unwrap();
        a.push_batch(&[rec(5.0, 1)]);
        drop(a);
        let h2 = Arc::clone(&h);
        let late_joiner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let b = h2.register_source("tcp").unwrap();
            b.push_batch(&[rec(1.0, 2)]);
        });
        // Without the gate the first source's t=5.0 would be released
        // before the second source connects, and its t=1.0 would then
        // be dropped as stall-late. The gate holds the release.
        assert_eq!(h.pop_blocking().unwrap().timestamp, 1.0);
        assert_eq!(h.pop_blocking().unwrap().timestamp, 5.0);
        assert!(h.pop_blocking().is_none());
        late_joiner.join().unwrap();
        assert_eq!(h.stats().stall_late_dropped, 0);
    }

    #[test]
    fn finish_drains_and_ends() {
        let h = hub(HubConfig::default());
        let a = h.register_source("tcp").unwrap();
        a.push_batch(&[rec(5.0, 1), rec(6.0, 1)]);
        drop(a);
        h.finish();
        assert_eq!(h.pop_blocking().unwrap().timestamp, 5.0);
        assert_eq!(h.pop_blocking().unwrap().timestamp, 6.0);
        assert!(h.pop_blocking().is_none());
    }

    /// Sustained bad lines trip the source's breaker open; the open
    /// breaker drops records while the cooldown runs down, then clean
    /// half-open probes re-admit the source. A dirty probe re-trips.
    #[test]
    fn breaker_trips_on_sustained_bad_lines_and_readmits() {
        let h = hub(HubConfig {
            expected_sources: Some(1),
            breaker: BreakerConfig {
                window: 4,
                trip_ratio: 0.5,
                cooldown: 6,
                probes: 2,
            },
            ..HubConfig::default()
        });
        let a = h.register_source("brk").unwrap();
        for _ in 0..4 {
            a.note_malformed(MalformedKind::Other);
        }
        let stats = h.stats();
        assert_eq!(stats.breaker_trips, 1, "4/4 bad over a 4-line window trips");
        assert_eq!(stats.breakers_open, 1);

        // Open: the next 6 observations drop while the cooldown runs
        // out, then the 2 clean probes close the breaker and the tail
        // of the batch is admitted.
        let records: Vec<LogRecord> = (0..10).map(|i| rec(i as f64, 1)).collect();
        a.push_batch(&records);
        drop(a);
        let stats = h.stats();
        assert_eq!(stats.breaker_dropped, 6);
        assert_eq!(stats.breaker_trips, 1, "clean probes do not re-trip");
        assert_eq!(stats.breakers_open, 0, "probes closed the breaker");
        let times: Vec<f64> = std::iter::from_fn(|| h.pop_blocking())
            .map(|r| r.timestamp)
            .collect();
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(h.stats().admitted, 4);
    }

    /// A bad line during the half-open probe phase re-opens the breaker
    /// immediately and counts a second trip.
    #[test]
    fn dirty_half_open_probe_re_trips_the_breaker() {
        let h = hub(HubConfig {
            expected_sources: Some(1),
            breaker: BreakerConfig {
                window: 2,
                trip_ratio: 0.5,
                cooldown: 3,
                probes: 4,
            },
            ..HubConfig::default()
        });
        let a = h.register_source("brk2").unwrap();
        a.note_malformed(MalformedKind::Other);
        a.note_malformed(MalformedKind::Other);
        assert_eq!(h.stats().breaker_trips, 1);
        // Run the cooldown down with dropped records, reach half-open,
        // then poison the first probe.
        a.push_batch(&[rec(0.0, 1), rec(1.0, 1), rec(2.0, 1)]);
        assert_eq!(h.stats().breaker_dropped, 3);
        a.note_torn();
        let stats = h.stats();
        assert_eq!(stats.breaker_trips, 2, "dirty probe re-trips");
        assert_eq!(stats.breakers_open, 1);
        drop(a);
        while h.pop_blocking().is_some() {}
    }

    #[test]
    fn position_continues_from_baseline() {
        let h = hub(HubConfig {
            expected_sources: Some(1),
            ..HubConfig::default()
        });
        h.set_baseline(SourcePosition {
            byte_offset: 1000,
            line_no: 10,
            parsed: 9,
            skipped: 1,
            malformed: MalformedBreakdown::default(),
        });
        let a = h.register_source("tcp").unwrap();
        a.push_batch(&[rec(1.0, 1)]);
        a.note_consumed(80, 1);
        drop(a);
        assert!(h.pop_blocking().is_some());
        assert!(h.pop_blocking().is_none());
        let pos = h.position();
        assert_eq!(pos.byte_offset, 1080);
        assert_eq!(pos.line_no, 11);
        assert_eq!(pos.parsed, 10);
        assert_eq!(pos.skipped, 1);
    }
}
