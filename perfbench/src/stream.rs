//! The three streaming workloads — `drain`, `catchup` and `live` — run
//! the same supervised engine (`Supervisor` → `StreamAnalyzer`, default
//! `StreamConfig`) over three sources:
//!
//! * `drain`: in-memory CLF text through `ClfSource`, the path
//!   `stream-analyze FILE` takes with no flags (closed loop);
//! * `catchup`: a backlog dealt round-robin over two loopback TCP
//!   connections, one sender thread each, written flat out into
//!   `ingest::bind` → `IngestHub` → `NetSource` (closed loop);
//! * `live`: one generator thread writing over two connections on a
//!   fixed-rate schedule, with checkpoints at `stream-serve`'s record
//!   cadence (open loop).
//!
//! Latency is timed from each record's due time — its schedule slot on
//! `live`, the start of the pass for the `catchup` backlog, the return
//! of the previous push in the `drain` closed loop — to the return of
//! the push that consumed it, observed through `Supervisor::on_record`.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perfbench::best::{segments, Fastest};
use perfbench::outcome::Metrics;
use perfbench::quantile::{median, Sample};
use perfbench::schedule::{dealt, Due, Schedule};
use perfbench::trace::Tracer;
use perfbench::windows::{closing_pushes, request_closers};
use webpuzzle_core::{poisson_arrival_test, TieSpreading};
use webpuzzle_ingest::{bind, ConnConfig, HubConfig, HubStats, IngestHub, NetSource};
use webpuzzle_lrd::variance_time_detailed;
use webpuzzle_stream::{
    Checkpoint, ClfSource, RecordCallback, RecoverableSource, Source, SourcePosition, StreamConfig,
    StreamSessionizer, StreamSummary, Supervisor, SupervisorConfig, WindowedArrivals,
};
use webpuzzle_weblog::LogRecord;
use webpuzzle_workload::ServerProfile;

use crate::fixture::{deal, generate, set_up, LogText, Share, BASE_EPOCH};
use crate::reference::{check_same_counts, window_slice, Checks, Reference};
use crate::rss::{current_kib, PeakSampler};
use crate::{measure, Args, Outcome, OUT_DIR};

/// `drain`: WVU at a dense scale (0.68 M records, 52 MB of CLF).
const DRAIN_SCALE: f64 = 0.05;
/// `catchup`: the WVU backlog (666 k records).
const CATCHUP_SCALE: f64 = 0.05;
/// `live`: ClarkNet (155 k records) ...
const LIVE_SCALE: f64 = 0.1;
/// ... offered at a fixed rate well below `catchup` capacity.
const LIVE_RATE: f64 = 50_000.0;
/// Wire connections of `catchup` and `live`.
const CONNECTIONS: usize = 2;
/// `stream-serve`'s checkpoint record cadence.
const CHECKPOINT_EVERY: u64 = 100_000;
/// Bytes per socket write on `catchup`.
const SEND_CHUNK: usize = 64 * 1024;
/// The `live` generator wakes at most this often and sends every record
/// then due.
const GENERATOR_TICK: Duration = Duration::from_millis(1);
/// A pass is timed in segments of this many records (about 70 ms of
/// `drain`); its reported wall time sums each segment's fastest time.
const SEGMENT: u64 = 32_768;
/// Per-record spans kept 1 in this many.
const SPAN_SAMPLE_EVERY: u64 = 256;
/// Hub queue depth is sampled every this many records (traced runs).
const DEPTH_SAMPLE_EVERY: u64 = 512;

/// Which streaming workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// File drain.
    Drain,
    /// Wire catch-up.
    Catchup,
    /// Paced live ingest.
    Live,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Drain => "drain",
            Kind::Catchup => "catchup",
            Kind::Live => "live",
        }
    }

    fn due(self) -> Due {
        match self {
            Kind::Drain => Due::PreviousReply,
            Kind::Catchup => Due::PassStart,
            Kind::Live => Due::Slot(Schedule::new(LIVE_RATE)),
        }
    }

    fn fixture_spec(self) -> (ServerProfile, f64, usize) {
        match self {
            Kind::Drain => (ServerProfile::wvu(), DRAIN_SCALE, 0),
            Kind::Catchup => (ServerProfile::wvu(), CATCHUP_SCALE, CONNECTIONS),
            Kind::Live => (ServerProfile::clarknet(), LIVE_SCALE, CONNECTIONS),
        }
    }
}

/// A generated log, as text and (for the wire workloads) as shares.
struct Fixture {
    log: LogText,
    shares: Vec<Share>,
    generate_s: f64,
}

fn build_fixture(kind: Kind, seed: u64) -> Fixture {
    let (profile, scale, conns) = kind.fixture_spec();
    let t0 = Instant::now();
    let records = generate(profile, scale, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let log = LogText::render(&records);
    let shares = if conns > 0 {
        deal(&log, conns)
    } else {
        Vec::new()
    };
    Fixture {
        log,
        shares,
        generate_s,
    }
}

/// State shared by the source wrapper and the per-record callback.
struct Probe {
    start: Instant,
    due: Due,
    /// When the previous push returned, seconds after `start`.
    last_reply: f64,
    latencies_ms: Vec<f64>,
    /// When the last record of each full segment was answered, seconds
    /// after `start`.
    marks_s: Vec<f64>,
    tracer: Option<Tracer>,
    closing: Rc<Vec<bool>>,
    source_layer: &'static str,
    returned_at: Option<Instant>,
    last_callback: Option<Instant>,
    source_done: Option<Instant>,
    checkpoint_every: u64,
    hub: Option<Arc<IngestHub>>,
    queue_depth_max: usize,
}

/// Times the source (CLF parse, or the wait on the hub) and the
/// supervisor's work between records, when tracing.
struct Probed<S> {
    inner: S,
    probe: Rc<RefCell<Probe>>,
}

impl<S: Source<Item = LogRecord>> Source for Probed<S> {
    type Item = LogRecord;

    fn next_item(&mut self) -> Option<webpuzzle_stream::Result<LogRecord>> {
        if self.probe.borrow().tracer.is_none() {
            return self.inner.next_item();
        }
        let enter = Instant::now();
        {
            let mut guard = self.probe.borrow_mut();
            let p = &mut *guard;
            let pushed = p.latencies_ms.len() as u64;
            if let (Some(cb), Some(tr)) = (p.last_callback.take(), p.tracer.as_mut()) {
                // Between a record's callback and the next pull the
                // supervisor checkpoints when the cadence is due.
                if p.checkpoint_every > 0 && pushed.is_multiple_of(p.checkpoint_every) {
                    tr.record("stream.checkpoint.save", cb, enter, false);
                } else {
                    tr.record("stream.supervisor.overhead", cb, enter, true);
                }
            }
        }
        let item = self.inner.next_item();
        let exit = Instant::now();
        let mut guard = self.probe.borrow_mut();
        let p = &mut *guard;
        if let Some(tr) = p.tracer.as_mut() {
            tr.record(p.source_layer, enter, exit, true);
        }
        match &item {
            Some(_) => p.returned_at = Some(exit),
            None => p.source_done = Some(exit),
        }
        item
    }
}

impl<S: RecoverableSource> RecoverableSource for Probed<S> {
    fn position(&self) -> SourcePosition {
        self.inner.position()
    }

    fn disarm_crash(&mut self) {
        self.inner.disarm_crash();
    }
}

/// The per-record observer: latency always, push timing when tracing.
fn on_record(probe: &Rc<RefCell<Probe>>) -> RecordCallback {
    let probe = Rc::clone(probe);
    Box::new(move |_engine| {
        let now = Instant::now();
        let mut guard = probe.borrow_mut();
        let p = &mut *guard;
        let k = p.latencies_ms.len() as u64;
        let answered = now.duration_since(p.start).as_secs_f64();
        let due = p.due.of(k, p.last_reply);
        p.last_reply = answered;
        p.latencies_ms.push((answered - due) * 1e3);
        if (k + 1).is_multiple_of(SEGMENT) {
            p.marks_s.push(answered);
        }
        if let Some(tr) = p.tracer.as_mut() {
            let from = p.returned_at.unwrap_or(now);
            if p.closing.get(k as usize).copied().unwrap_or(false) {
                tr.record("stream.window.close", from, now, false);
            } else {
                tr.record("stream.engine.push", from, now, true);
            }
            p.last_callback = Some(now);
            if k.is_multiple_of(DEPTH_SAMPLE_EVERY) {
                if let Some(hub) = &p.hub {
                    p.queue_depth_max = p.queue_depth_max.max(hub.stats().buffered);
                }
            }
        }
    })
}

/// What the sender side of a wire pass saw.
#[derive(Debug, Default)]
struct SendStats {
    blocked_s: f64,
    lateness_ms: Vec<f64>,
}

impl SendStats {
    fn merge(&mut self, other: SendStats) {
        self.blocked_s += other.blocked_s;
        self.lateness_ms.extend(other.lateness_ms);
    }
}

fn io_err(e: std::io::Error) -> String {
    format!("send: {e}")
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    Ok(stream)
}

/// Half-close, then wait until the server has read everything and
/// closed its side.
fn close_and_drain(mut stream: TcpStream) -> Result<(), String> {
    stream.shutdown(Shutdown::Write).map_err(io_err)?;
    let mut sink = [0u8; 256];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    Ok(())
}

/// One `catchup` sender: write a share flat out.
fn send_flat_out(addr: SocketAddr, share: &Share) -> Result<SendStats, String> {
    let mut stream = connect(addr)?;
    let mut stats = SendStats::default();
    for chunk in share.bytes.chunks(SEND_CHUNK) {
        let t = Instant::now();
        stream.write_all(chunk).map_err(io_err)?;
        stats.blocked_s += t.elapsed().as_secs_f64();
    }
    close_and_drain(stream)?;
    Ok(stats)
}

/// The `live` generator: every record goes out at (or after) its due
/// time over its round-robin connection, whatever the engine is doing.
fn send_paced(
    addr: SocketAddr,
    shares: &[Share],
    schedule: Schedule,
    start: Instant,
) -> Result<SendStats, String> {
    let mut streams = shares
        .iter()
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let conns = shares.len() as u64;
    let total: u64 = shares.iter().map(|s| s.line_ends.len() as u64).sum();
    let mut sent = vec![0usize; shares.len()];
    let mut next = 0u64;
    let mut stats = SendStats {
        lateness_ms: Vec::with_capacity(total as usize),
        ..SendStats::default()
    };
    while next < total {
        let now = start.elapsed().as_secs_f64();
        let due = schedule.due_count(now, total);
        if due <= next {
            let wait = schedule
                .until_due(next, now)
                .max(GENERATOR_TICK.as_secs_f64());
            std::thread::sleep(Duration::from_secs_f64(wait));
            continue;
        }
        stats
            .lateness_ms
            .extend((next..due).map(|k| schedule.lateness(k, now) * 1e3));
        for (c, (share, stream)) in shares.iter().zip(&mut streams).enumerate() {
            let target = dealt(due, c as u64, conns) as usize;
            if target > sent[c] {
                let from = if sent[c] == 0 {
                    0
                } else {
                    share.line_ends[sent[c] - 1]
                };
                let t = Instant::now();
                stream
                    .write_all(&share.bytes[from..share.line_ends[target - 1]])
                    .map_err(io_err)?;
                stats.blocked_s += t.elapsed().as_secs_f64();
                sent[c] = target;
            }
        }
        next = due;
    }
    for stream in streams {
        close_and_drain(stream)?;
    }
    Ok(stats)
}

/// Latency percentiles, ms, of the per-record fastest latencies over a
/// run's passes: every record, and the records that closed a request
/// window (about 42 a week, so p75 is the highest percentile with ten
/// results beyond it).
#[derive(Debug, Clone, Copy)]
struct Latency {
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
    result_p50: f64,
    result_p75: f64,
}

impl Latency {
    fn of(latencies_ms: &[f64], closers: &[usize]) -> Self {
        let all = Sample::new(latencies_ms);
        let results: Vec<f64> = closers
            .iter()
            .filter_map(|&i| latencies_ms.get(i).copied())
            .collect();
        let results = Sample::new(&results);
        Latency {
            p50: all.at(0.5),
            p90: all.at(0.9),
            p99: all.at(0.99),
            p999: all.at(0.999),
            result_p50: results.at(0.5),
            result_p75: results.at(0.75),
        }
    }
}

/// One pass of a streaming workload.
struct Pass {
    summary: StreamSummary,
    wall_s: f64,
    /// Each record's latency, ms, in push order (taken once folded into
    /// the run's fastest latencies).
    latencies_ms: Vec<f64>,
    /// Durations of the pass's segments of [`SEGMENT`] records, s.
    segments_s: Vec<f64>,
    send_blocked_s: f64,
    /// Generator lateness p99 (`live` only), ms.
    lateness_p99_ms: f64,
    hub: Option<HubStats>,
    checkpoints: u64,
    tracer: Option<Tracer>,
    queue_depth_max: usize,
}

fn remove_checkpoints(path: &Path) {
    for p in [
        path.to_path_buf(),
        Checkpoint::previous_path(path),
        path.with_extension("tmp"),
    ] {
        let _ = std::fs::remove_file(p);
    }
}

fn run_pass(
    kind: Kind,
    fx: &Fixture,
    closing: &Rc<Vec<bool>>,
    trace: bool,
    ckpt: &Path,
) -> Result<Pass, String> {
    let engine_cfg = StreamConfig::default();
    let wire = kind != Kind::Drain;
    let hub = wire.then(|| {
        IngestHub::new(HubConfig {
            expected_sources: Some(CONNECTIONS as u64),
            ..HubConfig::default()
        })
    });
    let listener = match &hub {
        Some(h) => Some(
            bind(
                "127.0.0.1:0",
                Arc::clone(h),
                ConnConfig {
                    base_epoch: BASE_EPOCH,
                    ..ConnConfig::default()
                },
                8,
            )
            .map_err(|e| format!("bind: {e}"))?,
        ),
        None => None,
    };
    let sup_cfg = match kind {
        Kind::Drain => SupervisorConfig::default(),
        Kind::Catchup => SupervisorConfig {
            lenient: true,
            ..SupervisorConfig::default()
        },
        Kind::Live => {
            remove_checkpoints(ckpt);
            SupervisorConfig {
                lenient: true,
                checkpoint_path: Some(ckpt.to_path_buf()),
                checkpoint_every_records: CHECKPOINT_EVERY,
                ..SupervisorConfig::default()
            }
        }
    };
    let schedule = match kind.due() {
        Due::Slot(s) => Some(s),
        Due::PassStart | Due::PreviousReply => None,
    };

    let start = Instant::now();
    let mut tracer = trace.then(|| Tracer::new(SPAN_SAMPLE_EVERY));
    if let Some(tr) = tracer.as_mut() {
        tr.open_root(kind.name(), start);
    }
    let probe = Rc::new(RefCell::new(Probe {
        start,
        due: kind.due(),
        last_reply: 0.0,
        latencies_ms: Vec::with_capacity(fx.log.lines()),
        marks_s: Vec::new(),
        tracer,
        closing: Rc::clone(closing),
        source_layer: if wire {
            "ingest.pop_wait"
        } else {
            "weblog.parse"
        },
        returned_at: None,
        last_callback: None,
        source_done: None,
        checkpoint_every: if kind == Kind::Live {
            CHECKPOINT_EVERY
        } else {
            0
        },
        hub: hub.clone(),
        queue_depth_max: 0,
    }));

    let (report, send) = match (&hub, &listener) {
        (Some(hub), Some(listener)) => {
            let addr = listener.local_addr();
            std::thread::scope(|scope| {
                let senders: Vec<_> = match schedule {
                    Some(s) => vec![scope.spawn(move || send_paced(addr, &fx.shares, s, start))],
                    None => fx
                        .shares
                        .iter()
                        .map(|share| scope.spawn(move || send_flat_out(addr, share)))
                        .collect(),
                };
                let factory = {
                    let probe = Rc::clone(&probe);
                    let hub = Arc::clone(hub);
                    move |_: &SourcePosition| {
                        Ok(Probed {
                            inner: NetSource::new(Arc::clone(&hub)),
                            probe: Rc::clone(&probe),
                        })
                    }
                };
                let report = Supervisor::new(engine_cfg, sup_cfg, factory)
                    .on_record(on_record(&probe))
                    .run();
                if report.is_err() {
                    // Unblock senders still waiting on backpressure.
                    hub.finish();
                }
                let mut send = Ok(SendStats::default());
                for s in senders {
                    let joined = s.join().expect("sender thread");
                    send = match (send, joined) {
                        (Ok(mut acc), Ok(one)) => {
                            acc.merge(one);
                            Ok(acc)
                        }
                        (Err(e), _) | (_, Err(e)) => Err(e),
                    };
                }
                (report, send)
            })
        }
        _ => {
            let bytes = fx.log.text.as_bytes();
            let factory = {
                let probe = Rc::clone(&probe);
                move |pos: &SourcePosition| {
                    let rest = &bytes[pos.byte_offset as usize..];
                    Ok(Probed {
                        inner: ClfSource::new(rest, BASE_EPOCH).with_position(pos),
                        probe: Rc::clone(&probe),
                    })
                }
            };
            let report = Supervisor::new(engine_cfg, sup_cfg, factory)
                .on_record(on_record(&probe))
                .run();
            (report, Ok(SendStats::default()))
        }
    };
    let end = Instant::now();
    let hub_stats = hub.as_ref().map(|h| h.stats());
    if let Some(listener) = listener {
        listener.shutdown();
    }
    let report = report.map_err(|e| format!("{} pass failed: {e}", kind.name()))?;
    let send = send?;

    let mut p = probe.borrow_mut();
    let mut tracer = p.tracer.take();
    if let Some(tr) = tracer.as_mut() {
        if let Some(done) = p.source_done {
            tr.record("stream.engine.finish", done, end, false);
        }
        tr.close_root(end);
    }
    let wall_s = end.duration_since(start).as_secs_f64();
    Ok(Pass {
        summary: report.summary,
        wall_s,
        latencies_ms: std::mem::take(&mut p.latencies_ms),
        segments_s: segments(&p.marks_s, wall_s),
        send_blocked_s: send.blocked_s,
        lateness_p99_ms: if send.lateness_ms.is_empty() {
            0.0
        } else {
            Sample::new(&send.lateness_ms).at(0.99)
        },
        hub: hub_stats,
        checkpoints: report.checkpoints_written,
        tracer,
        queue_depth_max: p.queue_depth_max,
    })
}

/// Records that reached the engine's summary, and everything the hub
/// refused or shed on the way.
fn hub_dropped(st: &HubStats) -> u64 {
    st.late_dropped
        + st.duplicate_dropped
        + st.stall_late_dropped
        + st.skipped_malformed
        + st.oversized_lines
        + st.torn_lines
        + st.pressure_shed
        + st.breaker_dropped
        + st.shutdown_dropped
}

/// Count a coarse or fine ring exactly as `WindowedArrivals` does.
fn ring(times: &[f64], start: f64, width: f64, len: f64) -> Vec<f64> {
    let n = (len / width).ceil().max(1.0) as usize;
    let mut bins = vec![0.0; n];
    for &t in times {
        let offset = t - start;
        if offset >= 0.0 {
            bins[((offset / width) as usize).min(n - 1)] += 1.0;
        }
    }
    bins
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replay the fixture through the sessionizer and the window
/// accumulator on their own, and every closed window through the
/// variance-time and Poisson estimators on their own.
fn engine_replays(
    reference: &Reference,
    cfg: &StreamConfig,
    closing: &[bool],
    layers: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let records = &reference.records;
    let n = records.len().max(1) as f64;

    let mut sessionizer =
        StreamSessionizer::new(cfg.session_threshold).map_err(|e| format!("sessionizer: {e}"))?;
    let mut evicted = Vec::new();
    let t0 = Instant::now();
    for r in records {
        sessionizer
            .push(r, &mut evicted)
            .map_err(|e| format!("sessionizer replay: {e}"))?;
        evicted.clear();
    }
    sessionizer.finish(&mut evicted);
    layers.set(
        "stream.sessionizer.push_ns",
        t0.elapsed().as_nanos() as f64 / n,
    );

    let w = &cfg.request_window;
    let mut arrivals = WindowedArrivals::new(w.clone());
    let mut reports = Vec::new();
    let (mut close_time, mut closes) = (Duration::ZERO, 0usize);
    let t0 = Instant::now();
    for (r, &c) in records.iter().zip(closing) {
        // Only closing pushes take timestamps: the per-record push is a
        // few nanoseconds, less than a clock read.
        let t = c.then(Instant::now);
        arrivals
            .push(r.timestamp, &mut reports)
            .map_err(|e| format!("window replay: {e}"))?;
        if let Some(t) = t {
            close_time += t.elapsed();
            closes += 1;
        }
    }
    let plain = t0.elapsed().saturating_sub(close_time);
    layers.set(
        "stream.window.push_ns",
        plain.as_nanos() as f64 / (records.len() - closes).max(1) as f64,
    );

    let times = reference.times();
    let (mut fine, mut coarse, mut poisson) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for report in &reports {
        let in_window = window_slice(&times, report.start, w.window_len);
        let bins = ring(in_window, report.start, w.bin_width, w.window_len);
        let t = Instant::now();
        let h = variance_time_detailed(&bins).ok().map(|d| d.estimate.h);
        coarse += t.elapsed();
        checks.expect(h == report.h_variance_time, || {
            format!(
                "coarse-ring replay win{}: H {h:?} vs {:?}",
                report.index, report.h_variance_time
            )
        });
        if let Some(width) = w.fine_bin_width {
            let bins = ring(in_window, report.start, width, w.window_len);
            let t = Instant::now();
            let h = variance_time_detailed(&bins).ok().map(|d| d.estimate.h);
            fine += t.elapsed();
            checks.expect(h == report.h_variance_time_fine, || {
                format!(
                    "fine-ring replay win{}: H {h:?} vs {:?}",
                    report.index, report.h_variance_time_fine
                )
            });
        }
        let t = Instant::now();
        for subs in [3_600.0, 600.0] {
            let subintervals = ((w.window_len / subs).round() as usize).max(2);
            poisson_arrival_test(
                in_window,
                report.start,
                w.window_len,
                subintervals,
                TieSpreading::Uniform,
                w.min_poisson_arrivals,
                w.seed,
            )
            .map_err(|e| format!("poisson replay: {e}"))?;
        }
        poisson += t.elapsed();
    }
    let per_window = reports.len().max(1) as f64;
    layers.set("lrd.variance_time_fine_ms", ms(fine) / per_window);
    layers.set("lrd.variance_time_coarse_ms", ms(coarse) / per_window);
    layers.set("core.poisson_test_ms", ms(poisson) / per_window);
    Ok(())
}

/// Per-layer metrics of a traced pass, against its untraced twin.
fn pass_layers(kind: Kind, base: &Pass, traced: &Pass, layers: &mut Metrics) {
    let Some(tr) = traced.tracer.as_ref() else {
        return;
    };
    let mean_ns = |layer: &str| {
        let t = tr.total(layer);
        t.ns as f64 / t.calls.max(1) as f64
    };
    if kind == Kind::Drain {
        layers.set("weblog.parse_ns", mean_ns("weblog.parse"));
    } else {
        layers.set("ingest.pop_wait_us", mean_ns("ingest.pop_wait") / 1e3);
    }
    layers.set("stream.engine.push_ns", mean_ns("stream.engine.push"));
    layers.set(
        "stream.window.close_ms",
        mean_ns("stream.window.close") / 1e6,
    );
    layers.set(
        "stream.window.closes",
        tr.total("stream.window.close").calls as f64,
    );
    layers.set(
        "stream.engine.finish_ms",
        tr.total("stream.engine.finish").ns as f64 / 1e6,
    );
    layers.set(
        "stream.supervisor.overhead_ns",
        mean_ns("stream.supervisor.overhead"),
    );
    layers.set(
        "stream.checkpoint.save_ms",
        mean_ns("stream.checkpoint.save") / 1e6,
    );
    let busy = tr.total("stream.engine.push").ns + tr.total("stream.window.close").ns;
    layers.set(
        "stream.engine.busy_share",
        busy as f64 / tr.wall_ns().max(1) as f64,
    );
    layers.set(
        "stream.sessionizer.open_peak",
        traced.summary.peak_open_sessions as f64,
    );
    if let Some(st) = &traced.hub {
        layers.set("ingest.queue_depth_max", traced.queue_depth_max as f64);
        layers.set("ingest.dropped", hub_dropped(st) as f64);
        layers.set("ingest.bytes_received", st.bytes_received as f64);
        layers.set("ingest.send_blocked_ms", traced.send_blocked_s * 1e3);
    }
    layers.set("gen.lateness_p99_ms", traced.lateness_p99_ms);
    let accounting = tr.accounting();
    layers.set("trace.wall_s", accounting.wall_ns as f64 / 1e9);
    layers.set(
        "trace.unattributed_ms",
        accounting.unattributed_ns as f64 / 1e6,
    );
    layers.set("trace.overhead_s", traced.wall_s - base.wall_s);
}

/// Run one streaming workload.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup_times) = set_up(|| build_fixture(kind, args.seed));
    let cfg = StreamConfig::default();
    let reference = Reference::build(&fx.log.text, cfg.session_threshold);
    let closing = Rc::new(closing_pushes(
        &reference.arrivals(),
        cfg.request_window.window_len,
        cfg.session_threshold,
    ));
    let closers = request_closers(&reference.times(), cfg.request_window.window_len);
    let ckpt: PathBuf = Path::new(OUT_DIR).join(format!("{}.ckpt", kind.name()));
    if kind == Kind::Live {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
            out.checks
                .expect(false, || format!("cannot create {OUT_DIR}: {e}"));
            return out;
        }
    }
    out.notes.push(format!(
        "fixture: {} records, {:.1} MB of CLF, generated in {:.3} s",
        fx.log.lines(),
        fx.log.text.len() as f64 / 1e6,
        fx.generate_s
    ));

    let baseline_kib = current_kib().unwrap_or(0);
    let sampler = PeakSampler::start();
    // Each pass's timings are folded in as it ends, so a run holds one
    // pass's per-record latencies at a time.
    let (mut fastest_segments, mut fastest_latencies) = (Fastest::new(), Fastest::new());
    let mut timed_pass = |traced: bool| -> Result<Pass, String> {
        let mut p = run_pass(kind, &fx, &closing, traced, &ckpt)?;
        fastest_segments.add(&p.segments_s);
        fastest_latencies.add(&std::mem::take(&mut p.latencies_ms));
        Ok(p)
    };
    let passes = if args.trace {
        // A cold pass, a warm untraced pass for the overhead baseline,
        // then the traced pass the per-layer metrics come from.
        [false, false, true]
            .into_iter()
            .map(&mut timed_pass)
            .collect::<Result<Vec<_>, _>>()
    } else {
        // The wire workloads run threads of their own; only the drain
        // is single-threaded and moves from CPU to CPU.
        measure(
            args.seconds,
            kind == Kind::Drain,
            || timed_pass(false),
            |p| p.wall_s,
        )
    };
    let peak_kib = sampler.stop();
    let passes = match passes {
        Ok(p) => p,
        Err(e) => {
            out.checks.expect(false, || e);
            return out;
        }
    };

    // Output checks.
    let first = &passes[0].summary;
    reference.check(kind.name(), first, &cfg, &mut out.checks);
    for (i, p) in passes.iter().enumerate().skip(1) {
        if kind == Kind::Drain {
            out.checks.expect(p.summary == *first, || {
                format!("drain pass {i} summary differs from pass 0")
            });
        } else {
            check_same_counts(
                &format!("{} pass {i}", kind.name()),
                &p.summary,
                first,
                &mut out.checks,
            );
        }
    }
    if kind == Kind::Catchup {
        match run_pass(Kind::Drain, &fx, &closing, false, &ckpt) {
            Ok(drain) => {
                check_same_counts("catchup vs drain", first, &drain.summary, &mut out.checks)
            }
            Err(e) => out.checks.expect(false, || e),
        }
    }
    if kind == Kind::Live {
        let expected = first.records / CHECKPOINT_EVERY + 1;
        for p in &passes {
            out.checks.expect(p.checkpoints == expected, || {
                format!(
                    "live checkpoints: {} written, {expected} expected",
                    p.checkpoints
                )
            });
        }
        match Checkpoint::load(&ckpt) {
            Ok(ck) => {
                out.checks.expect(ck.engine.records == first.records, || {
                    format!(
                        "final checkpoint holds {} records, summary {}",
                        ck.engine.records, first.records
                    )
                });
                if args.trace {
                    let mut encode_ms = Vec::new();
                    let mut bytes = 0;
                    for _ in 0..3 {
                        let t = Instant::now();
                        bytes = ck.encode().len();
                        encode_ms.push(ms(t.elapsed()));
                    }
                    out.layers
                        .set("stream.checkpoint.encode_ms", median(&encode_ms));
                    out.layers.set("stream.checkpoint.bytes", bytes as f64);
                }
            }
            Err(e) => out
                .checks
                .expect(false, || format!("final checkpoint unreadable: {e}")),
        }
        remove_checkpoints(&ckpt);
    }
    for p in &passes {
        out.tally.add(fx.log.lines() as u64, p.summary.records);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_s = fastest_segments.total();
    let latency = Latency::of(fastest_latencies.values(), &closers);
    out.notes.push(format!(
        "passes: {} ({}); fastest segments sum to {wall_s:.3} s; per pass {} record latencies and {} window results",
        passes.len(),
        walls
            .iter()
            .map(|w| format!("{w:.3} s"))
            .collect::<Vec<_>>()
            .join(", "),
        first.records,
        closers.len()
    ));
    if kind == Kind::Live {
        let lateness: Vec<f64> = passes.iter().map(|p| p.lateness_p99_ms).collect();
        out.noted.set("lateness_p99_ms", median(&lateness));
        out.notes.push(format!(
            "offered {LIVE_RATE} records/s; lateness_p99_ms is the median over passes of {} records each",
            first.records
        ));
    }

    if args.trace {
        out.layers.set("workload.generate_s", fx.generate_s);
        pass_layers(kind, &passes[1], &passes[2], &mut out.layers);
        if let Err(e) = engine_replays(&reference, &cfg, &closing, &mut out.layers, &mut out.checks)
        {
            out.checks.expect(false, || e);
        }
        let push = out.layers.get("stream.engine.push_ns").unwrap_or(0.0);
        let parts = out.layers.get("stream.sessionizer.push_ns").unwrap_or(0.0)
            + out.layers.get("stream.window.push_ns").unwrap_or(0.0);
        out.layers.set("stream.engine.other_ns", push - parts);
        if let Some(tr) = &passes[2].tracer {
            out.accounting = Some(tr.accounting());
            out.spans = Some(tr.to_jsonl(&format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"span_sample_every\":{}}}",
                kind.name(),
                args.seed,
                tr.sample_every()
            )));
        }
    }
    out.noted.set("latency_p90_ms", latency.p90);
    out.noted.set("latency_p99_ms", latency.p99);
    out.noted.set("latency_p999_ms", latency.p999);
    out.noted.set(
        "rss_growth_mib",
        peak_kib.saturating_sub(baseline_kib) as f64 / 1024.0,
    );
    let e2e = &mut out.e2e;
    e2e.set("setup_s", median(&setup_times));
    e2e.set("wall_s", wall_s);
    e2e.set("records_per_s", first.records as f64 / wall_s);
    e2e.set("latency_p50_ms", latency.p50);
    e2e.set("result_latency_p50_ms", latency.result_p50);
    e2e.set("result_latency_p75_ms", latency.result_p75);
    out
}
