//! Typed drift/anomaly events: a bounded in-memory ring, per-severity
//! counters, and an append-only JSONL sink.
//!
//! Each run's [`crate::Telemetry`] handle owns one [`EventLog`].
//! Detectors (the `webpuzzle-stream` drift observatory, the supervisor,
//! the ingest hub, the governor, the SLO judge, the watchdog) publish
//! [`Event`]s through [`crate::Telemetry::publish`]; the log then
//!
//! 1. assigns a monotonically increasing sequence number and stores the
//!    event in a bounded ring (oldest events drop first), which the
//!    `/events?since=<seq>` endpoint on [`crate::server`] polls;
//! 2. bumps the run's per-severity totals and the process-wide
//!    `events/total/<severity>` counter family (exported to Prometheus
//!    as `webpuzzle_events_total{severity="..."}`);
//! 3. appends one schema-versioned JSON line to the installed
//!    [`JsonlEventSink`], if any (`stream-analyze --events <path>`).
//!
//! Two runs in one process have two logs: their sequence numbers,
//! totals and rings never mix.
//!
//! The JSONL append is atomic at the line level: the file is opened in
//! append mode and each event is written with a single `write_all` of a
//! complete line, so concurrent readers never observe a torn record.
//!
//! # Schema
//!
//! Every serialized event carries `"schema": 1`
//! ([`EVENT_SCHEMA_VERSION`]); consumers should ignore unknown fields
//! and reject unknown major versions. See DESIGN.md §10 for the field
//! table.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::metrics;
use crate::profile::{Profiler, Stage};

/// Version stamped into every serialized event (`schema` field). Bump on
/// breaking field changes only; additive fields keep the version.
pub const EVENT_SCHEMA_VERSION: u32 = 1;

/// Capacity of a run's event ring; older events drop first.
pub const RING_CAPACITY: usize = 1_024;

/// Prefix of the counter-family names fed by every publish; the
/// Prometheus exporter folds `events/total/<severity>` counters into a
/// single `webpuzzle_events_total{severity="..."}` family.
pub const EVENTS_TOTAL_PREFIX: &str = "events/total/";

/// Severity of a drift event, ordered `Info < Warn < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: a detector re-baselined or a watched quantity
    /// moved without crossing an alarm threshold.
    Info,
    /// A detector fired: the watched statistic left its control region.
    Warn,
    /// A detector fired far beyond its threshold (score at or above
    /// twice the alarm bar).
    Critical,
}

impl Severity {
    /// Lower-case token used in counter names and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }

    /// Parse a CLI token (case-insensitive).
    pub fn parse(token: &str) -> Option<Severity> {
        match token.to_ascii_lowercase().as_str() {
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warn),
            "critical" | "crit" => Some(Severity::Critical),
            _ => None,
        }
    }

    /// All severities, ascending.
    pub const ALL: [Severity; 3] = [Severity::Info, Severity::Warn, Severity::Critical];
}

/// One drift event. Timestamps are split: `unix_time` is wall-clock
/// publication time; `window_start`/`window_index` locate the alarm in
/// *event time* (stream seconds), which is what detection-latency
/// measurements compare against injected ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Serialization schema version ([`EVENT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Monotonic sequence number, assigned at publication (0 before).
    pub seq: u64,
    /// Unix seconds when the event was published.
    pub unix_time: u64,
    /// Event severity.
    pub severity: Severity,
    /// Detector that fired, e.g. `"cusum"`, `"page_hinkley"`, `"ewma"`.
    pub detector: String,
    /// Watched metric key, e.g. `"request_rate"`, `"hill_alpha/bytes"`.
    pub metric: String,
    /// Zero-based analysis-window index at which the alarm fired.
    pub window_index: u64,
    /// Start of that window, stream seconds.
    pub window_start: f64,
    /// Baseline statistic before the change (detector's calibrated mean).
    pub before: f64,
    /// Observed statistic that triggered the alarm.
    pub after: f64,
    /// Detector decision statistic at alarm time.
    pub score: f64,
    /// Alarm threshold the score crossed.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

#[derive(Debug, Default)]
struct Ring {
    buf: VecDeque<Event>,
    /// The last sequence number assigned (0 before the first event).
    last_seq: u64,
}

/// One run's drift events: the bounded ring `/events` polls, the
/// per-severity totals `--alert-on` counts, and the optional JSONL log
/// (`--events`). Every [`crate::Telemetry`] handle has one; events are
/// published through [`crate::Telemetry::publish`], which also times
/// the log append when the run is profiled.
#[derive(Debug, Default)]
pub struct EventLog {
    ring: Mutex<Ring>,
    /// Published-event totals per severity (index = `Severity as
    /// usize`), immune to ring overflow.
    totals: [AtomicU64; 3],
    sink: Mutex<Option<JsonlEventSink>>,
}

/// Append-only JSONL event log. One complete line per event, written
/// with a single `write_all` against a file opened in append mode, so
/// external `tail -f` readers and crash-time inspection never see a
/// partial record.
#[derive(Debug)]
pub struct JsonlEventSink {
    file: std::fs::File,
}

impl JsonlEventSink {
    /// Open (creating if absent) the JSONL log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlEventSink { file })
    }

    /// Append one event as a single JSON line.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn append(&mut self, event: &Event) -> io::Result<()> {
        let mut line = serde_json::to_string(event)
            .map_err(|e| io::Error::other(format!("event serialization failed: {e}")))?;
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }

    /// Force appended lines to durable storage (`fsync`). A checkpoint
    /// that records this log's cursor must call this first, or a crash
    /// can leave the checkpoint pointing past events the kernel never
    /// wrote out.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Parse a JSONL event log back into events (newest last). Lines that
/// fail to parse are skipped and counted — a crashed writer can leave at
/// most a torn *final* line, and schema-foreign files shouldn't abort
/// inspection tooling.
pub fn parse_jsonl(text: &str) -> (Vec<Event>, usize) {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<Event>(line) {
            Ok(e) => events.push(e),
            Err(_) => skipped += 1,
        }
    }
    (events, skipped)
}

impl EventLog {
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("event ring poisoned")
    }

    fn sink(&self) -> MutexGuard<'_, Option<JsonlEventSink>> {
        self.sink.lock().expect("event sink poisoned")
    }

    /// Install a JSONL sink; every subsequent publish appends to it.
    /// Replaces (and closes) any previously installed sink.
    pub fn set_jsonl_sink(&self, sink: JsonlEventSink) {
        *self.sink() = Some(sink);
    }

    /// `fsync` the installed JSONL sink. Returns `Ok(false)` when no sink
    /// is installed (nothing to make durable). Checkpoint writers call
    /// this before persisting a cursor into the event log.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync_jsonl_sink(&self) -> io::Result<bool> {
        match self.sink().as_mut() {
            Some(sink) => sink.sync().map(|()| true),
            None => Ok(false),
        }
    }

    /// Fast-forward sequence numbering so the next published event gets
    /// a `seq` strictly above `seq` — used when resuming from a
    /// checkpoint whose event log already holds sequences up to `seq`.
    /// Never moves the counter backwards.
    pub fn resume_from(&self, seq: u64) {
        let mut ring = self.ring();
        ring.last_seq = ring.last_seq.max(seq);
    }

    /// Publish one event: assign its sequence number and wall-clock
    /// stamp, store it in the ring, bump `events/total/<severity>`, and
    /// append to the JSONL sink when one is installed, timing the append
    /// into `profiler`. Returns the assigned sequence number.
    pub(crate) fn publish(&self, mut event: Event, profiler: Option<&Profiler>) -> u64 {
        event.schema = EVENT_SCHEMA_VERSION;
        if event.unix_time == 0 {
            event.unix_time = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
        }
        let seq = {
            let mut ring = self.ring();
            ring.last_seq += 1;
            event.seq = ring.last_seq;
            if ring.buf.len() == RING_CAPACITY {
                ring.buf.pop_front();
            }
            ring.buf.push_back(event.clone());
            event.seq
        };
        self.totals[event.severity as usize].fetch_add(1, Ordering::Relaxed);
        metrics::counter(&format!(
            "{}{}",
            EVENTS_TOTAL_PREFIX,
            event.severity.as_str()
        ))
        .incr();
        if let Some(sink) = self.sink().as_mut() {
            // Flight-recorder timing of the append: event publication is
            // rare, so every append of a profiled run is timed.
            let t0 = profiler.map(|_| Instant::now());
            if let Err(e) = sink.append(&event) {
                crate::sink::warn(&format!("event log append failed: {e}"));
            }
            if let (Some(profiler), Some(t0)) = (profiler, t0) {
                profiler.record_stage_ns(Stage::EventSink, t0.elapsed().as_nanos() as u64);
            }
        }
        seq
    }

    /// Events with `seq > cursor`, oldest first. A cursor of 0 returns
    /// the whole ring. Events older than the ring capacity are gone —
    /// pollers that fall behind resynchronize from whatever remains.
    pub fn since(&self, cursor: u64) -> Vec<Event> {
        self.ring()
            .buf
            .iter()
            .filter(|e| e.seq > cursor)
            .cloned()
            .collect()
    }

    /// Highest sequence number assigned so far (0 before the first
    /// event).
    pub fn latest_seq(&self) -> u64 {
        self.ring().last_seq
    }

    /// Total events published at `severity` (ring overflow does not
    /// lower this).
    pub fn total(&self, severity: Severity) -> u64 {
        self.totals[severity as usize].load(Ordering::Relaxed)
    }

    /// Total events published at or above `severity`.
    pub fn total_at_or_above(&self, severity: Severity) -> u64 {
        Severity::ALL
            .iter()
            .filter(|s| **s >= severity)
            .map(|s| self.total(*s))
            .sum()
    }
}

impl Event {
    /// An event with the bookkeeping fields (schema, seq, unix_time)
    /// zeroed for publication to fill in.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        severity: Severity,
        detector: &str,
        metric: &str,
        window_index: u64,
        window_start: f64,
        before: f64,
        after: f64,
        score: f64,
        threshold: f64,
        message: String,
    ) -> Self {
        Event {
            schema: EVENT_SCHEMA_VERSION,
            seq: 0,
            unix_time: 0,
            severity,
            detector: detector.to_string(),
            metric: metric.to_string(),
            window_index,
            window_start,
            before,
            after,
            score,
            threshold,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(severity: Severity, window: u64) -> Event {
        Event::new(
            severity,
            "cusum",
            "request_rate",
            window,
            window as f64 * 14_400.0,
            1.0,
            2.0,
            6.5,
            5.0,
            "unit test event".to_string(),
        )
    }

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Critical);
        assert_eq!(Severity::parse("WARN"), Some(Severity::Warn));
        assert_eq!(Severity::parse("crit"), Some(Severity::Critical));
        assert_eq!(Severity::parse("nope"), None);
        assert_eq!(Severity::Critical.as_str(), "critical");
    }

    #[test]
    fn publish_assigns_monotone_seqs_and_counts() {
        let log = EventLog::default();
        let a = log.publish(ev(Severity::Warn, 0), None);
        let b = log.publish(ev(Severity::Critical, 1), None);
        assert_eq!((a, b), (1, 2), "a fresh log numbers from 1");
        assert_eq!(log.latest_seq(), b);
        assert_eq!(log.total(Severity::Warn), 1);
        assert_eq!(log.total(Severity::Critical), 1);
        assert_eq!(log.total_at_or_above(Severity::Warn), 2);
        assert_eq!(log.total_at_or_above(Severity::Critical), 1);
        let all = log.since(0);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].seq, a);
        assert!(all[0].unix_time > 0);
        assert_eq!(all[0].schema, EVENT_SCHEMA_VERSION);
        assert_eq!(log.since(a).len(), 1);
        assert_eq!(log.since(b).len(), 0);
    }

    #[test]
    fn ring_is_bounded_oldest_first() {
        let log = EventLog::default();
        let n = RING_CAPACITY as u64 + 6;
        for i in 0..n {
            log.publish(ev(Severity::Info, i), None);
        }
        let kept = log.since(0);
        assert_eq!(kept.len(), RING_CAPACITY);
        assert_eq!(kept[0].window_index, 6);
        assert_eq!(kept[RING_CAPACITY - 1].window_index, n - 1);
        // Totals survive the overflow.
        assert_eq!(log.total(Severity::Info), n);
    }

    #[test]
    fn resume_from_fast_forwards_but_never_rewinds() {
        let log = EventLog::default();
        log.resume_from(41);
        let seq = log.publish(ev(Severity::Info, 0), None);
        assert_eq!(seq, 42);
        // A stale (lower) cursor must not rewind numbering.
        log.resume_from(7);
        let seq = log.publish(ev(Severity::Info, 1), None);
        assert_eq!(seq, 43);
    }

    #[test]
    fn sink_sync_reports_installation_state() {
        // No sink installed: nothing to sync, not an error.
        let log = EventLog::default();
        assert!(!log.sync_jsonl_sink().unwrap());
        let dir = std::env::temp_dir().join(format!("webpuzzle-evsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        log.set_jsonl_sink(JsonlEventSink::create(&path).unwrap());
        assert!(log.sync_jsonl_sink().unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_round_trips_through_json() {
        let event = ev(Severity::Critical, 7);
        let line = serde_json::to_string(&event).unwrap();
        assert!(line.contains("\"schema\""));
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn jsonl_sink_appends_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("webpuzzle-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = JsonlEventSink::create(&path).unwrap();
        let mut first = ev(Severity::Warn, 1);
        first.seq = 1;
        let mut second = ev(Severity::Critical, 2);
        second.seq = 2;
        sink.append(&first).unwrap();
        sink.append(&second).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        let (events, skipped) = parse_jsonl(&text);
        assert_eq!(skipped, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].severity, Severity::Critical);
        // A torn final line (crashed writer) is skipped, not fatal.
        let torn = format!("{text}{{\"schema\": 1, \"seq\"");
        let (events, skipped) = parse_jsonl(&torn);
        assert_eq!(events.len(), 2);
        assert_eq!(skipped, 1);
        let _ = std::fs::remove_file(&path);
    }
}
