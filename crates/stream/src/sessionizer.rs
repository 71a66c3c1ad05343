//! Incremental sessionization with TTL eviction.
//!
//! The batch [`webpuzzle_weblog::sessionize`] takes the whole record
//! slice; [`StreamSessionizer`] consumes records one at a time (they
//! must arrive in nondecreasing timestamp order, as real logs do) and
//! keeps only the *open* sessions in a hash map. A session is closed —
//! and emitted — in exactly two situations, both of which the paper's
//! §2 definition forces:
//!
//! 1. its own client issues a request at or beyond the inactivity
//!    threshold (the gap rule: `gap >= threshold` starts a new session);
//! 2. the stream watermark (max timestamp seen) passes
//!    `end + threshold` — no future record can extend the session, so
//!    it is evicted from the TTL map during a periodic sweep.
//!
//! The two rules produce the same multiset of sessions as the batch
//! sessionizer on any time-sorted input (property-tested in
//! `tests/streaming_equivalence.rs`); only the emission *order*
//! differs, because bounded memory forbids a global sort by start time.

use crate::Result;
use std::collections::HashMap;
use webpuzzle_weblog::{LogRecord, Session, WeblogError};

/// Default eviction sweep interval, in event-time seconds. A sweep
/// costs `O(open sessions)`, so sweeping every 60 s of log time keeps
/// the amortized per-record cost negligible while bounding eviction
/// latency well below the threshold itself.
pub const DEFAULT_SWEEP_INTERVAL: f64 = 60.0;

/// Streaming sessionizer over a TTL hash map of open sessions.
///
/// # Examples
///
/// ```
/// use webpuzzle_stream::StreamSessionizer;
/// use webpuzzle_weblog::{LogRecord, Method, DEFAULT_SESSION_THRESHOLD};
///
/// # fn main() -> Result<(), webpuzzle_stream::StreamError> {
/// let mut s = StreamSessionizer::new(DEFAULT_SESSION_THRESHOLD)?;
/// let mut out = Vec::new();
/// s.push(&LogRecord::new(0.0, 1, Method::Get, 1, 200, 100), &mut out)?;
/// s.push(&LogRecord::new(10.0, 1, Method::Get, 2, 200, 50), &mut out)?;
/// // 1800 s later the gap rule splits client 1's session.
/// s.push(&LogRecord::new(1810.0, 1, Method::Get, 3, 200, 1), &mut out)?;
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].request_count, 2);
/// assert_eq!(out[0].bytes, 150);
/// s.finish(&mut out);
/// assert_eq!(out.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamSessionizer {
    threshold: f64,
    sweep_interval: f64,
    open: HashMap<u32, Session>,
    watermark: f64,
    last_sweep: f64,
    records_seen: u64,
    emitted: u64,
    peak_open: usize,
    max_open: usize,
    shed_sessions: u64,
    shed_records: u64,
    ttl_scale: f64,
    early_evicted: u64,
}

/// Complete mutable state of a [`StreamSessionizer`], for checkpointing.
/// Open sessions are exported sorted by client id so the snapshot bytes
/// are deterministic (hash-map iteration order is not).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionizerState {
    /// Inactivity threshold, seconds.
    pub threshold: f64,
    /// Eviction sweep interval, event-time seconds.
    pub sweep_interval: f64,
    /// Open sessions, sorted by client id.
    pub open: Vec<Session>,
    /// Max timestamp seen (`-inf` before the first record).
    pub watermark: f64,
    /// Event time of the last sweep (`-inf` before the first).
    pub last_sweep: f64,
    /// Records consumed.
    pub records_seen: u64,
    /// Sessions emitted.
    pub emitted: u64,
    /// High-water mark of simultaneously open sessions.
    pub peak_open: usize,
    /// Open-session hard cap (0 = unbounded).
    pub max_open: usize,
    /// Sessions force-closed by the cap.
    pub shed_sessions: u64,
    /// Records inside sessions that were shed.
    pub shed_records: u64,
    /// Eviction-deadline scale (1.0 = nominal TTL; < 1.0 under
    /// governor degradation).
    pub ttl_scale: f64,
    /// Sessions evicted earlier than the nominal TTL would have.
    pub early_evicted: u64,
}

impl StreamSessionizer {
    /// Create a sessionizer with the given inactivity `threshold`
    /// (seconds; the paper uses 1800).
    ///
    /// # Errors
    ///
    /// Returns [`WeblogError::InvalidParameter`] for a non-positive or
    /// non-finite threshold, matching the batch sessionizer.
    pub fn new(threshold: f64) -> Result<Self> {
        if !threshold.is_finite() || threshold <= 0.0 {
            return Err(WeblogError::InvalidParameter {
                name: "threshold",
                constraint: "must be finite and > 0",
            }
            .into());
        }
        Ok(StreamSessionizer {
            threshold,
            sweep_interval: DEFAULT_SWEEP_INTERVAL,
            open: HashMap::new(),
            watermark: f64::NEG_INFINITY,
            last_sweep: f64::NEG_INFINITY,
            records_seen: 0,
            emitted: 0,
            peak_open: 0,
            max_open: 0,
            shed_sessions: 0,
            shed_records: 0,
            ttl_scale: 1.0,
            early_evicted: 0,
        })
    }

    /// Override the eviction sweep interval (event-time seconds).
    /// Smaller values tighten eviction latency at higher sweep cost;
    /// the emitted sessions are identical either way.
    pub fn with_sweep_interval(mut self, interval: f64) -> Self {
        self.sweep_interval = interval.max(0.0);
        self
    }

    /// Hard-cap the TTL map at `max_open` open sessions (0 = unbounded,
    /// the default). When a new session would exceed the cap, the
    /// least-recently-active open session is *shed*: force-closed and
    /// emitted early, counted in [`StreamSessionizer::shed_sessions`] /
    /// [`StreamSessionizer::shed_records`]. Graceful degradation under
    /// memory pressure — sheds truncate long idle sessions rather than
    /// losing the stream, and are never silent (the engine reports and
    /// counts them).
    pub fn with_max_open(mut self, max_open: usize) -> Self {
        self.max_open = max_open;
        self
    }

    /// Feed one record; completed sessions (if any) are appended to
    /// `out`. Returns `true` when the record *started* a new session —
    /// the signal the engine's session-arrival window counts consume.
    ///
    /// # Errors
    ///
    /// Returns [`WeblogError::Unsorted`] if `record.timestamp` is below
    /// the stream watermark: streaming sessionization requires
    /// time-sorted input (access logs are written in arrival order).
    pub fn push(&mut self, record: &LogRecord, out: &mut Vec<Session>) -> Result<bool> {
        if record.timestamp < self.watermark {
            return Err(WeblogError::Unsorted {
                at: self.records_seen as usize,
            }
            .into());
        }
        self.records_seen += 1;
        self.watermark = record.timestamp;
        if self.watermark - self.last_sweep >= self.sweep_interval {
            self.sweep(out);
            self.last_sweep = self.watermark;
        }

        let t = record.timestamp;
        let started = match self.open.get_mut(&record.client) {
            Some(session) if t - session.end < self.threshold => {
                session.end = t;
                session.request_count += 1;
                session.bytes += record.bytes;
                false
            }
            Some(session) => {
                // Gap at or beyond the threshold: close and restart.
                let done = *session;
                *session = Session {
                    client: record.client,
                    start: t,
                    end: t,
                    request_count: 1,
                    bytes: record.bytes,
                };
                self.emitted += 1;
                out.push(done);
                true
            }
            None => {
                self.open.insert(
                    record.client,
                    Session {
                        client: record.client,
                        start: t,
                        end: t,
                        request_count: 1,
                        bytes: record.bytes,
                    },
                );
                true
            }
        };
        if self.max_open > 0 {
            self.shed_over_cap(out);
        }
        self.peak_open = self.peak_open.max(self.open.len());
        Ok(started)
    }

    /// Force-close least-recently-active sessions until the map fits
    /// the cap. Selection is by `(end, start, client)` — a pure function
    /// of the open set — so shedding is deterministic and replays
    /// identically after a checkpoint restore.
    fn shed_over_cap(&mut self, out: &mut Vec<Session>) {
        while self.open.len() > self.max_open {
            let victim = self
                .open
                .values()
                .min_by(|a, b| {
                    (a.end, a.start, a.client)
                        .partial_cmp(&(b.end, b.start, b.client))
                        .expect("finite session times")
                })
                .map(|s| s.client)
                .expect("over-cap map is non-empty");
            let session = self.open.remove(&victim).expect("victim is open");
            self.shed_sessions += 1;
            self.shed_records += session.request_count as u64;
            self.emitted += 1;
            out.push(session);
        }
    }

    /// Evict every open session whose TTL elapsed: the watermark passed
    /// `end + threshold · ttl_scale`, so at the nominal scale of 1.0 no
    /// future record can extend it. Under governor degradation the
    /// scale drops below 1.0 and idle sessions are evicted early —
    /// truncated honestly and counted, exactly like cap sheds (a
    /// returning client starts a fresh session). Eviction order is made
    /// deterministic by sorting the evicted batch.
    fn sweep(&mut self, out: &mut Vec<Session>) {
        let deadline = self.watermark - self.threshold * self.ttl_scale;
        if self.open.is_empty() || deadline == f64::NEG_INFINITY {
            return;
        }
        let nominal_deadline = self.watermark - self.threshold;
        let before = out.len();
        let mut early = 0u64;
        self.open.retain(|_, session| {
            if session.end <= deadline {
                if session.end > nominal_deadline {
                    early += 1;
                }
                out.push(*session);
                false
            } else {
                true
            }
        });
        sort_batch(&mut out[before..]);
        self.emitted += (out.len() - before) as u64;
        self.early_evicted += early;
    }

    /// Flush every still-open session at end-of-stream, sorted by
    /// `(start, client)` for determinism.
    pub fn finish(&mut self, out: &mut Vec<Session>) {
        let before = out.len();
        out.extend(self.open.drain().map(|(_, s)| s));
        sort_batch(&mut out[before..]);
        self.emitted += (out.len() - before) as u64;
    }

    /// Number of currently open (in-memory) sessions.
    pub fn open_sessions(&self) -> usize {
        self.open.len()
    }

    /// High-water mark of simultaneously open sessions — the memory
    /// bound actually reached on this stream.
    pub fn peak_open_sessions(&self) -> usize {
        self.peak_open
    }

    /// Sessions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records consumed so far.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Max timestamp seen so far (`-inf` before the first record).
    pub fn watermark(&self) -> f64 {
        self.watermark
    }

    /// Event time of the last eviction sweep (`-inf` before the
    /// first). `watermark() - last_sweep()` is the eviction staleness
    /// the engine exports as the `stream/watermark_lag_secs` gauge.
    pub fn last_sweep(&self) -> f64 {
        self.last_sweep
    }

    /// Sessions force-closed by the [`StreamSessionizer::with_max_open`]
    /// cap so far.
    pub fn shed_sessions(&self) -> u64 {
        self.shed_sessions
    }

    /// Records inside sessions that were shed (those sessions were
    /// emitted truncated — any later request from the same client starts
    /// a fresh session).
    pub fn shed_records(&self) -> u64 {
        self.shed_records
    }

    /// The configured open-session cap (0 = unbounded).
    pub fn max_open(&self) -> usize {
        self.max_open
    }

    /// Scale the eviction deadline: `scale < 1.0` tightens the
    /// effective session TTL to `threshold · scale` (the governor's
    /// Yellow-state degradation), `1.0` restores nominal behavior. The
    /// gap rule is untouched — an early-evicted client that returns
    /// simply starts a fresh session, so every record still lands in
    /// exactly one emitted session. Clamped to `(0, 1]`.
    pub fn set_ttl_scale(&mut self, scale: f64) {
        self.ttl_scale = if scale.is_finite() {
            scale.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            1.0
        };
    }

    /// The current eviction-deadline scale.
    pub fn ttl_scale(&self) -> f64 {
        self.ttl_scale
    }

    /// Sessions evicted earlier than the nominal TTL would have
    /// (non-zero only after running with `ttl_scale < 1.0`).
    pub fn early_evicted(&self) -> u64 {
        self.early_evicted
    }

    /// Whether `client` currently has an open session (the Red-state
    /// hard-shed check: existing sessions keep absorbing, new ones are
    /// refused upstream).
    pub fn is_open(&self, client: u32) -> bool {
        self.open.contains_key(&client)
    }

    /// Snapshot the complete mutable state for a checkpoint.
    pub fn export_state(&self) -> SessionizerState {
        let mut open: Vec<Session> = self.open.values().copied().collect();
        open.sort_by_key(|s| s.client);
        SessionizerState {
            threshold: self.threshold,
            sweep_interval: self.sweep_interval,
            open,
            watermark: self.watermark,
            last_sweep: self.last_sweep,
            records_seen: self.records_seen,
            emitted: self.emitted,
            peak_open: self.peak_open,
            max_open: self.max_open,
            shed_sessions: self.shed_sessions,
            shed_records: self.shed_records,
            ttl_scale: self.ttl_scale,
            early_evicted: self.early_evicted,
        }
    }

    /// Rebuild a sessionizer from [`StreamSessionizer::export_state`]
    /// output. The restored instance continues the stream exactly where
    /// the snapshot left off.
    ///
    /// # Errors
    ///
    /// Rejects an invalid threshold, as [`StreamSessionizer::new`] does.
    pub fn from_state(state: SessionizerState) -> Result<Self> {
        let mut s = StreamSessionizer::new(state.threshold)?;
        s.sweep_interval = state.sweep_interval;
        s.open = state
            .open
            .into_iter()
            .map(|sess| (sess.client, sess))
            .collect();
        s.watermark = state.watermark;
        s.last_sweep = state.last_sweep;
        s.records_seen = state.records_seen;
        s.emitted = state.emitted;
        s.peak_open = state.peak_open;
        s.max_open = state.max_open;
        s.shed_sessions = state.shed_sessions;
        s.shed_records = state.shed_records;
        s.ttl_scale = state.ttl_scale;
        s.early_evicted = state.early_evicted;
        Ok(s)
    }
}

/// Deterministic order for an eviction batch: by start, then client.
fn sort_batch(batch: &mut [Session]) {
    batch.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .expect("finite starts")
            .then(a.client.cmp(&b.client))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_weblog::Method;

    fn rec(t: f64, client: u32, bytes: u64) -> LogRecord {
        LogRecord::new(t, client, Method::Get, 0, 200, bytes)
    }

    fn run(records: &[LogRecord], threshold: f64) -> Vec<Session> {
        let mut s = StreamSessionizer::new(threshold).unwrap();
        let mut out = Vec::new();
        for r in records {
            s.push(r, &mut out).unwrap();
        }
        s.finish(&mut out);
        out
    }

    #[test]
    fn gap_below_threshold_stays_one_session() {
        let out = run(
            &[rec(0.0, 1, 1), rec(1799.0, 1, 1), rec(3598.0, 1, 1)],
            1800.0,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].request_count, 3);
        assert_eq!(out[0].duration(), 3598.0);
    }

    #[test]
    fn gap_exactly_at_threshold_splits() {
        let out = run(&[rec(0.0, 1, 1), rec(1800.0, 1, 1)], 1800.0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn ttl_eviction_at_exact_threshold_boundary() {
        let mut s = StreamSessionizer::new(1800.0)
            .unwrap()
            .with_sweep_interval(0.0);
        let mut out = Vec::new();
        s.push(&rec(0.0, 1, 1), &mut out).unwrap();
        // Watermark 1799.999…: client 1's TTL has not elapsed yet.
        s.push(&rec(1799.0, 2, 1), &mut out).unwrap();
        assert!(out.is_empty(), "evicted before the threshold elapsed");
        assert_eq!(s.open_sessions(), 2);
        // Watermark exactly end + threshold: the gap rule says a request
        // at 1800.0 would start a NEW session, so eviction at exactly the
        // boundary is correct — and must fire.
        s.push(&rec(1800.0, 3, 1), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].client, 1);
        assert_eq!(s.open_sessions(), 2);
    }

    #[test]
    fn eviction_does_not_lose_late_same_client_splits() {
        // Client 1 goes idle past the threshold, then returns: the old
        // session must be emitted once and the new one opened.
        let out = run(&[rec(0.0, 1, 5), rec(5000.0, 1, 7)], 1800.0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].bytes, 5);
        assert_eq!(out[1].bytes, 7);
    }

    #[test]
    fn rejects_out_of_order_input() {
        let mut s = StreamSessionizer::new(1800.0).unwrap();
        let mut out = Vec::new();
        s.push(&rec(10.0, 1, 1), &mut out).unwrap();
        let err = s.push(&rec(9.0, 1, 1), &mut out).unwrap_err();
        match err {
            crate::StreamError::Weblog(WeblogError::Unsorted { at }) => assert_eq!(at, 1),
            other => panic!("expected Unsorted, got {other:?}"),
        }
    }

    #[test]
    fn equal_timestamps_are_fine() {
        let out = run(&[rec(5.0, 1, 1), rec(5.0, 1, 1), rec(5.0, 2, 1)], 1800.0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn matches_batch_on_a_dense_stream() {
        let records: Vec<LogRecord> = (0..2000)
            .map(|i| rec(i as f64 * 700.0, (i % 7) as u32, 1 + (i % 13) as u64))
            .collect();
        let mut streamed = run(&records, 1800.0);
        let mut batch = webpuzzle_weblog::sessionize(&records, 1800.0).unwrap();
        sort_batch(&mut streamed);
        sort_batch(&mut batch);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn peak_open_tracks_memory_bound() {
        let mut s = StreamSessionizer::new(1800.0).unwrap();
        let mut out = Vec::new();
        for i in 0..100u32 {
            s.push(&rec(i as f64, i, 1), &mut out).unwrap();
        }
        // All 100 clients are active within one threshold: all open.
        assert_eq!(s.peak_open_sessions(), 100);
        // A far-future record sweeps everything out.
        s.push(&rec(1e7, 0, 1), &mut out).unwrap();
        assert_eq!(s.open_sessions(), 1);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn started_flag_marks_session_starts() {
        let mut s = StreamSessionizer::new(1800.0).unwrap();
        let mut out = Vec::new();
        assert!(s.push(&rec(0.0, 1, 1), &mut out).unwrap());
        assert!(!s.push(&rec(1.0, 1, 1), &mut out).unwrap());
        assert!(s.push(&rec(2.0, 2, 1), &mut out).unwrap());
        assert!(s.push(&rec(9000.0, 1, 1), &mut out).unwrap());
    }

    #[test]
    fn validation() {
        assert!(StreamSessionizer::new(0.0).is_err());
        assert!(StreamSessionizer::new(f64::NAN).is_err());
    }

    #[test]
    fn max_open_cap_sheds_oldest_and_counts() {
        let mut s = StreamSessionizer::new(1800.0).unwrap().with_max_open(10);
        let mut out = Vec::new();
        // 50 clients interleave within one threshold: without the cap
        // all 50 would stay open (see peak_open_tracks_memory_bound).
        for i in 0..200u32 {
            s.push(&rec(f64::from(i), i % 50, 1), &mut out).unwrap();
        }
        assert!(s.open_sessions() <= 10);
        assert!(s.peak_open_sessions() <= 10);
        assert!(s.shed_sessions() > 0);
        assert!(s.shed_records() >= s.shed_sessions());
        // Conservation: every record lands in exactly one emitted session.
        s.finish(&mut out);
        let total: u64 = out.iter().map(|sess| sess.request_count as u64).sum();
        assert_eq!(total, 200);
        assert_eq!(out.len() as u64, s.emitted());
    }

    #[test]
    fn unbounded_by_default_sheds_nothing() {
        let out = run(
            &(0..100)
                .map(|i| rec(i as f64, i as u32, 1))
                .collect::<Vec<_>>(),
            1800.0,
        );
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn tightened_ttl_evicts_early_and_counts_and_conserves() {
        let mut s = StreamSessionizer::new(1800.0)
            .unwrap()
            .with_sweep_interval(0.0);
        let mut out = Vec::new();
        s.push(&rec(0.0, 1, 1), &mut out).unwrap();
        s.set_ttl_scale(0.5);
        // Watermark 1000: client 1 idle for 1000 s ≥ 900 s scaled TTL
        // but < 1800 s nominal — evicted early, counted.
        s.push(&rec(1000.0, 2, 1), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].client, 1);
        assert_eq!(s.early_evicted(), 1);
        // Client 1 returns within the nominal threshold: a fresh
        // session starts (gap rule untouched), the record is not lost.
        assert!(s.push(&rec(1500.0, 1, 1), &mut out).unwrap());
        // Back to nominal: no further early evictions.
        s.set_ttl_scale(1.0);
        s.push(&rec(2000.0, 3, 1), &mut out).unwrap();
        assert_eq!(s.early_evicted(), 1);
        s.finish(&mut out);
        let total: u64 = out.iter().map(|sess| sess.request_count as u64).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn state_round_trip_resumes_identically() {
        let records: Vec<LogRecord> = (0..3_000)
            .map(|i| rec(i as f64 * 37.0, (i % 23) as u32, 1 + (i % 7) as u64))
            .collect();
        let (head, tail) = records.split_at(1_234);

        let mut whole = StreamSessionizer::new(1800.0).unwrap().with_max_open(8);
        let mut whole_out = Vec::new();
        for r in &records {
            whole.push(r, &mut whole_out).unwrap();
        }
        whole.finish(&mut whole_out);

        let mut first = StreamSessionizer::new(1800.0).unwrap().with_max_open(8);
        let mut split_out = Vec::new();
        for r in head {
            first.push(r, &mut split_out).unwrap();
        }
        let state = first.export_state();
        assert_eq!(
            StreamSessionizer::from_state(state.clone())
                .unwrap()
                .export_state(),
            state,
            "export/restore must be lossless"
        );
        let mut second = StreamSessionizer::from_state(state).unwrap();
        for r in tail {
            second.push(r, &mut split_out).unwrap();
        }
        second.finish(&mut split_out);

        sort_batch(&mut whole_out);
        sort_batch(&mut split_out);
        assert_eq!(split_out, whole_out);
        assert_eq!(second.emitted(), whole.emitted());
        assert_eq!(second.shed_sessions(), whole.shed_sessions());
        assert_eq!(second.shed_records(), whole.shed_records());
    }
}
