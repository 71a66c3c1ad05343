//! Watermark-based k-way merge over live, still-growing buffers.
//!
//! [`weblog::merge_sorted`](webpuzzle_weblog::merge_sorted) merges
//! finished slices: every stream's future is known, so the heap can
//! always release its minimum. A live source is different — the next
//! record has not arrived yet, and sources drift apart in time. The
//! [`WatermarkMerger`] generalizes the same (timestamp, source, seq)
//! heap discipline with per-source *watermarks*:
//!
//! - each source's watermark is the maximum timestamp it has delivered;
//!   a source promises (within its *reorder window*) not to deliver
//!   anything older than `watermark − reorder_window`;
//! - a buffered record is released only when no open source could still
//!   deliver something older: its timestamp must be ≤ every other
//!   source's *emit bound* (buffered minimum, or watermark − window for
//!   what may still arrive), and its own source must be unable to admit
//!   anything older (closed, or the record is at least one reorder
//!   window behind its own watermark);
//! - records arriving more than one reorder window behind their
//!   source's watermark are dropped **and counted** (`late`); nothing
//!   is ever shed silently;
//! - records at or below the *admit floor* (the resume watermark of a
//!   restored checkpoint) are dropped and counted as replay duplicates,
//!   which is what makes at-least-once senders idempotent across a
//!   kill-and-resume;
//! - a source marked *stalled* (the hub's wall-clock grace expired) no
//!   longer vetoes releases and its buffer becomes flushable; if it
//!   wakes up and pushes records that are now behind the merged
//!   output, those are dropped and counted (`merge_late`).
//!
//! The merger itself is single-threaded and deterministic — ties break
//! by (timestamp, source id, arrival seq), so a given set of per-source
//! record sequences always merges to the same output, which is what the
//! wire-vs-file equivalence tests lean on. Thread safety and blocking
//! live in [`crate::hub`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use webpuzzle_weblog::LogRecord;

/// Heap entry ordered for a min-heap on (timestamp, source id, seq):
/// `BinaryHeap` is a max-heap, so comparisons are reversed.
struct Pending {
    t: f64,
    source: usize,
    seq: u64,
    record: LogRecord,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.source.cmp(&self.source))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// What [`WatermarkMerger::push`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Buffered; will be released in merged order.
    Admitted,
    /// More than one reorder window behind its source's watermark;
    /// dropped and counted.
    Late,
    /// At or below the admit floor (already analyzed before a resume);
    /// dropped and counted.
    Duplicate,
}

/// Per-source accounting, exposed for metrics and checkpoints.
#[derive(Debug, Clone)]
pub struct SourceStats {
    /// Registration name, e.g. `tcp-3` or `http-7`.
    pub name: String,
    /// Max timestamp delivered (−∞ before the first record).
    pub watermark: f64,
    /// Records currently buffered.
    pub buffered: usize,
    /// Records admitted in total.
    pub admitted: u64,
    /// Records dropped as late (outside the reorder window).
    pub late: u64,
    /// Records dropped as resume duplicates.
    pub duplicates: u64,
    /// Still delivering (not closed).
    pub open: bool,
}

struct SourceState {
    name: String,
    buf: BinaryHeap<Pending>,
    watermark: f64,
    next_seq: u64,
    admitted: u64,
    late: u64,
    duplicates: u64,
    open: bool,
    stalled: bool,
}

/// Deterministic k-way merge over live buffers; see the module docs.
pub struct WatermarkMerger {
    sources: Vec<SourceState>,
    reorder_window: f64,
    admit_floor: f64,
    emitted_watermark: f64,
    emitted: u64,
    merge_late: u64,
    buffered_total: usize,
}

impl WatermarkMerger {
    /// New merger. `reorder_window` is the per-source disorder budget in
    /// seconds (0 = every source must be internally sorted);
    /// `admit_floor` drops everything at or below it as a resume
    /// duplicate (use `f64::NEG_INFINITY` for none).
    pub fn new(reorder_window: f64, admit_floor: f64) -> Self {
        WatermarkMerger {
            sources: Vec::new(),
            reorder_window,
            admit_floor,
            emitted_watermark: f64::NEG_INFINITY,
            emitted: 0,
            merge_late: 0,
            buffered_total: 0,
        }
    }

    /// Register a new source; the returned id is its index for `push`,
    /// `close`, and the stats accessors.
    pub fn register(&mut self, name: String) -> usize {
        self.sources.push(SourceState {
            name,
            buf: BinaryHeap::new(),
            watermark: f64::NEG_INFINITY,
            next_seq: 0,
            admitted: 0,
            late: 0,
            duplicates: 0,
            open: true,
            stalled: false,
        });
        self.sources.len() - 1
    }

    /// Deliver one record from `source`. Never blocks; the outcome says
    /// whether it was buffered or counted away.
    pub fn push(&mut self, source: usize, record: LogRecord) -> PushOutcome {
        let window = self.reorder_window;
        let floor = self.admit_floor;
        let s = &mut self.sources[source];
        s.stalled = false;
        let t = record.timestamp;
        if t <= floor {
            s.duplicates += 1;
            return PushOutcome::Duplicate;
        }
        let cutoff = s.watermark - window;
        if t > s.watermark {
            s.watermark = t;
        }
        if t < cutoff {
            s.late += 1;
            return PushOutcome::Late;
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.buf.push(Pending {
            t,
            source,
            seq,
            record,
        });
        s.admitted += 1;
        self.buffered_total += 1;
        PushOutcome::Admitted
    }

    /// Mark `source` as finished: its buffer flushes unconditionally
    /// (subject to other sources) and it stops vetoing releases.
    pub fn close(&mut self, source: usize) {
        self.sources[source].open = false;
    }

    /// Stop waiting for `source` until it next delivers: the hub calls
    /// this when its stall grace expires so one idle connection cannot
    /// dam the merge forever. Any records it later delivers behind the
    /// merged output are dropped and counted as `merge_late`.
    pub fn mark_stalled(&mut self, source: usize) {
        self.sources[source].stalled = true;
    }

    /// Whether any open, non-stalled source is currently holding the
    /// merge back (used by the hub to decide if a stall grace applies).
    pub fn blocked_by_idle_source(&self) -> bool {
        self.buffered_total > 0 && self.pop_candidate().is_none()
    }

    /// Index of the releasable record's source, if any record is
    /// currently releasable.
    fn pop_candidate(&self) -> Option<usize> {
        // The candidate is the minimal buffered (t, source, seq) among
        // *flushable* sources — sources whose buffered minimum cannot be
        // undercut by their own future arrivals.
        let mut best: Option<(f64, usize, u64)> = None;
        for (i, s) in self.sources.iter().enumerate() {
            if let Some(p) = s.buf.peek() {
                let own_ok = !s.open || s.stalled || p.t <= s.watermark - self.reorder_window;
                if !own_ok {
                    continue;
                }
                let key = (p.t, i, p.seq);
                let better = match best {
                    None => true,
                    Some((bt, bi, bs)) => match p.t.total_cmp(&bt) {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => (i, p.seq) < (bi, bs),
                    },
                };
                if better {
                    best = Some(key);
                }
            }
        }
        let (t, idx, _) = best?;
        // No other source may still emit something older.
        for (i, s) in self.sources.iter().enumerate() {
            if i == idx {
                continue;
            }
            if self.emit_bound_of(s) < t {
                return None;
            }
        }
        Some(idx)
    }

    fn emit_bound_of(&self, s: &SourceState) -> f64 {
        let buffered = s.buf.peek().map(|p| p.t).unwrap_or(f64::INFINITY);
        if s.open && !s.stalled {
            buffered.min(s.watermark - self.reorder_window)
        } else {
            buffered
        }
    }

    /// Release the next record in merged order, if the watermarks allow
    /// one. `None` means "nothing releasable *now*" — not end of
    /// stream; see [`WatermarkMerger::is_drained`].
    pub fn pop(&mut self) -> Option<LogRecord> {
        self.pop_with_source().map(|(_, record)| record)
    }

    /// [`WatermarkMerger::pop`], also naming the source the record came
    /// from.
    pub fn pop_with_source(&mut self) -> Option<(usize, LogRecord)> {
        loop {
            let idx = self.pop_candidate()?;
            let p = self.sources[idx].buf.pop().expect("candidate has a head");
            self.buffered_total -= 1;
            // A stall release may have advanced the merged output past
            // records a dormant source later delivered; they cannot go
            // to the engine (timestamps must be nondecreasing) so they
            // are counted away here.
            if p.t < self.emitted_watermark {
                self.merge_late += 1;
                continue;
            }
            self.emitted_watermark = p.t;
            self.emitted += 1;
            return Some((idx, p.record));
        }
    }

    /// All sources closed and all buffers empty: the merged stream has
    /// ended.
    pub fn is_drained(&self) -> bool {
        self.buffered_total == 0 && self.sources.iter().all(|s| !s.open)
    }

    /// Records currently buffered across all sources.
    pub fn buffered(&self) -> usize {
        self.buffered_total
    }

    /// Records buffered by one source.
    pub fn buffered_of(&self, source: usize) -> usize {
        self.sources[source].buf.len()
    }

    /// Number of registered sources (closed ones included).
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of sources still open.
    pub fn open_sources(&self) -> usize {
        self.sources.iter().filter(|s| s.open).count()
    }

    /// Max timestamp released so far (−∞ before the first).
    pub fn emitted_watermark(&self) -> f64 {
        self.emitted_watermark
    }

    /// Records released so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records dropped because a stalled source delivered them behind
    /// the merged output.
    pub fn merge_late(&self) -> u64 {
        self.merge_late
    }

    /// Total late-dropped records across sources.
    pub fn late_total(&self) -> u64 {
        self.sources.iter().map(|s| s.late).sum()
    }

    /// Total resume-duplicate drops across sources.
    pub fn duplicate_total(&self) -> u64 {
        self.sources.iter().map(|s| s.duplicates).sum()
    }

    /// Total admitted records across sources.
    pub fn admitted_total(&self) -> u64 {
        self.sources.iter().map(|s| s.admitted).sum()
    }

    /// Stats snapshot for one source.
    pub fn source_stats(&self, source: usize) -> SourceStats {
        let s = &self.sources[source];
        SourceStats {
            name: s.name.clone(),
            watermark: s.watermark,
            buffered: s.buf.len(),
            admitted: s.admitted,
            late: s.late,
            duplicates: s.duplicates,
            open: s.open,
        }
    }

    /// Highest per-source watermark (−∞ with no data): the merge
    /// frontier per-source lag is measured against.
    pub fn max_source_watermark(&self) -> f64 {
        self.sources
            .iter()
            .map(|s| s.watermark)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_weblog::Method;

    fn rec(t: f64, client: u32) -> LogRecord {
        LogRecord::new(t, client, Method::Get, 0, 200, 0)
    }

    fn drain(m: &mut WatermarkMerger) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(r) = m.pop() {
            out.push(r.timestamp);
        }
        out
    }

    #[test]
    fn two_sorted_sources_merge_in_time_order() {
        let mut m = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
        let a = m.register("a".into());
        let b = m.register("b".into());
        for t in [1.0, 3.0, 5.0] {
            m.push(a, rec(t, 1));
        }
        for t in [2.0, 4.0] {
            m.push(b, rec(t, 2));
        }
        // Both sources open: releasable only up to min watermark.
        assert_eq!(drain(&mut m), vec![1.0, 2.0, 3.0, 4.0]);
        // 5.0 is above b's watermark; closing b releases it.
        m.close(b);
        assert_eq!(drain(&mut m), vec![5.0]);
        m.close(a);
        assert!(m.is_drained());
        assert_eq!(m.emitted(), 5);
    }

    #[test]
    fn an_idle_open_source_with_no_data_blocks_everything() {
        let mut m = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
        let a = m.register("a".into());
        let _b = m.register("b".into());
        m.push(a, rec(1.0, 1));
        assert!(m.pop().is_none(), "source b could still send t < 1.0");
        assert!(m.blocked_by_idle_source());
        m.mark_stalled(_b);
        assert_eq!(m.pop().unwrap().timestamp, 1.0);
    }

    #[test]
    fn reorder_window_admits_and_reorders_within_budget() {
        let mut m = WatermarkMerger::new(5.0, f64::NEG_INFINITY);
        let a = m.register("a".into());
        m.push(a, rec(10.0, 1));
        // 7.0 is 3s behind the watermark: inside the 5s window.
        assert_eq!(m.push(a, rec(7.0, 1)), PushOutcome::Admitted);
        // Nothing releasable yet: watermark − window = 5.0 < 7.0.
        assert!(m.pop().is_none());
        m.push(a, rec(20.0, 1));
        // Now 7.0 and 10.0 are both ≤ 15.0, and come out reordered.
        assert_eq!(m.pop().unwrap().timestamp, 7.0);
        assert_eq!(m.pop().unwrap().timestamp, 10.0);
        assert!(m.pop().is_none());
        m.close(a);
        assert_eq!(m.pop().unwrap().timestamp, 20.0);
    }

    #[test]
    fn late_records_are_dropped_and_counted() {
        let mut m = WatermarkMerger::new(2.0, f64::NEG_INFINITY);
        let a = m.register("a".into());
        m.push(a, rec(10.0, 1));
        assert_eq!(m.push(a, rec(7.0, 1)), PushOutcome::Late);
        assert_eq!(m.late_total(), 1);
        assert_eq!(m.source_stats(a).late, 1);
        m.close(a);
        assert_eq!(drain(&mut m), vec![10.0]);
    }

    #[test]
    fn admit_floor_drops_resume_duplicates() {
        let mut m = WatermarkMerger::new(0.0, 100.0);
        let a = m.register("a".into());
        assert_eq!(m.push(a, rec(99.0, 1)), PushOutcome::Duplicate);
        assert_eq!(m.push(a, rec(100.0, 1)), PushOutcome::Duplicate);
        assert_eq!(m.push(a, rec(100.5, 1)), PushOutcome::Admitted);
        assert_eq!(m.duplicate_total(), 2);
        m.close(a);
        assert_eq!(drain(&mut m), vec![100.5]);
    }

    #[test]
    fn ties_release_by_source_then_arrival_order() {
        let mut m = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
        let a = m.register("a".into());
        let b = m.register("b".into());
        m.push(b, rec(1.0, 20));
        m.push(b, rec(1.0, 21));
        m.push(a, rec(1.0, 10));
        m.close(a);
        m.close(b);
        let clients: Vec<u32> = std::iter::from_fn(|| m.pop()).map(|r| r.client).collect();
        assert_eq!(clients, vec![10, 20, 21]);
    }

    #[test]
    fn stalled_source_waking_up_behind_the_output_is_counted() {
        let mut m = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
        let a = m.register("a".into());
        let b = m.register("b".into());
        m.push(a, rec(5.0, 1));
        m.mark_stalled(b);
        assert_eq!(m.pop().unwrap().timestamp, 5.0);
        // b wakes up behind the merged output.
        m.push(b, rec(3.0, 2));
        m.close(a);
        m.close(b);
        assert!(m.pop().is_none());
        assert_eq!(m.merge_late(), 1);
        assert!(m.is_drained());
    }

    #[test]
    fn deterministic_merge_equals_weblog_merge_for_sorted_shards() {
        // With all data delivered then closed, the live merge must agree
        // with the batch slice merge record for record.
        let shards: Vec<Vec<LogRecord>> = (0..4)
            .map(|s| {
                (0..25)
                    .map(|i| rec((i * 4 + s) as f64 * 0.5, s as u32))
                    .collect()
            })
            .collect();
        let refs: Vec<&[LogRecord]> = shards.iter().map(|v| v.as_slice()).collect();
        let batch = webpuzzle_weblog::merge_sorted(&refs).unwrap();

        let mut m = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
        let ids: Vec<usize> = (0..4).map(|s| m.register(format!("s{s}"))).collect();
        for (s, shard) in shards.iter().enumerate() {
            for r in shard {
                m.push(ids[s], *r);
            }
        }
        for id in ids {
            m.close(id);
        }
        let live: Vec<LogRecord> = std::iter::from_fn(|| m.pop()).collect();
        assert_eq!(live, batch);
    }
}
