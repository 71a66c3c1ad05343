//! Fixed-memory telemetry history: delta-encoded ring buffers over the
//! metrics registry.
//!
//! The instantaneous endpoints (`/metrics`, `/report`, `/profile`)
//! answer "what is true now"; this module answers "what changed over
//! the last hour" without growing without bound. A [`Tsdb`] samples
//! every counter and gauge in [`crate::metrics`] on a fixed cadence
//! (one *tick* per pass) into two retention tiers per series:
//!
//! - a **dense ring** of every sample, stored as variable-length
//!   deltas (LEB128 varints) in a byte ring — counters as wrapping
//!   arithmetic deltas, gauges as XOR of consecutive `f64` bit
//!   patterns, so decode round-trips bit-exactly in both domains;
//! - a **coarse ring** of downsampled buckets ([`CoarsePoint`]:
//!   min/max/last over [`TsdbConfig::coarse_every`] ticks), a plain
//!   fixed-capacity deque that extends lookback far beyond the dense
//!   window at ~24 bytes per bucket.
//!
//! Memory is governed twice: each dense ring is individually capped at
//! [`TsdbConfig::dense_bytes`] encoded bytes, and the whole store is
//! held under [`TsdbConfig::memory_budget_bytes`] by evicting oldest
//! dense samples from the largest series first (eviction counts are
//! reported in [`TsdbStats`] and as `tsdb/*` metrics, so the telemetry
//! layer observes its own shedding). Sample indices (ticks) are global
//! and monotone, which is what keeps `/timeseries?since=` cursors
//! valid across ring wraparound: a cursor names a tick, not a buffer
//! position.
//!
//! Timestamps are *nominal*: tick `i` maps to
//! `start_unix_ms + i * interval_ms`. The sampler thread holds the
//! cadence; wall-clock drift of the thread shows up as a late
//! `tsdb/last_tick_unix` gauge rather than as a distorted time base
//! (see DESIGN.md §15).
//!
//! A run's store lives in its [`crate::Telemetry`], which takes the
//! sample passes ([`crate::Telemetry::sample`]) and runs the cadence on
//! a background thread. The engine hot path is untouched: one pass
//! locks the registry exactly as long as a `/metrics` scrape does.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::metrics::SampleKind;

/// Default sampling cadence.
pub const DEFAULT_INTERVAL_MS: u64 = 1_000;

/// Default per-series dense-ring capacity in *encoded* bytes. Steady
/// counters encode at 1–2 bytes per tick, so this holds roughly half an
/// hour to an hour of 1 Hz history per well-behaved series.
pub const DEFAULT_DENSE_BYTES: usize = 4_096;

/// Default dense ticks folded into one coarse bucket (60 ticks = 1
/// minute at the default cadence).
pub const DEFAULT_COARSE_EVERY: u64 = 60;

/// Default coarse buckets retained per series (1 440 minute-buckets =
/// 24 h at the default cadence).
pub const DEFAULT_COARSE_POINTS: usize = 1_440;

/// Default hard global budget across every series and tier.
pub const DEFAULT_MEMORY_BUDGET_BYTES: usize = 4 * 1024 * 1024;

/// Estimated fixed overhead per series (map entry, ring headers), used
/// in the budget math so "many tiny series" cannot dodge the cap.
const SERIES_OVERHEAD_BYTES: usize = 160;

/// Bytes per retained coarse bucket (three raw `u64` words).
const COARSE_POINT_BYTES: usize = 24;

/// Sampler configuration; see the module docs for the tier layout.
#[derive(Debug, Clone)]
pub struct TsdbConfig {
    /// Sampling cadence. Sub-second cadences are for tests and benches;
    /// production runs use ≥ 1 s.
    pub interval: Duration,
    /// Per-series dense-ring cap in encoded bytes.
    pub dense_bytes: usize,
    /// Dense ticks per coarse bucket.
    pub coarse_every: u64,
    /// Coarse buckets retained per series.
    pub coarse_points: usize,
    /// Hard global memory budget (all series, both tiers, plus
    /// per-series overhead estimates).
    pub memory_budget_bytes: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            interval: Duration::from_millis(DEFAULT_INTERVAL_MS),
            dense_bytes: DEFAULT_DENSE_BYTES,
            coarse_every: DEFAULT_COARSE_EVERY,
            coarse_points: DEFAULT_COARSE_POINTS,
            memory_budget_bytes: DEFAULT_MEMORY_BUDGET_BYTES,
        }
    }
}

/// LEB128-encode `v` into `out`, returning the encoded length.
fn put_varint(out: &mut VecDeque<u8>, mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            out.push_back(byte);
            return n;
        }
        out.push_back(byte | 0x80);
    }
}

/// Decode one LEB128 varint starting at `pos` in `bytes`; returns
/// `(value, bytes_consumed)`.
fn get_varint(bytes: &VecDeque<u8>, pos: usize) -> (u64, usize) {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut n = 0usize;
    loop {
        let byte = bytes[pos + n];
        v |= u64::from(byte & 0x7f) << shift;
        n += 1;
        if byte & 0x80 == 0 {
            return (v, n);
        }
        shift += 7;
    }
}

/// One completed downsample bucket: extremes and final value of the
/// ticks it covers, in the series' raw domain (`u64` counters; `f64`
/// bit patterns for gauges, compared as floats when aggregating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoarsePoint {
    /// Tick index of the last sample folded into the bucket.
    pub end_index: u64,
    /// Minimum raw value observed in the bucket.
    pub min: u64,
    /// Maximum raw value observed in the bucket.
    pub max: u64,
    /// Last raw value observed in the bucket.
    pub last: u64,
}

/// In-progress coarse bucket accumulator.
#[derive(Debug, Clone, Copy)]
struct CoarseAcc {
    min: u64,
    max: u64,
    last: u64,
    ticks: u64,
}

/// One metric's history: the dense delta ring plus the coarse deque.
#[derive(Debug)]
struct Series {
    kind: SampleKind,
    /// Encoded deltas for samples `first_index + 1 ..= last_index`.
    bytes: VecDeque<u8>,
    /// Raw value of the oldest retained dense sample.
    head: u64,
    /// Raw value of the newest dense sample (encode anchor).
    last: u64,
    /// Global tick of the oldest retained dense sample.
    first_index: u64,
    /// Dense samples currently held (0 = empty).
    len: u64,
    coarse: VecDeque<CoarsePoint>,
    acc: Option<CoarseAcc>,
    evicted: u64,
}

impl Series {
    fn new(kind: SampleKind) -> Self {
        Series {
            kind,
            bytes: VecDeque::new(),
            head: 0,
            last: 0,
            first_index: 0,
            len: 0,
            coarse: VecDeque::new(),
            acc: None,
            evicted: 0,
        }
    }

    fn encode_delta(&self, v: u64) -> u64 {
        match self.kind {
            SampleKind::Counter => v.wrapping_sub(self.last),
            SampleKind::Gauge => v ^ self.last,
        }
    }

    fn apply_delta(kind: SampleKind, base: u64, delta: u64) -> u64 {
        match kind {
            SampleKind::Counter => base.wrapping_add(delta),
            SampleKind::Gauge => base ^ delta,
        }
    }

    /// Compare raw values in the series' domain (numeric for counters,
    /// float-ordered for gauges; NaN loses every comparison so it never
    /// poisons a min/max).
    fn raw_less(kind: SampleKind, a: u64, b: u64) -> bool {
        match kind {
            SampleKind::Counter => a < b,
            SampleKind::Gauge => match f64::from_bits(a).partial_cmp(&f64::from_bits(b)) {
                Some(std::cmp::Ordering::Less) => true,
                Some(_) => false,
                None => f64::from_bits(a).is_nan() && !f64::from_bits(b).is_nan(),
            },
        }
    }

    /// Append the sample for global tick `index`, maintaining both
    /// tiers. Ticks are contiguous per series by construction (a series
    /// absent from a pass is dropped entirely, never gapped).
    fn push(&mut self, index: u64, raw: u64, cfg: &TsdbConfig) {
        if self.len == 0 {
            self.head = raw;
            self.last = raw;
            self.first_index = index;
            self.len = 1;
        } else {
            let delta = self.encode_delta(raw);
            put_varint(&mut self.bytes, delta);
            self.last = raw;
            self.len += 1;
            while self.bytes.len() > cfg.dense_bytes && self.len > 1 {
                self.evict_oldest();
            }
        }
        // Coarse tier: fold into the in-progress bucket, close it at
        // the boundary.
        let acc = self.acc.get_or_insert(CoarseAcc {
            min: raw,
            max: raw,
            last: raw,
            ticks: 0,
        });
        if Self::raw_less(self.kind, raw, acc.min) {
            acc.min = raw;
        }
        if Self::raw_less(self.kind, acc.max, raw) {
            acc.max = raw;
        }
        acc.last = raw;
        acc.ticks += 1;
        if acc.ticks >= cfg.coarse_every {
            let point = CoarsePoint {
                end_index: index,
                min: acc.min,
                max: acc.max,
                last: acc.last,
            };
            self.acc = None;
            self.coarse.push_back(point);
            while self.coarse.len() > cfg.coarse_points {
                self.coarse.pop_front();
            }
        }
    }

    /// Drop the oldest dense sample by decoding (and discarding) the
    /// first delta. The coarse tier is unaffected.
    fn evict_oldest(&mut self) {
        debug_assert!(self.len > 1);
        let (delta, n) = get_varint(&self.bytes, 0);
        self.head = Self::apply_delta(self.kind, self.head, delta);
        self.bytes.drain(..n);
        self.first_index += 1;
        self.len -= 1;
        self.evicted += 1;
    }

    /// Decode every dense sample with tick `> since`, oldest first, as
    /// `(tick, raw)` pairs. Bit-exact: the decode walk reproduces the
    /// pushed values verbatim.
    fn dense_since(&self, since: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        let mut value = self.head;
        let mut index = self.first_index;
        if index > since {
            out.push((index, value));
        }
        let mut pos = 0usize;
        while pos < self.bytes.len() {
            let (delta, n) = get_varint(&self.bytes, pos);
            pos += n;
            value = Self::apply_delta(self.kind, value, delta);
            index += 1;
            if index > since {
                out.push((index, value));
            }
        }
        out
    }

    /// Coarse buckets whose `end_index > since`, oldest first.
    fn coarse_since(&self, since: u64) -> Vec<CoarsePoint> {
        self.coarse
            .iter()
            .filter(|p| p.end_index > since)
            .copied()
            .collect()
    }

    /// Raw value at the newest tick `<= index`: dense if retained
    /// there, else the nearest coarse bucket's `last`. `None` when the
    /// series has no retained sample that old.
    fn value_at_or_before(&self, index: u64) -> Option<u64> {
        if self.len > 0 && index >= self.first_index {
            let last_index = self.first_index + self.len - 1;
            if index >= last_index {
                return Some(self.last);
            }
            let mut value = self.head;
            let mut i = self.first_index;
            let mut pos = 0usize;
            while i < index && pos < self.bytes.len() {
                let (delta, n) = get_varint(&self.bytes, pos);
                pos += n;
                value = Self::apply_delta(self.kind, value, delta);
                i += 1;
            }
            return Some(value);
        }
        // Dense history no longer reaches back that far: fall back to
        // the newest coarse bucket ending at or before the tick.
        self.coarse
            .iter()
            .rev()
            .find(|p| p.end_index <= index)
            .map(|p| p.last)
    }

    fn memory_bytes(&self) -> usize {
        SERIES_OVERHEAD_BYTES + self.bytes.len() + self.coarse.len() * COARSE_POINT_BYTES
    }
}

/// Point-in-time store accounting; see [`Tsdb::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TsdbStats {
    /// Live series.
    pub series: u64,
    /// Estimated bytes held across all series and tiers.
    pub memory_bytes: u64,
    /// Dense samples evicted (ring wrap + budget pressure) since the
    /// store was created.
    pub evicted_samples: u64,
    /// The subset of evictions forced by the *global* memory budget —
    /// ring wraparound is by design, budget evictions mean the store is
    /// under memory pressure (deep health marks telemetry degraded).
    pub budget_evictions: u64,
    /// Series dropped because their metric left the registry.
    pub dropped_series: u64,
    /// Sample passes taken.
    pub ticks: u64,
}

/// One point of a [`RangeResult`]: the decoded value (and, for coarse
/// queries, the bucket extremes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangePoint {
    /// Global tick index (the `since=` cursor domain).
    pub index: u64,
    /// Nominal unix milliseconds of the tick.
    pub unix_ms: u64,
    /// Decoded value (counters as exact integers ≤ 2^53 in JSON;
    /// gauges as the stored float).
    pub value: f64,
    /// Bucket minimum (coarse tier only; `null` on the dense tier —
    /// the vendored serde derive has no skip attribute).
    pub min: Option<f64>,
    /// Bucket maximum (coarse tier only).
    pub max: Option<f64>,
}

/// Answer to a `/timeseries` range query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangeResult {
    /// Queried metric name.
    pub metric: String,
    /// `"counter"` or `"gauge"`.
    pub kind: String,
    /// `"dense"` or `"coarse"`.
    pub tier: String,
    /// Effective step between returned points, milliseconds (the
    /// requested step rounded to what the tier stores).
    pub step_ms: u64,
    /// Pass this as the next `since=` to poll incrementally.
    pub next: u64,
    /// Points with tick `> since`, oldest first.
    pub points: Vec<RangePoint>,
}

/// The time-series store. A run's instance is sampled through its
/// [`crate::Telemetry`]; tests drive owned instances tick by tick.
#[derive(Debug)]
pub struct Tsdb {
    cfg: TsdbConfig,
    series: BTreeMap<String, Series>,
    /// Next tick to assign (ticks start at 1 so `since=0` means "from
    /// the beginning", matching the `/events` cursor convention).
    next_tick: u64,
    start_unix_ms: u64,
    evicted_budget: u64,
    dropped_series: u64,
}

pub(crate) fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Tsdb {
    /// An empty store stamped with the current wall clock as its
    /// nominal time base.
    pub fn new(cfg: TsdbConfig) -> Self {
        Tsdb {
            cfg,
            series: BTreeMap::new(),
            next_tick: 1,
            start_unix_ms: now_unix_ms(),
            evicted_budget: 0,
            dropped_series: 0,
        }
    }

    /// The configured cadence.
    pub fn interval(&self) -> Duration {
        self.cfg.interval
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.next_tick - 1
    }

    /// Nominal unix milliseconds of tick `index`.
    pub fn tick_unix_ms(&self, index: u64) -> u64 {
        self.start_unix_ms + index.saturating_mul(self.cfg.interval.as_millis() as u64)
    }

    /// Ingest one sample pass (one tick). `values` is the registry
    /// read from [`crate::metrics::sample_values`]; series absent from it are
    /// dropped (their metric left the registry — e.g. a retired
    /// per-source gauge), which keeps every retained series tick-
    /// contiguous.
    pub fn ingest(&mut self, values: &[(String, SampleKind, u64)]) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        let mut seen = 0usize;
        for (name, kind, raw) in values {
            let entry = self
                .series
                .entry(name.clone())
                .or_insert_with(|| Series::new(*kind));
            if entry.kind != *kind {
                // A name reused across kinds: restart the series under
                // the new kind rather than decode garbage.
                *entry = Series::new(*kind);
            }
            entry.push(tick, *raw, &self.cfg);
            seen += 1;
        }
        if self.series.len() > seen {
            let before = self.series.len();
            let live: std::collections::BTreeSet<&str> =
                values.iter().map(|(n, _, _)| n.as_str()).collect();
            self.series.retain(|name, _| live.contains(name.as_str()));
            self.dropped_series += (before - self.series.len()) as u64;
        }
        self.enforce_budget();
        tick
    }

    /// Evict oldest dense samples from the largest series until the
    /// global budget holds (coarse buckets of the largest series go
    /// last, only if every dense ring is already minimal).
    fn enforce_budget(&mut self) {
        loop {
            let total: usize = self.series.values().map(Series::memory_bytes).sum();
            if total <= self.cfg.memory_budget_bytes || self.series.is_empty() {
                return;
            }
            let heaviest = self
                .series
                .values_mut()
                .max_by_key(|s| s.memory_bytes())
                .expect("non-empty");
            if heaviest.len > 1 {
                heaviest.evict_oldest();
                self.evicted_budget += 1;
            } else if !heaviest.coarse.is_empty() {
                heaviest.coarse.pop_front();
            } else {
                // Budget smaller than the per-series floor: nothing
                // further to shed without dropping live series heads.
                return;
            }
        }
    }

    /// Store accounting.
    pub fn stats(&self) -> TsdbStats {
        let evicted_ring: u64 = self.series.values().map(|s| s.evicted).sum();
        TsdbStats {
            series: self.series.len() as u64,
            memory_bytes: self.series.values().map(|s| s.memory_bytes() as u64).sum(),
            evicted_samples: evicted_ring,
            budget_evictions: self.evicted_budget,
            dropped_series: self.dropped_series,
            ticks: self.ticks(),
        }
    }

    /// Dense ticks folded into one coarse bucket.
    pub fn coarse_every(&self) -> u64 {
        self.cfg.coarse_every.max(1)
    }

    /// Oldest retained raw value of `metric` across both tiers, as
    /// `(tick, raw)` — the window-edge fallback for partial windows
    /// (history shorter than the burn-rate window).
    pub fn oldest_raw(&self, metric: &str) -> Option<(u64, u64)> {
        let series = self.series.get(metric)?;
        let coarse = series.coarse.front();
        match (series.len > 0, coarse) {
            (true, Some(b)) if b.end_index < series.first_index => Some((b.end_index, b.last)),
            (true, _) => Some((series.first_index, series.head)),
            (false, Some(b)) => Some((b.end_index, b.last)),
            (false, None) => None,
        }
    }

    /// Tick of `metric`'s first sample while its series still holds it
    /// (no dense sample evicted); `None` once one was, or without a
    /// series. Every registered metric is sampled on every tick, so a
    /// series first sampled after tick 1 was registered after the tick
    /// before, and counted from zero then.
    pub fn first_tick(&self, metric: &str) -> Option<u64> {
        let series = self.series.get(metric)?;
        (series.evicted == 0).then_some(series.first_index)
    }

    /// Registered series names (for `/timeseries` discovery).
    pub fn series_names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Bit-exact dense samples of `metric` with tick `> since`, as
    /// `(tick, raw)` pairs — the test hook behind the JSON query path.
    pub fn dense_raw(&self, metric: &str, since: u64) -> Option<Vec<(u64, u64)>> {
        self.series.get(metric).map(|s| s.dense_since(since))
    }

    /// Coarse buckets of `metric` with `end_index > since`.
    pub fn coarse_raw(&self, metric: &str, since: u64) -> Option<Vec<CoarsePoint>> {
        self.series.get(metric).map(|s| s.coarse_since(since))
    }

    /// Raw value of `metric` at the newest tick `<= index` (dense, then
    /// coarse fallback); the SLO engine's window-edge lookup.
    pub fn raw_at_or_before(&self, metric: &str, index: u64) -> Option<u64> {
        self.series
            .get(metric)
            .and_then(|s| s.value_at_or_before(index))
    }

    fn raw_to_f64(kind: SampleKind, raw: u64) -> f64 {
        match kind {
            SampleKind::Counter => raw as f64,
            SampleKind::Gauge => f64::from_bits(raw),
        }
    }

    /// Range query behind `/timeseries?metric=&since=&step=`.
    ///
    /// `step_ms <= interval` (or 0) serves the dense tier at native
    /// cadence; a larger step serves the coarse tier (step rounded to
    /// `coarse_every * interval`). `None` when the metric has no
    /// series.
    pub fn query(&self, metric: &str, since: u64, step_ms: u64) -> Option<RangeResult> {
        let series = self.series.get(metric)?;
        let interval_ms = (self.cfg.interval.as_millis() as u64).max(1);
        let kind = match series.kind {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
        };
        let newest = self.ticks();
        if step_ms <= interval_ms {
            let points: Vec<RangePoint> = series
                .dense_since(since)
                .into_iter()
                .map(|(index, raw)| RangePoint {
                    index,
                    unix_ms: self.tick_unix_ms(index),
                    value: Self::raw_to_f64(series.kind, raw),
                    min: None,
                    max: None,
                })
                .collect();
            Some(RangeResult {
                metric: metric.to_string(),
                kind: kind.to_string(),
                tier: "dense".to_string(),
                step_ms: interval_ms,
                next: points.last().map_or(newest.max(since), |p| p.index),
                points,
            })
        } else {
            let points: Vec<RangePoint> = series
                .coarse_since(since)
                .into_iter()
                .map(|p| RangePoint {
                    index: p.end_index,
                    unix_ms: self.tick_unix_ms(p.end_index),
                    value: Self::raw_to_f64(series.kind, p.last),
                    min: Some(Self::raw_to_f64(series.kind, p.min)),
                    max: Some(Self::raw_to_f64(series.kind, p.max)),
                })
                .collect();
            Some(RangeResult {
                metric: metric.to_string(),
                kind: kind.to_string(),
                tier: "coarse".to_string(),
                step_ms: interval_ms * self.cfg.coarse_every.max(1),
                next: points.last().map_or(newest.max(since), |p| p.index),
                points,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dense_bytes: usize, coarse_every: u64, coarse_points: usize) -> TsdbConfig {
        TsdbConfig {
            interval: Duration::from_millis(100),
            dense_bytes,
            coarse_every,
            coarse_points,
            memory_budget_bytes: usize::MAX / 2,
        }
    }

    fn counter_pass(value: u64) -> Vec<(String, SampleKind, u64)> {
        vec![("c".to_string(), SampleKind::Counter, value)]
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = VecDeque::new();
        let values = [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35];
        let mut lens = Vec::new();
        for v in values {
            lens.push(put_varint(&mut buf, v));
        }
        let mut pos = 0;
        for (v, len) in values.iter().zip(lens) {
            let (got, n) = get_varint(&buf, pos);
            assert_eq!(got, *v);
            assert_eq!(n, len);
            pos += n;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn dense_counter_round_trip_is_bit_exact() {
        let mut t = Tsdb::new(cfg(1 << 20, 1000, 10));
        let values = [0u64, 5, 5, 1_000_000, 999_999, u64::MAX, 0];
        for v in values {
            t.ingest(&counter_pass(v));
        }
        let got = t.dense_raw("c", 0).unwrap();
        assert_eq!(got.len(), values.len());
        for (i, (tick, raw)) in got.iter().enumerate() {
            assert_eq!(*tick, i as u64 + 1);
            assert_eq!(*raw, values[i]);
        }
    }

    #[test]
    fn dense_gauge_round_trip_is_bit_exact() {
        let mut t = Tsdb::new(cfg(1 << 20, 1000, 10));
        let values = [0.0f64, -1.5, f64::NAN, f64::INFINITY, 1e-300, 0.1];
        for v in values {
            t.ingest(&[("g".to_string(), SampleKind::Gauge, v.to_bits())]);
        }
        let got = t.dense_raw("g", 0).unwrap();
        for (i, (_, raw)) in got.iter().enumerate() {
            assert_eq!(*raw, values[i].to_bits(), "sample {i}");
        }
    }

    #[test]
    fn wraparound_keeps_cursors_and_values() {
        // Ring sized to hold only a handful of encoded deltas.
        let mut t = Tsdb::new(cfg(8, 1000, 10));
        for v in 0..100u64 {
            t.ingest(&counter_pass(v * 3));
        }
        let got = t.dense_raw("c", 0).unwrap();
        assert!(got.len() < 100, "ring must have wrapped");
        // Cursors stay global: the retained window is the newest ticks,
        // contiguous, with values matching the original sequence.
        let first = got[0].0;
        for (offset, (tick, raw)) in got.iter().enumerate() {
            assert_eq!(*tick, first + offset as u64);
            assert_eq!(*raw, (*tick - 1) * 3);
        }
        assert_eq!(got.last().unwrap().0, 100);
        // since= filtering against the global cursor domain.
        let tail = t.dense_raw("c", 98).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0], (99, 98 * 3));
    }

    #[test]
    fn coarse_preserves_min_max_last() {
        let mut t = Tsdb::new(cfg(1 << 20, 4, 100));
        let values = [5u64, 1, 9, 3, 10, 2, 8, 7];
        for v in values {
            t.ingest(&counter_pass(v));
        }
        let coarse = t.coarse_raw("c", 0).unwrap();
        assert_eq!(coarse.len(), 2);
        assert_eq!(coarse[0].end_index, 4);
        assert_eq!((coarse[0].min, coarse[0].max, coarse[0].last), (1, 9, 3));
        assert_eq!(coarse[1].end_index, 8);
        assert_eq!((coarse[1].min, coarse[1].max, coarse[1].last), (2, 10, 7));
    }

    #[test]
    fn budget_evicts_oldest_from_largest() {
        let mut t = Tsdb::new(TsdbConfig {
            interval: Duration::from_millis(100),
            dense_bytes: 1 << 20,
            coarse_every: 1_000,
            coarse_points: 4,
            memory_budget_bytes: 2 * SERIES_OVERHEAD_BYTES + 64,
        });
        // Two series; "noisy" takes large random-ish deltas (many bytes
        // per sample), "flat" never moves (1 byte per sample).
        for i in 0..200u64 {
            t.ingest(&[
                (
                    "noisy".to_string(),
                    SampleKind::Counter,
                    i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ),
                ("flat".to_string(), SampleKind::Counter, 7),
            ]);
        }
        let stats = t.stats();
        assert!(
            stats.memory_bytes <= (2 * SERIES_OVERHEAD_BYTES + 64) as u64,
            "budget must hold: {stats:?}"
        );
        assert!(stats.evicted_samples > 0);
        // The flat series keeps far more history than the noisy one.
        let flat = t.dense_raw("flat", 0).unwrap();
        let noisy = t.dense_raw("noisy", 0).unwrap();
        assert!(
            flat.len() > noisy.len(),
            "{} vs {}",
            flat.len(),
            noisy.len()
        );
    }

    #[test]
    fn absent_series_are_dropped() {
        let mut t = Tsdb::new(cfg(1 << 20, 1000, 10));
        t.ingest(&[
            ("a".to_string(), SampleKind::Counter, 1),
            ("b".to_string(), SampleKind::Counter, 1),
        ]);
        t.ingest(&[("a".to_string(), SampleKind::Counter, 2)]);
        assert_eq!(t.series_names(), vec!["a".to_string()]);
        assert_eq!(t.stats().dropped_series, 1);
    }

    #[test]
    fn value_at_or_before_walks_dense_then_coarse() {
        let mut t = Tsdb::new(cfg(8, 2, 100));
        for v in 0..50u64 {
            t.ingest(&counter_pass(v * 10));
        }
        // Newest tick value.
        assert_eq!(t.raw_at_or_before("c", 50), Some(490));
        assert_eq!(t.raw_at_or_before("c", 10_000), Some(490));
        // A tick evicted from dense resolves through a coarse bucket
        // ending at or before it.
        let dense = t.dense_raw("c", 0).unwrap();
        let oldest_dense = dense[0].0;
        assert!(oldest_dense > 4, "test needs wraparound");
        let probe = oldest_dense - 1;
        let got = t.raw_at_or_before("c", probe).unwrap();
        // Coarse buckets close on even ticks; the answer is the last
        // value of the newest bucket ending <= probe.
        let bucket_end = (probe / 2) * 2;
        assert_eq!(got, (bucket_end - 1) * 10);
        // Before any retained history: None.
        assert_eq!(t.raw_at_or_before("c", 0), None);
    }

    #[test]
    fn query_serves_dense_and_coarse_tiers() {
        let mut t = Tsdb::new(cfg(1 << 20, 4, 100));
        for v in 0..12u64 {
            t.ingest(&[
                ("c".to_string(), SampleKind::Counter, v),
                (
                    "g".to_string(),
                    SampleKind::Gauge,
                    (v as f64 * 0.5).to_bits(),
                ),
            ]);
        }
        let dense = t.query("c", 0, 0).unwrap();
        assert_eq!(dense.tier, "dense");
        assert_eq!(dense.points.len(), 12);
        assert_eq!(dense.step_ms, 100);
        assert_eq!(dense.next, 12);
        assert_eq!(dense.points[3].value, 3.0);
        assert!(dense.points[3].min.is_none());

        let coarse = t.query("g", 0, 1_000).unwrap();
        assert_eq!(coarse.tier, "coarse");
        assert_eq!(coarse.step_ms, 400);
        assert_eq!(coarse.points.len(), 3);
        assert_eq!(coarse.points[0].index, 4);
        assert_eq!(coarse.points[0].max, Some(1.5));
        assert_eq!(coarse.points[0].min, Some(0.0));
        assert_eq!(coarse.points[0].value, 1.5);

        // since= is a cursor in both tiers.
        assert_eq!(t.query("c", 10, 0).unwrap().points.len(), 2);
        assert_eq!(t.query("g", 4, 1_000).unwrap().points.len(), 2);
        assert!(t.query("missing", 0, 0).is_none());
    }
}
