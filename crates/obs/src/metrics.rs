//! Thread-safe metrics registry: named counters, gauges, and log-bucket
//! [`Histogram`]s (the same type, at 4 sub-bits, times the flight
//! recorder's stages).
//!
//! Handles are `Arc`-backed and lock-free after the first lookup, so
//! hot loops should fetch a handle once and increment it directly:
//!
//! ```
//! let parsed = webpuzzle_obs::metrics::counter("weblog/records_parsed");
//! parsed.add(1);
//! ```
//!
//! Names may be built dynamically (e.g. `fidelity/h/WVU/whittle`); the
//! registry clones them on first registration. For counters bumped from
//! tight multi-threaded loops, prefer [`crate::sharded::ShardedCounter`]
//! via [`sharded_counter`], which spreads increments across cache lines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::report::{BucketReport, HistogramReport};
use crate::sharded::ShardedCounter;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point measurement.
///
/// # Atomicity and ordering
///
/// The value is stored as the `f64` bit pattern (`f64::to_bits`) inside a
/// single `AtomicU64`, so every load observes a bit pattern that some
/// store wrote in full — torn reads are impossible by construction: the
/// hardware atomic covers all 64 bits at once, and no operation ever
/// writes a partial word. All operations use `Ordering::Relaxed`: a gauge
/// is a standalone monitoring value, never used to publish other memory,
/// so no acquire/release edges are required. `Relaxed` still guarantees a
/// single total modification order per gauge, which is what
/// [`Gauge::add`]'s CAS loop relies on.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Add `delta` to the gauge atomically (CAS loop over the bit
    /// pattern), returning the updated value.
    ///
    /// Lost updates are impossible: a concurrent `add` makes the
    /// compare-exchange fail and the loop re-reads. A concurrent [`set`]
    /// linearizes before or after this `add` in the gauge's modification
    /// order.
    ///
    /// [`set`]: Gauge::set
    pub fn add(&self, delta: f64) -> f64 {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(next),
                Err(observed) => current = observed,
            }
        }
    }

    /// Subtract `delta` atomically, returning the updated value.
    pub fn sub(&self, delta: f64) -> f64 {
        self.add(-delta)
    }
}

/// Counter-name prefix for the per-kind malformed-line family
/// (`weblog/malformed_lines/<kind>`, kinds from the weblog crate's
/// `MalformedKind::as_str`). `/metrics` folds these into one labeled
/// Prometheus family, `webpuzzle_malformed_lines_total{kind="..."}`.
pub const MALFORMED_LINES_PREFIX: &str = "weblog/malformed_lines/";

/// Log-bucket histogram over `u64` observations with `2^SUB_BITS`
/// linear sub-buckets per power of two.
///
/// Values below `2^SUB_BITS` get exact unit buckets; above that, each
/// power-of-two range `[2^e, 2^(e+1))` splits into `2^SUB_BITS` equal
/// buckets, a relative resolution of `2^-SUB_BITS`. The registry uses
/// the default `SUB_BITS = 0`: bucket 0 holds exactly the value 0 and
/// bucket `b >= 1` holds `[2^(b-1), 2^b)`, 65 buckets in all. The
/// flight recorder uses `Histogram<4>` (976 buckets, ~6.25 % error).
/// The last bucket's upper bound saturates at `u64::MAX`.
///
/// Recording costs two relaxed read-modify-writes (bucket and sum) plus
/// one relaxed load of the exact max; `fetch_max` runs only when the
/// value is a new max. The count is the total of the buckets, so it can
/// never disagree with them.
#[derive(Debug)]
pub struct Histogram<const SUB_BITS: u32 = 0> {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl<const SUB_BITS: u32> Default for Histogram<SUB_BITS> {
    fn default() -> Self {
        Histogram {
            buckets: (0..Self::BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl<const SUB_BITS: u32> Histogram<SUB_BITS> {
    /// Number of buckets: `2^SUB_BITS` unit buckets, then `2^SUB_BITS`
    /// per power of two from `2^SUB_BITS` to `2^63`.
    pub const BUCKETS: usize = (65 - SUB_BITS as usize) << SUB_BITS;

    /// Bucket index for an observation.
    pub fn bucket_index(value: u64) -> usize {
        let shift = (64 - value.leading_zeros()).saturating_sub(SUB_BITS + 1);
        ((shift as usize) << SUB_BITS) + (value >> shift) as usize
    }

    /// Inclusive lower bound of a bucket.
    pub fn lower_bound(bucket: usize) -> u64 {
        let shift = (bucket >> SUB_BITS).saturating_sub(1);
        ((bucket - (shift << SUB_BITS)) as u64) << shift
    }

    /// Exclusive upper bound of a bucket (saturating at `u64::MAX`).
    pub fn upper_bound(bucket: usize) -> u64 {
        let shift = (bucket >> SUB_BITS).saturating_sub(1);
        Self::lower_bound(bucket).saturating_add(1 << shift)
    }

    /// [`Histogram::quantile`] over per-bucket counts in this layout.
    fn quantile_of(buckets: &[u64], q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = q * total as f64;
        let mut cumulative = 0u64;
        for (b, &c) in buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = cumulative as f64;
            cumulative += c;
            if cumulative as f64 >= rank {
                if b == 0 {
                    return Some(0.0);
                }
                let lo = Self::lower_bound(b) as f64;
                let hi = Self::upper_bound(b) as f64;
                let frac = ((rank - below) / c as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo));
            }
        }
        Some(Self::upper_bound(buckets.len().saturating_sub(1)) as f64)
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Number of observations: the total of the buckets.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of observations (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Interpolated quantile `q ∈ [0, 1]`.
    ///
    /// Within the bucket containing rank `q·n`, the value is linearly
    /// interpolated between the bucket's bounds — exact for bucket 0
    /// (which holds only the value 0), within one bucket width
    /// otherwise, which is the histogram's intrinsic resolution. Returns
    /// `None` for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        Self::quantile_of(&self.buckets(), q)
    }

    /// Snapshot under `name`: count, sum, max, the four reported
    /// quantiles and the non-empty buckets, all from one read of the
    /// bucket counts.
    pub fn report(&self, name: &str) -> HistogramReport {
        let buckets = self.buckets();
        let count = buckets.iter().sum();
        let quantile = |q| Self::quantile_of(&buckets, q);
        HistogramReport {
            name: name.to_string(),
            count,
            sum: self.sum(),
            max: (count > 0).then_some(self.max()),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            p999: quantile(0.999),
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| BucketReport {
                    upper: Self::upper_bound(b),
                    count: c,
                })
                .collect(),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Arc<Counter>>,
    sharded: BTreeMap<String, Arc<ShardedCounter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    sharded: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

fn fetch<T: Default>(map: &mut BTreeMap<String, Arc<T>>, name: &str) -> Arc<T> {
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let fresh = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&fresh));
    fresh
}

/// Fetch (creating on first use) the counter named `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    fetch(&mut reg.counters, name)
}

/// Fetch (creating on first use) the sharded counter named `name`.
///
/// Sharded and plain counters share a namespace in snapshots (values are
/// summed if a name is reused across both kinds, which callers should
/// avoid).
pub fn sharded_counter(name: &str) -> Arc<ShardedCounter> {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    fetch(&mut reg.sharded, name)
}

/// Fetch (creating on first use) the gauge named `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    fetch(&mut reg.gauges, name)
}

/// Fetch (creating on first use) the histogram named `name`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    fetch(&mut reg.histograms, name)
}

/// Snapshot of every registered metric, sorted by name.
pub struct MetricsSnapshot {
    /// `(name, value)` for each counter (plain and sharded merged).
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for each gauge.
    pub gauges: Vec<(String, f64)>,
    /// One entry per histogram.
    pub histograms: Vec<HistogramReport>,
}

impl MetricsSnapshot {
    /// Human-readable one-line-per-metric summary, used by the stderr
    /// sink path at the end of a run.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (name, value) in &self.counters {
            lines.push(format!("counter {name} = {value}"));
        }
        for (name, value) in &self.gauges {
            lines.push(format!("gauge {name} = {value:.6}"));
        }
        for h in &self.histograms {
            let fmt = |q: Option<f64>| match q {
                Some(v) => format!("{v:.0}"),
                None => "-".to_string(),
            };
            lines.push(format!(
                "histogram {} count={} sum={} p50={} p95={} p99={} p999={}",
                h.name,
                h.count,
                h.sum,
                fmt(h.p50),
                fmt(h.p95),
                fmt(h.p99),
                fmt(h.p999),
            ));
        }
        lines
    }
}

/// Domain of one sampled registry value; see [`sample_values`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleKind {
    /// Monotone `u64` (plain and sharded counters, histogram
    /// count/sum).
    Counter,
    /// `f64` stored as its bit pattern (`f64::to_bits`).
    Gauge,
}

/// One-pass raw read of the registry for the telemetry-history sampler
/// ([`crate::tsdb`]): every counter (plain + sharded merged), every
/// gauge (as raw bits, so the round trip stays bit-exact through
/// delta encoding), and each histogram's running `<name>/count` and
/// `<name>/sum` as derived counter series. Quantile interpolation is
/// deliberately skipped — this is the per-tick hot read.
pub fn sample_values() -> Vec<(String, SampleKind, u64)> {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (name, c) in &reg.counters {
        *counters.entry(name.clone()).or_insert(0) += c.get();
    }
    for (name, c) in &reg.sharded {
        *counters.entry(name.clone()).or_insert(0) += c.get();
    }
    let mut out: Vec<(String, SampleKind, u64)> = counters
        .into_iter()
        .map(|(name, v)| (name, SampleKind::Counter, v))
        .collect();
    for (name, g) in &reg.gauges {
        out.push((name.clone(), SampleKind::Gauge, g.get().to_bits()));
    }
    for (name, h) in &reg.histograms {
        out.push((format!("{name}/count"), SampleKind::Counter, h.count()));
        out.push((format!("{name}/sum"), SampleKind::Counter, h.sum()));
    }
    out
}

/// Remove the gauge named `name` from the registry, returning whether
/// it was present. Outstanding handles keep working but the gauge no
/// longer appears in snapshots or scrapes — how the ingest hub retires
/// per-source gauges once a disconnected source drains, instead of
/// letting them linger on `/metrics` forever.
pub fn remove_gauge(name: &str) -> bool {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.gauges.remove(name).is_some()
}

/// Read a consistent-enough snapshot of the registry.
pub fn snapshot() -> MetricsSnapshot {
    let reg = REGISTRY.lock().expect("metrics registry poisoned");
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for (name, c) in &reg.counters {
        *counters.entry(name.clone()).or_insert(0) += c.get();
    }
    for (name, c) in &reg.sharded {
        *counters.entry(name.clone()).or_insert(0) += c.get();
    }
    MetricsSnapshot {
        counters: counters.into_iter().collect(),
        gauges: reg
            .gauges
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(name, h)| h.report(name))
            .collect(),
    }
}

/// Drop every registered metric. Existing handles keep working but are
/// no longer reported; intended for tests and multi-run tools.
pub fn reset() {
    let mut reg = REGISTRY.lock().expect("metrics registry poisoned");
    reg.counters.clear();
    reg.sharded.clear();
    reg.gauges.clear();
    reg.histograms.clear();
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Layout invariants every instantiation keeps: `buckets` buckets,
    /// exact unit buckets below `2^S`, every probed value inside
    /// `[lower, upper)` of its bucket, contiguous buckets, and a last
    /// bound that saturates at `u64::MAX`.
    pub(crate) fn check_layout<const S: u32>(buckets: usize) {
        assert_eq!(Histogram::<S>::BUCKETS, buckets);
        for v in 0..1u64 << S {
            assert_eq!(Histogram::<S>::bucket_index(v), v as usize);
        }
        let probes = (0..64)
            .flat_map(|e| {
                let p = 1u64 << e;
                [p - 1, p, p + 1, p + p / 3]
            })
            .chain([16, 17, 31, 32, 33, 1_000, 65_535, 1 << 40, u64::MAX]);
        for v in probes {
            let b = Histogram::<S>::bucket_index(v);
            assert!(b < buckets, "bucket {b} for {v}");
            let (lo, hi) = (
                Histogram::<S>::lower_bound(b),
                Histogram::<S>::upper_bound(b),
            );
            assert!(lo <= v, "lower bound of {b} vs {v}");
            assert!(v < hi || hi == u64::MAX, "upper bound of {b} vs {v}");
        }
        assert_eq!(Histogram::<S>::bucket_index(u64::MAX), buckets - 1);
        assert_eq!(Histogram::<S>::upper_bound(buckets - 1), u64::MAX);
        for b in 1..buckets {
            assert_eq!(
                Histogram::<S>::upper_bound(b - 1),
                Histogram::<S>::lower_bound(b),
                "buckets {b} tile"
            );
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        check_layout::<0>(65);
        type Base = Histogram<0>;
        for (v, b) in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)] {
            assert_eq!(Base::bucket_index(v), b, "bucket of {v}");
        }
        assert_eq!(Base::bucket_index(u64::MAX), 64);
        for b in 1..64 {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(Base::bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(Base::bucket_index(hi), b, "upper edge of bucket {b}");
            assert!(lo < Base::upper_bound(b));
            assert!(hi < Base::upper_bound(b));
            assert_eq!(Base::lower_bound(b), lo);
        }
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let h = Histogram::<0>::default();
        for v in [0u64, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1); // the zero
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[11], 1); // 1024 = 2^10 -> bucket 11
    }

    #[test]
    fn gauge_round_trips_f64() {
        let g = Gauge::default();
        g.set(0.8432);
        assert_eq!(g.get(), 0.8432);
        g.set(-1.5e300);
        assert_eq!(g.get(), -1.5e300);
    }

    #[test]
    fn gauge_add_sub_accumulate() {
        let g = Gauge::default();
        g.set(1.0);
        assert_eq!(g.add(2.5), 3.5);
        assert_eq!(g.sub(1.5), 2.0);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn gauge_concurrent_adds_are_lossless() {
        use std::sync::Arc;
        let g = Arc::new(Gauge::default());
        g.set(0.0);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        g.add(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.get(), 80_000.0);
    }

    /// Quantile contract every instantiation keeps: bucket 0 is exact,
    /// quantiles are monotone in q, and an empty histogram or a q
    /// outside [0, 1] gives `None`. Returns the histogram of `values`.
    pub(crate) fn check_quantiles<const S: u32>(values: impl Iterator<Item = u64>) -> Histogram<S> {
        // 100 observations of exactly 0 -> every quantile is 0.
        let zeros = Histogram::<S>::default();
        for _ in 0..100 {
            zeros.record(0);
        }
        assert_eq!(zeros.quantile(0.5), Some(0.0));
        assert_eq!(zeros.quantile(0.99), Some(0.0));
        assert_eq!(Histogram::<S>::default().quantile(0.5), None);

        let h = Histogram::<S>::default();
        for v in values {
            h.record(v);
        }
        let qs = [0.0, 0.50, 0.95, 0.99, 0.999, 1.0].map(|q| h.quantile(q).unwrap());
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(-0.5), None);
        h
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // Uniform-ish spread over the base-2 layout: the quantiles land
        // inside the right power-of-two band.
        let h = check_quantiles::<0>(1..=1024);
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        // The true p50 is ~512: bucket [512, 1024) must contain it.
        assert!((256.0..=1024.0).contains(&p50), "p50 = {p50}");
        assert!((512.0..=1024.0).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn snapshot_merges_sharded_and_plain_counters() {
        // Distinct names so parallel tests in this binary don't interfere.
        counter("unit/snapshot_plain").add(3);
        sharded_counter("unit/snapshot_sharded").add(4);
        let snap = snapshot();
        let get = |n: &str| {
            snap.counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("unit/snapshot_plain"), Some(3));
        assert_eq!(get("unit/snapshot_sharded"), Some(4));
    }

    #[test]
    fn remove_gauge_drops_it_from_snapshots() {
        gauge("unit/removable").set(1.0);
        let present = |n: &str| snapshot().gauges.iter().any(|(name, _)| name == n);
        assert!(present("unit/removable"));
        assert!(remove_gauge("unit/removable"));
        assert!(!present("unit/removable"));
        // Idempotent; absent names report false.
        assert!(!remove_gauge("unit/removable"));
        // A handle taken before removal still works, silently.
        let h = gauge("unit/removable2");
        assert!(remove_gauge("unit/removable2"));
        h.set(5.0);
        assert!(!present("unit/removable2"));
    }

    #[test]
    fn sample_values_cover_all_kinds() {
        counter("unit/sample_c").add(2);
        sharded_counter("unit/sample_s").add(3);
        gauge("unit/sample_g").set(-0.25);
        histogram("unit/sample_h").record(9);
        let values = sample_values();
        let get = |n: &str| values.iter().find(|(name, _, _)| name == n).cloned();
        assert_eq!(
            get("unit/sample_c").map(|(_, k, v)| (k, v)),
            Some((SampleKind::Counter, 2))
        );
        assert_eq!(
            get("unit/sample_s").map(|(_, k, v)| (k, v)),
            Some((SampleKind::Counter, 3))
        );
        assert_eq!(
            get("unit/sample_g").map(|(_, k, v)| (k, v)),
            Some((SampleKind::Gauge, (-0.25f64).to_bits()))
        );
        assert_eq!(get("unit/sample_h/count").map(|(_, _, v)| v), Some(1));
        assert_eq!(get("unit/sample_h/sum").map(|(_, _, v)| v), Some(9));
    }

    #[test]
    fn dynamic_names_are_supported() {
        let name = format!("unit/dyn/{}", 42);
        gauge(&name).set(0.5);
        gauge(&name).add(0.25);
        let snap = snapshot();
        let v = snap
            .gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v);
        assert_eq!(v, Some(0.75));
    }
}
