//! Fixed-memory online estimators.
//!
//! Everything here updates in `O(1)` (or `O(log k)` for the top-k heap)
//! per observation and holds constant memory, so the engine's estimator
//! state is independent of stream length:
//!
//! * [`Welford`] — numerically stable running mean/variance.
//! * [`TopK`] — the k largest observations, feeding an incremental
//!   Hill tail-index estimate computed over the retained order
//!   statistics (the streaming analogue of the batch Hill plot's
//!   right edge).
//!
//! Transfer sizes are bucketed once, by the registry's
//! `stream/response_bytes` histogram
//! ([`webpuzzle_obs::metrics::Histogram`]); that histogram serves
//! observability only, since the tail analysis reads [`TopK`].

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Serializable snapshot of a [`Welford`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Moments {
    /// Observation count.
    pub count: u64,
    /// Running mean (0 when empty).
    pub mean: f64,
    /// Unbiased sample variance (0 below two observations).
    pub variance: f64,
}

/// Welford's online mean/variance algorithm.
///
/// # Examples
///
/// ```
/// use webpuzzle_stream::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.sample_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge another accumulator (Chan's parallel update), enabling
    /// sharded/multi-stream aggregation.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.n += other.n;
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased (n−1) sample variance; 0 below two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population (n) variance; 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Snapshot for reports.
    pub fn snapshot(&self) -> Moments {
        Moments {
            count: self.n,
            mean: self.mean(),
            variance: self.sample_variance(),
        }
    }

    /// The raw accumulator state `(n, mean, m2)` for checkpointing.
    /// Unlike [`Welford::snapshot`], this is lossless: rebuilding via
    /// [`Welford::from_raw_parts`] is bit-identical.
    pub fn raw_parts(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuild an accumulator from [`Welford::raw_parts`] output.
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64) -> Self {
        Welford { n, mean, m2 }
    }
}

/// Total-ordered f64 wrapper for the top-k heap (finite values only).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Finite(f64);

impl Eq for Finite {}

impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Finite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite values")
    }
}

/// The k largest observations of a stream, in `O(k)` memory, feeding an
/// incremental Hill tail-index estimate.
///
/// The Hill estimator only ever looks at the upper order statistics, so
/// retaining the top k values loses nothing as long as k stays below
/// the tail fraction of interest. The estimate is the paper's equation
/// (5) evaluated at the retained edge, averaged over the outer half of
/// the retained plot exactly like the batch
/// [`webpuzzle_heavytail::hill_estimate`] assessment window — the two
/// agree within the documented tolerance whenever `k` is at least the
/// batch plot's `k_max` (and exactly when the retained set covers the
/// same order statistics).
///
/// # Examples
///
/// ```
/// use webpuzzle_stream::TopK;
///
/// let mut top = TopK::new(256);
/// // A Pareto(α = 2) tail: P[X > x] = x⁻².
/// for i in 1..=10_000u32 {
///     let u = i as f64 / 10_001.0;
///     top.push((1.0 - u).powf(-1.0 / 2.0));
/// }
/// let alpha = top.hill().unwrap();
/// assert!((alpha - 2.0).abs() < 0.3, "alpha = {alpha}");
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Reverse<Finite>>,
    seen: u64,
}

impl TopK {
    /// Track the `k` largest positive observations (`k >= 32` is
    /// sensible for Hill; smaller k still works but is noisy).
    pub fn new(k: usize) -> Self {
        TopK {
            k: k.max(2),
            heap: BinaryHeap::with_capacity(k.max(2) + 1),
            seen: 0,
        }
    }

    /// Offer one observation. Non-positive and non-finite values are
    /// ignored (Hill needs strictly positive data; the batch path
    /// filters identically).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() || x <= 0.0 {
            return;
        }
        self.seen += 1;
        if self.heap.len() < self.k {
            self.heap.push(Reverse(Finite(x)));
        } else if self.heap.peek().is_some_and(|Reverse(min)| x > min.0) {
            self.heap.pop();
            self.heap.push(Reverse(Finite(x)));
        }
    }

    /// Positive observations offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of retained order statistics.
    pub fn retained(&self) -> usize {
        self.heap.len()
    }

    /// The retained values, descending.
    pub fn descending(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.heap.iter().map(|Reverse(f)| f.0).collect();
        v.sort_by(|a, b| b.partial_cmp(a).expect("finite values"));
        v
    }

    /// Incremental Hill tail-index estimate over the retained order
    /// statistics: `α_k = 1 / [ (1/k) Σ_{i≤k} ln X_(i) − ln X_(k+1) ]`,
    /// averaged over the outer half of retained k values (mirroring the
    /// batch plateau assessment). `None` below 25 retained values or
    /// when log spacings vanish (tied data).
    pub fn hill(&self) -> Option<f64> {
        self.hill_with_k_max(self.heap.len().saturating_sub(1))
    }

    /// [`TopK::hill`] with the assessment capped at `k_max` order
    /// statistics. Passing the batch pipeline's `⌊tail_fraction·n⌋`
    /// reproduces `hill_estimate`'s assessment window exactly whenever
    /// the heap retains at least `k_max + 1` values; with fewer
    /// retained, the cap degrades to all available order statistics.
    pub fn hill_with_k_max(&self, k_max: usize) -> Option<f64> {
        let desc = self.descending();
        if desc.len() < 25 {
            return None;
        }
        let logs: Vec<f64> = desc.iter().map(|x| x.ln()).collect();
        let k_max = k_max.clamp(1, desc.len() - 1);
        let mut prefix = 0.0;
        let mut alphas = Vec::with_capacity(k_max - k_max / 2 + 1);
        for (k, &log_next) in logs.iter().enumerate().take(k_max + 1).skip(1) {
            prefix += logs[k - 1];
            if k >= k_max / 2 {
                let h = prefix / k as f64 - log_next;
                if h > 1e-9 {
                    alphas.push(1.0 / h);
                }
            }
        }
        if alphas.is_empty() {
            return None;
        }
        Some(alphas.iter().sum::<f64>() / alphas.len() as f64)
    }

    /// The batch assessment cap for this stream: `⌊tail_fraction·seen⌋`.
    pub fn batch_k_max(&self, tail_fraction: f64) -> usize {
        ((self.seen as f64) * tail_fraction) as usize
    }

    /// Checkpoint state: `(k, seen, retained values descending)`. The
    /// heap's internal layout is irrelevant — every consumer sorts — so
    /// the canonical descending order keeps the snapshot deterministic.
    pub fn export_state(&self) -> (usize, u64, Vec<f64>) {
        (self.k, self.seen, self.descending())
    }

    /// Rebuild from [`TopK::export_state`] output by re-offering the
    /// retained values into a fresh heap.
    pub fn from_state(k: usize, seen: u64, retained: &[f64]) -> Self {
        let mut top = TopK::new(k);
        for &x in retained {
            top.heap.push(Reverse(Finite(x)));
        }
        top.seen = seen;
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_stats::dist::{Pareto, Sampler};

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.sample_variance() - var).abs() < 1e-9);
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in data.iter().enumerate() {
            whole.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        let mut w = Welford::new();
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn topk_retains_the_largest() {
        let mut top = TopK::new(3);
        for x in [5.0, 1.0, 9.0, 3.0, 7.0, -2.0, f64::NAN] {
            top.push(x);
        }
        assert_eq!(top.descending(), vec![9.0, 7.0, 5.0]);
        assert_eq!(top.seen(), 5); // the negative and NaN never counted
    }

    #[test]
    fn topk_hill_recovers_pareto_alpha() {
        let mut rng = StdRng::seed_from_u64(77);
        for &alpha in &[1.2, 1.58, 2.2] {
            let sample = Pareto::new(alpha, 1.0).unwrap().sample_n(&mut rng, 30_000);
            let mut top = TopK::new(2048);
            for &x in &sample {
                top.push(x);
            }
            let got = top.hill().expect("enough order statistics");
            assert!((got - alpha).abs() < 0.25, "α = {alpha}, estimated {got}");
        }
    }

    #[test]
    fn topk_hill_matches_batch_hill_band() {
        // Same data, streaming top-k vs the batch assessment: the two
        // estimates must land in the same band (DESIGN.md §9 tolerance).
        let mut rng = StdRng::seed_from_u64(42);
        let sample = Pareto::new(1.5, 1.0).unwrap().sample_n(&mut rng, 20_000);
        let batch = webpuzzle_heavytail::hill_estimate(&sample, 0.14)
            .unwrap()
            .alpha
            .expect("pure Pareto stabilizes");
        let mut top = TopK::new((sample.len() as f64 * 0.14) as usize);
        for &x in &sample {
            top.push(x);
        }
        let streamed = top.hill().unwrap();
        assert!(
            (streamed - batch).abs() < 0.25,
            "batch {batch} vs streamed {streamed}"
        );
    }

    #[test]
    fn state_round_trips_are_lossless() {
        let mut w = Welford::new();
        for i in 0..777 {
            w.push((i as f64).sin() * 1e6);
        }
        let (n, mean, m2) = w.raw_parts();
        let back = Welford::from_raw_parts(n, mean, m2);
        assert_eq!(back, w, "Welford restore must be bit-identical");

        let mut top = TopK::new(64);
        for i in 1..5_000u32 {
            top.push(1.0 + f64::from(i % 911) * 0.37);
        }
        let (k, seen, retained) = top.export_state();
        let mut back = TopK::from_state(k, seen, &retained);
        assert_eq!(back.seen(), top.seen());
        assert_eq!(back.descending(), top.descending());
        assert_eq!(back.hill(), top.hill());
        // Restored heaps keep evicting correctly as the stream continues.
        back.push(1e9);
        top.push(1e9);
        assert_eq!(back.descending(), top.descending());
    }

    #[test]
    fn topk_hill_degenerate_cases() {
        let mut top = TopK::new(64);
        assert_eq!(top.hill(), None);
        for _ in 0..100 {
            top.push(7.0); // all tied: log spacings vanish
        }
        assert_eq!(top.hill(), None);
    }
}
