//! Order statistics for timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! has at least [`MIN_BEYOND`] samples beyond it, always together with
//! the sample count. Quantiles interpolate linearly between order
//! statistics (the "type 7" definition numpy and R default to), so a
//! median of an even-sized sample is the mean of the middle pair.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles a report may name, lowest first.
pub const LADDER: [f64; 7] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Quantile `q` in `[0, 1]` of an ascending slice; `NaN` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy of `values` ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Samples strictly above the `q` percentile of `n` samples: the
/// `⌊n·(1 − q)⌋` largest.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps 40 · (1 − 0.75) from landing on 9.999….
    ((n as f64) * (1.0 - q) + 1e-9).floor() as usize
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| supports(n, q))
}

/// A sorted sample of timings.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Build from unsorted values.
    pub fn new(values: &[f64]) -> Self {
        Sample {
            sorted: sorted(values),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Quantile `q`.
    pub fn at(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// One-line summary: median, the highest supported percentile and
    /// the sample count, e.g. `p50 1.2000 ms p99.9 8.4000 ms (n=30000)`.
    pub fn describe(&self, unit: &str) -> String {
        let mut out = format!("p50 {:.4} {unit}", self.at(0.5));
        if let Some(q) = highest_supported(self.len()).filter(|&q| q > 0.5) {
            out.push_str(&format!(" p{} {:.4} {unit}", q * 100.0, self.at(q)));
        }
        out.push_str(&format!(" (n={})", self.len()));
        out
    }
}
