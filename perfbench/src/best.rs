//! Fastest-of-passes timing.
//!
//! On a shared machine a pass runs at the speed of whatever phase the
//! host is in, and the phases last a few seconds and can slow the CPU by
//! half. A run repeats the same pass over the same fixture, so every
//! segment of a pass (a run of records, a week's model) and every
//! record is timed once per pass; the fastest of those timings is the
//! one the neighbours disturbed least. A run therefore reports a pass's
//! wall time as the sum of its segments' fastest times, and a record's
//! latency as its lowest over the passes, before taking percentiles.

/// Elementwise minimum over passes of equally long series.
#[derive(Debug, Clone, Default)]
pub struct Fastest {
    values: Vec<f64>,
    passes: usize,
}

impl Fastest {
    /// No pass folded in yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one pass's series in. A series of another length than the
    /// ones before keeps only the common prefix; the output checks
    /// already fail a pass that saw another number of records.
    pub fn add(&mut self, series: &[f64]) {
        if self.passes == 0 {
            self.values = series.to_vec();
        } else {
            self.values.truncate(series.len());
            for (best, &v) in self.values.iter_mut().zip(series) {
                *best = best.min(v);
            }
        }
        self.passes += 1;
    }

    /// The elementwise minimum.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sum of the elementwise minimum.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Passes folded in.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

/// Durations of the segments a pass of length `end` is cut into at the
/// ascending `marks` (seconds after the pass started): from the start
/// to the first mark, between marks, and from the last mark to `end`.
pub fn segments(marks: &[f64], end: f64) -> Vec<f64> {
    let mut from = 0.0;
    let mut out = Vec::with_capacity(marks.len() + 1);
    for &m in marks.iter().chain(std::iter::once(&end)) {
        out.push(m - from);
        from = m;
    }
    out
}
