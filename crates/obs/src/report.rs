//! Machine-readable run reports.
//!
//! [`RunReport::collect`] snapshots the span arena and metrics registry
//! into a plain serializable structure; [`RunReport::save`] writes it as
//! pretty-printed JSON (the `report.json` emitted by `repro --json`).

use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize, Value};

use crate::metrics;
use crate::spans;

/// One node of the span tree, durations in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Span name, e.g. `"hurst/whittle"`.
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total wall-clock milliseconds across entries.
    pub total_ms: f64,
    /// Nested child spans.
    pub children: Vec<SpanReport>,
}

/// A named counter value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterReport {
    /// Counter name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// A named gauge value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeReport {
    /// Gauge name.
    pub name: String,
    /// Final value.
    pub value: f64,
}

/// One non-empty histogram bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketReport {
    /// Exclusive upper bound of the bucket.
    pub upper: u64,
    /// Observations in the bucket.
    pub count: u64,
}

/// A named log-scale histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramReport {
    /// Histogram name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact largest observation (absent for empty histograms and in
    /// reports written before it existed).
    pub max: Option<u64>,
    /// Interpolated median (absent for empty histograms and in reports
    /// written before quantiles existed).
    pub p50: Option<f64>,
    /// Interpolated 95th percentile.
    pub p95: Option<f64>,
    /// Interpolated 99th percentile.
    pub p99: Option<f64>,
    /// Interpolated 99.9th percentile (absent in reports written before
    /// it existed).
    pub p999: Option<f64>,
    /// Non-empty buckets in ascending bound order.
    pub buckets: Vec<BucketReport>,
}

/// Complete machine-readable record of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Producing tool, e.g. `"repro"`.
    pub tool: String,
    /// Unix seconds when the report was collected.
    pub created_unix: u64,
    /// RNG seed for the run, when one applies.
    pub seed: Option<u64>,
    /// Command-line arguments after the program name.
    pub args: Vec<String>,
    /// Tool-specific configuration, serialized by the caller.
    pub config: Value,
    /// Root spans with nested children.
    pub spans: Vec<SpanReport>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterReport>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeReport>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramReport>,
    /// Estimator confidence/agreement evidence the streaming engine
    /// published into its run's [`crate::Telemetry`] (absent in reports
    /// from tools that never publish it and in reports written before
    /// diagnostics existed).
    pub diagnostics: Option<crate::diagnostics::DiagnosticsReport>,
    /// End-of-run SLO verdict: deep-health rollup, burn rates, and
    /// alert counts per objective (absent unless the run enabled
    /// `--slo`, and in reports written before SLOs existed).
    pub slo: Option<crate::slo::DeepHealth>,
}

fn build_span_tree(stats: &[spans::SpanStat]) -> Vec<SpanReport> {
    fn children_of(stats: &[spans::SpanStat], parent: Option<usize>) -> Vec<SpanReport> {
        stats
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == parent)
            .map(|(i, n)| SpanReport {
                name: n.name.to_string(),
                count: n.count,
                total_ms: n.total_ns as f64 / 1e6,
                children: children_of(stats, Some(i)),
            })
            .collect()
    }
    children_of(stats, None)
}

impl RunReport {
    /// Snapshot the global span arena and metrics registry; the
    /// run-scoped blocks come from [`crate::Telemetry::run_report`].
    pub fn collect(tool: &str, seed: Option<u64>, config: Value, args: Vec<String>) -> Self {
        let created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let snapshot = metrics::snapshot();
        RunReport {
            tool: tool.to_string(),
            created_unix,
            seed,
            args,
            config,
            spans: build_span_tree(&spans::snapshot()),
            counters: snapshot
                .counters
                .into_iter()
                .map(|(name, value)| CounterReport { name, value })
                .collect(),
            gauges: snapshot
                .gauges
                .into_iter()
                .map(|(name, value)| GaugeReport { name, value })
                .collect(),
            histograms: snapshot.histograms,
            diagnostics: None,
            slo: None,
        }
    }

    /// Pretty-printed JSON text.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\": \"report serialization failed: {e}\"}}"))
    }

    /// Write the report as pretty JSON to `path`, atomically: the JSON
    /// is first written to a sibling `<path>.tmp` and then renamed over
    /// `path`, so concurrent readers (`/report` scrapers, `tail`,
    /// external dashboards polling a `--snapshot-every` file) observe
    /// either the previous complete report or the new one — never a
    /// torn half-written file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on failure the temp file is
    /// removed and `path` is left untouched.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_json_pretty() + "\n")?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Find the first span node with an exactly matching name, searching
    /// the tree depth-first (span names themselves contain slashes, e.g.
    /// `"hurst/whittle"`, so lookup is by name rather than tree path).
    pub fn find_span(&self, name: &str) -> Option<&SpanReport> {
        fn by_name<'a>(nodes: &'a [SpanReport], name: &str) -> Option<&'a SpanReport> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = by_name(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        by_name(&self.spans, name)
    }
}
