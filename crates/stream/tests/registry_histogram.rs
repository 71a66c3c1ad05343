//! The engine records each response size once, into the registry's
//! `stream/response_bytes` histogram. In Green mode (no governor, so
//! every record feeds the estimators) that histogram must agree exactly
//! with the run's summary, and its `/metrics` rendering must keep the
//! `+Inf` bucket equal to `_count`.
//!
//! The metrics registry is process-global, so this check lives in its
//! own test binary: no parallel test can push into the histogram.

use webpuzzle_obs::{metrics, server};
use webpuzzle_stream::{StreamAnalyzer, StreamConfig};
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

const NAME: &str = "stream/response_bytes";
const PROM: &str = "webpuzzle_stream_response_bytes";

/// Value of the one exposition line that starts with `series `.
fn prom_value(text: &str, series: &str) -> u64 {
    let prefix = format!("{series} ");
    let mut values = text.lines().filter_map(|l| l.strip_prefix(prefix.as_str()));
    let value = values
        .next()
        .unwrap_or_else(|| panic!("no {series} line in:\n{text}"));
    assert!(values.next().is_none(), "{series} rendered twice");
    value.parse().expect("integer sample")
}

#[test]
fn response_bytes_histogram_matches_the_summary() {
    let mut engine = StreamAnalyzer::new(StreamConfig::default()).expect("default config");
    let mut largest = 0u64;
    WorkloadGenerator::new(ServerProfile::csee().with_scale(0.01))
        .seed(3)
        .generate_with(|record| {
            largest = largest.max(record.bytes);
            engine.push(&record).expect("time-ordered stream");
        })
        .expect("built-in profile generates cleanly");
    assert_eq!(engine.degradation_mode(), 0, "the run must stay Green");
    let summary = engine.finish().expect("finish succeeds");
    assert_eq!(summary.sampling_stride, 1);
    assert!(summary.records > 1_000, "fixture too small");

    let snap = metrics::snapshot();
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == NAME)
        .expect("response-size histogram registered");
    assert_eq!(hist.count, summary.records);
    assert_eq!(hist.sum, summary.bytes);
    assert_eq!(hist.max, Some(largest));
    assert_eq!(
        hist.buckets.iter().map(|b| b.count).sum::<u64>(),
        hist.count
    );

    let text = server::prometheus_text(&snap);
    let count = prom_value(&text, &format!("{PROM}_count"));
    assert_eq!(count, summary.records);
    assert_eq!(
        prom_value(&text, &format!("{PROM}_bucket{{le=\"+Inf\"}}")),
        count
    );
    assert_eq!(prom_value(&text, &format!("{PROM}_sum")), summary.bytes);
}
