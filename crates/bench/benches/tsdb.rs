//! Telemetry-history overhead: the full `ClfSource` → `StreamAnalyzer`
//! path with the tsdb sampler off and on, as a paired bench, plus the
//! absolute cost of one sampling pass over a populated registry. The
//! paired series (`tsdb/engine_off`, `tsdb/engine_on`) land in the
//! snapshot that `bench-report --compare` gates on; DESIGN.md §15
//! budgets the gap at ≤ 1% — the sampler runs on its own thread and
//! only contends with the engine for the registry's atomics.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_obs as obs;
use webpuzzle_stream::{ClfSource, Source, StreamAnalyzer, StreamConfig, WindowConfig};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

fn log_text(scale: f64) -> String {
    WorkloadGenerator::new(ServerProfile::clarknet().with_scale(scale))
        .seed(1)
        .generate()
        .expect("tsdb bench generates")
        .iter()
        .map(|r| format_line(r, DEFAULT_BASE_EPOCH) + "\n")
        .collect()
}

fn small_windows() -> StreamConfig {
    StreamConfig {
        request_window: WindowConfig {
            fine_bin_width: None,
            ..WindowConfig::default()
        },
        ..StreamConfig::default()
    }
}

fn run(text: &str) -> u64 {
    let mut engine = StreamAnalyzer::new(small_windows()).expect("valid config");
    let mut src = ClfSource::new(black_box(text.as_bytes()), DEFAULT_BASE_EPOCH);
    while let Some(item) = src.next_item() {
        engine.push(&item.expect("well-formed")).expect("sorted");
    }
    engine.finish().expect("finish").records
}

fn bench_tsdb_overhead(c: &mut Criterion) {
    let text = log_text(0.02);
    let mut group = c.benchmark_group("tsdb");
    group.sample_size(10);
    group.bench_function("engine_off", |b| b.iter(|| run(&text)));
    // 10 ms cadence — 100× the production default, so the bench
    // overstates rather than hides the sampler's contention.
    let history = |interval_ms| {
        obs::Telemetry::new(obs::TelemetryConfig {
            history: Some(obs::tsdb::TsdbConfig {
                interval: std::time::Duration::from_millis(interval_ms),
                ..obs::tsdb::TsdbConfig::default()
            }),
            ..obs::TelemetryConfig::default()
        })
    };
    let sampled = history(10).start_sampler();
    group.bench_function("engine_on", |b| b.iter(|| run(&text)));
    sampled.finish();

    // Absolute cost of one sampling pass over the registry the engine
    // runs just populated (its counters/gauges/histograms are live).
    let store = history(1_000);
    group.bench_function("sample_pass", |b| b.iter(|| black_box(store.sample())));
    group.finish();
}

criterion_group!(benches, bench_tsdb_overhead);
criterion_main!(benches);
