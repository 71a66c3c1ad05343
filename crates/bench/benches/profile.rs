//! Flight-recorder overhead: the full `ClfSource` → `StreamAnalyzer`
//! path with profiling off and on, as a paired bench. The two series
//! (`profile/engine_off`, `profile/engine_on`) land in the snapshot
//! that `bench-report --compare` gates on, so a regression in the
//! recorder's cost — not just in the pipeline it measures — fails CI.
//! DESIGN.md §12 budgets the gap at ≤ 3%.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_obs::{profile, Telemetry};
use webpuzzle_stream::{ClfSource, Source, StreamAnalyzer, StreamConfig, WindowConfig};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

fn log_text(scale: f64) -> String {
    WorkloadGenerator::new(ServerProfile::clarknet().with_scale(scale))
        .seed(1)
        .generate()
        .expect("profile generates")
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

fn run(text: &str, telemetry: &Telemetry) -> u64 {
    let mut engine = StreamAnalyzer::new(small_windows())
        .expect("valid config")
        .with_telemetry(telemetry.clone());
    let mut src = ClfSource::new(black_box(text.as_bytes()), DEFAULT_BASE_EPOCH)
        .with_profiler(telemetry.profiler());
    while let Some(item) = src.next_item() {
        engine.push(&item.expect("well-formed")).expect("sorted");
    }
    engine.finish().expect("finish").records
}

fn bench_profile_overhead(c: &mut Criterion) {
    let text = log_text(0.02);
    let mut group = c.benchmark_group("profile");
    group.sample_size(10);
    let off = Telemetry::default();
    group.bench_function("engine_off", |b| b.iter(|| run(&text, &off)));
    let on = Telemetry::default();
    on.enable_profiler(profile::DEFAULT_SAMPLE_EVERY);
    group.bench_function("engine_on", |b| b.iter(|| run(&text, &on)));
    group.finish();
}

criterion_group!(benches, bench_profile_overhead);
criterion_main!(benches);
