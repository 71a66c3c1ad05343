//! Throughput of the one-pass streaming engine: CLF source, TTL
//! sessionizer, one window close, and the fully wired analyzer, against
//! the batch equivalents benchmarked in `sessionize.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_stream::{
    ArrivalsState, ClfSource, Source, StreamAnalyzer, StreamConfig, StreamSessionizer,
    WindowConfig, WindowedArrivals,
};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::LogRecord;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

fn records(scale: f64) -> Vec<LogRecord> {
    profile_records(ServerProfile::clarknet(), scale)
}

fn profile_records(profile: ServerProfile, scale: f64) -> Vec<LogRecord> {
    WorkloadGenerator::new(profile.with_scale(scale))
        .seed(1)
        .generate()
        .expect("profile generates")
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

fn bench_clf_source(c: &mut Criterion) {
    let recs = records(0.02);
    let text: String = recs
        .iter()
        .map(|r| format_line(r, DEFAULT_BASE_EPOCH) + "\n")
        .collect();
    c.bench_function(format!("stream/clf_source/{}", recs.len()), |b| {
        b.iter(|| {
            let mut src = ClfSource::new(black_box(text.as_bytes()), DEFAULT_BASE_EPOCH);
            let mut n = 0u64;
            while let Some(item) = src.next_item() {
                item.expect("well-formed");
                n += 1;
            }
            n
        })
    });
}

fn bench_sessionizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/sessionize");
    group.sample_size(20);
    for &scale in &[0.01f64, 0.05] {
        let recs = records(scale);
        group.bench_with_input(BenchmarkId::new("ttl_map", recs.len()), &recs, |b, r| {
            b.iter(|| {
                let mut s = StreamSessionizer::new(1800.0).expect("valid threshold");
                let mut out = Vec::new();
                for rec in black_box(r) {
                    s.push(rec, &mut out).expect("sorted input");
                }
                s.finish(&mut out);
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream/engine");
    group.sample_size(10);
    let recs = records(0.05);
    group.bench_with_input(BenchmarkId::new("full", recs.len()), &recs, |b, r| {
        b.iter(|| {
            let mut engine = StreamAnalyzer::new(small_windows()).expect("valid config");
            for rec in black_box(r) {
                engine.push(rec).expect("sorted input");
            }
            engine.finish().expect("finish").sessions
        })
    });
    group.finish();
}

/// One close of a default 4-hour request window (1 s and 10 ms bins)
/// holding the first window of a WVU week at scale 0.05, about 16 k
/// whole-second arrivals: the per-window analysis `stream-analyze`
/// pays 42 times a week.
fn bench_window_close(c: &mut Criterion) {
    let cfg = WindowConfig::default();
    let times: Vec<f64> = profile_records(ServerProfile::wvu(), 0.05)
        .iter()
        .map(|r| r.timestamp)
        .take_while(|&t| t < cfg.window_len)
        .collect();
    let state = ArrivalsState {
        last_time: times.last().copied().unwrap_or(f64::NEG_INFINITY),
        total_events: times.len() as u64,
        times,
        window_index: 0,
    };
    let mut group = c.benchmark_group("stream/window");
    group.sample_size(20);
    group.bench_function("close_fine", |b| {
        b.iter(|| {
            let mut w = WindowedArrivals::restore(cfg.clone(), black_box(state.clone()));
            let mut out = Vec::new();
            w.push(cfg.window_len, &mut out).expect("sorted input");
            out
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clf_source,
    bench_sessionizer,
    bench_window_close,
    bench_engine
);
criterion_main!(benches);
