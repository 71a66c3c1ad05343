//! Overhead of the drift observatory: per-window detector cost and the
//! JSONL event-sink append path. Both sit on the streaming hot path
//! (`observe` once per closed window, the sink once per alarm), so
//! `stream/analyzer` throughput in `stream.rs` must not regress when
//! they are wired in — these benches price the two pieces in isolation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webpuzzle_obs as obs;
use webpuzzle_stream::{DriftObservatory, ObservatoryConfig, WindowObservation};

/// Deterministic per-window noise (splitmix64 bit mix — an affine
/// function of the index would collapse under seasonal differencing).
fn noise(i: u64) -> f64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

fn observation(i: u64) -> WindowObservation {
    WindowObservation {
        index: i,
        start: i as f64 * 14_400.0,
        rate: 10.0 + noise(i),
        bytes_mean: Some(12_000.0 * (1.0 + 0.05 * noise(i.wrapping_mul(3)))),
        hill_alpha: Some(1.3 + 0.02 * noise(i.wrapping_mul(5))),
        h_variance_time: Some(0.75 + 0.01 * noise(i.wrapping_mul(7))),
    }
}

fn bench_observatory(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift/observatory");
    group.sample_size(20);
    // 42 windows = one week of 4 h windows: the whole-run detector cost.
    group.bench_function("observe/42_windows", |b| {
        b.iter(|| {
            let mut obs = DriftObservatory::new(&ObservatoryConfig::default(), black_box(14_400.0));
            let mut alarms = 0u64;
            for i in 0..42 {
                alarms += obs.observe(&observation(i)).len() as u64;
            }
            alarms
        })
    });
    group.finish();
}

fn bench_event_sink(c: &mut Criterion) {
    let mut group = c.benchmark_group("drift/event_sink");
    group.sample_size(20);
    let path = std::env::temp_dir().join(format!("bench-events-{}.jsonl", std::process::id()));

    group.bench_function("publish/ring_only", |b| {
        let run = obs::Telemetry::default();
        b.iter(|| run.publish(event()))
    });
    group.bench_function("publish/jsonl_append", |b| {
        let run = obs::Telemetry::default();
        let sink = obs::events::JsonlEventSink::create(&path).expect("temp file opens");
        run.events().set_jsonl_sink(sink);
        b.iter(|| run.publish(event()));
    });
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn event() -> obs::events::Event {
    obs::events::Event::new(
        obs::events::Severity::Warn,
        "cusum",
        "request_rate",
        33,
        475_200.0,
        0.0069,
        0.0831,
        7.33,
        6.0,
        "request_rate: cusum alarm at window 33".to_string(),
    )
}

criterion_group!(benches, bench_observatory, bench_event_sink);
criterion_main!(benches);
