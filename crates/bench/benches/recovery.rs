//! Cost of crash safety: checkpoint serialization/restore and the idle
//! overhead of the fault-injection decorator.
//!
//! The checkpoint path runs every `--checkpoint-every` records, so its
//! cost bounds how aggressive a cadence is affordable; encode and
//! decode+restore are priced separately because a resume pays only the
//! latter. The no-op `FaultSource` wraps every `stream-analyze` source
//! unconditionally, so its pass-through cost must stay negligible —
//! <2 % over the `ClfSource` parse drain it actually wraps in
//! production (`clf_drain` vs `clf_drain_wrapped`); `bare_drain` vs
//! `noop_overhead` prices the decorator against an in-memory source,
//! the worst case for relative overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_stream::checkpoint::{Checkpoint, SourcePosition};
use webpuzzle_stream::{
    ClfSource, FaultSource, FaultSpec, IterSource, Source, StreamAnalyzer, StreamConfig,
    WindowConfig,
};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::LogRecord;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

fn records(scale: f64) -> Vec<LogRecord> {
    WorkloadGenerator::new(ServerProfile::clarknet().with_scale(scale))
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

/// A checkpoint with a realistically loaded engine behind it.
fn loaded_checkpoint(recs: &[LogRecord]) -> Checkpoint {
    let mut engine = StreamAnalyzer::new(small_windows()).expect("valid config");
    for rec in recs {
        engine.push(rec).expect("sorted input");
    }
    Checkpoint {
        config: engine.config().clone(),
        engine: engine.export_state(),
        source: SourcePosition {
            byte_offset: 1 << 20,
            line_no: recs.len() as u64,
            parsed: recs.len() as u64,
            ..SourcePosition::default()
        },
        events_seq: 17,
        poison: Default::default(),
        recoveries: 1,
        transient_retries: 3,
        checkpoints_written: 9,
        governor_state: 0,
    }
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery/checkpoint");
    group.sample_size(20);
    let recs = records(0.05);
    let ck = loaded_checkpoint(&recs);
    let bytes = ck.encode();
    group.bench_function(format!("encode/{}_records", recs.len()), |b| {
        b.iter(|| black_box(&ck).encode().len())
    });
    group.bench_function(format!("decode_restore/{}_records", recs.len()), |b| {
        b.iter(|| {
            let decoded = Checkpoint::decode(black_box(&bytes)).expect("valid snapshot");
            let engine = StreamAnalyzer::restore(decoded.config.clone(), &decoded.engine)
                .expect("restorable state");
            engine.records()
        })
    });
    group.finish();
}

fn bench_fault_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery/fault_source");
    group.sample_size(20);
    let recs = records(0.05);

    group.bench_function(format!("bare_drain/{}", recs.len()), |b| {
        b.iter(|| {
            let mut src = IterSource(black_box(recs.clone()).into_iter());
            let mut n = 0u64;
            while let Some(item) = src.next_item() {
                item.expect("no faults");
                n += 1;
            }
            n
        })
    });
    group.bench_function(format!("noop_overhead/{}", recs.len()), |b| {
        b.iter(|| {
            let inner = IterSource(black_box(recs.clone()).into_iter());
            let mut src = FaultSource::new(inner, FaultSpec::default());
            let mut n = 0u64;
            while let Some(item) = src.next_item() {
                item.expect("no faults");
                n += 1;
            }
            n
        })
    });
    // The production pairing: the decorator over the CLF parser. This
    // is the drain whose wrapped/bare ratio must stay under 2 %.
    let text: String = recs
        .iter()
        .map(|r| format_line(r, DEFAULT_BASE_EPOCH) + "\n")
        .collect();
    group.bench_function(format!("clf_drain/{}", recs.len()), |b| {
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
    group.bench_function(format!("clf_drain_wrapped/{}", recs.len()), |b| {
        b.iter(|| {
            let inner = ClfSource::new(black_box(text.as_bytes()), DEFAULT_BASE_EPOCH);
            let mut src = FaultSource::new(inner, FaultSpec::default());
            let mut n = 0u64;
            while let Some(item) = src.next_item() {
                item.expect("well-formed");
                n += 1;
            }
            n
        })
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint, bench_fault_source);
criterion_main!(benches);
