//! Network ingestion throughput: the full wire path (TCP listener →
//! line parse → watermark hub → blocking pop) against the direct
//! in-process `ClfSource` drain it must stay within 2× of (DESIGN.md
//! §14 acceptance: wire ≥ 50% of file drain), plus the bare k-way
//! watermark merge so regressions can be attributed to the merge or
//! the transport.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_ingest::{bind, ConnConfig, HubConfig, IngestHub, WatermarkMerger};
use webpuzzle_stream::{ClfSource, Source};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::LogRecord;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

fn records(scale: f64) -> Vec<LogRecord> {
    WorkloadGenerator::new(ServerProfile::clarknet().with_scale(scale))
        .seed(1)
        .generate()
        .expect("profile generates")
}

fn log_text(recs: &[LogRecord]) -> String {
    recs.iter()
        .map(|r| format_line(r, DEFAULT_BASE_EPOCH) + "\n")
        .collect()
}

/// Baseline: the same bytes drained straight through `ClfSource`, no
/// socket, no hub. The wire path below is gated against this number.
fn bench_file_drain(c: &mut Criterion) {
    let recs = records(0.02);
    let text = log_text(&recs);
    c.bench_function(format!("ingest/file_drain/{}", recs.len()), |b| {
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

/// Deal `text`'s lines round-robin into `connections` shares; each
/// share stays time-sorted, mirroring what `replay --connections N`
/// sends.
fn deal(text: &str, connections: usize) -> Vec<Vec<u8>> {
    let mut shares = vec![Vec::new(); connections];
    for (i, line) in text.lines().enumerate() {
        let share = &mut shares[i % connections];
        share.extend_from_slice(line.as_bytes());
        share.push(b'\n');
    }
    shares
}

/// One timed iteration of the full wire path: bind a loopback
/// listener, push every share over its own TCP connection, and drain
/// the merged stream to exhaustion.
fn wire_drain(shares: &[Vec<u8>]) -> u64 {
    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(shares.len() as u64),
        stall_grace: Some(std::time::Duration::from_secs(30)),
        ..HubConfig::default()
    });
    let cfg = ConnConfig {
        base_epoch: DEFAULT_BASE_EPOCH,
        ..ConnConfig::default()
    };
    let listener = bind("127.0.0.1:0", Arc::clone(&hub), cfg, shares.len() + 1).expect("bind");
    let addr = listener.local_addr();
    let mut n = 0u64;
    std::thread::scope(|scope| {
        for share in shares {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                stream.write_all(share).expect("send share");
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 256];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            });
        }
        while hub.pop_blocking().is_some() {
            n += 1;
        }
    });
    listener.shutdown();
    n
}

fn bench_wire_drain(c: &mut Criterion) {
    let recs = records(0.02);
    let text = log_text(&recs);
    let mut group = c.benchmark_group("ingest/wire_drain");
    group.sample_size(10);
    for &connections in &[1usize, 3] {
        let shares: Vec<Vec<u8>> = deal(&text, connections);
        group.bench_with_input(
            BenchmarkId::new(format!("{connections}conn"), recs.len()),
            &shares,
            |b, s| b.iter(|| wire_drain(black_box(s))),
        );
    }
    group.finish();
}

/// The bare merge, no sockets: k pre-dealt sorted runs pushed and
/// popped through `WatermarkMerger`, isolating the heap + watermark
/// bookkeeping from transport cost.
fn bench_watermark_merge(c: &mut Criterion) {
    let recs = records(0.02);
    let mut group = c.benchmark_group("ingest/merge");
    group.sample_size(20);
    for &k in &[1usize, 4, 16] {
        let mut runs: Vec<Vec<LogRecord>> = vec![Vec::new(); k];
        for (i, rec) in recs.iter().enumerate() {
            runs[i % k].push(*rec);
        }
        group.bench_with_input(BenchmarkId::new("kway", k), &runs, |b, runs| {
            b.iter(|| {
                let mut merger = WatermarkMerger::new(0.0, f64::NEG_INFINITY);
                let ids: Vec<usize> = (0..runs.len())
                    .map(|i| merger.register(format!("run-{i}")))
                    .collect();
                let mut cursors = vec![0usize; runs.len()];
                let mut emitted = 0u64;
                // Interleave pushes in batches with opportunistic pops,
                // the hub's actual access pattern.
                loop {
                    let mut pushed = false;
                    for (run, (&id, cursor)) in runs.iter().zip(ids.iter().zip(cursors.iter_mut()))
                    {
                        let end = (*cursor + 256).min(run.len());
                        for rec in &run[*cursor..end] {
                            merger.push(id, black_box(*rec));
                            pushed = true;
                        }
                        *cursor = end;
                    }
                    while merger.pop().is_some() {
                        emitted += 1;
                    }
                    if !pushed {
                        break;
                    }
                }
                for &id in &ids {
                    merger.close(id);
                }
                while merger.pop().is_some() {
                    emitted += 1;
                }
                emitted
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_file_drain,
    bench_wire_drain,
    bench_watermark_merge
);
criterion_main!(benches);
