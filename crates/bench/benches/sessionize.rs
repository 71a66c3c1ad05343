//! Performance of CLF parsing, log merging, and sessionization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webpuzzle_bench::run::DEFAULT_BASE_EPOCH;
use webpuzzle_weblog::clf::{format_line, parse_log};
use webpuzzle_weblog::{merge_sorted, sessionize, LogRecord, WeekDataset};
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

fn records(scale: f64) -> Vec<LogRecord> {
    WorkloadGenerator::new(ServerProfile::clarknet().with_scale(scale))
        .seed(1)
        .generate()
        .expect("profile generates")
}

fn bench_sessionize(c: &mut Criterion) {
    let mut group = c.benchmark_group("sessionize");
    group.sample_size(20);
    for &scale in &[0.01f64, 0.05, 0.2] {
        let recs = records(scale);
        group.bench_with_input(BenchmarkId::new("sessionize", recs.len()), &recs, |b, r| {
            b.iter(|| sessionize(black_box(r), 1800.0).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("week_dataset", recs.len()),
            &recs,
            |b, r| b.iter(|| WeekDataset::from_records(black_box(r.clone()), 1800.0).unwrap()),
        );
    }
    group.finish();
}

fn bench_clf(c: &mut Criterion) {
    let mut group = c.benchmark_group("clf");
    group.sample_size(20);
    let recs = records(0.02);
    let text: String = recs
        .iter()
        .map(|r| format_line(r, DEFAULT_BASE_EPOCH) + "\n")
        .collect();
    group.bench_function(format!("format/{}", recs.len()), |b| {
        b.iter(|| {
            recs.iter()
                .map(|r| format_line(black_box(r), DEFAULT_BASE_EPOCH).len())
                .sum::<usize>()
        })
    });
    group.bench_function(format!("parse/{}", recs.len()), |b| {
        b.iter(|| {
            parse_log(black_box(&text), DEFAULT_BASE_EPOCH)
                .unwrap()
                .len()
        })
    });
    // The same lines in the shape of a 1995 server's log: a textual URI,
    // a -0400 offset and `-` bytes. The `-` sends every line past the
    // canonical reader to the general grammar: the cost of the fallback.
    let general: String = text
        .lines()
        .map(|line| {
            let line = line
                .replace(" +0000]", " -0400]")
                .replace(" /r/", " /images/r")
                .replace(" HTTP/1.0\"", ".gif HTTP/1.0\"");
            let (head, _bytes) = line.rsplit_once(' ').expect("a byte count");
            format!("{head} -\n")
        })
        .collect();
    group.bench_function(format!("parse_general/{}", recs.len()), |b| {
        b.iter(|| {
            parse_log(black_box(&general), DEFAULT_BASE_EPOCH)
                .unwrap()
                .len()
        })
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let recs = records(0.05);
    // Split into pseudo access/error streams.
    let access: Vec<LogRecord> = recs.iter().filter(|r| !r.is_error()).copied().collect();
    let errors: Vec<LogRecord> = recs.iter().filter(|r| r.is_error()).copied().collect();
    c.bench_function("merge_sorted/2-way", |b| {
        b.iter(|| merge_sorted(black_box(&[&access, &errors])).unwrap().len())
    });
}

criterion_group!(benches, bench_sessionize, bench_clf, bench_merge);
criterion_main!(benches);
