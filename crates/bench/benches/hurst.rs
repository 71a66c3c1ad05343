//! Performance of the five Hurst estimators across series lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webpuzzle_lrd::{
    abry_veitch, aggregated_hurst_sweep, fgn::FgnGenerator, periodogram_hurst, rescaled_range,
    variance_time, whittle, HurstSuite, SweepEstimator,
};

fn bench_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("hurst");
    group.sample_size(10);
    for &n in &[4_096usize, 16_384, 65_536] {
        let data = FgnGenerator::new(0.8)
            .expect("valid H")
            .seed(1)
            .generate(n)
            .expect("fGn generates");
        group.bench_with_input(BenchmarkId::new("variance_time", n), &data, |b, d| {
            b.iter(|| variance_time(black_box(d)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("rescaled_range", n), &data, |b, d| {
            b.iter(|| rescaled_range(black_box(d)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("periodogram", n), &data, |b, d| {
            b.iter(|| periodogram_hurst(black_box(d)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("whittle", n), &data, |b, d| {
            b.iter(|| whittle(black_box(d)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("abry_veitch", n), &data, |b, d| {
            b.iter(|| abry_veitch(black_box(d)).unwrap())
        });
    }
    // The full battery at a typical stationary-series length.
    let data = FgnGenerator::new(0.8)
        .expect("valid H")
        .seed(2)
        .generate(16_384)
        .expect("fGn generates");
    group.bench_function("suite/16384", |b| {
        b.iter(|| HurstSuite::estimate(black_box(&data)).unwrap())
    });
    // One week at the fast config's 60 s bins: 10 080 points, a length the
    // FFT reaches through Bluestein. The sweep is both Ĥ(m) sweeps with the
    // fast config's 512-point floor.
    let week = FgnGenerator::new(0.8)
        .expect("valid H")
        .seed(4)
        .generate(10_080)
        .expect("fGn generates");
    group.bench_function("whittle/10080", |b| {
        b.iter(|| whittle(black_box(&week)).unwrap())
    });
    group.bench_function("sweep/10080", |b| {
        b.iter(|| {
            for est in [SweepEstimator::Whittle, SweepEstimator::AbryVeitch] {
                aggregated_hurst_sweep(black_box(&week), est, 512).unwrap();
            }
        })
    });
    group.finish();
}

fn bench_fgn_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("fgn");
    group.sample_size(10);
    for &n in &[16_384usize, 65_536, 262_144] {
        group.bench_with_input(BenchmarkId::new("davies_harte", n), &n, |b, &n| {
            let gen = FgnGenerator::new(0.85).expect("valid H").seed(3);
            b.iter(|| gen.generate(black_box(n)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_estimators, bench_fgn_synthesis);
criterion_main!(benches);
