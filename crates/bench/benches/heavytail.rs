//! Performance of the heavy-tail estimators (LLCD, Hill, curvature).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use webpuzzle_heavytail::{curvature_test, hill_estimate, llcd_fit, CurvatureModel};
use webpuzzle_stats::dist::{Pareto, Sampler};

fn pareto_sample(n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(11);
    Pareto::new(1.5, 1.0)
        .expect("valid parameters")
        .sample_n(&mut rng, n)
}

fn bench_llcd_and_hill(c: &mut Criterion) {
    let mut group = c.benchmark_group("heavytail");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let data = pareto_sample(n);
        group.bench_with_input(BenchmarkId::new("llcd_fit", n), &data, |b, d| {
            b.iter(|| llcd_fit(black_box(d), 0.14).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("hill_estimate", n), &data, |b, d| {
            b.iter(|| hill_estimate(black_box(d), 0.14).unwrap())
        });
    }
    group.finish();
}

fn bench_curvature(c: &mut Criterion) {
    let mut group = c.benchmark_group("curvature");
    group.sample_size(10);
    let data = pareto_sample(10_000);
    group.bench_function("pareto/10000x29", |b| {
        b.iter(|| curvature_test(black_box(&data), CurvatureModel::Pareto, 0.14, 29, 5).unwrap())
    });
    group.bench_function("lognormal/10000x29", |b| {
        b.iter(|| curvature_test(black_box(&data), CurvatureModel::LogNormal, 0.14, 29, 5).unwrap())
    });
    // Integer-valued with heavy ties, like requests per session: the
    // threshold falls inside a run of equal values.
    let counts: Vec<f64> = data.iter().map(|x| x.ceil()).collect();
    group.bench_function("lognormal_ties/10000x29", |b| {
        b.iter(|| {
            curvature_test(black_box(&counts), CurvatureModel::LogNormal, 0.14, 29, 5).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_llcd_and_hill, bench_curvature);
criterion_main!(benches);
