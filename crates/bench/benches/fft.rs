//! FFT performance at the sizes the pipeline actually uses (4-hour and
//! day-long second series), all on the mixed-radix path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use webpuzzle_timeseries::fft::{fft, fft_real, Complex};
use webpuzzle_timeseries::periodogram;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    group.sample_size(20);
    // Powers of two and the pipeline's natural 7-smooth lengths: 14 400
    // (4 h) and 86 400 (1 day).
    for &n in &[16_384usize, 14_400, 86_400, 131_072] {
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::new("fft", n), &signal, |b, s| {
            b.iter(|| {
                let mut buf = s.clone();
                fft(black_box(&mut buf));
                buf
            })
        });
    }
    group.finish();
}

fn bench_periodogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("periodogram");
    group.sample_size(10);
    for &n in &[14_400usize, 86_400] {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin() + 1.0).collect();
        group.bench_with_input(BenchmarkId::new("full", n), &x, |b, x| {
            b.iter(|| periodogram(black_box(x)).unwrap())
        });
    }
    group.finish();
}

fn bench_fft_real(c: &mut Criterion) {
    let x: Vec<f64> = (0..65_536).map(|i| (i as f64 * 0.2).cos()).collect();
    c.bench_function("fft_real/65536", |b| b.iter(|| fft_real(black_box(&x))));
}

criterion_group!(benches, bench_fft, bench_periodogram, bench_fft_real);
criterion_main!(benches);
