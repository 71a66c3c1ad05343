//! Periodogram and dominant-period detection.

use crate::fft::{fft_reference, real_half_spectrum, Complex};
use crate::Result;
use webpuzzle_stats::StatsError;

/// The periodogram of a real series.
#[derive(Debug, Clone, PartialEq)]
pub struct Periodogram {
    freqs: Vec<f64>,
    power: Vec<f64>,
    n: usize,
}

impl Periodogram {
    /// Angular Fourier frequencies `λ_k = 2πk/n`, `k = 1..⌊n/2⌋`.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Periodogram ordinates `I(λ_k) = |Σ_t x_t e^{−itλ_k}|² / (2πn)`.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Length of the original series.
    pub fn series_len(&self) -> usize {
        self.n
    }

    /// The period (in bins) corresponding to ordinate index `i`
    /// (`period = n / k` with `k = i + 1`).
    pub fn period_of(&self, i: usize) -> f64 {
        self.n as f64 / (i + 1) as f64
    }
}

/// Compute the periodogram of a series at the Fourier frequencies
/// (excluding DC).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for series shorter than 4
/// observations and [`StatsError::NonFiniteData`] for non-finite input.
///
/// # Examples
///
/// ```
/// use webpuzzle_timeseries::periodogram;
///
/// // A pure daily cycle sampled hourly for 10 days peaks at period 24.
/// let x: Vec<f64> = (0..240)
///     .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin())
///     .collect();
/// let p = periodogram(&x).unwrap();
/// let peak = p
///     .power()
///     .iter()
///     .enumerate()
///     .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
///     .unwrap()
///     .0;
/// assert!((p.period_of(peak) - 24.0).abs() < 1e-9);
/// ```
pub fn periodogram(data: &[f64]) -> Result<Periodogram> {
    periodogram_with(data, real_half_spectrum)
}

/// [`periodogram`] through [`fft_reference`], the transform it used
/// before the mixed-radix real FFT: the oracle that the estimator
/// agreement tests hold [`periodogram`] and its consumers to.
///
/// # Errors
///
/// Those of [`periodogram`].
pub fn periodogram_reference(data: &[f64]) -> Result<Periodogram> {
    periodogram_with(data, |x| {
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        fft_reference(&mut buf);
        buf
    })
}

/// The checks, demeaning and normalization of [`periodogram`] around a
/// `spectrum` that returns at least bins `0..=n/2` of the demeaned series.
fn periodogram_with(
    data: &[f64],
    spectrum: impl FnOnce(&[f64]) -> Vec<Complex>,
) -> Result<Periodogram> {
    let n = data.len();
    if n < 4 {
        return Err(StatsError::InsufficientData { needed: 4, got: n });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    // Demean so the DC component does not leak into low frequencies.
    let mean = data.iter().sum::<f64>() / n as f64;
    let centered: Vec<f64> = data.iter().map(|x| x - mean).collect();
    let spec = spectrum(&centered);
    let half = n / 2;
    let norm = 1.0 / (2.0 * std::f64::consts::PI * n as f64);
    let mut freqs = Vec::with_capacity(half);
    let mut power = Vec::with_capacity(half);
    for (k, z) in spec.iter().enumerate().take(half + 1).skip(1) {
        freqs.push(2.0 * std::f64::consts::PI * k as f64 / n as f64);
        power.push(z.norm_sqr() * norm);
    }
    Ok(Periodogram { freqs, power, n })
}

/// Detect the dominant period of a series via its periodogram peak.
///
/// Only periods in `[min_period, max_period]` (in bins) are considered, and
/// the peak must dominate: its ordinate must exceed `snr_threshold` times
/// the median ordinate to count as a real periodicity rather than noise.
/// Returns `None` when no such peak exists.
///
/// For the paper's data the expected answer is the 24-hour day/night cycle,
/// i.e. 86 400 for a 1-second-bin series.
///
/// # Errors
///
/// Same conditions as [`periodogram`], plus
/// [`StatsError::InvalidParameter`] when the period bounds are inverted.
pub fn dominant_period(
    data: &[f64],
    min_period: f64,
    max_period: f64,
    snr_threshold: f64,
) -> Result<Option<f64>> {
    check_period_bounds(min_period, max_period)?;
    dominant_period_from_periodogram(&periodogram(data)?, min_period, max_period, snr_threshold)
}

/// [`dominant_period`] read from a periodogram already computed (for
/// instance [`periodogram_reference`]'s).
///
/// # Errors
///
/// [`StatsError::InvalidParameter`] when the period bounds are inverted.
pub fn dominant_period_from_periodogram(
    p: &Periodogram,
    min_period: f64,
    max_period: f64,
    snr_threshold: f64,
) -> Result<Option<f64>> {
    check_period_bounds(min_period, max_period)?;
    let mut median_buf: Vec<f64> = p.power.to_vec();
    median_buf.sort_by(|a, b| a.partial_cmp(b).expect("finite power"));
    let median = median_buf[median_buf.len() / 2];

    let mut best: Option<(usize, f64)> = None;
    for (i, &pw) in p.power.iter().enumerate() {
        let period = p.period_of(i);
        if period < min_period || period > max_period {
            continue;
        }
        if best.map(|(_, bp)| pw > bp).unwrap_or(true) {
            best = Some((i, pw));
        }
    }
    Ok(best.and_then(|(i, pw)| {
        if median > 0.0 && pw > snr_threshold * median {
            Some(p.period_of(i))
        } else {
            None
        }
    }))
}

fn check_period_bounds(min_period: f64, max_period: f64) -> Result<()> {
    if min_period >= max_period || min_period < 2.0 {
        return Err(StatsError::InvalidParameter {
            name: "min_period",
            value: min_period,
            constraint: "must satisfy 2 <= min_period < max_period",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn parseval_for_periodogram() {
        // Total periodogram mass ≈ sample variance / (2π) for a demeaned
        // series (up to the one-sided folding).
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<f64> = (0..4096).map(|_| rng.random::<f64>() - 0.5).collect();
        let p = periodogram(&x).unwrap();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / x.len() as f64;
        // Two-sided spectrum integrates to var; one-sided sum times 2·(2π/n)
        // approximates it.
        let approx: f64 =
            p.power().iter().sum::<f64>() * 2.0 * (2.0 * std::f64::consts::PI) / x.len() as f64;
        assert!((approx - var).abs() / var < 0.05, "{approx} vs {var}");
    }

    #[test]
    fn detects_daily_cycle_in_noise() {
        let mut rng = StdRng::seed_from_u64(7);
        // Hourly bins for 3 weeks, daily sinusoid + noise.
        let n = 24 * 21;
        let x: Vec<f64> = (0..n)
            .map(|t| {
                5.0 * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin() + rng.random::<f64>()
            })
            .collect();
        let period = dominant_period(&x, 4.0, 100.0, 10.0).unwrap();
        assert!(period.is_some());
        assert!((period.unwrap() - 24.0).abs() < 1.0, "{period:?}");
    }

    #[test]
    fn pure_noise_has_no_dominant_period() {
        let mut rng = StdRng::seed_from_u64(8);
        let x: Vec<f64> = (0..2048).map(|_| rng.random::<f64>()).collect();
        // Require a very dominant peak: white noise shouldn't produce one
        // 200x the median.
        let period = dominant_period(&x, 4.0, 512.0, 200.0).unwrap();
        assert!(period.is_none(), "{period:?}");
    }

    #[test]
    fn validation() {
        assert!(periodogram(&[1.0, 2.0]).is_err());
        assert!(periodogram(&[1.0, f64::NAN, 2.0, 3.0]).is_err());
        assert!(dominant_period(&[1.0; 100], 50.0, 10.0, 2.0).is_err());
        assert!(dominant_period(&[1.0; 100], 1.0, 10.0, 2.0).is_err());
    }

    #[test]
    fn matches_the_reference_periodogram() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [100usize, 241, 4_096, 10_080, 10_081] {
            let x: Vec<f64> = (0..n)
                .map(|t| (t as f64 / 24.0).sin() + rng.random::<f64>())
                .collect();
            let (p, r) = (periodogram(&x).unwrap(), periodogram_reference(&x).unwrap());
            assert_eq!(p.freqs(), r.freqs());
            // Ordinates are |X|²/2πn; bound their error by that of a
            // transform within 1e-10·Σ|x| of the reference.
            let l1: f64 = x.iter().map(|v| v.abs()).sum();
            let bound = 1e-10 * l1 * l1 / (2.0 * std::f64::consts::PI * n as f64);
            for (a, b) in p.power().iter().zip(r.power()) {
                assert!((a - b).abs() <= bound, "n = {n}: {a} vs {b}");
            }
            let period = |p: &Periodogram| dominant_period_from_periodogram(p, 4.0, 200.0, 5.0);
            assert_eq!(period(&p).unwrap(), period(&r).unwrap());
        }
    }

    #[test]
    fn period_of_mapping() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p = periodogram(&x).unwrap();
        assert!((p.period_of(0) - 100.0).abs() < 1e-12); // k=1 → period n
        assert!((p.period_of(49) - 2.0).abs() < 0.05); // k=50 → period 2
        assert_eq!(p.series_len(), 100);
        assert_eq!(p.freqs().len(), p.power().len());
    }
}
