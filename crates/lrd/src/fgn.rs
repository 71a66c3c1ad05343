//! Exact fractional Gaussian noise (fGn) synthesis via Davies-Harte
//! circulant embedding.
//!
//! fGn is the canonical long-range dependent process: the increment process
//! of fractional Brownian motion, stationary and Gaussian with
//! autocovariance `γ(k) = σ²/2 (|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H})`.
//! For `H > 0.5` the autocovariance is non-summable — exactly the property
//! the paper's Hurst estimators detect in Web arrival series.
//!
//! Davies-Harte embeds the n×n Toeplitz covariance into a 2n×2n circulant
//! matrix whose eigenvalues come from one FFT of the autocovariance; one
//! more FFT of suitably scaled complex Gaussians produces an **exact**
//! sample path in O(n log n). For fGn the circulant eigenvalues are provably
//! non-negative, so the method never needs approximation.

use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use webpuzzle_stats::dist::Normal;
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::fft::{fft_reference, Complex};

/// Autocovariance of unit-variance fGn at lag `k` for Hurst exponent `h`.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::fgn::autocovariance;
///
/// // H = 0.5 is white noise: γ(0) = 1, γ(k) = 0 for k > 0.
/// assert!((autocovariance(0.5, 0) - 1.0).abs() < 1e-12);
/// assert!(autocovariance(0.5, 3).abs() < 1e-12);
/// // H > 0.5: positive correlations.
/// assert!(autocovariance(0.8, 10) > 0.0);
/// ```
pub fn autocovariance(h: f64, k: usize) -> f64 {
    let k = k as f64;
    let two_h = 2.0 * h;
    0.5 * ((k + 1.0).powf(two_h) - 2.0 * k.powf(two_h) + (k - 1.0).abs().powf(two_h))
}

/// Generator of exact fractional Gaussian noise sample paths.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::fgn::FgnGenerator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let path = FgnGenerator::new(0.75)?.seed(1).generate(1024)?;
/// assert_eq!(path.len(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FgnGenerator {
    h: f64,
    sigma: f64,
    seed: u64,
}

impl FgnGenerator {
    /// Create a generator for Hurst exponent `h ∈ (0, 1)` with unit
    /// variance.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `h` is outside `(0, 1)`.
    pub fn new(h: f64) -> Result<Self> {
        if !h.is_finite() || h <= 0.0 || h >= 1.0 {
            return Err(StatsError::InvalidParameter {
                name: "h",
                value: h,
                constraint: "must be in the open interval (0, 1)",
            });
        }
        Ok(FgnGenerator {
            h,
            sigma: 1.0,
            seed: 0,
        })
    }

    /// Set the marginal standard deviation (default 1).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sigma` is not finite and
    /// positive.
    pub fn sigma(mut self, sigma: f64) -> Result<Self> {
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
                constraint: "must be finite and > 0",
            });
        }
        self.sigma = sigma;
        Ok(self)
    }

    /// Set the RNG seed (deterministic output for a given seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The Hurst exponent this generator targets.
    pub fn hurst(&self) -> f64 {
        self.h
    }

    /// Generate `n` points of fGn.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] for `n < 2`.
    pub fn generate(&self, n: usize) -> Result<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.generate_with(&mut rng, n)
    }

    /// Generate `n` points of fGn drawing randomness from the supplied RNG
    /// (lets callers chain multiple draws off one stream).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] for `n < 2`.
    pub fn generate_with<R: rand::Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Result<Vec<f64>> {
        if n < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: n });
        }
        // Circulant embedding of size M = 2n: first row
        // [γ(0), γ(1), …, γ(n−1), γ(n), γ(n−1), …, γ(1)].
        let m = 2 * n;
        let mut row: Vec<Complex> = Vec::with_capacity(m);
        for k in 0..=n {
            row.push(Complex::from_real(autocovariance(self.h, k)));
        }
        for k in (1..n).rev() {
            row.push(Complex::from_real(autocovariance(self.h, k)));
        }
        debug_assert_eq!(row.len(), m);
        fft_reference(&mut row);

        // Eigenvalues are real and (for fGn) non-negative; clamp tiny
        // negative round-off.
        let eigen: Vec<f64> = row.iter().map(|z| z.re.max(0.0)).collect();

        // Hermitian-symmetric complex Gaussian spectrum.
        let mut spec = vec![Complex::ZERO; m];
        spec[0] = Complex::from_real(eigen[0].sqrt() * Normal::standard_sample(rng));
        spec[n] = Complex::from_real(eigen[n].sqrt() * Normal::standard_sample(rng));
        for k in 1..n {
            let scale = (eigen[k] / 2.0).sqrt();
            let z = Complex::new(
                scale * Normal::standard_sample(rng),
                scale * Normal::standard_sample(rng),
            );
            spec[k] = z;
            spec[m - k] = z.conj();
        }

        fft_reference(&mut spec);
        let norm = self.sigma / (m as f64).sqrt();
        webpuzzle_obs::metrics::sharded_counter("lrd/fgn_samples").add(n as u64);
        Ok(spec.into_iter().take(n).map(|z| z.re * norm).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_acf(x: &[f64], lag: usize) -> f64 {
        let n = x.len();
        let m = x.iter().sum::<f64>() / n as f64;
        let denom: f64 = x.iter().map(|v| (v - m) * (v - m)).sum();
        let num: f64 = (0..n - lag).map(|t| (x[t] - m) * (x[t + lag] - m)).sum();
        num / denom
    }

    #[test]
    fn rejects_bad_h() {
        assert!(FgnGenerator::new(0.0).is_err());
        assert!(FgnGenerator::new(1.0).is_err());
        assert!(FgnGenerator::new(f64::NAN).is_err());
        assert!(FgnGenerator::new(0.5).is_ok());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = FgnGenerator::new(0.7)
            .unwrap()
            .seed(9)
            .generate(256)
            .unwrap();
        let b = FgnGenerator::new(0.7)
            .unwrap()
            .seed(9)
            .generate(256)
            .unwrap();
        assert_eq!(a, b);
        let c = FgnGenerator::new(0.7)
            .unwrap()
            .seed(10)
            .generate(256)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn autocovariance_h_half_is_white() {
        for k in 1..20 {
            assert!(autocovariance(0.5, k).abs() < 1e-10, "lag {k}");
        }
    }

    #[test]
    fn autocovariance_hyperbolic_decay() {
        // γ(k) ~ H(2H−1) k^{2H−2}: ratio test at large lags.
        let h = 0.8;
        let g100 = autocovariance(h, 100);
        let g200 = autocovariance(h, 200);
        let expected_ratio = (200.0f64 / 100.0).powf(2.0 * h - 2.0);
        assert!((g200 / g100 - expected_ratio).abs() < 0.01);
    }

    #[test]
    fn marginal_moments_match() {
        let x = FgnGenerator::new(0.8)
            .unwrap()
            .sigma(2.0)
            .unwrap()
            .seed(3)
            .generate(65_536)
            .unwrap();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / x.len() as f64;
        // LRD sample means converge slowly: sd(x̄) = σ·n^{H−1} ≈ 0.22 here,
        // so allow a ±3 sd band.
        assert!(mean.abs() < 0.7, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.5, "var = {var}");
    }

    #[test]
    fn empirical_acf_matches_theory() {
        let h = 0.85;
        let x = FgnGenerator::new(h)
            .unwrap()
            .seed(4)
            .generate(131_072)
            .unwrap();
        for lag in [1usize, 2, 5, 10] {
            let emp = sample_acf(&x, lag);
            let theo = autocovariance(h, lag);
            assert!(
                (emp - theo).abs() < 0.05,
                "lag {lag}: empirical {emp} vs theoretical {theo}"
            );
        }
    }

    #[test]
    fn h_half_is_uncorrelated() {
        let x = FgnGenerator::new(0.5)
            .unwrap()
            .seed(5)
            .generate(65_536)
            .unwrap();
        for lag in [1usize, 5, 20] {
            assert!(sample_acf(&x, lag).abs() < 0.02, "lag {lag}");
        }
    }

    #[test]
    fn antipersistent_h_below_half() {
        let x = FgnGenerator::new(0.2)
            .unwrap()
            .seed(6)
            .generate(65_536)
            .unwrap();
        assert!(sample_acf(&x, 1) < -0.2, "lag-1 acf should be negative");
    }

    #[test]
    fn too_short_rejected() {
        assert!(FgnGenerator::new(0.7).unwrap().generate(1).is_err());
    }
}
