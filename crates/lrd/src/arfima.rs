//! FARIMA(0, d, 0) synthesis: fractionally integrated noise.
//!
//! An independent second family of exactly long-range dependent processes
//! (`H = d + 1/2` for `0 < d < 1/2`), used to cross-validate the Hurst
//! estimators against a model that is *not* the fGn their spectra were
//! tuned on. FARIMA has the same spectral pole `λ^{-2d}` at the origin but
//! different high-frequency structure — an estimator that only worked on
//! fGn would be exposed here.

use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use webpuzzle_stats::dist::Normal;
use webpuzzle_stats::StatsError;
use webpuzzle_timeseries::fft::{fft_reference, ifft_reference, Complex};

/// Generator of FARIMA(0, d, 0) sample paths via truncated MA(∞)
/// convolution, `X_t = Σ_j ψ_j ε_{t−j}` with
/// `ψ_j = Γ(j + d) / (Γ(j + 1) Γ(d))`, evaluated by FFT.
///
/// # Examples
///
/// ```
/// use webpuzzle_lrd::arfima::FarimaGenerator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // d = 0.3 ⇒ H = 0.8.
/// let x = FarimaGenerator::new(0.3)?.seed(5).generate(4096)?;
/// assert_eq!(x.len(), 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FarimaGenerator {
    d: f64,
    seed: u64,
    truncation: usize,
}

impl FarimaGenerator {
    /// Create a generator with memory parameter `d ∈ (-0.5, 0.5)`
    /// (`d > 0` gives LRD with `H = d + 1/2`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for `d` outside
    /// `(-0.5, 0.5)`.
    pub fn new(d: f64) -> Result<Self> {
        if !d.is_finite() || d <= -0.5 || d >= 0.5 {
            return Err(StatsError::InvalidParameter {
                name: "d",
                value: d,
                constraint: "must be in the open interval (-0.5, 0.5)",
            });
        }
        Ok(FarimaGenerator {
            d,
            seed: 0,
            truncation: 16_384,
        })
    }

    /// Equivalent Hurst exponent `H = d + 1/2`.
    pub fn hurst(&self) -> f64 {
        self.d + 0.5
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the MA(∞) truncation length (default 16 384). Longer truncation
    /// preserves lower-frequency memory; the default is ample for series up
    /// to ~10⁵ points.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for truncation < 64.
    pub fn truncation(mut self, truncation: usize) -> Result<Self> {
        if truncation < 64 {
            return Err(StatsError::InvalidParameter {
                name: "truncation",
                value: truncation as f64,
                constraint: "must be >= 64",
            });
        }
        self.truncation = truncation;
        Ok(self)
    }

    /// Generate `n` points.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] for `n < 2`.
    pub fn generate(&self, n: usize) -> Result<Vec<f64>> {
        if n < 2 {
            return Err(StatsError::InsufficientData { needed: 2, got: n });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let j_max = self.truncation;
        // ψ_0 = 1, ψ_j = ψ_{j−1} (j − 1 + d)/j.
        let mut psi = Vec::with_capacity(j_max);
        psi.push(1.0f64);
        for j in 1..j_max {
            let prev = psi[j - 1];
            psi.push(prev * ((j as f64 - 1.0 + self.d) / j as f64));
        }
        // Innovations long enough to cover the burn-in window.
        let total = n + j_max;
        let eps: Vec<f64> = (0..total)
            .map(|_| Normal::standard_sample(&mut rng))
            .collect();
        // Linear convolution via FFT: out = psi * eps, keep the fully
        // warmed-up segment [j_max, j_max + n).
        let m = (total + j_max).next_power_of_two();
        let mut a: Vec<Complex> = Vec::with_capacity(m);
        a.extend(psi.iter().map(|&p| Complex::from_real(p)));
        a.resize(m, Complex::ZERO);
        let mut b: Vec<Complex> = Vec::with_capacity(m);
        b.extend(eps.iter().map(|&e| Complex::from_real(e)));
        b.resize(m, Complex::ZERO);
        fft_reference(&mut a);
        fft_reference(&mut b);
        for (x, y) in a.iter_mut().zip(&b) {
            *x = *x * *y;
        }
        ifft_reference(&mut a);
        Ok(a[j_max..j_max + n].iter().map(|z| z.re).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{abry_veitch, periodogram_hurst, whittle};

    #[test]
    fn rejects_bad_d() {
        assert!(FarimaGenerator::new(0.5).is_err());
        assert!(FarimaGenerator::new(-0.5).is_err());
        assert!(FarimaGenerator::new(f64::NAN).is_err());
        assert!(FarimaGenerator::new(0.49).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FarimaGenerator::new(0.3)
            .unwrap()
            .seed(1)
            .generate(512)
            .unwrap();
        let b = FarimaGenerator::new(0.3)
            .unwrap()
            .seed(1)
            .generate(512)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn d_zero_is_white_noise() {
        let x = FarimaGenerator::new(0.0)
            .unwrap()
            .seed(2)
            .generate(32_768)
            .unwrap();
        let est = whittle(&x).unwrap();
        assert!((est.h - 0.5).abs() < 0.04, "H = {}", est.h);
    }

    #[test]
    fn estimators_recover_h_on_farima() {
        // Cross-family validation: the estimators were tested on fGn; they
        // must also work on FARIMA with the same asymptotic H.
        for &d in &[0.2, 0.35] {
            let h = d + 0.5;
            let x = FarimaGenerator::new(d)
                .unwrap()
                .seed(3)
                .generate(65_536)
                .unwrap();
            let w = whittle(&x).unwrap().h;
            let av = abry_veitch(&x).unwrap().h;
            let pg = periodogram_hurst(&x).unwrap().h;
            assert!((w - h).abs() < 0.06, "whittle on FARIMA d={d}: {w}");
            assert!((av - h).abs() < 0.08, "abry-veitch on FARIMA d={d}: {av}");
            assert!((pg - h).abs() < 0.1, "periodogram on FARIMA d={d}: {pg}");
        }
    }

    #[test]
    fn negative_d_is_antipersistent() {
        let x = FarimaGenerator::new(-0.3)
            .unwrap()
            .seed(4)
            .generate(32_768)
            .unwrap();
        let est = whittle(&x).unwrap();
        assert!(est.h < 0.35, "H = {}", est.h);
    }

    #[test]
    fn truncation_validation() {
        assert!(FarimaGenerator::new(0.2).unwrap().truncation(10).is_err());
        assert!(FarimaGenerator::new(0.2).unwrap().truncation(1024).is_ok());
    }

    #[test]
    fn too_short_rejected() {
        assert!(FarimaGenerator::new(0.2).unwrap().generate(1).is_err());
    }
}
