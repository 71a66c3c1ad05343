//! Fast Fourier transform: a mixed-radix (2, 3, 4, 5, 7) Stockham
//! transform for lengths whose prime factors are all at most 7, and
//! Bluestein's chirp-z algorithm over a 7-smooth pad for the rest.
//!
//! This is the numerical engine behind the [`crate::periodogram`] and the
//! seasonality detector. Workload series have natural lengths that are
//! never powers of two but are 7-smooth: 10 080 minutes (2⁵·3²·5·7) and
//! 604 800 seconds (2⁷·3³·5²·7) in a week, 86 400 seconds in a day,
//! 14 400 in a 4-hour interval. [`fft_real`] transforms `n` real points as
//! one `n/2`-point complex transform. Twiddle factors are computed from
//! their own angles per length, so the error stays near `1e-16·Σ|x|`
//! instead of growing with `n`.
//!
//! [`fft_reference`] is the transform this module had before: radix-2
//! Cooley–Tukey and Bluestein over a power-of-two pad. The Davies–Harte
//! fGn and the FARIMA synthesizers in `webpuzzle-lrd` keep calling it,
//! because every synthetic trace, genlog fixture and benchmark fixture is
//! drawn through them and any other transform changes the last bits of
//! every sample.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number in Cartesian form.
///
/// Deliberately minimal: only the operations the FFT and its callers need.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Create a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Create a pure-real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` on the unit circle.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

/// In-place forward FFT (`X_k = Σ_t x_t e^{-2πi tk/n}`) for any length.
///
/// Lengths whose prime factors are all 2, 3, 5 or 7 run the mixed-radix
/// transform; any other length goes through Bluestein's algorithm over a
/// 7-smooth pad (O(n log n) for all n). Length 0 and 1 are no-ops.
pub fn fft(data: &mut [Complex]) {
    if data.len() <= 1 {
        return;
    }
    record_size(data.len());
    forward(data);
}

/// In-place inverse FFT (`x_t = (1/n) Σ_k X_k e^{+2πi tk/n}`), the exact
/// inverse of [`fft`] including the 1/n normalization.
pub fn ifft(data: &mut [Complex]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    inverse_unscaled(data);
    let scale = 1.0 / n as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

/// Forward FFT of a real-valued signal, returning the full complex spectrum.
///
/// An even length runs as one n/2-point complex transform of the
/// interleaved pairs `x_{2t} + i·x_{2t+1}` plus a split step; an odd length
/// as one n-point transform. The upper half is the conjugate mirror of the
/// lower, exactly.
///
/// # Examples
///
/// ```
/// use webpuzzle_timeseries::fft::fft_real;
///
/// // DC component of a constant signal is n·c, all other bins zero.
/// let spec = fft_real(&[2.0, 2.0, 2.0, 2.0]);
/// assert!((spec[0].re - 8.0).abs() < 1e-12);
/// assert!(spec[1].abs() < 1e-12);
/// ```
pub fn fft_real(data: &[f64]) -> Vec<Complex> {
    let n = data.len();
    let mut spec = real_half_spectrum(data);
    for k in spec.len()..n {
        let mirror = spec[n - k].conj();
        spec.push(mirror);
    }
    spec
}

/// Bins `0..=n/2` of the forward transform of a real signal: all a
/// periodogram needs.
pub(crate) fn real_half_spectrum(data: &[f64]) -> Vec<Complex> {
    let n = data.len();
    if n > 1 {
        record_size(n);
    }
    if n % 2 == 1 || n == 0 {
        let mut buf: Vec<Complex> = data.iter().map(|&x| Complex::from_real(x)).collect();
        forward(&mut buf);
        buf.truncate(n / 2 + 1);
        return buf;
    }
    // z_t = x_{2t} + i·x_{2t+1}; with Z its h-point transform,
    // X_k = E_k + w^k·O_k where E_k = (Z_k + Z̄_{h−k})/2 and
    // O_k = (Z_k − Z̄_{h−k})/2i are the transforms of the even and odd
    // samples, and X_h = E_0 − O_0.
    let h = n / 2;
    let mut z: Vec<Complex> = (data.chunks_exact(2))
        .map(|pair| Complex::new(pair[0], pair[1]))
        .collect();
    forward(&mut z);
    let w = unit_roots(n, h);
    let mut out = Vec::with_capacity(h + 1);
    for k in 0..h {
        let (zk, zc) = (z[k], z[(h - k) % h].conj());
        let even = (zk + zc).scale(0.5);
        let d = zk - zc;
        let odd = Complex::new(0.5 * d.im, -0.5 * d.re);
        out.push(even + w[k] * odd);
    }
    out.push(Complex::from_real(z[0].re - z[0].im));
    out
}

fn record_size(n: usize) {
    // Handle cached once: the registry mutex stays off the hot path.
    use std::sync::OnceLock;
    static SIZES: OnceLock<std::sync::Arc<webpuzzle_obs::metrics::Histogram>> = OnceLock::new();
    SIZES
        .get_or_init(|| webpuzzle_obs::metrics::histogram("fft/size"))
        .record(n as u64);
}

/// The unscaled inverse, as the forward transform of the conjugate.
fn inverse_unscaled(data: &mut [Complex]) {
    conjugate(data);
    forward(data);
    conjugate(data);
}

fn conjugate(data: &mut [Complex]) {
    for z in data.iter_mut() {
        z.im = -z.im;
    }
}

fn forward(data: &mut [Complex]) {
    if data.len() <= 1 {
        return;
    }
    match Plan::new(data.len()) {
        Some(plan) => plan.run(data),
        None => bluestein(data),
    }
}

/// `w^j = e^{−2πij/n}` for `j = 0..count`, each from its own angle: the
/// first octant directly, the rest by exact symmetries.
fn unit_roots(n: usize, count: usize) -> Vec<Complex> {
    let angle = |j: usize| std::f64::consts::TAU * j as f64 / n as f64;
    if !n.is_multiple_of(8) {
        return (0..count)
            .map(|j| match 2 * j <= n {
                true => Complex::cis(-angle(j)),
                false => Complex::cis(angle(n - j)),
            })
            .collect();
    }
    let e = n / 8;
    // (cos, sin) of 2πj/n on the first octant, j = 0..=e.
    let base: Vec<(f64, f64)> = (0..=e)
        .map(|j| {
            let (s, c) = angle(j).sin_cos();
            (c, s)
        })
        .collect();
    (0..count)
        .map(|j| {
            let (o, r) = (j / e, j % e);
            let (c, s) = (base[r], base[e - r]);
            let (cos, sin) = match o {
                0 => (c.0, c.1),
                1 => (s.1, s.0),
                2 => (-c.1, c.0),
                3 => (-s.0, s.1),
                4 => (-c.0, -c.1),
                5 => (-s.1, -s.0),
                6 => (c.1, -c.0),
                _ => (s.0, -s.1),
            };
            Complex::new(cos, -sin)
        })
        .collect()
}

/// The radices of `n` for the mixed-radix transform (4s first), or `None`
/// when `n` has a prime factor above 7.
fn radices(mut n: usize) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    while n.is_multiple_of(4) {
        out.push(4);
        n /= 4;
    }
    for p in [2, 3, 5, 7] {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
    }
    (n == 1).then_some(out)
}

/// The smallest length `≥ n` whose prime factors are all 2, 3, 5 or 7.
fn next_smooth(n: usize) -> usize {
    (n..)
        .find(|&m| radices(m).is_some())
        .expect("powers of two are smooth")
}

/// One pass of a Stockham transform: `s` interleaved sequences of length
/// `radix·m` become `radix·s` interleaved sequences of length `m`.
struct Pass {
    radix: usize,
    m: usize,
    s: usize,
    /// `w_n^{p·k·s}` at `[p·(radix−1) + k − 1]`, `p < m`, `0 < k < radix`.
    twiddles: Vec<Complex>,
    /// The radix-th roots of unity `w_n^{j·n/radix}`, `j < radix`.
    roots: Vec<Complex>,
}

/// A mixed-radix (2, 3, 4, 5, 7) decimation-in-frequency Stockham
/// transform of one length: self-sorting, so no digit-reversal pass.
struct Plan {
    passes: Vec<Pass>,
}

impl Plan {
    fn new(n: usize) -> Option<Plan> {
        let radices = radices(n)?;
        let w = unit_roots(n, n);
        let mut passes = Vec::with_capacity(radices.len());
        let (mut len, mut s) = (n, 1);
        for radix in radices {
            let m = len / radix;
            let twiddles = (0..m)
                .flat_map(|p| (1..radix).map(move |k| p * k * s))
                .map(|j| w[j])
                .collect();
            let roots = (0..radix).map(|j| w[j * (n / radix)]).collect();
            passes.push(Pass {
                radix,
                m,
                s,
                twiddles,
                roots,
            });
            s *= radix;
            len = m;
        }
        Some(Plan { passes })
    }

    fn run(&self, data: &mut [Complex]) {
        let mut scratch = vec![Complex::ZERO; data.len()];
        {
            let (mut x, mut y): (&mut [Complex], &mut [Complex]) = (data, &mut scratch);
            for pass in &self.passes {
                match pass.radix {
                    2 => stockham_pass(x, y, pass, butterfly2),
                    3 => stockham_pass(x, y, pass, odd_butterfly::<3>(&pass.roots)),
                    4 => stockham_pass(x, y, pass, butterfly4),
                    5 => stockham_pass(x, y, pass, odd_butterfly::<5>(&pass.roots)),
                    _ => stockham_pass(x, y, pass, odd_butterfly::<7>(&pass.roots)),
                }
                std::mem::swap(&mut x, &mut y);
            }
        }
        if self.passes.len() % 2 == 1 {
            data.copy_from_slice(&scratch);
        }
    }
}

/// `y[q + s(R·p + k)] = w^{p·k·s} · Σ_j x[q + s(p + j·m)] · ω_R^{j·k}`.
fn stockham_pass<const R: usize>(
    x: &[Complex],
    y: &mut [Complex],
    pass: &Pass,
    butterfly: impl Fn([Complex; R]) -> [Complex; R],
) {
    let (m, s) = (pass.m, pass.s);
    for (p, (out, tw)) in (y.chunks_exact_mut(R * s))
        .zip(pass.twiddles.chunks_exact(R - 1))
        .enumerate()
    {
        let rows: [&[Complex]; R] = std::array::from_fn(|j| &x[s * (p + j * m)..][..s]);
        for q in 0..s {
            let b = butterfly(std::array::from_fn(|j| rows[j][q]));
            out[q] = b[0];
            for k in 1..R {
                out[k * s + q] = b[k] * tw[k - 1];
            }
        }
    }
}

fn butterfly2([a0, a1]: [Complex; 2]) -> [Complex; 2] {
    [a0 + a1, a0 - a1]
}

fn butterfly4([a0, a1, a2, a3]: [Complex; 4]) -> [Complex; 4] {
    let (t0, t1, t2) = (a0 + a2, a0 - a2, a1 + a3);
    // (a1 − a3)·(−i)
    let d = a1 - a3;
    let t3 = Complex::new(d.im, -d.re);
    [t0 + t2, t1 + t3, t0 - t2, t1 - t3]
}

/// A length-R DFT for odd R from its roots `ω^j = cos − i·sin`, pairing
/// `a_j` with `a_{R−j}` so each output pair shares its sums.
fn odd_butterfly<const R: usize>(roots: &[Complex]) -> impl Fn([Complex; R]) -> [Complex; R] {
    let roots: [Complex; R] = roots.try_into().expect("one root per output");
    move |a| {
        let mut b = [Complex::ZERO; R];
        b[0] = a.iter().fold(Complex::ZERO, |acc, &z| acc + z);
        for k in 1..=R / 2 {
            let (mut re, mut im) = (a[0], Complex::ZERO);
            for j in 1..=R / 2 {
                let w = roots[(j * k) % R];
                re += (a[j] + a[R - j]).scale(w.re);
                im += (a[j] - a[R - j]).scale(w.im);
            }
            // i·im: the `−i·sin` half of each root applied to the differences.
            let rot = Complex::new(-im.im, im.re);
            b[k] = re + rot;
            b[R - k] = re - rot;
        }
        b
    }
}

/// Bluestein's chirp-z transform: the DFT as a convolution, evaluated with
/// mixed-radix transforms of the next 7-smooth length `≥ 2n − 1`.
fn bluestein(data: &mut [Complex]) {
    let m = next_smooth(2 * data.len() - 1);
    let plan = Plan::new(m).expect("the pad is 7-smooth");
    convolve_chirp(
        data,
        m,
        -1.0,
        |a| plan.run(a),
        |a| {
            conjugate(a);
            plan.run(a);
            conjugate(a);
        },
    );
}

/// Bluestein's algorithm over a pad of length `m ≥ 2n − 1`: the DFT with
/// twiddle sign `sign` as `w_k · Σ_t (x_t w_t) w̄_{k−t}`, `w_k = e^{sign·πi k²/n}`,
/// through the given forward and unscaled inverse transforms of length `m`.
fn convolve_chirp(
    data: &mut [Complex],
    m: usize,
    sign: f64,
    forward: impl Fn(&mut [Complex]),
    inverse: impl Fn(&mut [Complex]),
) {
    let n = data.len();
    // k² mod 2n keeps the angle exact for large k (k² leaves the exactly
    // representable range long before usize overflows).
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
            Complex::cis(sign * std::f64::consts::PI * k2 / n as f64)
        })
        .collect();

    let mut a = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = data[k] * chirp[k];
    }
    let mut b = vec![Complex::ZERO; m];
    b[0] = chirp[0].conj();
    for k in 1..n {
        let c = chirp[k].conj();
        b[k] = c;
        b[m - k] = c;
    }

    forward(&mut a);
    forward(&mut b);
    for k in 0..m {
        a[k] = a[k] * b[k];
    }
    inverse(&mut a);
    let scale = 1.0 / m as f64;
    for (k, out) in data.iter_mut().enumerate() {
        *out = a[k].scale(scale) * chirp[k];
    }
}

/// Forward FFT by the previous transform: iterative radix-2 Cooley–Tukey
/// with a `w = w·wlen` twiddle recurrence for power-of-two lengths, and
/// Bluestein over a power-of-two pad for the rest.
///
/// Kept bit for bit. The fGn and FARIMA generators in `webpuzzle-lrd` draw
/// through it: any other transform moves the last bits of every sample,
/// and with them every synthetic trace, genlog fixture and benchmark
/// fixture. The tests also use it as an oracle for [`fft`]. Its error
/// grows with `n` (about 1.2e-11·Σ|x| at n = 604 800, against about
/// 1e-16·Σ|x| for [`fft`]); new code should call [`fft`].
pub fn fft_reference(data: &mut [Complex]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    record_size(n);
    if n.is_power_of_two() {
        fft_pow2(data, false);
    } else {
        bluestein_pow2(data, false);
    }
}

/// The inverse of [`fft_reference`], including the 1/n normalization;
/// kept bit for bit for the same reason.
pub fn ifft_reference(data: &mut [Complex]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        fft_pow2(data, true);
    } else {
        bluestein_pow2(data, true);
    }
    let scale = 1.0 / n as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

// Iterative radix-2 Cooley-Tukey, in place. `inverse` flips the twiddle
// sign only (no normalization).
fn fft_pow2(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    debug_assert!(n.is_power_of_two());

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let half = len / 2;
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..half {
                let u = data[start + k];
                let v = data[start + k + half] * w;
                data[start + k] = u + v;
                data[start + k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

// The reference's Bluestein, over a power-of-two pad.
fn bluestein_pow2(data: &mut [Complex], inverse: bool) {
    let sign = if inverse { 1.0 } else { -1.0 };
    let m = (2 * data.len() - 1).next_power_of_two();
    convolve_chirp(data, m, sign, |a| fft_pow2(a, false), |a| fft_pow2(a, true));
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Bins `bins` of the DFT of `x`, each summed directly over exact
    /// angles (`t·k` reduced mod `n`) with Neumaier-compensated sums.
    fn direct_dft(x: &[Complex], bins: &[usize]) -> Vec<Complex> {
        let n = x.len();
        let roots: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(-std::f64::consts::TAU * j as f64 / n as f64))
            .collect();
        bins.iter()
            .map(|&k| {
                let (mut re, mut im) = (Neumaier::default(), Neumaier::default());
                for (t, &xt) in x.iter().enumerate() {
                    let z = xt * roots[(t * k) % n];
                    re.add(z.re);
                    im.add(z.im);
                }
                Complex::new(re.total(), im.total())
            })
            .collect()
    }

    #[derive(Default)]
    struct Neumaier {
        sum: f64,
        carry: f64,
    }

    impl Neumaier {
        fn add(&mut self, v: f64) {
            let t = self.sum + v;
            self.carry += if self.sum.abs() >= v.abs() {
                (self.sum - t) + v
            } else {
                (v - t) + self.sum
            };
            self.sum = t;
        }

        fn total(&self) -> f64 {
            self.sum + self.carry
        }
    }

    fn noise(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex::new(rng.random::<f64>() * 2.0 - 1.0, rng.random::<f64>() - 0.5))
            .collect()
    }

    fn l1(x: &[Complex]) -> f64 {
        x.iter().map(|z| z.abs()).sum()
    }

    /// Largest `|a_k − b_k|` over `bins`, relative to `Σ|x|`.
    fn rel_err(a: &[Complex], b: &[Complex], x: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(p, q)| (*p - *q).abs())
            .fold(0.0, f64::max)
            / l1(x)
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.37 - 1.0, (i as f64 * 0.11).sin()))
            .collect()
    }

    /// Every bin for short lengths, 64 spread bins for long ones.
    fn test_bins(n: usize) -> Vec<usize> {
        match n <= 512 {
            true => (0..n).collect(),
            false => (0..64).map(|i| (i * 7_919 + i * i) % n).collect(),
        }
    }

    /// Every tested bin within `1e-12·Σ|x|` of the direct DFT.
    fn assert_matches_direct_dft(lengths: &[usize]) {
        for &n in lengths {
            let x = noise(n, n as u64);
            let mut y = x.clone();
            fft(&mut y);
            let bins = test_bins(n);
            let got: Vec<Complex> = bins.iter().map(|&k| y[k]).collect();
            let err = rel_err(&got, &direct_dft(&x, &bins), &x);
            assert!(err <= 1e-12, "n = {n}: error {err:e}·Σ|x|");
        }
    }

    #[test]
    fn matches_naive_dft_pow2() {
        assert_matches_direct_dft(&[2, 4, 8, 16, 64, 512, 4_096]);
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        // Each odd radix alone, mixed products, and primes above 7
        // (Bluestein) alone and times a smooth factor.
        assert_matches_direct_dft(&[
            3, 5, 7, 9, 25, 27, 49, 343, 625, 729, 6, 12, 30, 35, 42, 60, 84, 105, 210, 360, 420,
            2_520, 3_600, 4_032, 11, 13, 17, 241, 4_093, 22, 482, 4_010,
        ]);
    }

    #[test]
    fn matches_direct_dft_and_reference_at_paper_lengths() {
        // 10 080 = 2⁵·3²·5·7, 60 480, 86 400 = 2⁷·3³·5², 604 800: the
        // week series' lengths at 60 s, 10 s and 1 s bins.
        for (seed, n) in [10_080usize, 60_480, 86_400, 604_800]
            .into_iter()
            .enumerate()
        {
            let x = noise(n, 100 + seed as u64);
            let mut y = x.clone();
            fft(&mut y);
            let bins: Vec<usize> = (0..48).map(|i| (i * 104_729 + 3 * i * i) % n).collect();
            let got: Vec<Complex> = bins.iter().map(|&k| y[k]).collect();
            let err = rel_err(&got, &direct_dft(&x, &bins), &x);
            assert!(err <= 1e-12, "n = {n}: error {err:e}·Σ|x|");
            // The reference's own error reaches about 1.2e-11·Σ|x| here.
            let mut r = x.clone();
            fft_reference(&mut r);
            let diff = rel_err(&y, &r, &x);
            assert!(diff <= 1e-10, "n = {n}: {diff:e}·Σ|x| from the reference");
        }
    }

    #[test]
    fn real_transform_matches_complex_transform() {
        for &n in &[
            2usize, 3, 4, 6, 7, 10, 15, 16, 241, 482, 1000, 4093, 10_080, 20_160,
        ] {
            let x: Vec<f64> = noise(n, n as u64).iter().map(|z| z.re).collect();
            let complexified: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
            let mut want = complexified.clone();
            fft(&mut want);
            let got = fft_real(&x);
            assert_eq!(got.len(), n);
            let err = rel_err(&got, &want, &complexified);
            assert!(err <= 1e-13, "n = {n}: error {err:e}·Σ|x|");
        }
        assert!(fft_real(&[]).is_empty());
        assert_eq!(fft_real(&[2.5]), [Complex::from_real(2.5)]);
    }

    #[test]
    fn inverse_matches_reference_inverse() {
        for &n in &[8usize, 360, 241, 10_080] {
            let x = noise(n, 7 + n as u64);
            let (mut a, mut b) = (x.clone(), x.clone());
            ifft(&mut a);
            ifft_reference(&mut b);
            assert!(rel_err(&a, &b, &x) <= 1e-12, "n = {n}");
        }
    }

    #[test]
    fn smooth_lengths_and_pads() {
        assert_eq!(radices(604_800).map(|r| r.iter().product()), Some(604_800));
        assert_eq!(radices(4_093), None);
        assert_eq!(next_smooth(2 * 4_093 - 1), 8_192);
        assert_eq!(next_smooth(2 * 241 - 1), 486);
        assert_eq!(next_smooth(11), 12);
    }

    #[test]
    fn unit_roots_match_direct_angles() {
        for n in [7usize, 12, 16, 40, 10_080] {
            for (j, w) in unit_roots(n, n).into_iter().enumerate() {
                // The angle reduced to [−π, π].
                let turn = j as f64 / n as f64 - if 2 * j > n { 1.0 } else { 0.0 };
                let direct = Complex::cis(-std::f64::consts::TAU * turn);
                assert!((w - direct).abs() < 1e-15, "n = {n}, j = {j}");
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for &n in &[1usize, 2, 3, 8, 17, 100, 1024, 3600] {
            let x = ramp(n);
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            let err = max_err(&y, &x);
            assert!(err < 1e-9, "n={n}, err={err}");
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 240;
        let freq = 12;
        let x: Vec<Complex> = (0..n)
            .map(|t| {
                Complex::from_real(
                    (2.0 * std::f64::consts::PI * freq as f64 * t as f64 / n as f64).cos(),
                )
            })
            .collect();
        let mut y = x;
        fft(&mut y);
        // A real cosine splits its energy between bins `freq` and `n-freq`.
        assert!((y[freq].abs() - n as f64 / 2.0).abs() < 1e-8);
        assert!((y[n - freq].abs() - n as f64 / 2.0).abs() < 1e-8);
        for (k, z) in y.iter().enumerate() {
            if k != freq && k != n - freq {
                assert!(z.abs() < 1e-7, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 360;
        let x = ramp(n);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        fft(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-7 * time_energy);
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<Complex> = vec![];
        fft(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![Complex::new(3.0, -1.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex::new(3.0, -1.0));
        ifft(&mut one);
        assert_eq!(one[0], Complex::new(3.0, -1.0));
    }

    #[test]
    fn large_prime_length() {
        // Bluestein must stay accurate for awkward lengths.
        let n = 4999;
        let x = ramp(n);
        let mut y = x.clone();
        fft(&mut y);
        ifft(&mut y);
        assert!(max_err(&y, &x) < 1e-8);
    }

    #[test]
    fn complex_ops() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((a.norm_sqr() - 5.0).abs() < 1e-15);
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }
}
