//! The §4.2 Poisson-arrival test procedure.
//!
//! Steps, exactly as the paper prescribes:
//!
//! 1. Timestamps have 1-second granularity, so same-second ties are spread
//!    across the second first — [`TieSpreading::Uniform`] (random offsets)
//!    or [`TieSpreading::Deterministic`] (evenly spaced), because the
//!    assumption can matter [29] (the paper verifies it does not).
//! 2. Since the rate varies over a 4-hour interval, the interval is split
//!    into subintervals of approximately constant rate (4×1-hour or
//!    24×10-minute), and each subinterval is tested separately.
//! 3. Per subinterval: independence via the lag-1 autocorrelation of the
//!    inter-arrival sequence against the ±1.96/√n band, and exponentiality
//!    via the Anderson-Darling test with modified statistic `A²(1+0.6/n)`
//!    against the 5 % critical value 1.341.
//! 4. The per-subinterval verdicts aggregate through binomial B(n, 0.95)
//!    count tests (plus the sign-balance test on correlation directions).

use crate::Result;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use webpuzzle_stats::descriptive::autocorrelation;
use webpuzzle_stats::htest::{
    anderson_darling_exponential, binomial_count_test, ljung_box, sign_balance_test,
    BinomialCountResult, SignBalance,
};

/// How same-second timestamp ties are spread within their second (§4.2
/// step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TieSpreading {
    /// Independent uniform offsets within the second.
    Uniform,
    /// Requests evenly spaced across the second.
    Deterministic,
}

/// Final verdict of a Poisson test on one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoissonVerdict {
    /// The data are indistinguishable from a Poisson process at 95 %.
    ConsistentWithPoisson,
    /// Poisson is rejected (dependent and/or non-exponential
    /// inter-arrivals).
    Rejected,
    /// Too few arrivals to run the test (the paper's NASA-Pub2 situation).
    NotApplicable,
}

/// Detailed outcome of the §4.2 procedure on one interval at one
/// subdivision granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonTestOutcome {
    /// Number of subintervals tested.
    pub subintervals: usize,
    /// Tie-spreading assumption used.
    pub spreading: TieSpreading,
    /// Binomial count test over the independence (lag-1 autocorrelation)
    /// verdicts.
    pub independence: BinomialCountResult,
    /// Direction balance of the per-subinterval autocorrelations.
    pub sign_balance: SignBalance,
    /// Binomial count test over the Anderson-Darling exponentiality
    /// verdicts.
    pub exponentiality: BinomialCountResult,
    /// Extension cross-check: binomial count test over per-subinterval
    /// Ljung-Box (10-lag) independence verdicts — a more powerful
    /// complement to the paper's lag-1 test, not used in [`Self::verdict`].
    pub ljung_box: BinomialCountResult,
    /// The per-subinterval lag-1 autocorrelations (diagnostics).
    pub lag1_autocorrelations: Vec<f64>,
    /// The per-subinterval modified A² statistics (diagnostics).
    pub ad_statistics: Vec<f64>,
}

impl PoissonTestOutcome {
    /// §4.2 step 4: pool the subintervals' tests, in subinterval order,
    /// through the binomial count tests and the sign-balance test.
    ///
    /// # Errors
    ///
    /// Those of [`binomial_count_test`] and [`sign_balance_test`] (none
    /// for a non-empty `tests`).
    pub fn combine(tests: &[SubintervalTest], spreading: TieSpreading) -> Result<Self> {
        let n = tests.len() as u64;
        let count = |pass: fn(&SubintervalTest) -> bool| tests.iter().filter(|t| pass(t)).count();
        Ok(PoissonTestOutcome {
            subintervals: tests.len(),
            spreading,
            independence: binomial_count_test(n, count(|t| t.independent) as u64)?,
            sign_balance: sign_balance_test(n, count(|t| t.lag1 > 0.0) as u64)?,
            exponentiality: binomial_count_test(n, count(|t| t.exponential) as u64)?,
            ljung_box: binomial_count_test(n, count(|t| t.ljung_box_independent) as u64)?,
            lag1_autocorrelations: tests.iter().map(|t| t.lag1).collect(),
            ad_statistics: tests.iter().map(|t| t.ad_modified).collect(),
        })
    }

    /// Overall verdict: Poisson survives only if *neither* meta-test
    /// rejects.
    pub fn verdict(&self) -> PoissonVerdict {
        if self.independence.reject || self.exponentiality.reject {
            PoissonVerdict::Rejected
        } else {
            PoissonVerdict::ConsistentWithPoisson
        }
    }
}

/// Spread 1-second-granularity ties across their second. Input times are
/// floored to whole seconds first (mirroring the logging process), then
/// offset; output is sorted.
///
/// # Examples
///
/// ```
/// use webpuzzle_core::{spread_ties, TieSpreading};
///
/// let spread = spread_ties(&[5.0, 5.0, 5.0, 9.0], TieSpreading::Deterministic, 1);
/// assert_eq!(spread.len(), 4);
/// // Three ties at second 5 → offsets 0, 1/3, 2/3.
/// assert!((spread[1] - (5.0 + 1.0 / 3.0)).abs() < 1e-12);
/// ```
pub fn spread_ties(times: &[f64], spreading: TieSpreading, seed: u64) -> Vec<f64> {
    let mut floored: Vec<f64> = times.iter().map(|t| t.floor()).collect();
    floored.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mut spreader = TieSpreader::new(spreading, seed);
    let mut out = Vec::with_capacity(floored.len());
    for second in floored.chunk_by(|a, b| a == b) {
        spreader.spread_second(second[0], second.len(), &mut out);
    }
    out
}

/// [`spread_ties`] one second at a time, for a caller that meets the
/// seconds in time order (the streaming window spreads each second as
/// the stream leaves it). Given the same seconds in the same order, it
/// draws the same offsets as `spread_ties` with the same seed.
///
/// # Examples
///
/// ```
/// use webpuzzle_core::{spread_ties, TieSpreader, TieSpreading};
///
/// let times = [5.0, 5.2, 5.9, 9.0, 12.0, 12.5];
/// let mut spreader = TieSpreader::new(TieSpreading::Uniform, 4);
/// let mut out = Vec::new();
/// for (sec, k) in [(5.0, 3), (9.0, 1), (12.0, 2)] {
///     spreader.spread_second(sec, k, &mut out);
/// }
/// assert_eq!(out, spread_ties(&times, TieSpreading::Uniform, 4));
/// ```
#[derive(Debug, Clone)]
pub struct TieSpreader {
    spreading: TieSpreading,
    rng: StdRng,
    /// One tied second's uniform offsets, reused across seconds.
    offsets: Vec<f64>,
}

impl TieSpreader {
    /// A spreader at the start of the offset stream `seed` names.
    pub fn new(spreading: TieSpreading, seed: u64) -> Self {
        // Domain-separate the offset stream from whatever RNG produced the
        // data: callers routinely use the same small seed for generation
        // and analysis, and replaying the identical StdRng stream would
        // correlate the uniform offsets with the arrival gaps (turning a
        // true Poisson stream into an apparently dependent one).
        let rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5_DEEC_E66D);
        TieSpreader {
            spreading,
            rng,
            offsets: Vec::new(),
        }
    }

    /// Append to `out`, in order, the spread times of the `k` arrivals
    /// logged in the second that starts at `sec`.
    pub fn spread_second(&mut self, sec: f64, k: usize, out: &mut Vec<f64>) {
        match self.spreading {
            TieSpreading::Deterministic => {
                out.extend((0..k).map(|offset| sec + offset as f64 / k as f64));
            }
            // One arrival needs no sort (the common case in a stream).
            TieSpreading::Uniform if k == 1 => out.push(sec + self.rng.random::<f64>()),
            TieSpreading::Uniform => {
                let rng = &mut self.rng;
                self.offsets.clear();
                self.offsets.extend((0..k).map(|_| rng.random::<f64>()));
                self.offsets.sort_unstable_by(f64::total_cmp);
                out.extend(self.offsets.iter().map(|o| sec + o));
            }
        }
    }
}

/// Run the §4.2 procedure on the arrival times of one interval:
/// [`spread_ties`], then [`poisson_test_spread`].
///
/// * `times` — event times within the interval (any granularity; they are
///   floored to seconds and tie-spread first).
/// * `interval_start`, `interval_len` — the interval window in seconds.
/// * `subintervals` — 4 for hourly rates, 24 for 10-minute rates on a
///   4-hour interval.
/// * `min_arrivals` — minimum arrivals per subinterval, raised to
///   [`MIN_SUBINTERVAL_ARRIVALS`]; below it the test is
///   [`PoissonVerdict::NotApplicable`] and `None` is returned.
///
/// # Errors
///
/// Those of [`poisson_test_spread`].
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
/// use webpuzzle_stats::dist::{Exponential, Sampler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A true Poisson stream at 2/s over 4 hours.
/// let mut rng = rand::rngs::StdRng::seed_from_u64(17);
/// let exp = Exponential::new(2.0)?;
/// let mut t = 0.0;
/// let mut times = Vec::new();
/// while t < 14_400.0 {
///     t += exp.sample(&mut rng);
///     times.push(t);
/// }
/// times.pop();
/// let outcome =
///     poisson_arrival_test(&times, 0.0, 14_400.0, 4, TieSpreading::Uniform, 50, 1)?
///         .expect("enough arrivals");
/// assert_eq!(outcome.verdict(), PoissonVerdict::ConsistentWithPoisson);
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn poisson_arrival_test(
    times: &[f64],
    interval_start: f64,
    interval_len: f64,
    subintervals: usize,
    spreading: TieSpreading,
    min_arrivals: usize,
    seed: u64,
) -> Result<Option<PoissonTestOutcome>> {
    poisson_test_spread(
        &spread_ties(times, spreading, seed),
        interval_start,
        interval_len,
        subintervals,
        spreading,
        min_arrivals,
    )
}

/// The fewest arrivals a subinterval may hold before §4.2 is not
/// applicable: six arrivals give the five gaps Anderson–Darling needs.
/// A smaller `min_arrivals` is raised to it.
pub const MIN_SUBINTERVAL_ARRIVALS: usize = 6;

/// Steps 2–4 of the §4.2 procedure on times [`spread_ties`] already
/// spread with `spreading`, so that one spreading can serve several
/// subdivisions. The arguments are those of [`poisson_arrival_test`];
/// `spread` must be sorted, as `spread_ties` returns it.
///
/// The steps are [`Subdivision::range`] per subinterval, the NA rule
/// over all of them, [`SubintervalTest::run`] on each one's gaps, and
/// [`PoissonTestOutcome::combine`]; the streaming window runs the same
/// functions, one subinterval at a time.
///
/// # Errors
///
/// Returns [`webpuzzle_stats::StatsError::InvalidParameter`] for a
/// non-positive interval length or zero subintervals, and the first
/// error of a subinterval's tests, in subinterval order.
///
/// # Examples
///
/// ```
/// use webpuzzle_core::{poisson_arrival_test, poisson_test_spread, spread_ties, TieSpreading};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let times: Vec<f64> = (0..14_400).map(|i| (i * 7_919 % 14_400) as f64).collect();
/// let uniform = TieSpreading::Uniform;
/// let spread = spread_ties(&times, uniform, 3);
/// for subs in [4, 24] {
///     let once = poisson_test_spread(&spread, 0.0, 14_400.0, subs, uniform, 50)?;
///     let each = poisson_arrival_test(&times, 0.0, 14_400.0, subs, uniform, 50, 3)?;
///     assert_eq!(once, each);
/// }
/// # Ok(())
/// # }
/// ```
pub fn poisson_test_spread(
    spread: &[f64],
    interval_start: f64,
    interval_len: f64,
    subintervals: usize,
    spreading: TieSpreading,
    min_arrivals: usize,
) -> Result<Option<PoissonTestOutcome>> {
    debug_assert!(spread.is_sorted(), "spread times must be sorted");
    let subdivision = Subdivision::new(interval_start, interval_len, subintervals)?;
    let ranges: Vec<Range<usize>> = (0..subintervals)
        .map(|j| subdivision.range(spread, j))
        .collect();
    let floor = min_arrivals.max(MIN_SUBINTERVAL_ARRIVALS);
    if ranges.iter().any(|r| r.len() < floor) {
        return Ok(None);
    }
    // A subinterval's gaps are a slice of the interval's.
    let gaps: Vec<f64> = spread.windows(2).map(|w| w[1] - w[0]).collect();
    let tests = (ranges.iter())
        .map(|r| SubintervalTest::run(&gaps[r.start..r.end - 1]))
        .collect::<Result<Vec<_>>>()?;
    PoissonTestOutcome::combine(&tests, spreading).map(Some)
}

/// §4.2 step 2: an interval split into equal subintervals. A time `t`
/// falls in subinterval `⌊(t − start)/sub_len⌋` when that index is in
/// `0..count`, and in none otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subdivision {
    start: f64,
    sub_len: f64,
    count: usize,
}

impl Subdivision {
    /// Split `[interval_start, interval_start + interval_len)` into
    /// `subintervals` parts.
    ///
    /// # Errors
    ///
    /// [`webpuzzle_stats::StatsError::InvalidParameter`] for a
    /// non-positive or non-finite length, or zero subintervals.
    pub fn new(interval_start: f64, interval_len: f64, subintervals: usize) -> Result<Self> {
        use webpuzzle_stats::StatsError;
        if !(interval_len.is_finite() && interval_len > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "interval_len",
                value: interval_len,
                constraint: "must be finite and > 0",
            });
        }
        if subintervals == 0 {
            return Err(StatsError::InvalidParameter {
                name: "subintervals",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        Ok(Subdivision {
            start: interval_start,
            sub_len: interval_len / subintervals as f64,
            count: subintervals,
        })
    }

    /// Number of subintervals.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `⌊(t − start)/sub_len⌋`: negative before the interval, at least
    /// [`Subdivision::count`] past its end. Nondecreasing in `t`.
    fn index(&self, t: f64) -> f64 {
        ((t - self.start) / self.sub_len).floor()
    }

    /// The least time whose subinterval index is at least `j`: a time
    /// `t` lies in subinterval `j` or a later one exactly when
    /// `t >= self.first_time(j)`. Found from `start + j·sub_len` by
    /// stepping one float at a time, since the index is nondecreasing
    /// in time; rounding puts the answer a few steps away at most.
    pub fn first_time(&self, j: usize) -> f64 {
        let j = j as f64;
        let mut t = self.start + j * self.sub_len;
        while self.index(t) >= j {
            t = t.next_down();
        }
        while self.index(t) < j {
            t = t.next_up();
        }
        t
    }

    /// The positions in the sorted `spread` of the times in subinterval
    /// `j`.
    pub fn range(&self, spread: &[f64], j: usize) -> Range<usize> {
        let before = |j: usize| {
            let first = self.first_time(j);
            spread.partition_point(|&t| t < first)
        };
        before(j)..before(j + 1)
    }
}

/// §4.2 step 3 on one subinterval: the lag-1 independence band,
/// Anderson–Darling exponentiality, and the 10-lag Ljung–Box
/// cross-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubintervalTest {
    /// Lag-1 autocorrelation of the gaps.
    pub lag1: f64,
    /// The lag-1 autocorrelation lies inside the ±1.96/√n band.
    pub independent: bool,
    /// The modified A² statistic.
    pub ad_modified: f64,
    /// Anderson–Darling does not reject exponential gaps.
    pub exponential: bool,
    /// Ljung–Box does not reject independence.
    pub ljung_box_independent: bool,
}

impl SubintervalTest {
    /// Test one subinterval's inter-arrival `gaps` (those between its
    /// consecutive spread times).
    ///
    /// # Errors
    ///
    /// Those of the three tests, in the order above: for example
    /// [`webpuzzle_stats::StatsError::InsufficientData`] below five gaps.
    pub fn run(gaps: &[f64]) -> Result<Self> {
        let lag1 = autocorrelation(gaps, 1)?;
        let band = 1.96 / (gaps.len() as f64).sqrt();
        let ad = anderson_darling_exponential(gaps)?;
        let lb = ljung_box(gaps, 10.min(gaps.len() / 4))?;
        Ok(SubintervalTest {
            lag1,
            independent: lag1.abs() < band,
            ad_modified: ad.modified,
            exponential: !ad.reject,
            ljung_box_independent: !lb.reject,
        })
    }
}

/// The full §4.2 battery on one interval: both subdivision granularities ×
/// both tie-spreading assumptions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonBattery {
    /// 4 hourly subintervals, uniform spreading.
    pub hourly_uniform: Option<PoissonTestOutcome>,
    /// 4 hourly subintervals, deterministic spreading.
    pub hourly_deterministic: Option<PoissonTestOutcome>,
    /// 24 ten-minute subintervals, uniform spreading.
    pub ten_min_uniform: Option<PoissonTestOutcome>,
    /// 24 ten-minute subintervals, deterministic spreading.
    pub ten_min_deterministic: Option<PoissonTestOutcome>,
}

impl PoissonBattery {
    /// Run the full battery on a 4-hour interval.
    ///
    /// # Errors
    ///
    /// Propagates parameter errors from [`poisson_test_spread`].
    pub fn run(
        times: &[f64],
        interval_start: f64,
        interval_len: f64,
        min_arrivals: usize,
        seed: u64,
    ) -> Result<Self> {
        let _span = webpuzzle_obs::span!("poisson/battery");
        webpuzzle_obs::metrics::sharded_counter("poisson/batteries_run").incr();
        let uniform = spread_ties(times, TieSpreading::Uniform, seed);
        let deterministic = spread_ties(times, TieSpreading::Deterministic, seed);
        let run = |spread: &[f64], subs: usize, spreading: TieSpreading| {
            poisson_test_spread(
                spread,
                interval_start,
                interval_len,
                subs,
                spreading,
                min_arrivals,
            )
        };
        Ok(PoissonBattery {
            hourly_uniform: run(&uniform, 4, TieSpreading::Uniform)?,
            hourly_deterministic: run(&deterministic, 4, TieSpreading::Deterministic)?,
            ten_min_uniform: run(&uniform, 24, TieSpreading::Uniform)?,
            ten_min_deterministic: run(&deterministic, 24, TieSpreading::Deterministic)?,
        })
    }

    /// Combined verdict at the hourly granularity: NA if either spreading
    /// was NA; otherwise Poisson survives only if it survives under *both*
    /// spreading assumptions (the paper found the assumption never changed
    /// the conclusion).
    pub fn hourly_verdict(&self) -> PoissonVerdict {
        combine(
            self.hourly_uniform.as_ref(),
            self.hourly_deterministic.as_ref(),
        )
    }

    /// Combined verdict at the 10-minute granularity.
    pub fn ten_min_verdict(&self) -> PoissonVerdict {
        combine(
            self.ten_min_uniform.as_ref(),
            self.ten_min_deterministic.as_ref(),
        )
    }
}

fn combine(a: Option<&PoissonTestOutcome>, b: Option<&PoissonTestOutcome>) -> PoissonVerdict {
    match (a, b) {
        (Some(x), Some(y)) => {
            if x.verdict() == PoissonVerdict::ConsistentWithPoisson
                && y.verdict() == PoissonVerdict::ConsistentWithPoisson
            {
                PoissonVerdict::ConsistentWithPoisson
            } else {
                PoissonVerdict::Rejected
            }
        }
        _ => PoissonVerdict::NotApplicable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_stats::dist::{Exponential, Sampler};

    const FOUR_HOURS: f64 = 14_400.0;

    fn renewal_times(mean_gap: f64, heavy: bool, seed: u64) -> Vec<f64> {
        use webpuzzle_stats::dist::BoundedPareto;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let mut out = Vec::new();
        if heavy {
            // Heavy-tailed renewal gaps (bounded so no single gap can starve
            // a whole subinterval): very non-exponential, clustered.
            let p = BoundedPareto::new(1.2, mean_gap * 0.2, 120.0).unwrap();
            while t < FOUR_HOURS {
                t += p.sample(&mut rng);
                out.push(t);
            }
        } else {
            let e = Exponential::from_mean(mean_gap).unwrap();
            while t < FOUR_HOURS {
                t += e.sample(&mut rng);
                out.push(t);
            }
        }
        out.pop();
        out
    }

    #[test]
    fn poisson_stream_passes() {
        // Low rate (~1 arrival / 6 s): the CSEE-Low session-arrival regime
        // where the paper found Poisson indistinguishable. Ties are rare,
        // so both tie-spreading assumptions agree.
        let times = renewal_times(20.0, false, 1);
        let battery = PoissonBattery::run(&times, 0.0, FOUR_HOURS, 50, 1).unwrap();
        assert_eq!(
            battery.hourly_verdict(),
            PoissonVerdict::ConsistentWithPoisson,
            "{:?}",
            battery.hourly_uniform
        );
    }

    #[test]
    fn dense_poisson_passes_under_uniform_spreading() {
        // At request-level rates (2/s) the uniform spreading reconstructs
        // the Poisson process exactly; deterministic spreading quantizes
        // gaps onto a lattice and legitimately fails exponentiality, which
        // is why the pipeline runs both.
        let times = renewal_times(0.5, false, 1);
        let out = poisson_arrival_test(&times, 0.0, FOUR_HOURS, 4, TieSpreading::Uniform, 50, 1)
            .unwrap()
            .unwrap();
        assert_eq!(
            out.verdict(),
            PoissonVerdict::ConsistentWithPoisson,
            "{out:?}"
        );
    }

    #[test]
    fn heavy_tailed_renewal_rejected() {
        let times = renewal_times(0.5, true, 2);
        let battery = PoissonBattery::run(&times, 0.0, FOUR_HOURS, 50, 2).unwrap();
        assert_eq!(battery.hourly_verdict(), PoissonVerdict::Rejected);
        assert_eq!(battery.ten_min_verdict(), PoissonVerdict::Rejected);
    }

    #[test]
    fn sparse_interval_is_na() {
        let times: Vec<f64> = (0..40).map(|i| i as f64 * 300.0).collect();
        let battery = PoissonBattery::run(&times, 0.0, FOUR_HOURS, 50, 3).unwrap();
        assert_eq!(battery.hourly_verdict(), PoissonVerdict::NotApplicable);
        assert!(battery.hourly_uniform.is_none());
    }

    #[test]
    fn spreading_assumption_does_not_flip_poisson() {
        // Paper: "the assumption made about the distribution of the request
        // arrivals over one second does not affect the results" — true in
        // the regimes its data occupied: sparse Poisson-like streams (ties
        // rare) and dense clearly-non-Poisson streams (both reject).
        let sparse = renewal_times(20.0, false, 4);
        let b = PoissonBattery::run(&sparse, 0.0, FOUR_HOURS, 50, 4).unwrap();
        assert_eq!(
            b.hourly_uniform.unwrap().verdict(),
            b.hourly_deterministic.unwrap().verdict()
        );
        let heavy = renewal_times(0.5, true, 5);
        let b = PoissonBattery::run(&heavy, 0.0, FOUR_HOURS, 50, 5).unwrap();
        assert_eq!(
            b.hourly_uniform.unwrap().verdict(),
            b.hourly_deterministic.unwrap().verdict()
        );
    }

    #[test]
    fn spread_ties_deterministic_layout() {
        let spread = spread_ties(&[2.9, 2.1, 2.5, 7.0], TieSpreading::Deterministic, 0);
        assert_eq!(spread, vec![2.0, 2.0 + 1.0 / 3.0, 2.0 + 2.0 / 3.0, 7.0]);
    }

    #[test]
    fn spread_ties_uniform_within_second() {
        let times = vec![3.0; 100];
        let spread = spread_ties(&times, TieSpreading::Uniform, 5);
        assert!(spread.iter().all(|&t| (3.0..4.0).contains(&t)));
        assert!(spread.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn outcome_details_recorded() {
        let times = renewal_times(0.5, false, 6);
        let out = poisson_arrival_test(&times, 0.0, FOUR_HOURS, 4, TieSpreading::Uniform, 50, 6)
            .unwrap()
            .unwrap();
        assert_eq!(out.lag1_autocorrelations.len(), 4);
        assert_eq!(out.ad_statistics.len(), 4);
        assert_eq!(out.subintervals, 4);
    }

    /// Reference for [`spread_ties`]: a fresh `Vec` of offsets per tied
    /// second, sorted by the partial order.
    fn spread_ties_per_group(times: &[f64], spreading: TieSpreading, seed: u64) -> Vec<f64> {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5_DEEC_E66D);
        let mut floored: Vec<f64> = times.iter().map(|t| t.floor()).collect();
        floored.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut out = Vec::new();
        for group in floored.chunk_by(|a, b| a == b) {
            let (sec, k) = (group[0], group.len());
            match spreading {
                TieSpreading::Deterministic => {
                    out.extend((0..k).map(|offset| sec + offset as f64 / k as f64));
                }
                TieSpreading::Uniform => {
                    let mut offsets: Vec<f64> = (0..k).map(|_| rng.random::<f64>()).collect();
                    offsets.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    out.extend(offsets.into_iter().map(|o| sec + o));
                }
            }
        }
        out
    }

    /// Reference for [`poisson_arrival_test`]: spreading and testing in
    /// one function, with Ljung–Box summed from per-lag
    /// autocorrelations.
    fn poisson_arrival_test_in_one(
        times: &[f64],
        start: f64,
        len: f64,
        subs: usize,
        spreading: TieSpreading,
        min_arrivals: usize,
        seed: u64,
    ) -> Option<PoissonTestOutcome> {
        let spread = spread_ties_per_group(times, spreading, seed);
        let sub_len = len / subs as f64;
        let mut buckets = vec![Vec::new(); subs];
        for &t in &spread {
            let idx = ((t - start) / sub_len).floor();
            if idx >= 0.0 && (idx as usize) < subs {
                buckets[idx as usize].push(t);
            }
        }
        if buckets.iter().any(|b| b.len() < min_arrivals.max(6)) {
            return None;
        }
        let (mut independent, mut positives, mut exponential, mut lb_passes) = (0, 0, 0, 0);
        let (mut lag1, mut ads) = (Vec::new(), Vec::new());
        for bucket in &buckets {
            let inter: Vec<f64> = bucket.windows(2).map(|w| w[1] - w[0]).collect();
            let rho = autocorrelation(&inter, 1).unwrap();
            lag1.push(rho);
            independent += u64::from(rho.abs() < 1.96 / (inter.len() as f64).sqrt());
            positives += u64::from(rho > 0.0);
            let ad = anderson_darling_exponential(&inter).unwrap();
            ads.push(ad.modified);
            exponential += u64::from(!ad.reject);
            let lags = 10.min(inter.len() / 4);
            let nf = inter.len() as f64;
            let mut q = 0.0;
            for k in 1..=lags {
                let r = autocorrelation(&inter, k).unwrap();
                q += r * r / (nf - k as f64);
            }
            q *= nf * (nf + 2.0);
            let p = 1.0 - webpuzzle_stats::special::chi_squared_cdf(q, lags as f64);
            lb_passes += u64::from(p >= 0.05);
        }
        let n = subs as u64;
        Some(PoissonTestOutcome {
            subintervals: subs,
            spreading,
            independence: binomial_count_test(n, independent).unwrap(),
            sign_balance: sign_balance_test(n, positives).unwrap(),
            exponentiality: binomial_count_test(n, exponential).unwrap(),
            ljung_box: binomial_count_test(n, lb_passes).unwrap(),
            lag1_autocorrelations: lag1,
            ad_statistics: ads,
        })
    }

    #[test]
    fn spread_once_then_test_equals_the_one_function_procedure() {
        // Dense request-level streams (many ties), a sparse one, a
        // clustered one, and a window that starts past zero with
        // arrivals on either side of it.
        let shifted: Vec<f64> = renewal_times(0.3, false, 9)
            .iter()
            .map(|t| t + 7_200.0)
            .collect();
        let cases = [
            (renewal_times(0.5, false, 7), 0.0),
            (renewal_times(0.05, false, 7), 0.0),
            (renewal_times(20.0, false, 8), 0.0),
            (renewal_times(0.5, true, 8), 0.0),
            (shifted, 14_400.0),
        ];
        for (times, start) in &cases {
            for spreading in [TieSpreading::Uniform, TieSpreading::Deterministic] {
                let seed = times.len() as u64;
                let spread = spread_ties(times, spreading, seed);
                let oracle = spread_ties_per_group(times, spreading, seed);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&spread), bits(&oracle), "{spreading:?}");
                for subs in [4, 24] {
                    let want = poisson_arrival_test_in_one(
                        times, *start, FOUR_HOURS, subs, spreading, 50, seed,
                    );
                    let composed =
                        poisson_arrival_test(times, *start, FOUR_HOURS, subs, spreading, 50, seed);
                    assert_eq!(composed.unwrap(), want, "{spreading:?} × {subs}");
                    let once =
                        poisson_test_spread(&spread, *start, FOUR_HOURS, subs, spreading, 50);
                    assert_eq!(once.unwrap(), want, "{spreading:?} × {subs}");
                }
            }
            let battery = PoissonBattery::run(times, *start, FOUR_HOURS, 50, 11).unwrap();
            let one = |subs, spreading| {
                poisson_arrival_test_in_one(times, *start, FOUR_HOURS, subs, spreading, 50, 11)
            };
            assert_eq!(battery.hourly_uniform, one(4, TieSpreading::Uniform));
            assert_eq!(
                battery.hourly_deterministic,
                one(4, TieSpreading::Deterministic)
            );
            assert_eq!(battery.ten_min_uniform, one(24, TieSpreading::Uniform));
            assert_eq!(
                battery.ten_min_deterministic,
                one(24, TieSpreading::Deterministic)
            );
        }
    }

    #[test]
    fn five_arrivals_in_a_subinterval_are_not_applicable() {
        // Five arrivals are four gaps, one short of Anderson–Darling's
        // five: such a subinterval makes the interval NA, not an error.
        let mut times = vec![10.0, 50.0, 100.0, 150.0, 200.0];
        times.extend((0..40).map(|i| 300.0 + 7.0 * i as f64));
        let test =
            |times: &[f64]| poisson_arrival_test(times, 0.0, 600.0, 2, TieSpreading::Uniform, 5, 0);
        assert_eq!(test(&times), Ok(None));
        // The sixth arrival makes it testable.
        times.insert(5, 250.0);
        let outcome = test(&times).unwrap().expect("six arrivals are enough");
        assert_eq!(outcome.subintervals, 2);
    }

    #[test]
    fn subdivision_ranges_are_the_floor_index_buckets() {
        // Times before, inside and past a non-integral subdivision,
        // with ties on the edges.
        let sub = Subdivision::new(100.0, 1_000.0, 3).unwrap();
        let spread = [
            50.0, 99.9, 100.0, 100.0, 333.3, 433.3, 433.4, 766.6, 766.7, 1_099.9, 1_100.0, 2e9,
        ];
        let index = |t: f64| ((t - 100.0) / (1_000.0 / 3.0)).floor();
        for j in 0..3 {
            let want: Vec<usize> = (0..spread.len())
                .filter(|&k| index(spread[k]) == j as f64)
                .collect();
            let got: Vec<usize> = sub.range(&spread, j).collect();
            assert_eq!(got, want, "subinterval {j}");
            // The first time of a subinterval is in it; the float below
            // is not.
            let first = sub.first_time(j);
            assert_eq!(index(first), j as f64);
            assert_eq!(index(first.next_down()), j as f64 - 1.0);
        }
        assert_eq!(sub.range(&[], 1), 0..0);
        assert!(Subdivision::new(0.0, 0.0, 3).is_err());
        assert!(Subdivision::new(0.0, 10.0, 0).is_err());
    }

    #[test]
    fn validation() {
        assert!(poisson_arrival_test(&[1.0], 0.0, -5.0, 4, TieSpreading::Uniform, 10, 0).is_err());
        assert!(poisson_arrival_test(&[1.0], 0.0, 100.0, 0, TieSpreading::Uniform, 10, 0).is_err());
        assert!(poisson_test_spread(&[1.5], 0.0, f64::NAN, 4, TieSpreading::Uniform, 10).is_err());
        assert!(poisson_test_spread(&[1.5], 0.0, 100.0, 0, TieSpreading::Uniform, 10).is_err());
    }
}
