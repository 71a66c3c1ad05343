//! Windowed arrival analysis: the existing variance-time estimator and
//! §4.2 Poisson battery, window by window.
//!
//! The batch pipeline bins a whole week of arrivals at once; here a
//! fixed analysis window (default: the paper's 4-hour interval) keeps
//! the raw arrival times of the *current window only*, with their
//! tie-spread times and gaps. Memory is `O(window arrivals)` — nothing
//! outlives its window except the small [`WindowReport`] per window.
//!
//! The §4.2 work is done as the stream passes it, not all at the close:
//!
//! * **Per push**: the time is kept, and compared with the next
//!   subinterval edge.
//! * **Per subinterval edge**: once a new second's floor reaches the
//!   end of one of the 4 hourly or 24 ten-minute subintervals, the
//!   finished seconds not yet spread are spread ([`TieSpreader`], one
//!   offset stream per window drawn in time order: the offsets
//!   `core::spread_ties` draws for the whole window), the window's gaps
//!   are extended, and each subinterval passed is tested
//!   ([`SubintervalTest`]: lag-1 band, Anderson–Darling, Ljung–Box) on
//!   its slice of the gaps. The result, error included, is held for the
//!   close.
//! * **At close**: the last seconds are spread and the last subinterval
//!   of each granularity tested; the NA rule (too few arrivals in any
//!   subinterval) is applied before any held error is raised; the tests
//!   pool into the binomial and sign meta-tests
//!   ([`PoissonTestOutcome::combine`]). Each time then maps to its
//!   per-second (and per-10-ms) bin, and [`variance_time_events`] reads
//!   those bin indices bit for bit as the dense counts would read.
//!
//! A window therefore reports exactly what `core::poisson_arrival_test`
//! gives on its times, at the same push, errors included. On the
//! `perfbench` drain fixture (about 16 k arrivals per window) the
//! traced close fell from 2.5–3.0 ms to 1.1–1.4 ms, and the push that
//! closes a window from about 3.6 ms to about 1.6 ms untraced; a push
//! that reaches no edge pays one comparison (DESIGN.md §9, *Window
//! close*).

use crate::Result;
use serde::{Deserialize, Serialize};
use webpuzzle_core::{
    PoissonTestOutcome, PoissonVerdict, StatsError, Subdivision, SubintervalTest, TieSpreader,
    TieSpreading, MIN_SUBINTERVAL_ARRIVALS,
};
use webpuzzle_lrd::{variance_time_events, VarianceTimeFit};
use webpuzzle_weblog::WeblogError;

/// Configuration of the per-window analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Window length in seconds (paper: 4-hour intervals).
    pub window_len: f64,
    /// Coarse count bin width, seconds (paper: 1 s arrival counts).
    pub bin_width: f64,
    /// Optional fine count bin width, seconds (default 10 ms) for a
    /// sub-second variance-time reading; `None` disables it.
    pub fine_bin_width: Option<f64>,
    /// Minimum arrivals per Poisson subinterval, raised to
    /// [`MIN_SUBINTERVAL_ARRIVALS`]; below it the window verdict is NA
    /// (the paper's NASA-Pub2 situation).
    pub min_poisson_arrivals: usize,
    /// Seed for the Poisson battery's uniform tie-spreading.
    pub seed: u64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_len: 14_400.0,
            bin_width: 1.0,
            fine_bin_width: Some(0.01),
            min_poisson_arrivals: 50,
            seed: 0,
        }
    }
}

impl WindowConfig {
    /// Check that bin widths are finite and positive and the window is
    /// finite and no shorter than a bin of either width.
    ///
    /// # Errors
    ///
    /// [`WeblogError::InvalidParameter`] naming the first field at fault.
    pub(crate) fn validate(&self) -> Result<()> {
        let usable = |w: f64| w.is_finite() && w > 0.0;
        let (name, constraint) = if !usable(self.bin_width) {
            ("bin_width", "must be finite and > 0")
        } else if self.fine_bin_width.is_some_and(|w| !usable(w)) {
            ("fine_bin_width", "must be finite and > 0")
        } else if !self.window_len.is_finite() || self.window_len < self.bin_width {
            ("window_len", "must be finite and at least bin_width")
        } else if self.fine_bin_width.is_some_and(|w| w > self.window_len) {
            ("fine_bin_width", "must not exceed window_len")
        } else {
            return Ok(());
        };
        Err(WeblogError::InvalidParameter { name, constraint }.into())
    }
}

/// Analysis of one completed window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Zero-based window index (window `i` covers
    /// `[i·window_len, (i+1)·window_len)`).
    pub index: u64,
    /// Window start time, seconds.
    pub start: f64,
    /// Arrivals in the window.
    pub events: u64,
    /// Variance-time Hurst estimate over the coarse (per-second) counts;
    /// `None` when the window is too quiet for the estimator.
    pub h_variance_time: Option<f64>,
    /// Half-width of the 95% CI on `h_variance_time` (t-based, from
    /// the OLS residuals, inflated per `webpuzzle_lrd::VT_CI_INFLATION`).
    pub h_ci_half_width: Option<f64>,
    /// R² of the coarse-count variance-time regression.
    pub h_r_squared: Option<f64>,
    /// Aggregation levels used by the coarse-count fit (0 when the
    /// estimator did not run).
    pub h_points: u64,
    /// Variance-time Hurst estimate over the fine (per-10-ms) counts.
    pub h_variance_time_fine: Option<f64>,
    /// §4.2 Poisson verdict at hourly subinterval rates.
    pub poisson_hourly: PoissonVerdict,
    /// §4.2 Poisson verdict at 10-minute subinterval rates.
    pub poisson_ten_min: PoissonVerdict,
}

/// Complete mutable state of a [`WindowedArrivals`] accumulator, for
/// checkpointing: the raw arrival times of the current (partial)
/// window. The variance-time fits read them when the window closes;
/// the Poisson battery's spread times and finished subintervals are
/// derived from them, and [`WindowedArrivals::restore`] rebuilds those
/// from the times.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalsState {
    /// Raw arrival times of the current window.
    pub times: Vec<f64>,
    /// Index of the current (open) window.
    pub window_index: u64,
    /// Last arrival time seen (`-inf` before the first).
    pub last_time: f64,
    /// Total arrivals accepted.
    pub total_events: u64,
}

/// Streaming window accumulator over one arrival process.
///
/// Feed event times in nondecreasing order via
/// [`WindowedArrivals::push`]; completed [`WindowReport`]s are appended
/// to the supplied buffer as boundaries are crossed. The trailing
/// partial window is analyzed by [`WindowedArrivals::finish`] only if
/// it is at least half covered (a 10-minute stub of a 4-hour window
/// would produce noise, not measurement).
#[derive(Debug)]
pub struct WindowedArrivals {
    cfg: WindowConfig,
    state: ArrivalsState,
    poisson: PoissonRuns,
}

impl WindowedArrivals {
    /// Create an accumulator with the given window configuration.
    pub fn new(cfg: WindowConfig) -> Self {
        let state = ArrivalsState {
            times: Vec::new(),
            window_index: 0,
            last_time: f64::NEG_INFINITY,
            total_events: 0,
        };
        let poisson = PoissonRuns::new(&cfg, 0.0);
        WindowedArrivals {
            cfg,
            state,
            poisson,
        }
    }

    /// Feed one arrival time (seconds, nondecreasing). Completed
    /// windows are analyzed and appended to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`WeblogError::Unsorted`] (at this accumulator's arrival
    /// index) for a time below the previous one or a NaN, and
    /// propagates estimator failures other than the expected
    /// too-little-data cases (which map to `None`/NA in the report).
    pub fn push(&mut self, t: f64, out: &mut Vec<WindowReport>) -> Result<()> {
        if t.is_nan() || t < self.state.last_time {
            let at = self.state.total_events as usize;
            return Err(WeblogError::Unsorted { at }.into());
        }
        self.state.last_time = t;
        // Close every window the stream has moved past (quiet stretches
        // produce empty windows, which are reported as such).
        while self.would_close(t) {
            out.push(self.close_window()?);
        }
        if t >= self.window_start() {
            self.state.times.push(t);
            self.state.total_events += 1;
            self.poisson.pushed(&self.state.times, t);
        }
        Ok(())
    }

    /// Analyze the trailing partial window if it is at least half
    /// covered, then reset. Returns the final report, if any.
    ///
    /// # Errors
    ///
    /// Propagates unexpected estimator failures, as in
    /// [`WindowedArrivals::push`].
    pub fn finish(&mut self, out: &mut Vec<WindowReport>) -> Result<()> {
        let covered = self.state.last_time - self.window_start();
        if !self.state.times.is_empty() && covered >= self.cfg.window_len / 2.0 {
            out.push(self.close_window()?);
        }
        Ok(())
    }

    /// Would an arrival at time `t` close the current window? A cheap
    /// pre-check (one comparison) the engine uses to decide whether to
    /// time the window section for the flight recorder before paying
    /// for any timestamps.
    pub fn would_close(&self, t: f64) -> bool {
        t >= (self.state.window_index + 1) as f64 * self.cfg.window_len
    }

    /// Total arrivals accepted so far.
    pub fn total_events(&self) -> u64 {
        self.state.total_events
    }

    /// Export the accumulator's mutable state for checkpointing.
    pub fn export_state(&self) -> ArrivalsState {
        self.state.clone()
    }

    /// Rebuild an accumulator from a configuration plus exported state;
    /// the open window's Poisson work is redone from its times, so the
    /// resumed stream spreads and tests exactly as an uninterrupted one.
    pub fn restore(cfg: WindowConfig, state: ArrivalsState) -> Self {
        let start = state.window_index as f64 * cfg.window_len;
        let mut poisson = PoissonRuns::new(&cfg, start);
        // What the pushes did depends only on how far the last one
        // reached: the same seconds spread, the same subintervals tested.
        if let Some(&last) = state.times.last() {
            poisson.pushed(&state.times, last);
        }
        WindowedArrivals {
            cfg,
            state,
            poisson,
        }
    }

    fn window_start(&self) -> f64 {
        self.state.window_index as f64 * self.cfg.window_len
    }

    /// Variance-time fit of the window's counts at bins of `width`
    /// seconds, read from the arrivals' (sorted) bin indices.
    fn variance_time(&self, width: f64) -> Option<VarianceTimeFit> {
        let n = (self.cfg.window_len / width).ceil().max(1.0) as usize;
        let start = self.window_start();
        let bins: Vec<usize> = (self.state.times.iter())
            .map(|&t| (((t - start) / width) as usize).min(n - 1))
            .collect();
        variance_time_events(&bins, n).ok()
    }

    fn close_window(&mut self) -> Result<WindowReport> {
        let _span = webpuzzle_obs::span!("stream/window_analysis");
        let start = self.window_start();
        let vt = self.variance_time(self.cfg.bin_width);
        let h_variance_time = vt.as_ref().map(|d| d.estimate.h);
        let h_ci_half_width = vt.as_ref().map(|d| d.h_ci_half_width);
        let h_r_squared = vt.as_ref().map(|d| d.fit.r_squared);
        let h_points = vt.as_ref().map_or(0, |d| d.points as u64);
        let h_variance_time_fine = (self.cfg.fine_bin_width)
            .and_then(|width| self.variance_time(width))
            .map(|d| d.estimate.h);
        let verdict = |o: Option<PoissonTestOutcome>| {
            o.map_or(PoissonVerdict::NotApplicable, |o| o.verdict())
        };
        let [hourly, ten_min] = self.poisson.outcomes(&self.state.times)?;
        let (poisson_hourly, poisson_ten_min) = (verdict(hourly), verdict(ten_min));

        let report = WindowReport {
            index: self.state.window_index,
            start,
            events: self.state.times.len() as u64,
            h_variance_time,
            h_ci_half_width,
            h_r_squared,
            h_points,
            h_variance_time_fine,
            poisson_hourly,
            poisson_ten_min,
        };

        self.state.times.clear();
        self.state.window_index += 1;
        self.poisson = PoissonRuns::new(&self.cfg, self.window_start());
        Ok(report)
    }

    /// What the close would report for the Poisson battery on the open
    /// window's times so far, leaving the window as it is.
    #[cfg(test)]
    fn poisson_outcomes(&self) -> Result<[Option<PoissonTestOutcome>; 2]> {
        self.poisson.clone().outcomes(&self.state.times)
    }
}

/// The §4.2 Poisson battery of one window, run while the window is
/// open. When a new second's floor reaches the end of a subinterval,
/// the finished seconds not yet spread are spread (one [`TieSpreader`]
/// per window, seeded as `core::spread_ties` seeds it and drawing in
/// time order, so the offsets are those of spreading the whole window
/// at once), and every subinterval the second has moved past is tested
/// on its slice of the window's gaps. Results, errors included, are
/// held for the close. A push that reaches no edge costs one
/// comparison.
#[derive(Debug, Clone)]
struct PoissonRuns {
    spreader: TieSpreader,
    /// The window's times already spread: whole seconds only.
    spread_from: usize,
    /// Spread times of those seconds, and the gaps between consecutive
    /// ones (`gaps[k] = spread[k + 1] − spread[k]`).
    spread: Vec<f64>,
    gaps: Vec<f64>,
    /// Hourly, then ten-minute subintervals.
    grains: [Grain; 2],
    /// The nearer of the grains' edges.
    next_edge: f64,
}

impl PoissonRuns {
    /// The battery of the window that starts at `start`.
    fn new(cfg: &WindowConfig, start: f64) -> Self {
        let floor = cfg.min_poisson_arrivals.max(MIN_SUBINTERVAL_ARRIVALS);
        let grain = |sub_len: f64| {
            let subdivision = Subdivision::new(
                start,
                cfg.window_len,
                ((cfg.window_len / sub_len).round() as usize).max(2),
            );
            Grain {
                edge: subdivision.as_ref().map_or(f64::NAN, |s| s.first_time(1)),
                subdivision,
                floor,
                finished: 0,
                tests: Vec::new(),
                error: None,
                not_applicable: false,
            }
        };
        let grains = [grain(3_600.0), grain(600.0)];
        PoissonRuns {
            spreader: TieSpreader::new(TieSpreading::Uniform, cfg.seed),
            spread_from: 0,
            spread: Vec::new(),
            gaps: Vec::new(),
            next_edge: grains[0].edge.min(grains[1].edge),
            grains,
        }
    }

    /// The window's `times` (nondecreasing) just gained `t`.
    fn pushed(&mut self, times: &[f64], t: f64) {
        // The floor can only reach an edge the time has reached.
        if t >= self.next_edge && t.floor() >= self.next_edge {
            self.test_before(times, t.floor());
        }
    }

    /// Spread the arrivals of the seconds before `second` and test every
    /// subinterval that ends at or before it: every spread time to come
    /// is at least `second`.
    fn test_before(&mut self, times: &[f64], second: f64) {
        let rest = &times[self.spread_from..];
        let done = rest.partition_point(|t| t.floor() < second);
        let from = self.spread.len();
        for tied in rest[..done].chunk_by(|a, b| a.floor() == b.floor()) {
            (self.spreader).spread_second(tied[0].floor(), tied.len(), &mut self.spread);
        }
        self.spread_from += done;
        for k in from.max(1)..self.spread.len() {
            self.gaps.push(self.spread[k] - self.spread[k - 1]);
        }
        for grain in &mut self.grains {
            grain.test_before(second, &self.spread, &self.gaps);
        }
        self.next_edge = self.grains[0].edge.min(self.grains[1].edge);
    }

    /// Finish the window of `times`: spread its last seconds, test its
    /// remaining subintervals, and pool each granularity (`None` where
    /// too few arrivals make it not applicable).
    fn outcomes(&mut self, times: &[f64]) -> Result<[Option<PoissonTestOutcome>; 2]> {
        self.test_before(times, f64::INFINITY);
        let [hourly, ten_min] = &self.grains;
        Ok([hourly.outcome()?, ten_min.outcome()?])
    }
}

/// One subdivision of a [`PoissonRuns`] window.
#[derive(Debug, Clone)]
struct Grain {
    subdivision: std::result::Result<Subdivision, StatsError>,
    /// Fewest arrivals a subinterval may hold (the NA rule).
    floor: usize,
    /// Subintervals the stream has moved past.
    finished: usize,
    /// The first time past subinterval `finished`: a second at or after
    /// it finishes that subinterval.
    edge: f64,
    /// Their tests, in order, up to the first failure.
    tests: Vec<SubintervalTest>,
    error: Option<StatsError>,
    /// A finished subinterval holds too few arrivals: the window is NA
    /// at this granularity, and nothing further is tested.
    not_applicable: bool,
}

impl Grain {
    /// Test every subinterval that ends at or before time `t`.
    fn test_before(&mut self, t: f64, spread: &[f64], gaps: &[f64]) {
        // The edge is NaN, and never reached, once nothing is left to
        // test: past the last subinterval, after an NA one, or without
        // a valid subdivision.
        while t >= self.edge {
            let Ok(subdivision) = self.subdivision else {
                return;
            };
            let range = subdivision.range(spread, self.finished);
            self.finished += 1;
            self.edge = if self.finished < subdivision.count() {
                subdivision.first_time(self.finished + 1)
            } else {
                f64::NAN
            };
            if range.len() < self.floor {
                self.not_applicable = true;
                self.edge = f64::NAN;
            } else if self.error.is_none() {
                match SubintervalTest::run(&gaps[range.start..range.end - 1]) {
                    Ok(test) => self.tests.push(test),
                    Err(e) => self.error = Some(e),
                }
            }
        }
    }

    /// The pooled outcome once every subinterval is finished, with the
    /// errors `core::poisson_test_spread` raises, in its order: the
    /// subdivision's, then NA before any test's, then the first test's.
    fn outcome(&self) -> Result<Option<PoissonTestOutcome>> {
        self.subdivision.clone()?;
        if self.not_applicable {
            return Ok(None);
        }
        if let Some(e) = &self.error {
            return Err(e.clone().into());
        }
        Ok(Some(PoissonTestOutcome::combine(
            &self.tests,
            TieSpreading::Uniform,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_core::poisson_arrival_test;
    use webpuzzle_lrd::variance_time_detailed;
    use webpuzzle_stats::dist::{Exponential, Sampler};

    fn cfg(window_len: f64) -> WindowConfig {
        WindowConfig {
            window_len,
            bin_width: 1.0,
            fine_bin_width: None,
            min_poisson_arrivals: 20,
            seed: 3,
        }
    }

    /// Poisson arrivals at `rate`/s over `[0, horizon)`.
    fn poisson_times(rate: f64, horizon: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = Exponential::new(rate).unwrap();
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += exp.sample(&mut rng);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn windows_close_at_boundaries() {
        let mut w = WindowedArrivals::new(cfg(3_600.0));
        let mut out = Vec::new();
        for t in poisson_times(2.0, 9_000.0, 1) {
            w.push(t, &mut out).unwrap();
        }
        // 9000 s = 2 full hours + a 0.5-hour stub (< half: dropped).
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 0);
        assert_eq!(out[1].start, 3_600.0);
        assert!(out.iter().all(|r| r.events > 6_000));
    }

    #[test]
    fn true_poisson_stream_passes_the_battery() {
        let mut w = WindowedArrivals::new(cfg(14_400.0));
        let mut out = Vec::new();
        for t in poisson_times(1.5, 14_400.0, 17) {
            w.push(t, &mut out).unwrap();
        }
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].poisson_hourly, PoissonVerdict::ConsistentWithPoisson);
        // Poisson counts are i.i.d.: variance-time H near 1/2.
        let h = out[0].h_variance_time.expect("14400 bins is plenty");
        assert!((h - 0.5).abs() < 0.12, "H = {h}");
        // The regression diagnostics ride along with the estimate.
        let half = out[0].h_ci_half_width.expect("fit carries a CI");
        assert!(half > 0.0 && half < 0.5, "half = {half}");
        let r2 = out[0].h_r_squared.expect("fit carries R²");
        assert!((0.0..=1.0).contains(&r2), "R² = {r2}");
        assert!(out[0].h_points >= 3);
    }

    #[test]
    fn poisson_outcomes_are_the_batch_test_on_the_windows_times() {
        let mut w = WindowedArrivals::new(cfg(14_400.0));
        let mut out = Vec::new();
        // Whole-second times, as CLF gives: the tie spreading matters.
        let times: Vec<f64> = poisson_times(1.5, 2.0 * 14_400.0, 23)
            .into_iter()
            .map(f64::floor)
            .collect();
        let split = times.partition_point(|&t| t < 14_400.0);
        for (window, part) in [&times[..split], &times[split..]].into_iter().enumerate() {
            for &t in part {
                w.push(t, &mut out).unwrap();
            }
            let start = window as f64 * 14_400.0;
            let batch = |subs| {
                poisson_arrival_test(part, start, 14_400.0, subs, TieSpreading::Uniform, 20, 3)
                    .unwrap()
            };
            let [hourly, ten_min] = w.poisson_outcomes().unwrap();
            assert_eq!(hourly, batch(4), "window {window}");
            assert_eq!(ten_min, batch(24), "window {window}");
            assert!(hourly.is_some() && ten_min.is_some());
        }
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_window_has_no_fit_diagnostics() {
        let mut w = WindowedArrivals::new(cfg(600.0));
        let mut out = Vec::new();
        w.push(5.0, &mut out).unwrap();
        // Jump two windows ahead: window 1 closes empty (all-zero ring
        // → degenerate variance-time input).
        w.push(1_300.0, &mut out).unwrap();
        assert_eq!(out[1].events, 0);
        assert!(out[1].h_variance_time.is_none());
        assert!(out[1].h_ci_half_width.is_none());
        assert!(out[1].h_r_squared.is_none());
        assert_eq!(out[1].h_points, 0);
    }

    #[test]
    fn quiet_windows_are_na_and_empty_windows_report_zero() {
        let mut w = WindowedArrivals::new(cfg(600.0));
        let mut out = Vec::new();
        w.push(5.0, &mut out).unwrap();
        w.push(10.0, &mut out).unwrap();
        // Jump three windows ahead: windows 0..=2 close, 1 and 2 empty.
        w.push(1_900.0, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].events, 2);
        assert_eq!(out[0].poisson_hourly, PoissonVerdict::NotApplicable);
        assert_eq!(out[1].events, 0);
        assert_eq!(out[2].events, 0);
    }

    #[test]
    fn state_round_trip_closes_identical_windows() {
        let times = poisson_times(2.0, 9_500.0, 11);
        let split = times.len() / 3;

        let mut whole = WindowedArrivals::new(cfg(3_600.0));
        let mut whole_out = Vec::new();
        for &t in &times {
            whole.push(t, &mut whole_out).unwrap();
        }
        whole.finish(&mut whole_out).unwrap();

        let mut first = WindowedArrivals::new(cfg(3_600.0));
        let mut split_out = Vec::new();
        for &t in &times[..split] {
            first.push(t, &mut split_out).unwrap();
        }
        let state = first.export_state();
        let mut second = WindowedArrivals::restore(cfg(3_600.0), state.clone());
        assert_eq!(second.export_state(), state);
        for &t in &times[split..] {
            second.push(t, &mut split_out).unwrap();
        }
        second.finish(&mut split_out).unwrap();

        assert_eq!(split_out, whole_out);
        assert_eq!(second.total_events(), whole.total_events());

        // Whole-second times in a 4-hour window, with a tied second on
        // every ten-minute edge: split at every record within ±3 of
        // each edge, some of them inside a tied second.
        let cfg = cfg(14_400.0);
        let mut times: Vec<f64> = poisson_times(0.5, 14_460.0, 5)
            .into_iter()
            .map(f64::floor)
            .collect();
        for edge in (1..=24).map(|e| e as f64 * 600.0) {
            times.extend([edge - 1.0, edge, edge, edge]);
        }
        times.sort_by(f64::total_cmp);
        let run = |w: &mut WindowedArrivals, times: &[f64], out: &mut Vec<WindowReport>| {
            for &t in times {
                w.push(t, out).unwrap();
            }
        };
        let mut whole = WindowedArrivals::new(cfg.clone());
        let mut whole_out = Vec::new();
        run(&mut whole, &times, &mut whole_out);
        whole.finish(&mut whole_out).unwrap();
        assert_eq!(whole_out.len(), 1);
        assert_ne!(whole_out[0].poisson_ten_min, PoissonVerdict::NotApplicable);

        let mut splits: Vec<usize> = (0..=24)
            .flat_map(|e| {
                let at = times.partition_point(|&t| t < e as f64 * 600.0);
                at.saturating_sub(3)..=(at + 3).min(times.len())
            })
            .collect();
        splits.dedup();
        let tied = |&k: &usize| k > 0 && k < times.len() && times[k] == times[k - 1];
        assert!(splits.iter().filter(|k| tied(k)).count() >= 24);
        let (mut first, mut first_out, mut done) =
            (WindowedArrivals::new(cfg.clone()), Vec::new(), 0);
        for k in splits {
            run(&mut first, &times[done..k], &mut first_out);
            done = k;
            let mut second = WindowedArrivals::restore(cfg.clone(), first.export_state());
            let mut out = first_out.clone();
            run(&mut second, &times[k..], &mut out);
            second.finish(&mut out).unwrap();
            assert_eq!(out, whole_out, "split at record {k}");
        }
    }

    #[test]
    fn a_window_with_five_arrivals_in_a_subinterval_is_na() {
        // Five arrivals are four gaps, one short of Anderson–Darling's
        // five: the window is NA, not a failed close.
        let mut w = WindowedArrivals::new(WindowConfig {
            min_poisson_arrivals: 5,
            ..cfg(600.0)
        });
        let mut out = Vec::new();
        let sparse = [10.0, 50.0, 100.0, 150.0, 200.0];
        let dense = (0..40).map(|i| 300.0 + 7.0 * i as f64);
        for t in sparse.into_iter().chain(dense).chain([700.0]) {
            w.push(t, &mut out).unwrap();
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].poisson_hourly, PoissonVerdict::NotApplicable);
        assert_eq!(out[0].poisson_ten_min, PoissonVerdict::NotApplicable);
    }

    #[test]
    fn subinterval_errors_surface_at_the_close_after_the_na_rule() {
        // Past 2^53 every float is an even integer: a second's spread
        // times collapse onto it, so a subinterval's gaps are constant
        // and its lag-1 autocorrelation is undefined, a test error.
        let cfg = WindowConfig {
            min_poisson_arrivals: 6,
            ..cfg(600.0)
        };
        let index = 15_012_000_000_000u64;
        let start = index as f64 * 600.0;
        assert!(start > 2f64.powi(53));
        for (later, fails) in [(20, true), (3, false)] {
            // Ten ties in subinterval 0, then `later` arrivals in
            // subinterval 1: too few of them make the window NA, and NA
            // is decided before any test's error is raised.
            let times: Vec<f64> = (std::iter::repeat_n(start, 10))
                .chain((0..later).map(|i| start + 300.0 + 2.0 * i as f64))
                .collect();
            let batch = poisson_arrival_test(&times, start, 600.0, 2, TieSpreading::Uniform, 6, 3);
            assert_eq!(batch.is_err(), fails);
            let state = ArrivalsState {
                times: Vec::new(),
                window_index: index,
                last_time: start,
                total_events: 0,
            };
            let mut w = WindowedArrivals::restore(cfg.clone(), state);
            let mut out = Vec::new();
            // Pushes past subinterval 0's edge hold its error back.
            for &t in &times {
                w.push(t, &mut out).unwrap();
            }
            let closed = w.push(start + 600.0, &mut out);
            assert_eq!(closed.is_err(), fails, "{later} later arrivals");
            if !fails {
                assert_eq!(out[0].poisson_hourly, PoissonVerdict::NotApplicable);
            }
        }
    }

    #[test]
    fn fine_ring_reports_when_enabled() {
        let mut w = WindowedArrivals::new(WindowConfig {
            window_len: 600.0,
            bin_width: 1.0,
            fine_bin_width: Some(0.1),
            min_poisson_arrivals: 20,
            seed: 0,
        });
        let mut out = Vec::new();
        // Whole-second bursts, as CLF timestamps give.
        let times: Vec<f64> = poisson_times(5.0, 1_200.0, 9)
            .into_iter()
            .map(f64::floor)
            .collect();
        for &t in &times {
            w.push(t, &mut out).unwrap();
        }
        // The exported state holds the open window's times and no counts.
        let split = times.partition_point(|&t| t < 600.0);
        assert_eq!(w.export_state().times, &times[split..]);
        w.finish(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].h_variance_time_fine.is_some());
        // Both readings equal those of the window's dense count rings.
        for (r, window) in out.iter().zip([&times[..split], &times[split..]]) {
            let ring = |width: f64| {
                let n = (600.0 / width).ceil() as usize;
                let mut ring = vec![0.0; n];
                for &t in window {
                    ring[(((t - r.start) / width) as usize).min(n - 1)] += 1.0;
                }
                variance_time_detailed(&ring).unwrap()
            };
            let (coarse, fine) = (ring(1.0), ring(0.1));
            assert_eq!(r.h_variance_time, Some(coarse.estimate.h));
            assert_eq!(r.h_ci_half_width, Some(coarse.h_ci_half_width));
            assert_eq!(r.h_r_squared, Some(coarse.fit.r_squared));
            assert_eq!(r.h_points, coarse.points as u64);
            assert_eq!(r.h_variance_time_fine, Some(fine.estimate.h));
        }
    }

    #[test]
    fn out_of_order_and_nan_times_are_refused() {
        let mut w = WindowedArrivals::new(cfg(600.0));
        let mut out = Vec::new();
        for t in [1.0, 2.0, 2.0] {
            w.push(t, &mut out).unwrap();
        }
        for t in [1.5, f64::NAN] {
            let err = w.push(t, &mut out).unwrap_err();
            assert!(
                matches!(err, StreamError::Weblog(WeblogError::Unsorted { at: 3 })),
                "{t}"
            );
        }
        w.push(3.0, &mut out).unwrap();
        assert_eq!(w.total_events(), 4);
    }
}
