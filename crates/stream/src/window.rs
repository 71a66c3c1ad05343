//! Windowed arrival analysis: the existing variance-time estimator and
//! §4.2 Poisson battery, window by window.
//!
//! The batch pipeline bins a whole week of arrivals at once; here a
//! fixed analysis window (default: the paper's 4-hour interval) keeps
//! the raw arrival times of the *current window only*. At a window
//! boundary each time maps to its per-second (and per-10-ms) bin, and
//! [`variance_time_events`] reads those bin indices bit for bit as the
//! dense counts would read. Memory is `O(window arrivals)` — nothing
//! outlives its window except the small [`WindowReport`] per window.

use crate::Result;
use serde::{Deserialize, Serialize};
use webpuzzle_core::{poisson_test_spread, spread_ties, PoissonVerdict, TieSpreading};
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
    /// Minimum arrivals per Poisson subinterval; below it the window
    /// verdict is NA (the paper's NASA-Pub2 situation).
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
/// window, which the estimators read when it eventually closes.
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
        WindowedArrivals { cfg, state }
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

    /// Rebuild an accumulator from a configuration plus exported state.
    pub fn restore(cfg: WindowConfig, state: ArrivalsState) -> Self {
        WindowedArrivals { cfg, state }
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
        let spread = spread_ties(&self.state.times, TieSpreading::Uniform, self.cfg.seed);
        let poisson_hourly = self.poisson_verdict(&spread, start, 3_600.0)?;
        let poisson_ten_min = self.poisson_verdict(&spread, start, 600.0)?;

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
        Ok(report)
    }

    /// §4.2 verdict at subintervals of about `sub_len` seconds, on the
    /// window's uniformly tie-spread times.
    fn poisson_verdict(&self, spread: &[f64], start: f64, sub_len: f64) -> Result<PoissonVerdict> {
        if spread.is_empty() {
            return Ok(PoissonVerdict::NotApplicable);
        }
        let outcome = poisson_test_spread(
            spread,
            start,
            self.cfg.window_len,
            ((self.cfg.window_len / sub_len).round() as usize).max(2),
            TieSpreading::Uniform,
            self.cfg.min_poisson_arrivals,
        )?;
        Ok(outcome.map_or(PoissonVerdict::NotApplicable, |o| o.verdict()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
