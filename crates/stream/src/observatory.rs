//! Online drift detection over the per-window estimates of the
//! streaming engine.
//!
//! The paper treats nonstationarity as a one-shot preprocessing step
//! (KPSS check, trend removal, 24 h seasonal differencing, §3). A
//! long-running analyzer has to watch for it *continuously*: a regime
//! change silently invalidates every H and α estimate computed across
//! it. This module turns the per-window outputs of
//! [`crate::engine::StreamAnalyzer`] into change-point alarms using
//! three classical sequential detectors:
//!
//! * **CUSUM** (Page 1954) — two one-sided cumulative sums of the
//!   standardized deviation, `S⁺ = max(0, S⁺ + z − k)` and
//!   `S⁻ = max(0, S⁻ − z − k)`, alarm when either reaches `h`.
//!   Optimal-ish for detecting a sustained mean shift.
//! * **Page–Hinkley** — cumulative sum of `z` minus a drift allowance,
//!   compared against its running extremum; alarm when the gap reaches
//!   `λ`. A cheaper cousin of CUSUM that tolerates slow wander.
//! * **EWMA control bands** (Roberts 1959) — exponentially weighted
//!   moving average of `z` against `± L·σ_ewma` limits, where
//!   `σ_ewma = √(λ/(2−λ))` for standardized input. Sensitive to small
//!   persistent shifts in the tail-index and Hurst channels where a
//!   single-window excursion is noise.
//!
//! All detectors standardize against a **self-starting running
//! baseline**: after [`ObservatoryConfig::warmup_windows`] values, each
//! point is z-scored against the running Welford mean/σ of everything
//! seen before it, then joins the baseline (the private `Baseline`
//! type's docs say why freezing the warmup statistics instead would
//! integrate their estimation error into false alarms). On alarm a
//! detector **re-baselines** (warmup restarts) — this is the reset/hysteresis
//! rule: one regime change produces one alarm, not an alarm every
//! window until the end of the stream.
//!
//! The arrival-rate channel is log-scaled and then **seasonally
//! differenced** (`x_t − x_{t−p}`, `p` = windows per 24 h), mirroring
//! the paper's §3 preprocessing: the diurnal cycle is the dominant
//! nonstationarity in every trace the paper studies, and without
//! differencing it would both inflate the baseline σ and trip the
//! detectors every morning.
//!
//! Severity is two-level: a score at or above the threshold is
//! [`Severity::Warn`]; at or above **twice** the threshold it escalates
//! to [`Severity::Critical`].

use std::collections::VecDeque;

use crate::online::Welford;
use serde::{Deserialize, Serialize};
use webpuzzle_obs::events::{Event, Severity};

/// Tuning of the drift observatory. Thresholds are in standardized
/// (z-score) units, so one configuration serves channels with wildly
/// different scales (requests/s vs. tail indices).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservatoryConfig {
    /// Windows used to (re)estimate a channel baseline before the
    /// detectors arm. Minimum 2 (σ needs two points).
    pub warmup_windows: u64,
    /// CUSUM reference value `k` (allowance per step, z units). The
    /// classical choice `k = δ/2` tunes for a shift of `δ` σ; 0.5
    /// targets one-σ shifts.
    pub cusum_k: f64,
    /// CUSUM alarm threshold `h` (z units).
    pub cusum_h: f64,
    /// Page–Hinkley drift allowance `δ` (z units).
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold `λ` (z units).
    pub ph_lambda: f64,
    /// EWMA smoothing factor `λ ∈ (0, 1]`.
    pub ewma_lambda: f64,
    /// EWMA control-band width `L` (multiples of the asymptotic EWMA
    /// standard deviation `√(λ/(2−λ))`).
    pub ewma_l: f64,
    /// Seasonal-differencing period for the arrival-rate channel, in
    /// windows. `None` = derive from the window length (≈ 24 h / len,
    /// the paper's seasonal lag); `Some(0)` or `Some(1)` disables
    /// differencing.
    pub seasonal_period: Option<u64>,
    /// Floor on the baseline σ, guarding the z-score against a
    /// degenerate (constant) warmup.
    pub min_baseline_std: f64,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        ObservatoryConfig {
            warmup_windows: 12,
            cusum_k: 0.5,
            cusum_h: 6.0,
            ph_delta: 0.25,
            ph_lambda: 15.0,
            ewma_lambda: 0.25,
            ewma_l: 3.5,
            seasonal_period: None,
            min_baseline_std: 1e-9,
        }
    }
}

/// Per-window inputs to the observatory, assembled by the engine when a
/// request window closes.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowObservation {
    /// Zero-based window index.
    pub index: u64,
    /// Window start, stream seconds.
    pub start: f64,
    /// Mean arrival rate over the window, events/s.
    pub rate: f64,
    /// Mean response size over the window's records, bytes. `None` for
    /// empty windows (quiet stretches close windows with no records).
    pub bytes_mean: Option<f64>,
    /// Incremental Hill tail index of session bytes at window close.
    pub hill_alpha: Option<f64>,
    /// Variance-time Hurst estimate of the window's arrival counts
    /// (the variance-time slope is `2H − 2`, so watching H watches the
    /// slope).
    pub h_variance_time: Option<f64>,
}

/// Alarm counts for one (detector, metric) channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelAlarms {
    /// Detector name (`"cusum"`, `"page_hinkley"`, `"ewma"`).
    pub detector: String,
    /// Watched metric key.
    pub metric: String,
    /// Alarms fired on this channel.
    pub alarms: u64,
}

/// Aggregated drift results, embedded in the engine's
/// [`crate::engine::StreamSummary`] and the run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSummary {
    /// Windows observed.
    pub windows: u64,
    /// Total alarms across channels.
    pub alarms: u64,
    /// Alarms at [`Severity::Warn`].
    pub warn: u64,
    /// Alarms at [`Severity::Critical`].
    pub critical: u64,
    /// Index of the first alarming window, if any — the number compared
    /// against injected ground truth in detection-latency runs.
    pub first_alarm_window: Option<u64>,
    /// Per-channel alarm counts (only channels that fired).
    pub by_channel: Vec<ChannelAlarms>,
}

impl DriftSummary {
    fn empty() -> Self {
        DriftSummary {
            windows: 0,
            alarms: 0,
            warn: 0,
            critical: 0,
            first_alarm_window: None,
            by_channel: Vec::new(),
        }
    }
}

/// Checkpointed state of one running baseline (the private
/// `Baseline`): the running Welford accumulator plus the armed mean/σ
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineState {
    /// Welford sample count.
    pub n: u64,
    /// Welford running mean.
    pub mean: f64,
    /// Welford running sum of squared deviations.
    pub m2: f64,
    /// Last armed baseline mean.
    pub mu: f64,
    /// Last armed baseline σ.
    pub sigma: f64,
}

/// Checkpointed state of one CUSUM detector (the private `Cusum`).
#[derive(Debug, Clone, PartialEq)]
pub struct CusumState {
    /// Baseline state.
    pub baseline: BaselineState,
    /// Upper cumulative sum.
    pub s_pos: f64,
    /// Lower cumulative sum.
    pub s_neg: f64,
}

/// Checkpointed state of one Page–Hinkley detector (the private
/// `PageHinkley`).
#[derive(Debug, Clone, PartialEq)]
pub struct PageHinkleyState {
    /// Baseline state.
    pub baseline: BaselineState,
    /// Upward cumulative sum.
    pub m_up: f64,
    /// Running minimum of the upward sum.
    pub min_up: f64,
    /// Downward cumulative sum.
    pub m_dn: f64,
    /// Running maximum of the downward sum.
    pub max_dn: f64,
}

/// Checkpointed state of one EWMA-bands detector (the private
/// `EwmaBands`).
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaState {
    /// Baseline state.
    pub baseline: BaselineState,
    /// Current EWMA of the standardized input.
    pub ewma: f64,
}

/// Complete mutable state of a [`DriftObservatory`], for checkpointing.
/// Tuning constants (thresholds, λ, the seasonal period) are *not*
/// stored: restore rebuilds them from an [`ObservatoryConfig`], so the
/// checkpoint stays valid across tuning-default changes while the
/// detector positions carry over exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservatoryState {
    /// Buffered lag values of the seasonal differencer, oldest first.
    pub seasonal_history: Vec<f64>,
    /// Arrival-rate CUSUM.
    pub rate_cusum: CusumState,
    /// Arrival-rate Page–Hinkley.
    pub rate_ph: PageHinkleyState,
    /// Response-bytes CUSUM.
    pub bytes_cusum: CusumState,
    /// Response-bytes Page–Hinkley.
    pub bytes_ph: PageHinkleyState,
    /// Hill-α EWMA bands.
    pub alpha_ewma: EwmaState,
    /// Variance-time-H EWMA bands.
    pub hvt_ewma: EwmaState,
    /// Aggregated alarm counts so far.
    pub summary: DriftSummary,
}

/// One detector decision, before it becomes an [`Event`].
struct Alarm {
    before: f64,
    after: f64,
    score: f64,
    threshold: f64,
}

/// Self-starting baseline: collect `warmup` values, then emit z-scores
/// against the *running* mean/σ of everything seen so far — each point
/// is standardized by the statistics that exclude it. A frozen warmup
/// baseline would carry its estimation error forever (a 12-sample mean
/// is off by ~0.3 σ), and CUSUM integrates exactly that kind of bias
/// into slow false alarms; the running form is asymptotically unbiased
/// while still adapting too slowly (1/n per window) to absorb a real
/// shift before the detectors see it. [`Baseline::reset`] restarts the
/// warmup (the re-baseline half of the hysteresis rule).
#[derive(Debug)]
struct Baseline {
    warmup: u64,
    min_std: f64,
    acc: Welford,
    mu: f64,
    sigma: f64,
}

impl Baseline {
    fn new(warmup: u64, min_std: f64) -> Self {
        Baseline {
            warmup: warmup.max(2),
            min_std: min_std.max(f64::MIN_POSITIVE),
            acc: Welford::new(),
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Feed one value; `Some(z)` once the baseline is armed.
    fn standardize(&mut self, x: f64) -> Option<f64> {
        let armed = self.acc.count() >= self.warmup;
        if armed {
            let snap = self.acc.snapshot();
            self.mu = snap.mean;
            self.sigma = snap.variance.sqrt().max(self.min_std);
        }
        self.acc.push(x);
        if armed {
            Some((x - self.mu) / self.sigma)
        } else {
            None
        }
    }

    fn reset(&mut self) {
        self.acc = Welford::new();
    }

    fn export_state(&self) -> BaselineState {
        let (n, mean, m2) = self.acc.raw_parts();
        BaselineState {
            n,
            mean,
            m2,
            mu: self.mu,
            sigma: self.sigma,
        }
    }

    fn restore_state(&mut self, state: &BaselineState) {
        self.acc = Welford::from_raw_parts(state.n, state.mean, state.m2);
        self.mu = state.mu;
        self.sigma = state.sigma;
    }
}

/// Two-sided standardized CUSUM with re-baseline on alarm.
#[derive(Debug)]
struct Cusum {
    baseline: Baseline,
    k: f64,
    h: f64,
    s_pos: f64,
    s_neg: f64,
}

impl Cusum {
    fn new(cfg: &ObservatoryConfig) -> Self {
        Cusum {
            baseline: Baseline::new(cfg.warmup_windows, cfg.min_baseline_std),
            k: cfg.cusum_k,
            h: cfg.cusum_h,
            s_pos: 0.0,
            s_neg: 0.0,
        }
    }

    fn step(&mut self, x: f64) -> Option<Alarm> {
        let z = self.baseline.standardize(x)?;
        self.s_pos = (self.s_pos + z - self.k).max(0.0);
        self.s_neg = (self.s_neg - z - self.k).max(0.0);
        let score = self.s_pos.max(self.s_neg);
        if score >= self.h {
            let alarm = Alarm {
                before: self.baseline.mu,
                after: x,
                score,
                threshold: self.h,
            };
            self.s_pos = 0.0;
            self.s_neg = 0.0;
            self.baseline.reset();
            return Some(alarm);
        }
        None
    }

    fn export_state(&self) -> CusumState {
        CusumState {
            baseline: self.baseline.export_state(),
            s_pos: self.s_pos,
            s_neg: self.s_neg,
        }
    }

    fn restore_state(&mut self, state: &CusumState) {
        self.baseline.restore_state(&state.baseline);
        self.s_pos = state.s_pos;
        self.s_neg = state.s_neg;
    }
}

/// Two-sided standardized Page–Hinkley with re-baseline on alarm.
#[derive(Debug)]
struct PageHinkley {
    baseline: Baseline,
    delta: f64,
    lambda: f64,
    m_up: f64,
    min_up: f64,
    m_dn: f64,
    max_dn: f64,
}

impl PageHinkley {
    fn new(cfg: &ObservatoryConfig) -> Self {
        PageHinkley {
            baseline: Baseline::new(cfg.warmup_windows, cfg.min_baseline_std),
            delta: cfg.ph_delta,
            lambda: cfg.ph_lambda,
            m_up: 0.0,
            min_up: 0.0,
            m_dn: 0.0,
            max_dn: 0.0,
        }
    }

    fn step(&mut self, x: f64) -> Option<Alarm> {
        let z = self.baseline.standardize(x)?;
        self.m_up += z - self.delta;
        self.min_up = self.min_up.min(self.m_up);
        self.m_dn += z + self.delta;
        self.max_dn = self.max_dn.max(self.m_dn);
        let score = (self.m_up - self.min_up).max(self.max_dn - self.m_dn);
        if score >= self.lambda {
            let alarm = Alarm {
                before: self.baseline.mu,
                after: x,
                score,
                threshold: self.lambda,
            };
            self.m_up = 0.0;
            self.min_up = 0.0;
            self.m_dn = 0.0;
            self.max_dn = 0.0;
            self.baseline.reset();
            return Some(alarm);
        }
        None
    }

    fn export_state(&self) -> PageHinkleyState {
        PageHinkleyState {
            baseline: self.baseline.export_state(),
            m_up: self.m_up,
            min_up: self.min_up,
            m_dn: self.m_dn,
            max_dn: self.max_dn,
        }
    }

    fn restore_state(&mut self, state: &PageHinkleyState) {
        self.baseline.restore_state(&state.baseline);
        self.m_up = state.m_up;
        self.min_up = state.min_up;
        self.m_dn = state.m_dn;
        self.max_dn = state.max_dn;
    }
}

/// EWMA of the standardized value against `± L·√(λ/(2−λ))` control
/// bands, re-baselining on alarm.
#[derive(Debug)]
struct EwmaBands {
    baseline: Baseline,
    lambda: f64,
    limit: f64,
    ewma: f64,
}

impl EwmaBands {
    fn new(cfg: &ObservatoryConfig) -> Self {
        let lambda = cfg.ewma_lambda.clamp(1e-6, 1.0);
        EwmaBands {
            baseline: Baseline::new(cfg.warmup_windows, cfg.min_baseline_std),
            lambda,
            limit: cfg.ewma_l * (lambda / (2.0 - lambda)).sqrt(),
            ewma: 0.0,
        }
    }

    fn step(&mut self, x: f64) -> Option<Alarm> {
        let z = self.baseline.standardize(x)?;
        self.ewma = self.lambda * z + (1.0 - self.lambda) * self.ewma;
        let score = self.ewma.abs();
        if score >= self.limit {
            let alarm = Alarm {
                before: self.baseline.mu,
                after: x,
                score,
                threshold: self.limit,
            };
            self.ewma = 0.0;
            self.baseline.reset();
            return Some(alarm);
        }
        None
    }

    fn export_state(&self) -> EwmaState {
        EwmaState {
            baseline: self.baseline.export_state(),
            ewma: self.ewma,
        }
    }

    fn restore_state(&mut self, state: &EwmaState) {
        self.baseline.restore_state(&state.baseline);
        self.ewma = state.ewma;
    }
}

/// Seasonal differencer: `x_t − x_{t−p}` once `p` values are buffered;
/// pass-through when the period is `< 2`.
#[derive(Debug)]
struct SeasonalDiff {
    period: usize,
    history: VecDeque<f64>,
}

impl SeasonalDiff {
    fn new(period: usize) -> Self {
        SeasonalDiff {
            period,
            history: VecDeque::with_capacity(period),
        }
    }

    fn diff(&mut self, x: f64) -> Option<f64> {
        if self.period < 2 {
            return Some(x);
        }
        self.history.push_back(x);
        if self.history.len() > self.period {
            let lagged = self.history.pop_front().expect("non-empty after push");
            Some(x - lagged)
        } else {
            None
        }
    }
}

/// The drift observatory: four watched channels, six detector
/// instances, one [`DriftSummary`].
///
/// | channel | source | detectors |
/// |---|---|---|
/// | `request_rate` | window arrivals / window length, log-scaled then seasonally differenced | CUSUM + Page–Hinkley |
/// | `response_bytes_mean` | per-window Welford mean of record sizes, watched on a log scale | CUSUM + Page–Hinkley |
/// | `hill_alpha/session_bytes` | incremental Hill α at window close | EWMA bands |
/// | `h_variance_time` | per-window variance-time H | EWMA bands |
///
/// [`DriftObservatory::observe`] returns ready-to-publish [`Event`]s;
/// the caller decides whether they reach a run's events (the engine
/// publishes them, unit tests inspect them directly).
#[derive(Debug)]
pub struct DriftObservatory {
    seasonal: SeasonalDiff,
    rate_cusum: Cusum,
    rate_ph: PageHinkley,
    bytes_cusum: Cusum,
    bytes_ph: PageHinkley,
    alpha_ewma: EwmaBands,
    hvt_ewma: EwmaBands,
    summary: DriftSummary,
}

impl DriftObservatory {
    /// Build an observatory. `window_len` (seconds) sizes the automatic
    /// seasonal period: `round(86 400 / window_len)` windows, the
    /// paper's 24 h lag — 6 for the default 4 h windows. An explicit
    /// [`ObservatoryConfig::seasonal_period`] overrides it.
    pub fn new(cfg: &ObservatoryConfig, window_len: f64) -> Self {
        let period = match cfg.seasonal_period {
            Some(p) => p as usize,
            None => {
                let auto = (86_400.0 / window_len.max(1.0)).round() as usize;
                if auto >= 2 {
                    auto
                } else {
                    0
                }
            }
        };
        DriftObservatory {
            seasonal: SeasonalDiff::new(period),
            rate_cusum: Cusum::new(cfg),
            rate_ph: PageHinkley::new(cfg),
            bytes_cusum: Cusum::new(cfg),
            bytes_ph: PageHinkley::new(cfg),
            alpha_ewma: EwmaBands::new(cfg),
            hvt_ewma: EwmaBands::new(cfg),
            summary: DriftSummary::empty(),
        }
    }

    /// The seasonal-differencing period in effect (0 = disabled).
    pub fn seasonal_period(&self) -> usize {
        self.seasonal.period
    }

    /// Feed one closed window; returns the alarms it raised as
    /// ready-to-publish events (empty almost always).
    pub fn observe(&mut self, obs: &WindowObservation) -> Vec<Event> {
        self.summary.windows += 1;
        let mut events = Vec::new();

        // The rate is watched on a log scale: LRD arrival counts have
        // multiplicative bursts (a single window can run 3× the mean on
        // stationary fGn traffic), and the log turns those into bounded
        // additive excursions while a sustained rate change stays a
        // sustained level shift. Alarm before/after stay in the
        // detector's working domain (log, then seasonally differenced).
        if let Some(deseasoned) = self.seasonal.diff(obs.rate.max(0.0).ln_1p()) {
            if let Some(a) = self.rate_cusum.step(deseasoned) {
                events.push(make_event("cusum", "request_rate", obs, &a));
            }
            if let Some(a) = self.rate_ph.step(deseasoned) {
                events.push(make_event("page_hinkley", "request_rate", obs, &a));
            }
        }
        if let Some(bytes_mean) = obs.bytes_mean {
            // Window means of bounded-Pareto sizes are heavy-tailed
            // themselves — one giant transfer moves the raw mean 5×
            // and trips CUSUM on perfectly stationary traffic. The log
            // keeps sustained (multiplicative) shifts visible while a
            // single-window excursion contributes only one bounded z.
            // Alarm before/after are mapped back to bytes for events.
            let x = bytes_mean.max(0.0).ln_1p();
            let delog = |mut a: Alarm| {
                a.before = a.before.exp_m1();
                a.after = a.after.exp_m1();
                a
            };
            if let Some(a) = self.bytes_cusum.step(x) {
                events.push(make_event("cusum", "response_bytes_mean", obs, &delog(a)));
            }
            if let Some(a) = self.bytes_ph.step(x) {
                events.push(make_event(
                    "page_hinkley",
                    "response_bytes_mean",
                    obs,
                    &delog(a),
                ));
            }
        }
        if let Some(alpha) = obs.hill_alpha {
            if let Some(a) = self.alpha_ewma.step(alpha) {
                events.push(make_event("ewma", "hill_alpha/session_bytes", obs, &a));
            }
        }
        if let Some(h) = obs.h_variance_time {
            if let Some(a) = self.hvt_ewma.step(h) {
                events.push(make_event("ewma", "h_variance_time", obs, &a));
            }
        }

        for event in &events {
            self.summary.alarms += 1;
            match event.severity {
                Severity::Critical => self.summary.critical += 1,
                _ => self.summary.warn += 1,
            }
            if self.summary.first_alarm_window.is_none() {
                self.summary.first_alarm_window = Some(obs.index);
            }
            match self
                .summary
                .by_channel
                .iter_mut()
                .find(|c| c.detector == event.detector && c.metric == event.metric)
            {
                Some(c) => c.alarms += 1,
                None => self.summary.by_channel.push(ChannelAlarms {
                    detector: event.detector.clone(),
                    metric: event.metric.clone(),
                    alarms: 1,
                }),
            }
        }
        events
    }

    /// Aggregated results so far.
    pub fn summary(&self) -> DriftSummary {
        self.summary.clone()
    }

    /// Export the observatory's mutable state for checkpointing.
    pub fn export_state(&self) -> ObservatoryState {
        ObservatoryState {
            seasonal_history: self.seasonal.history.iter().copied().collect(),
            rate_cusum: self.rate_cusum.export_state(),
            rate_ph: self.rate_ph.export_state(),
            bytes_cusum: self.bytes_cusum.export_state(),
            bytes_ph: self.bytes_ph.export_state(),
            alpha_ewma: self.alpha_ewma.export_state(),
            hvt_ewma: self.hvt_ewma.export_state(),
            summary: self.summary.clone(),
        }
    }

    /// Rebuild an observatory from a configuration plus exported state:
    /// tuning comes from `cfg` / `window_len` exactly as in
    /// [`DriftObservatory::new`], then every detector position is
    /// overwritten from `state`.
    pub fn restore(cfg: &ObservatoryConfig, window_len: f64, state: &ObservatoryState) -> Self {
        let mut watch = DriftObservatory::new(cfg, window_len);
        watch.seasonal.history = state.seasonal_history.iter().copied().collect();
        watch.rate_cusum.restore_state(&state.rate_cusum);
        watch.rate_ph.restore_state(&state.rate_ph);
        watch.bytes_cusum.restore_state(&state.bytes_cusum);
        watch.bytes_ph.restore_state(&state.bytes_ph);
        watch.alpha_ewma.restore_state(&state.alpha_ewma);
        watch.hvt_ewma.restore_state(&state.hvt_ewma);
        watch.summary = state.summary.clone();
        watch
    }
}

fn make_event(detector: &str, metric: &str, obs: &WindowObservation, alarm: &Alarm) -> Event {
    let severity = if alarm.score >= 2.0 * alarm.threshold {
        Severity::Critical
    } else {
        Severity::Warn
    };
    let message = format!(
        "{metric}: {detector} alarm at window {} (baseline {:.4}, observed {:.4}, score {:.2} >= {:.2})",
        obs.index, alarm.before, alarm.after, alarm.score, alarm.threshold
    );
    Event::new(
        severity,
        detector,
        metric,
        obs.index,
        obs.start,
        alarm.before,
        alarm.after,
        alarm.score,
        alarm.threshold,
        message,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic light noise in [-0.5, 0.5) from a splitmix64-style
    /// hash — no RNG dependency, identical on every run. (An affine LCG
    /// of `i` would not do: its lag-k differences are constant, which
    /// collapses the baseline σ of a differenced series to zero.)
    fn noise(i: u64) -> f64 {
        let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    fn obs_at(i: u64, rate: f64) -> WindowObservation {
        WindowObservation {
            index: i,
            start: i as f64 * 14_400.0,
            rate,
            bytes_mean: None,
            hill_alpha: None,
            h_variance_time: None,
        }
    }

    fn cfg_no_seasonal() -> ObservatoryConfig {
        ObservatoryConfig {
            seasonal_period: Some(0),
            ..ObservatoryConfig::default()
        }
    }

    #[test]
    fn cusum_fires_on_a_level_step_within_three_windows() {
        let mut c = Cusum::new(&cfg_no_seasonal());
        // Warmup-and-quiet windows around 100 ± small noise.
        for i in 0..14 {
            assert!(c.step(100.0 + noise(i)).is_none(), "false alarm at {i}");
        }
        // A 5σ-scale step must trip within 3 windows.
        let mut fired_at = None;
        for i in 0..3 {
            if let Some(alarm) = c.step(103.0 + noise(100 + i)) {
                assert!(alarm.score >= alarm.threshold);
                assert!((alarm.before - 100.0).abs() < 1.0);
                fired_at = Some(i);
                break;
            }
        }
        assert!(fired_at.is_some(), "CUSUM missed a large step");
    }

    #[test]
    fn page_hinkley_fires_on_a_level_step() {
        let mut p = PageHinkley::new(&cfg_no_seasonal());
        for i in 0..14 {
            assert!(p.step(50.0 + noise(i)).is_none(), "false alarm at {i}");
        }
        let fired = (0..5).any(|i| p.step(52.0 + noise(200 + i)).is_some());
        assert!(fired, "Page-Hinkley missed a step within 5 windows");
    }

    #[test]
    fn ewma_fires_on_a_small_persistent_shift() {
        let mut e = EwmaBands::new(&cfg_no_seasonal());
        for i in 0..14 {
            assert!(e.step(1.3 + noise(i) * 0.01).is_none());
        }
        let fired = (0..6).any(|i| e.step(1.32 + noise(300 + i) * 0.01).is_some());
        assert!(fired, "EWMA bands missed a persistent small shift");
    }

    #[test]
    fn detectors_stay_silent_on_stationary_noise() {
        let cfg = cfg_no_seasonal();
        let mut c = Cusum::new(&cfg);
        let mut p = PageHinkley::new(&cfg);
        let mut e = EwmaBands::new(&cfg);
        for i in 0..200 {
            let x = 10.0 + noise(i);
            assert!(c.step(x).is_none(), "CUSUM false alarm at {i}");
            assert!(p.step(x).is_none(), "PH false alarm at {i}");
            let y = 0.8 + noise(1_000 + i) * 0.02;
            assert!(e.step(y).is_none(), "EWMA false alarm at {i}");
        }
    }

    #[test]
    fn seasonal_differencing_neutralizes_a_diurnal_cycle() {
        // Rate with a strong period-6 cycle (the 4 h-window diurnal
        // pattern). Without differencing this trips CUSUM immediately;
        // with it the differenced series is pure noise.
        let cfg = ObservatoryConfig::default();
        let mut watch = DriftObservatory::new(&cfg, 14_400.0);
        assert_eq!(watch.seasonal_period(), 6);
        for i in 0..120u64 {
            let phase = (i % 6) as f64 / 6.0 * std::f64::consts::TAU;
            let rate = 100.0 + 60.0 * phase.sin() + noise(i);
            let events = watch.observe(&obs_at(i, rate));
            assert!(events.is_empty(), "false alarm at window {i}: {events:?}");
        }
        assert_eq!(watch.summary().alarms, 0);
    }

    #[test]
    fn observatory_detects_a_rate_step_and_summarizes_it() {
        let cfg = ObservatoryConfig::default();
        let mut watch = DriftObservatory::new(&cfg, 14_400.0);
        let mut first_alarm = None;
        let shift_at = 30u64;
        for i in 0..48u64 {
            let phase = (i % 6) as f64 / 6.0 * std::f64::consts::TAU;
            let level = if i >= shift_at { 180.0 } else { 100.0 };
            let rate = level + 30.0 * phase.sin() + noise(i);
            let events = watch.observe(&obs_at(i, rate));
            if first_alarm.is_none() {
                if let Some(e) = events.first() {
                    first_alarm = Some((i, e.clone()));
                }
            }
        }
        let (window, event) = first_alarm.expect("a 80% rate step must alarm");
        assert!(
            (shift_at..shift_at + 3).contains(&window),
            "detection latency too high: shift at {shift_at}, alarm at {window}"
        );
        assert_eq!(event.metric, "request_rate");
        assert!(event.score >= event.threshold);
        let summary = watch.summary();
        assert!(summary.alarms >= 1);
        assert_eq!(summary.first_alarm_window, Some(window));
        assert!(summary
            .by_channel
            .iter()
            .any(|c| c.metric == "request_rate"));
        assert_eq!(summary.windows, 48);
    }

    #[test]
    fn big_steps_escalate_to_critical() {
        let cfg = cfg_no_seasonal();
        let mut watch = DriftObservatory::new(&cfg, 14_400.0);
        for i in 0..14u64 {
            watch.observe(&obs_at(i, 100.0 + noise(i)));
        }
        // A catastrophic step: z in the hundreds, score far past 2h.
        let events = watch.observe(&obs_at(14, 1_000.0));
        assert!(
            events.iter().any(|e| e.severity == Severity::Critical),
            "expected a critical alarm: {events:?}"
        );
        let summary = watch.summary();
        assert!(summary.critical >= 1);
    }

    #[test]
    fn rebaseline_prevents_alarm_storms() {
        // After a persistent level shift, the detector alarms once,
        // re-baselines onto the new level, and goes quiet.
        let cfg = cfg_no_seasonal();
        let mut watch = DriftObservatory::new(&cfg, 14_400.0);
        let mut alarm_windows = Vec::new();
        for i in 0..60u64 {
            let level = if i >= 20 { 300.0 } else { 100.0 };
            let events = watch.observe(&obs_at(i, level + noise(i)));
            if !events.is_empty() {
                alarm_windows.push(i);
            }
        }
        assert!(!alarm_windows.is_empty(), "shift missed entirely");
        // One regime change: alarms confined to the transition, where
        // "transition" includes the post-alarm re-warmup window.
        assert!(
            alarm_windows.iter().all(|w| (20..32).contains(w)),
            "alarm storm: {alarm_windows:?}"
        );
        assert!(
            alarm_windows.len() <= 4,
            "too many alarms for one shift: {alarm_windows:?}"
        );
    }

    #[test]
    fn ewma_watches_the_tail_and_hurst_channels() {
        let cfg = cfg_no_seasonal();
        let mut watch = DriftObservatory::new(&cfg, 14_400.0);
        let mut fired = false;
        for i in 0..40u64 {
            let alpha = if i >= 20 { 1.15 } else { 1.45 };
            let obs = WindowObservation {
                hill_alpha: Some(alpha + noise(i) * 0.01),
                h_variance_time: Some(0.75 + noise(500 + i) * 0.005),
                ..obs_at(i, 100.0 + noise(900 + i))
            };
            let events = watch.observe(&obs);
            fired |= events
                .iter()
                .any(|e| e.metric == "hill_alpha/session_bytes");
            assert!(
                events.iter().all(|e| e.metric != "h_variance_time"),
                "stable H channel must stay quiet"
            );
        }
        assert!(fired, "tail-index shift missed");
    }

    #[test]
    fn state_round_trip_resumes_detection_identically() {
        // Same seasonal rate-step stream, run whole vs. split across an
        // export/restore at window 25: the resumed observatory must see
        // the shift at the same window with the same summary.
        let cfg = ObservatoryConfig::default();
        let stream = |i: u64| {
            let phase = (i % 6) as f64 / 6.0 * std::f64::consts::TAU;
            let level = if i >= 30 { 180.0 } else { 100.0 };
            level + 30.0 * phase.sin() + noise(i)
        };

        let mut whole = DriftObservatory::new(&cfg, 14_400.0);
        for i in 0..48u64 {
            whole.observe(&obs_at(i, stream(i)));
        }

        let mut first = DriftObservatory::new(&cfg, 14_400.0);
        for i in 0..25u64 {
            first.observe(&obs_at(i, stream(i)));
        }
        let state = first.export_state();
        let mut second = DriftObservatory::restore(&cfg, 14_400.0, &state);
        assert_eq!(second.export_state(), state);
        for i in 25..48u64 {
            second.observe(&obs_at(i, stream(i)));
        }

        assert_eq!(second.export_state(), whole.export_state());
        assert_eq!(second.summary(), whole.summary());
        assert!(whole.summary().alarms >= 1, "rate step must alarm");
    }

    #[test]
    fn summary_round_trips_through_serde() {
        let cfg = ObservatoryConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ObservatoryConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        let summary = DriftSummary {
            windows: 42,
            alarms: 2,
            warn: 1,
            critical: 1,
            first_alarm_window: Some(30),
            by_channel: vec![ChannelAlarms {
                detector: "cusum".to_string(),
                metric: "request_rate".to_string(),
                alarms: 2,
            }],
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: DriftSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
