//! SLO engine: burn-rate alerting and the deep-health rollup over the
//! telemetry history ([`crate::tsdb`]).
//!
//! Objectives load from a committed `slo.toml` (same deliberately small
//! TOML subset as `paper_targets.toml`, extended with single-line
//! string arrays) and come in three kinds:
//!
//! - `ratio` — a bad-event fraction over counter deltas:
//!   `bad / (bad + good)` across the alerting window, guarded by
//!   `min_events` so an idle window cannot alarm on noise;
//! - `gauge_max` / `gauge_min` — the fraction of samples in the window
//!   where a gauge crosses `limit` (above / below respectively). A
//!   window holding a single sample can read `ok` but never warn or
//!   page: one sample is not a trend.
//!
//! Each objective is evaluated Google-SRE style with **two window
//! pairs** computed from the rings: a *fast* pair (defaults 5 m short /
//! 1 h long, burn ≥ 14.4× the error budget in **both** windows pages
//! `critical`) and a *slow* pair (defaults 1 h / 6 h, burn ≥ 6× warns).
//! Requiring both windows keeps a brief spike from paging while the
//! short window makes a real page fire within one sampling tick of the
//! budget burning hot. Windows shorter than retained history evaluate
//! over what exists (partial windows), which is what lets a CI drill
//! observe an alert within seconds of injected shed.
//!
//! State transitions publish typed `slo/<name>` events through
//! [`crate::events`] (`warn`/`critical` on the way up, `info` on
//! recovery), so alerts ride the existing ring, JSONL sink,
//! `/events?since=` endpoint, and `--alert-on` exit codes unchanged.
//!
//! The deep-health rollup ([`crate::Telemetry::deep_health`], served at
//! `/healthz?deep=1`) folds active alerts per subsystem — `ingest`,
//! `engine`, `estimators`, `checkpointing`, `telemetry` — into one
//! `healthy`/`degraded`/`critical` verdict; the telemetry subsystem
//! also degrades itself when the history store sheds under its memory
//! budget. The same structure lands in [`crate::report::RunReport`] as
//! the end-of-run SLO verdict block.

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::events::{self, Severity};
use crate::tsdb::{Tsdb, TsdbStats};

/// Schema stamped into serialized [`DeepHealth`] blocks.
pub const SLO_SCHEMA_VERSION: u32 = 1;

/// The fixed subsystem set of the deep-health rollup.
pub const SUBSYSTEMS: [&str; 5] = [
    "ingest",
    "engine",
    "estimators",
    "checkpointing",
    "telemetry",
];

/// Default fast (page) window pair and burn threshold.
pub const DEFAULT_FAST_SHORT_SECS: u64 = 300;
/// Long window of the fast pair.
pub const DEFAULT_FAST_LONG_SECS: u64 = 3_600;
/// Fast-pair burn multiple (Google SRE workbook's 14.4× for a 30-day
/// budget at 2% burn in 1 h).
pub const DEFAULT_FAST_BURN: f64 = 14.4;
/// Default slow (warn) window pair and burn threshold.
pub const DEFAULT_SLOW_SHORT_SECS: u64 = 3_600;
/// Long window of the slow pair.
pub const DEFAULT_SLOW_LONG_SECS: u64 = 21_600;
/// Slow-pair burn multiple.
pub const DEFAULT_SLOW_BURN: f64 = 6.0;
/// Default `min_events` guard for ratio objectives.
pub const DEFAULT_MIN_EVENTS: u64 = 100;

/// How an objective measures badness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Bad-counter fraction of total counter deltas over the window.
    Ratio,
    /// Fraction of gauge samples strictly above `limit`.
    GaugeMax,
    /// Fraction of gauge samples strictly below `limit`.
    GaugeMin,
}

impl ObjectiveKind {
    fn parse(token: &str) -> Option<Self> {
        match token {
            "ratio" => Some(ObjectiveKind::Ratio),
            "gauge_max" => Some(ObjectiveKind::GaugeMax),
            "gauge_min" => Some(ObjectiveKind::GaugeMin),
            _ => None,
        }
    }
}

/// One parsed `[[objective]]` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Objective name; alerts publish as `slo/<name>`.
    pub name: String,
    /// Deep-health subsystem the objective rolls up into (one of
    /// [`SUBSYSTEMS`]).
    pub subsystem: String,
    /// Measurement kind.
    pub kind: ObjectiveKind,
    /// Bad-event counters (`ratio`).
    pub bad: Vec<String>,
    /// Good-event counters (`ratio`); total = good + bad.
    pub good: Vec<String>,
    /// Watched gauge (`gauge_max`/`gauge_min`).
    pub gauge: String,
    /// Gauge limit.
    pub limit: f64,
    /// Target success fraction, e.g. `0.999`; the error budget is
    /// `1 - objective`.
    pub objective: f64,
    /// Minimum total events in a window before a ratio can alarm.
    pub min_events: u64,
    /// Fast (page) pair: short window seconds.
    pub fast_short_secs: u64,
    /// Fast pair: long window seconds.
    pub fast_long_secs: u64,
    /// Fast pair: burn multiple that pages.
    pub fast_burn: f64,
    /// Slow (warn) pair: short window seconds.
    pub slow_short_secs: u64,
    /// Slow pair: long window seconds.
    pub slow_long_secs: u64,
    /// Slow pair: burn multiple that warns.
    pub slow_burn: f64,
}

/// Parsed `slo.toml`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloConfig {
    /// All objectives, file order.
    pub objectives: Vec<Objective>,
}

/// Parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Offending (or section-opening) line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

enum TomlVal {
    Str(String),
    Num(f64),
    List(Vec<String>),
}

fn parse_scalar(raw: &str, line: usize) -> Result<TomlVal, ParseError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('[') {
        let Some(inner) = stripped.strip_suffix(']') else {
            return Err(ParseError {
                line,
                message: format!("unterminated array: {raw}"),
            });
        };
        let mut items = Vec::new();
        for piece in inner.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            match parse_scalar(piece, line)? {
                TomlVal::Str(s) => items.push(s),
                _ => {
                    return Err(ParseError {
                        line,
                        message: "arrays may only hold quoted strings".to_string(),
                    })
                }
            }
        }
        return Ok(TomlVal::List(items));
    }
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(ParseError {
                line,
                message: format!("unterminated string: {raw}"),
            });
        };
        return Ok(TomlVal::Str(inner.replace("\\\"", "\"")));
    }
    raw.parse::<f64>()
        .map(TomlVal::Num)
        .map_err(|_| ParseError {
            line,
            message: format!("expected number, quoted string, or [array], got `{raw}`"),
        })
}

#[derive(Debug)]
struct PendingObjective {
    line: usize,
    name: Option<String>,
    subsystem: Option<String>,
    kind: Option<ObjectiveKind>,
    bad: Vec<String>,
    good: Vec<String>,
    gauge: String,
    limit: Option<f64>,
    objective: Option<f64>,
    min_events: u64,
    fast_short_secs: u64,
    fast_long_secs: u64,
    fast_burn: f64,
    slow_short_secs: u64,
    slow_long_secs: u64,
    slow_burn: f64,
}

impl PendingObjective {
    fn new(line: usize) -> Self {
        PendingObjective {
            line,
            name: None,
            subsystem: None,
            kind: None,
            bad: Vec::new(),
            good: Vec::new(),
            gauge: String::new(),
            limit: None,
            objective: None,
            min_events: DEFAULT_MIN_EVENTS,
            fast_short_secs: DEFAULT_FAST_SHORT_SECS,
            fast_long_secs: DEFAULT_FAST_LONG_SECS,
            fast_burn: DEFAULT_FAST_BURN,
            slow_short_secs: DEFAULT_SLOW_SHORT_SECS,
            slow_long_secs: DEFAULT_SLOW_LONG_SECS,
            slow_burn: DEFAULT_SLOW_BURN,
        }
    }

    fn finish(self) -> Result<Objective, ParseError> {
        let err = |message: String| ParseError {
            line: self.line,
            message,
        };
        let name = self
            .name
            .ok_or_else(|| err("[[objective]] missing `name`".to_string()))?;
        let subsystem = self
            .subsystem
            .ok_or_else(|| err(format!("[[objective]] {name} missing `subsystem`")))?;
        if !SUBSYSTEMS.contains(&subsystem.as_str()) {
            return Err(err(format!(
                "[[objective]] {name}: unknown subsystem `{subsystem}` (expected one of {SUBSYSTEMS:?})"
            )));
        }
        let kind = self
            .kind
            .ok_or_else(|| err(format!("[[objective]] {name} missing `kind`")))?;
        let objective = self
            .objective
            .ok_or_else(|| err(format!("[[objective]] {name} missing `objective`")))?;
        if !(objective > 0.0 && objective < 1.0) {
            return Err(err(format!(
                "[[objective]] {name}: objective must be in (0, 1), got {objective}"
            )));
        }
        match kind {
            ObjectiveKind::Ratio => {
                if self.bad.is_empty() {
                    return Err(err(format!(
                        "[[objective]] {name}: ratio kind needs a non-empty `bad` array"
                    )));
                }
                if self.good.is_empty() {
                    return Err(err(format!(
                        "[[objective]] {name}: ratio kind needs a non-empty `good` array"
                    )));
                }
            }
            ObjectiveKind::GaugeMax | ObjectiveKind::GaugeMin => {
                if self.gauge.is_empty() {
                    return Err(err(format!(
                        "[[objective]] {name}: gauge kinds need `gauge`"
                    )));
                }
                let limit = self
                    .limit
                    .ok_or_else(|| err(format!("[[objective]] {name} missing `limit`")))?;
                if !limit.is_finite() {
                    return Err(err(format!("[[objective]] {name}: limit must be finite")));
                }
            }
        }
        for (label, short, long) in [
            ("fast", self.fast_short_secs, self.fast_long_secs),
            ("slow", self.slow_short_secs, self.slow_long_secs),
        ] {
            if short == 0 || long == 0 || short > long {
                return Err(err(format!(
                    "[[objective]] {name}: {label} windows must satisfy 0 < short <= long"
                )));
            }
        }
        let positive = |b: f64| b.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.fast_burn) || !positive(self.slow_burn) {
            return Err(err(format!(
                "[[objective]] {name}: burn thresholds must be > 0"
            )));
        }
        Ok(Objective {
            name,
            subsystem,
            kind,
            bad: self.bad,
            good: self.good,
            gauge: self.gauge,
            limit: self.limit.unwrap_or(f64::NAN),
            objective,
            min_events: self.min_events,
            fast_short_secs: self.fast_short_secs,
            fast_long_secs: self.fast_long_secs,
            fast_burn: self.fast_burn,
            slow_short_secs: self.slow_short_secs,
            slow_long_secs: self.slow_long_secs,
            slow_burn: self.slow_burn,
        })
    }
}

impl SloConfig {
    /// Parse the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// [`ParseError`] naming the offending line for unknown keys or
    /// sections, type mismatches, and invalid objective parameters.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut out = SloConfig::default();
        let mut current: Option<PendingObjective> = None;

        fn flush(out: &mut SloConfig, current: Option<PendingObjective>) -> Result<(), ParseError> {
            if let Some(pending) = current {
                out.objectives.push(pending.finish()?);
            }
            Ok(())
        }

        for (i, raw_line) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw_line.find('#') {
                Some(pos) => &raw_line[..pos],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[objective]]" {
                flush(&mut out, current.take())?;
                current = Some(PendingObjective::new(lineno));
                continue;
            }
            if line.starts_with('[') {
                return Err(ParseError {
                    line: lineno,
                    message: format!("unsupported section `{line}` (only [[objective]])"),
                });
            }
            let Some((key, raw_value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = parse_scalar(raw_value, lineno)?;
            let type_err = |what: &str| ParseError {
                line: lineno,
                message: format!("`{key}` must be {what}"),
            };
            let Some(pending) = current.as_mut() else {
                match key {
                    "schema" => continue, // reserved for format bumps
                    other => {
                        return Err(ParseError {
                            line: lineno,
                            message: format!("unknown top-level key `{other}`"),
                        })
                    }
                }
            };
            match (key, value) {
                ("name", TomlVal::Str(s)) => pending.name = Some(s),
                ("subsystem", TomlVal::Str(s)) => pending.subsystem = Some(s),
                ("kind", TomlVal::Str(s)) => {
                    pending.kind = Some(ObjectiveKind::parse(&s).ok_or_else(|| ParseError {
                        line: lineno,
                        message: format!(
                            "unknown kind `{s}` (expected ratio, gauge_max, or gauge_min)"
                        ),
                    })?)
                }
                ("bad", TomlVal::List(items)) => pending.bad = items,
                ("good", TomlVal::List(items)) => pending.good = items,
                ("gauge", TomlVal::Str(s)) => pending.gauge = s,
                ("limit", TomlVal::Num(n)) => pending.limit = Some(n),
                ("objective", TomlVal::Num(n)) => pending.objective = Some(n),
                ("min_events", TomlVal::Num(n)) => pending.min_events = n.max(0.0) as u64,
                ("fast_short_secs", TomlVal::Num(n)) => pending.fast_short_secs = n.max(0.0) as u64,
                ("fast_long_secs", TomlVal::Num(n)) => pending.fast_long_secs = n.max(0.0) as u64,
                ("fast_burn", TomlVal::Num(n)) => pending.fast_burn = n,
                ("slow_short_secs", TomlVal::Num(n)) => pending.slow_short_secs = n.max(0.0) as u64,
                ("slow_long_secs", TomlVal::Num(n)) => pending.slow_long_secs = n.max(0.0) as u64,
                ("slow_burn", TomlVal::Num(n)) => pending.slow_burn = n,
                ("name" | "subsystem" | "kind" | "gauge", _) => return Err(type_err("a string")),
                ("bad" | "good", _) => return Err(type_err("an array of strings")),
                (
                    "limit" | "objective" | "min_events" | "fast_short_secs" | "fast_long_secs"
                    | "fast_burn" | "slow_short_secs" | "slow_long_secs" | "slow_burn",
                    _,
                ) => return Err(type_err("a number")),
                (other, _) => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown [[objective]] key `{other}`"),
                    })
                }
            }
        }
        flush(&mut out, current)?;
        Ok(out)
    }

    /// Read and parse an objectives file.
    ///
    /// # Errors
    ///
    /// I/O and parse errors, both as strings naming the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One objective's latest evaluation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveHealth {
    /// Objective name.
    pub name: String,
    /// Subsystem it rolls into.
    pub subsystem: String,
    /// `"ok"`, `"warn"`, `"critical"`, or `"no-data"` (no sample to
    /// judge yet, or a gauge window holding one violating sample —
    /// skipped, never alarmed).
    pub status: String,
    /// Burn multiple over the fast short window (0 without data).
    pub burn_fast: f64,
    /// Burn multiple over the slow short window (0 without data).
    pub burn_slow: f64,
    /// Bad fraction (or violating-sample fraction) over the fast short
    /// window.
    pub ratio: f64,
    /// Alerts fired for this objective during the run (upward
    /// transitions, both severities).
    pub alerts: u64,
}

/// One subsystem's rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsystemHealth {
    /// Subsystem name (one of [`SUBSYSTEMS`]).
    pub name: String,
    /// `"healthy"`, `"degraded"`, or `"critical"`.
    pub status: String,
    /// Why, when not healthy (or why the subsystem cannot degrade:
    /// `"no objectives"`).
    pub reason: String,
}

/// The deep-health verdict: served at `/healthz?deep=1`, embedded in
/// [`crate::report::RunReport::slo`], and rendered as the end-of-run
/// verdict block by the binaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeepHealth {
    /// Serialization schema ([`SLO_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Worst subsystem status: `"healthy"`, `"degraded"`, or
    /// `"critical"`.
    pub status: String,
    /// Whether the run has an SLO engine (without one the rollup
    /// reflects only telemetry self-accounting).
    pub slo_installed: bool,
    /// Evaluation passes taken.
    pub evaluations: u64,
    /// Per-subsystem rollup, fixed order.
    pub subsystems: Vec<SubsystemHealth>,
    /// Per-objective detail, config order.
    pub objectives: Vec<ObjectiveHealth>,
    /// Telemetry-history store accounting, when the run keeps history
    /// (`null` otherwise — the vendored serde derive has no skip
    /// attribute).
    pub telemetry: Option<TsdbStats>,
}

impl DeepHealth {
    /// Roll `engine`'s latest evaluation and the history store's
    /// accounting up per subsystem. Always answers — without an engine
    /// the subsystems report healthy with a `"no objectives"` reason and
    /// only telemetry self-accounting can degrade the verdict.
    pub(crate) fn new(engine: Option<&SloEngine>, telemetry: Option<TsdbStats>) -> DeepHealth {
        let objectives: Vec<ObjectiveHealth> = engine
            .map(|e| e.states.iter().map(|s| s.last.clone()).collect())
            .unwrap_or_default();
        let mut subsystems = Vec::with_capacity(SUBSYSTEMS.len());
        const LEVELS: [&str; 3] = ["healthy", "degraded", "critical"];
        let mut worst = 0u8; // an index into LEVELS
        for name in SUBSYSTEMS {
            let mut level = 0u8;
            let mut reason = String::new();
            let mut any = false;
            for o in objectives.iter().filter(|o| o.subsystem == name) {
                any = true;
                let o_level = match o.status.as_str() {
                    "critical" => 2,
                    "warn" => 1,
                    _ => 0,
                };
                if o_level > level {
                    level = o_level;
                    reason = format!("slo {} is {}", o.name, o.status);
                }
            }
            let shed = telemetry.as_ref().map_or(0, |stats| stats.budget_evictions);
            if name == "telemetry" && shed > 0 && level == 0 {
                level = 1;
                reason = format!("history store shed {shed} samples under its memory budget");
            }
            if reason.is_empty() {
                reason = if any {
                    "all objectives ok"
                } else {
                    "no objectives"
                }
                .to_string();
            }
            worst = worst.max(level);
            subsystems.push(SubsystemHealth {
                name: name.to_string(),
                status: LEVELS[usize::from(level)].to_string(),
                reason,
            });
        }
        DeepHealth {
            schema: SLO_SCHEMA_VERSION,
            status: LEVELS[usize::from(worst)].to_string(),
            slo_installed: engine.is_some(),
            evaluations: engine.map_or(0, |e| e.evaluations),
            subsystems,
            objectives,
            telemetry,
        }
    }

    /// Fixed-width verdict table for end-of-run output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("deep health: {}\n", self.status));
        out.push_str(&format!(
            "{:<24} {:>10}  {}\n",
            "subsystem", "status", "reason"
        ));
        for s in &self.subsystems {
            out.push_str(&format!("{:<24} {:>10}  {}\n", s.name, s.status, s.reason));
        }
        if !self.objectives.is_empty() {
            out.push_str(&format!(
                "{:<24} {:<14} {:>9} {:>11} {:>11} {:>7}\n",
                "objective", "subsystem", "status", "burn(fast)", "burn(slow)", "alerts"
            ));
            for o in &self.objectives {
                out.push_str(&format!(
                    "{:<24} {:<14} {:>9} {:>11.2} {:>11.2} {:>7}\n",
                    o.name, o.subsystem, o.status, o.burn_fast, o.burn_slow, o.alerts
                ));
            }
        }
        out
    }
}

#[derive(Debug)]
struct ObjectiveState {
    active: Option<Severity>,
    alerts: u64,
    last: ObjectiveHealth,
}

/// The burn-rate judge of one run, held by its [`crate::Telemetry`]:
/// each objective's alert state and latest evaluation.
#[derive(Debug)]
pub(crate) struct SloEngine {
    cfg: SloConfig,
    states: Vec<ObjectiveState>,
    evaluations: u64,
}

/// Window edge values for a counter: delta between the newest tick and
/// the tick `window_ticks` back. With no sample that old, a counter
/// first registered after tick 1 counts from zero (all of its count
/// fell inside the history); otherwise (present at tick 1, which may
/// hold counts from before the history, or evicted since) the oldest
/// retained sample stands in for the missing edge. `None` when the
/// metric has no series at all.
fn counter_window_delta(store: &Tsdb, metric: &str, now: u64, window_ticks: u64) -> Option<u64> {
    let end = store.raw_at_or_before(metric, now)?;
    let start_tick = now.saturating_sub(window_ticks);
    let start = match store.raw_at_or_before(metric, start_tick) {
        Some(raw) => raw,
        None if store.first_tick(metric).is_some_and(|tick| tick > 1) => 0,
        None => store.oldest_raw(metric)?.1,
    };
    Some(end.saturating_sub(start))
}

/// Violating-sample fraction of a gauge over the window: dense samples
/// where they reach, coarse buckets (weighted by their tick span,
/// judged by their retained extreme) for the older remainder.
fn gauge_violation(
    store: &Tsdb,
    metric: &str,
    now: u64,
    window_ticks: u64,
    kind: ObjectiveKind,
    limit: f64,
) -> Option<(f64, u64)> {
    let start_tick = now.saturating_sub(window_ticks);
    let dense = store.dense_raw(metric, start_tick)?;
    let violates = |v: f64| match kind {
        ObjectiveKind::GaugeMax => v > limit,
        ObjectiveKind::GaugeMin => v < limit,
        ObjectiveKind::Ratio => false,
    };
    let mut total = 0f64;
    let mut viol = 0f64;
    let dense_first = dense.first().map(|(i, _)| *i);
    if let Some(df) = dense_first {
        if df > start_tick + 1 {
            if let Some(coarse) = store.coarse_raw(metric, start_tick) {
                let weight = store.coarse_every() as f64;
                for bucket in coarse.iter().filter(|b| b.end_index < df) {
                    total += weight;
                    let extreme = match kind {
                        ObjectiveKind::GaugeMax => f64::from_bits(bucket.max),
                        _ => f64::from_bits(bucket.min),
                    };
                    if violates(extreme) {
                        viol += weight;
                    }
                }
            }
        }
    }
    for (_, raw) in &dense {
        total += 1.0;
        if violates(f64::from_bits(*raw)) {
            viol += 1.0;
        }
    }
    if total == 0.0 {
        return None;
    }
    Some((viol / total, total as u64))
}

/// Bad fraction of an objective over one window, with the sample/event
/// volume backing it. `None` = no data (every watched metric missing,
/// or below the `min_events` guard).
fn window_ratio(store: &Tsdb, o: &Objective, now: u64, window_ticks: u64) -> Option<f64> {
    match o.kind {
        ObjectiveKind::Ratio => {
            let mut bad = 0u64;
            let mut seen = false;
            for m in &o.bad {
                if let Some(d) = counter_window_delta(store, m, now, window_ticks) {
                    bad += d;
                    seen = true;
                }
            }
            let mut good = 0u64;
            for m in &o.good {
                if let Some(d) = counter_window_delta(store, m, now, window_ticks) {
                    good += d;
                    seen = true;
                }
            }
            if !seen {
                return None;
            }
            let total = bad + good;
            if total < o.min_events.max(1) {
                return None;
            }
            Some(bad as f64 / total as f64)
        }
        ObjectiveKind::GaugeMax | ObjectiveKind::GaugeMin => {
            let (frac, samples) =
                gauge_violation(store, &o.gauge, now, window_ticks, o.kind, o.limit)?;
            // A single sample is not a trend: it may read ok, but it
            // never warns or pages, so a violating one reads no-data.
            if samples < 2 && frac > 0.0 {
                return None;
            }
            Some(frac)
        }
    }
}

fn ticks_for(store: &Tsdb, secs: u64) -> u64 {
    let interval_ms = (store.interval().as_millis() as u64).max(1);
    (secs.saturating_mul(1_000) / interval_ms).max(1)
}

impl SloEngine {
    /// An engine with every objective at `no-data`.
    pub(crate) fn new(cfg: SloConfig) -> SloEngine {
        let states = cfg
            .objectives
            .iter()
            .map(|o| ObjectiveState {
                active: None,
                alerts: 0,
                last: ObjectiveHealth {
                    name: o.name.clone(),
                    subsystem: o.subsystem.clone(),
                    status: "no-data".to_string(),
                    ..ObjectiveHealth::default()
                },
            })
            .collect();
        SloEngine {
            cfg,
            states,
            evaluations: 0,
        }
    }

    /// Evaluate every objective against `store` and refresh the rollup.
    /// Returns the `slo/*` events of the state transitions, for the
    /// caller to publish once it has released its locks. Does nothing
    /// before the store's first tick.
    pub(crate) fn evaluate(&mut self, store: &Tsdb) -> Vec<events::Event> {
        let mut transitions = Vec::new();
        let now = store.ticks();
        if now == 0 {
            return transitions;
        }
        self.evaluations += 1;
        let interval_secs = store.interval().as_secs_f64();
        for (o, state) in self.cfg.objectives.iter().zip(self.states.iter_mut()) {
            let budget = (1.0 - o.objective).max(f64::MIN_POSITIVE);
            let burn_over =
                |secs| window_ratio(store, o, now, ticks_for(store, secs)).map(|r| r / budget);
            let fast_short = burn_over(o.fast_short_secs);
            let fast_long = burn_over(o.fast_long_secs);
            let slow_short = burn_over(o.slow_short_secs);
            let slow_long = burn_over(o.slow_long_secs);
            let has_data = fast_short.is_some() || slow_short.is_some();
            let paged = matches!((fast_short, fast_long), (Some(s), Some(l)) if s >= o.fast_burn && l >= o.fast_burn);
            let warned = matches!((slow_short, slow_long), (Some(s), Some(l)) if s >= o.slow_burn && l >= o.slow_burn);
            let level = if paged {
                Some(Severity::Critical)
            } else if warned {
                Some(Severity::Warn)
            } else {
                None
            };
            let burn_fast = fast_short.unwrap_or(0.0);
            let burn_slow = slow_short.unwrap_or(0.0);
            let transition = match (state.active, level) {
                (prev, Some(sev)) if prev.is_none_or(|p| sev > p) => {
                    state.alerts += 1;
                    let (burn, bar) = if sev == Severity::Critical {
                        (burn_fast, o.fast_burn)
                    } else {
                        (burn_slow, o.slow_burn)
                    };
                    Some((
                        sev,
                        burn,
                        bar,
                        format!(
                            "slo {} burning at {:.1}x its error budget (threshold {:.1}x, objective {})",
                            o.name, burn, bar, o.objective
                        ),
                    ))
                }
                (Some(prev), lower) if lower.is_none_or(|l| l < prev) => Some((
                    Severity::Info,
                    burn_fast,
                    o.fast_burn,
                    match lower {
                        Some(l) => format!(
                            "slo {} downgraded from {} to {}",
                            o.name,
                            prev.as_str(),
                            l.as_str()
                        ),
                        None => format!("slo {} recovered (burn {:.2}x)", o.name, burn_fast),
                    },
                )),
                _ => None,
            };
            if let Some((sev, burn, bar, message)) = transition {
                transitions.push(events::Event::new(
                    sev,
                    "slo",
                    &format!("slo/{}", o.name),
                    now,
                    now as f64 * interval_secs,
                    bar,
                    burn,
                    burn,
                    bar,
                    message,
                ));
            }
            state.active = level;
            state.last = ObjectiveHealth {
                name: o.name.clone(),
                subsystem: o.subsystem.clone(),
                status: match (has_data, level) {
                    (false, _) => "no-data".to_string(),
                    (true, None) => "ok".to_string(),
                    (true, Some(Severity::Warn)) => "warn".to_string(),
                    (true, Some(_)) => "critical".to_string(),
                },
                burn_fast,
                burn_slow,
                ratio: fast_short.map_or(0.0, |b| b * budget),
                alerts: state.alerts,
            };
        }
        transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SampleKind;
    use crate::tsdb::{Tsdb, TsdbConfig};
    use crate::{Telemetry, TelemetryConfig};
    use std::time::Duration;

    const SAMPLE: &str = r#"
# SLO objectives
schema = 1

[[objective]]
name = "ingest-shed"           # records dropped on the wire path
subsystem = "ingest"
kind = "ratio"
bad = ["ingest/records_late_dropped", "ingest/lines_torn"]
good = ["ingest/records_admitted"]
objective = 0.999
min_events = 10

[[objective]]
name = "profiler-overhead"
subsystem = "telemetry"
kind = "gauge_max"
gauge = "profile/overhead_pct"
limit = 3.0
objective = 0.99
fast_short_secs = 60
fast_long_secs = 300
"#;

    #[test]
    fn parses_objectives_with_defaults_and_overrides() {
        let cfg = SloConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.objectives.len(), 2);
        let shed = &cfg.objectives[0];
        assert_eq!(shed.kind, ObjectiveKind::Ratio);
        assert_eq!(shed.bad.len(), 2);
        assert_eq!(shed.good, vec!["ingest/records_admitted".to_string()]);
        assert_eq!(shed.min_events, 10);
        assert_eq!(shed.fast_short_secs, DEFAULT_FAST_SHORT_SECS);
        assert_eq!(shed.fast_burn, DEFAULT_FAST_BURN);
        let ovh = &cfg.objectives[1];
        assert_eq!(ovh.kind, ObjectiveKind::GaugeMax);
        assert_eq!(ovh.limit, 3.0);
        assert_eq!(ovh.fast_short_secs, 60);
        assert_eq!(ovh.slow_long_secs, DEFAULT_SLOW_LONG_SECS);
    }

    #[test]
    fn parse_errors_name_the_line_and_field() {
        let err = SloConfig::parse("[[objective]]\nname = \"x\"\n").unwrap_err();
        assert!(err.message.contains("missing `subsystem`"), "{err}");
        let err = SloConfig::parse(
            "[[objective]]\nname = \"x\"\nsubsystem = \"nope\"\nkind = \"ratio\"\nobjective = 0.9\nbad = [\"a\"]\ngood = [\"b\"]\n",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown subsystem"), "{err}");
        let err = SloConfig::parse("[[objective]]\nkind = \"sum\"\n").unwrap_err();
        assert!(err.message.contains("unknown kind"), "{err}");
        let err = SloConfig::parse("bad_top = 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = SloConfig::parse(
            "[[objective]]\nname = \"x\"\nsubsystem = \"ingest\"\nkind = \"ratio\"\nobjective = 1.5\nbad = [\"a\"]\ngood = [\"b\"]\n",
        )
        .unwrap_err();
        assert!(err.message.contains("objective must be in (0, 1)"), "{err}");
    }

    fn shed_config() -> SloConfig {
        SloConfig::parse(SAMPLE).unwrap()
    }

    /// A run's observatory judging `cfg` over a 100 ms history, sampled
    /// only by explicit [`Telemetry::sample`] ticks.
    fn telemetry(cfg: SloConfig) -> Telemetry {
        Telemetry::new(TelemetryConfig {
            history: Some(TsdbConfig {
                interval: Duration::from_millis(100),
                ..TsdbConfig::default()
            }),
            slo: Some(cfg),
            governor: None,
        })
    }

    /// End-to-end through a run's observatory: hostile shed must page, a
    /// clean stream must stay silent, recovery must downgrade via an
    /// info event. Burn math works on window *deltas*, so whatever
    /// absolute counter values other tests left behind do not matter.
    #[test]
    fn burn_rate_pages_on_shed_and_stays_silent_when_clean() {
        // Reads registry counters and asserts on the event ring.
        let _lock = crate::global_test_lock();
        let t = telemetry(shed_config());
        events::reset();

        let bad = crate::metrics::counter("ingest/records_late_dropped");
        let good = crate::metrics::counter("ingest/records_admitted");

        // Clean traffic: a baseline tick, then enough good volume to
        // clear the min_events guard with zero bad events.
        t.sample();
        good.add(500);
        assert!(t.sample().is_some());
        assert_eq!(events::total_at_or_above(Severity::Warn), 0);
        let health = t.deep_health();
        assert_eq!(health.status, "healthy");
        assert_eq!(health.objectives[0].status, "ok", "{health:?}");

        // Hostile shed: half the new volume drops. Partial windows mean
        // the page fires on the very next evaluation tick.
        bad.add(400);
        good.add(400);
        assert!(t.sample().is_some());
        assert_eq!(events::total(Severity::Critical), 1, "page fired once");
        let health = t.deep_health();
        assert_eq!(health.status, "critical");
        assert_eq!(health.objectives[0].status, "critical");
        assert_eq!(
            health
                .subsystems
                .iter()
                .find(|s| s.name == "ingest")
                .unwrap()
                .status,
            "critical"
        );
        let alert = events::since(0)
            .into_iter()
            .find(|e| e.severity == Severity::Critical)
            .unwrap();
        assert_eq!(alert.detector, "slo");
        assert_eq!(alert.metric, "slo/ingest-shed");
        assert!(alert.score > DEFAULT_FAST_BURN, "{}", alert.score);

        // Same state next tick: hysteresis, no duplicate page.
        t.sample();
        assert_eq!(events::total(Severity::Critical), 1);

        // Recovery: the shed stops and good volume dilutes the window
        // below the burn bar; the objective downgrades with an info
        // event.
        let mut recovered = false;
        for _ in 0..64 {
            good.add(1_000_000);
            t.sample();
            if t.deep_health().objectives[0].status == "ok" {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "{:?}", t.deep_health());
        assert!(
            events::since(0)
                .iter()
                .any(|e| e.severity == Severity::Info && e.metric == "slo/ingest-shed"),
            "recovery info event"
        );
        events::reset();
    }

    /// A counter registered after the first tick, whose events all land
    /// before the next one (a short run drained between two sampler
    /// ticks), counts them from zero; one present at tick 1, or with
    /// evicted history, keeps its oldest sample as the baseline.
    #[test]
    fn counter_born_after_the_first_tick_counts_from_zero() {
        let counter = |good: u64| {
            vec![
                (
                    "ingest/records_late_dropped".to_string(),
                    SampleKind::Counter,
                    0,
                ),
                (
                    "ingest/records_admitted".to_string(),
                    SampleKind::Counter,
                    good,
                ),
            ]
        };
        let cfg = shed_config();
        let shed = &cfg.objectives[0];
        let window = ticks_for(&Tsdb::new(TsdbConfig::default()), shed.fast_short_secs);

        let mut late = Tsdb::new(TsdbConfig::default());
        late.ingest(&[]);
        late.ingest(&counter(500));
        assert_eq!(late.first_tick("ingest/records_admitted"), Some(2));
        assert_eq!(window_ratio(&late, shed, late.ticks(), window), Some(0.0));

        // Present at tick 1: its first value may predate the history.
        let mut early = Tsdb::new(TsdbConfig::default());
        early.ingest(&counter(500));
        early.ingest(&counter(505));
        assert_eq!(window_ratio(&early, shed, early.ticks(), window), None);

        // Born late, but its first samples evicted from a 4-byte ring:
        // the oldest retained sample is the baseline again.
        let mut evicted = Tsdb::new(TsdbConfig {
            dense_bytes: 4,
            ..TsdbConfig::default()
        });
        evicted.ingest(&[]);
        for good in [500, 501, 502, 503, 504, 505, 506] {
            evicted.ingest(&counter(good));
        }
        assert_eq!(evicted.first_tick("ingest/records_admitted"), None);
        assert_eq!(window_ratio(&evicted, shed, evicted.ticks(), window), None);
    }

    /// The same through a run's observatory, as a binary sees it: the
    /// baseline tick comes before the objective's counters exist.
    #[test]
    fn late_registered_counters_read_ok_not_no_data() {
        // The counters live in the registry the sample pass reads.
        let _lock = crate::global_test_lock();
        let t = telemetry(
            SloConfig::parse(
                "[[objective]]\nname = \"late\"\nsubsystem = \"ingest\"\nkind = \"ratio\"\n\
                 objective = 0.999\nmin_events = 50\nbad = [\"slo-test/late_bad\"]\n\
                 good = [\"slo-test/late_good\"]\n",
            )
            .unwrap(),
        );
        t.sample();
        crate::metrics::counter("slo-test/late_bad");
        crate::metrics::counter("slo-test/late_good").add(500);
        assert!(t.sample().is_some());
        assert_eq!(
            t.deep_health().objectives[0].status,
            "ok",
            "{:?}",
            t.deep_health()
        );
    }

    /// A gauge window with fewer than two samples can read ok but never
    /// alarm: no sample is no-data, one clean sample is ok, one
    /// violating sample is no-data, and two samples are judged. So a
    /// run that ends within one sampler interval of a gauge's first
    /// sample reads the same as a longer one.
    #[test]
    fn gauge_windows_under_two_samples_read_ok_or_no_data() {
        // The gauges live in the registry, and the page lands in the
        // event ring.
        let _lock = crate::global_test_lock();
        let objective = |name: &str| {
            format!(
                "[[objective]]\nname = \"{name}\"\nsubsystem = \"engine\"\n\
                 kind = \"gauge_max\"\ngauge = \"slo-test/{name}\"\nlimit = 3.0\n\
                 objective = 0.99\n"
            )
        };
        let t = telemetry(
            SloConfig::parse(&(objective("rule-clean") + &objective("rule-violating"))).unwrap(),
        );
        let status = |t: &Telemetry| -> Vec<String> {
            t.deep_health()
                .objectives
                .into_iter()
                .map(|o| o.status)
                .collect()
        };

        t.sample();
        assert_eq!(status(&t), ["no-data", "no-data"], "no sample");

        crate::metrics::gauge("slo-test/rule-clean").set(1.0);
        crate::metrics::gauge("slo-test/rule-violating").set(5.0);
        t.sample();
        assert_eq!(status(&t), ["ok", "no-data"], "one sample");

        t.sample();
        assert_eq!(status(&t), ["ok", "critical"], "two samples");
    }

    #[test]
    fn gauge_objective_counts_violating_samples() {
        let mut store = Tsdb::new(TsdbConfig {
            interval: Duration::from_millis(100),
            ..TsdbConfig::default()
        });
        for v in [1.0f64, 5.0, 5.0, 5.0] {
            store.ingest(&[(
                "profile/overhead_pct".to_string(),
                SampleKind::Gauge,
                v.to_bits(),
            )]);
        }
        let cfg = shed_config();
        let ovh = &cfg.objectives[1];
        // 3 of 4 samples exceed limit 3.0 → fraction 0.75, budget 0.01
        // → burn 75x, far over both bars.
        let ratio = window_ratio(&store, ovh, store.ticks(), 1_000).unwrap();
        assert!((ratio - 0.75).abs() < 1e-12, "{ratio}");
    }

    #[test]
    fn deep_health_without_engine_is_healthy_with_reasons() {
        let health = DeepHealth::new(None, None);
        assert!(!health.slo_installed);
        assert_eq!(health.status, "healthy");
        assert_eq!(health.subsystems.len(), SUBSYSTEMS.len());
        assert!(health
            .subsystems
            .iter()
            .all(|s| s.reason == "no objectives"));
        // Render never panics and names the verdict.
        assert!(health.render().contains("deep health: healthy"));
    }
}
