//! The overload governor of one run: staged degradation under pressure.
//!
//! The repo can *detect* overload (drift observatory, SLO burn rates)
//! and *recover* from crashes (supervisor, checkpoints), but sustained
//! overload needs an answer of its own: heavy-tailed object sizes and
//! long-range-dependent arrivals make overload a recurring regime, not
//! a tail event. The [`Governor`] tracks one run's budget over
//! the three quantities that actually bound process memory —
//!
//! - open-session occupancy in the sessionizer,
//! - buffered bytes in the ingest hub queues,
//! - telemetry-history store memory,
//!
//! — and folds them into one **pressure** score (the max of the
//! used/budget ratios, so the tightest budget governs). Pressure maps
//! to a staged degradation state:
//!
//! ```text
//!            pressure ≥ yellow_enter          pressure ≥ red_enter
//!   Green ─────────────────────────▶ Yellow ─────────────────────▶ Red
//!     ◀───────────────────────────────  ◀──────────────────────────
//!            pressure < yellow_exit          pressure < red_exit
//! ```
//!
//! Enter and exit thresholds are split (hysteresis) so the state never
//! flaps at a boundary. Every transition publishes a typed event
//! (`governor` detector, Warn for Yellow, Critical for Red, Info for
//! recovery to Green) and the current state and pressure are exported
//! as the `governor/state` and `governor/pressure` gauges.
//!
//! Consumers react to the state, not the raw inputs: the ingest hub
//! sheds lowest-priority records proportionally under pressure, the
//! engine samples estimator input under Yellow and hard-sheds under
//! Red (see `DESIGN.md` §16). The hot-path contract is one relaxed
//! atomic load per check ([`Governor::state`]); evaluation itself runs on the
//! telemetry cadence and on the engine's 64-record health tick.
//!
//! A run without governor budgets has no [`Governor`] in its
//! [`crate::Telemetry`]: consumers find `None`, degrade nothing and
//! checkpoint Green — a plain file-analysis run pays one `None` check.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use crate::events::{self, Event, Severity};
use crate::metrics;

/// Staged degradation state, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureState {
    /// Nominal: every input is comfortably inside its budget.
    Green,
    /// Sustained pressure: consumers degrade honestly (estimator
    /// sampling, tightened TTL, low-priority shedding) and say so.
    Yellow,
    /// Budget exhaustion imminent: hard shed + forced checkpoint.
    Red,
}

impl PressureState {
    /// Stable wire code (`governor/state` gauge value, checkpoint byte).
    pub fn code(self) -> u8 {
        match self {
            PressureState::Green => 0,
            PressureState::Yellow => 1,
            PressureState::Red => 2,
        }
    }

    /// Inverse of [`PressureState::code`]; unknown codes clamp to Red
    /// (fail toward caution, never toward silence).
    pub fn from_code(code: u8) -> PressureState {
        match code {
            0 => PressureState::Green,
            1 => PressureState::Yellow,
            _ => PressureState::Red,
        }
    }

    /// Lower-case token for messages and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            PressureState::Green => "green",
            PressureState::Yellow => "yellow",
            PressureState::Red => "red",
        }
    }
}

/// Budgets and thresholds for the governor. A budget of 0 disables
/// that input (it contributes no pressure).
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Open-session budget (sessionizer occupancy), sessions.
    pub session_budget: u64,
    /// Ingest-hub buffered-bytes budget.
    pub queue_bytes_budget: u64,
    /// Telemetry-store memory budget, bytes.
    pub memory_budget_bytes: u64,
    /// Pressure at or above which Green escalates to Yellow.
    pub yellow_enter: f64,
    /// Pressure below which Yellow relaxes back to Green.
    pub yellow_exit: f64,
    /// Pressure at or above which Yellow escalates to Red.
    pub red_enter: f64,
    /// Pressure below which Red relaxes back to Yellow.
    pub red_exit: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            session_budget: 0,
            queue_bytes_budget: 0,
            memory_budget_bytes: 0,
            yellow_enter: 0.70,
            yellow_exit: 0.60,
            red_enter: 0.90,
            red_exit: 0.80,
        }
    }
}

/// The overload governor of one run, held by its
/// [`crate::Telemetry`]. Inputs are plain relaxed atomics — each is a
/// standalone monitoring value, never used to publish other memory.
/// Transitions are serialized by `transition` so concurrent evaluators
/// cannot publish duplicate or out-of-order state-change events.
#[derive(Debug)]
pub struct Governor {
    cfg: GovernorConfig,
    state: AtomicU8,
    pressure: AtomicU64,
    /// Amounts in use, in [`INPUTS`] order.
    used: [AtomicU64; 3],
    transition: Mutex<()>,
}

/// The governor's inputs, as named in transition events.
const INPUTS: [&str; 3] = ["sessions", "queue_bytes", "memory_bytes"];

fn ratio(used: u64, budget: u64) -> f64 {
    if budget == 0 {
        0.0
    } else {
        used as f64 / budget as f64
    }
}

impl Governor {
    /// A governor in Green with every input at zero; publishes the
    /// initial gauges.
    pub(crate) fn new(cfg: GovernorConfig) -> Governor {
        metrics::gauge("governor/state").set(0.0);
        metrics::gauge("governor/pressure").set(0.0);
        Governor {
            cfg,
            state: AtomicU8::new(PressureState::Green.code()),
            pressure: AtomicU64::new(0f64.to_bits()),
            used: Default::default(),
            transition: Mutex::new(()),
        }
    }

    /// Current degradation state — one relaxed atomic load, the whole
    /// hot-path cost of the governor.
    pub fn state(&self) -> PressureState {
        PressureState::from_code(self.state.load(Ordering::Relaxed))
    }

    /// Current pressure score in `[0, ∞)` (1.0 = some input exactly at
    /// budget).
    pub fn pressure(&self) -> f64 {
        f64::from_bits(self.pressure.load(Ordering::Relaxed))
    }

    /// Report current open-session occupancy (the engine's health tick).
    pub fn set_sessions(&self, used: u64) {
        self.used[0].store(used, Ordering::Relaxed);
    }

    /// Report current buffered bytes across ingest queues.
    pub fn set_queue_bytes(&self, used: u64) {
        self.used[1].store(used, Ordering::Relaxed);
    }

    /// Report current telemetry-store memory (the history sample pass).
    pub(crate) fn set_memory_bytes(&self, used: u64) {
        self.used[2].store(used, Ordering::Relaxed);
    }

    /// Force the state (checkpoint restore): the resumed process starts
    /// from the degradation stage the killed one was in, rather than
    /// re-admitting a flood it had already shed. No transition event is
    /// published — restoring is not a regime change.
    pub fn restore_state(&self, code: u8) {
        let state = PressureState::from_code(code);
        self.state.store(state.code(), Ordering::Relaxed);
        metrics::gauge("governor/state").set(f64::from(state.code()));
    }

    /// Re-evaluate pressure against the budgets and walk the state
    /// machine one step (states never skip a stage in a single
    /// evaluation, so every transition is observable). Publishes gauges
    /// always and a typed event on each transition. Returns the
    /// post-evaluation state.
    ///
    /// Cheap enough for a 64-record cadence: three atomic loads, three
    /// divisions, and a mutex that is uncontended outside transitions.
    pub fn evaluate(&self) -> PressureState {
        let _transition = self.transition.lock().expect("governor poisoned");
        let cfg = &self.cfg;
        let budgets = [
            cfg.session_budget,
            cfg.queue_bytes_budget,
            cfg.memory_budget_bytes,
        ];
        let (dominant, pressure) = INPUTS
            .into_iter()
            .zip(&self.used)
            .zip(budgets)
            .map(|((name, used), budget)| (name, ratio(used.load(Ordering::Relaxed), budget)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite ratios"))
            .expect("non-empty inputs");
        self.pressure.store(pressure.to_bits(), Ordering::Relaxed);
        metrics::gauge("governor/pressure").set(pressure);

        let before = self.state();
        let after = match before {
            PressureState::Green if pressure >= cfg.yellow_enter => PressureState::Yellow,
            PressureState::Yellow if pressure >= cfg.red_enter => PressureState::Red,
            PressureState::Yellow if pressure < cfg.yellow_exit => PressureState::Green,
            PressureState::Red if pressure < cfg.red_exit => PressureState::Yellow,
            same => same,
        };
        if after != before {
            self.state.store(after.code(), Ordering::Relaxed);
            metrics::gauge("governor/state").set(f64::from(after.code()));
            metrics::counter("governor/transitions").incr();
            let severity = match after {
                PressureState::Green => Severity::Info,
                PressureState::Yellow => Severity::Warn,
                PressureState::Red => Severity::Critical,
            };
            let threshold = match (before, after) {
                (PressureState::Green, _) => cfg.yellow_enter,
                (PressureState::Yellow, PressureState::Red) => cfg.red_enter,
                (PressureState::Yellow, _) => cfg.yellow_exit,
                (PressureState::Red, _) => cfg.red_exit,
            };
            events::publish(Event::new(
                severity,
                "governor",
                "governor/state",
                0,
                0.0,
                f64::from(before.code()),
                f64::from(after.code()),
                pressure,
                threshold,
                format!(
                    "overload governor {} -> {} (pressure {pressure:.3}, dominant input {dominant})",
                    before.as_str(),
                    after.as_str(),
                ),
            ));
        }
        after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> GovernorConfig {
        GovernorConfig {
            session_budget: 100,
            queue_bytes_budget: 1_000,
            memory_budget_bytes: 0,
            ..GovernorConfig::default()
        }
    }

    #[test]
    fn uninstalled_governor_is_always_green() {
        // A run without budgets has no governor to degrade anything.
        assert!(crate::Telemetry::default().governor().is_none());
        // Governors publish the `governor/*` gauges into the registry.
        let _lock = crate::global_test_lock();
        let gov = Governor::new(base_cfg());
        gov.set_sessions(u64::MAX);
        assert_eq!(
            gov.state(),
            PressureState::Green,
            "inputs alone move nothing"
        );
        assert_eq!(gov.pressure(), 0.0);
    }

    #[test]
    fn pressure_is_the_max_ratio_and_zero_budgets_are_ignored() {
        let _lock = crate::global_test_lock();
        let gov = Governor::new(base_cfg());
        gov.set_sessions(50); // 0.5
        gov.set_queue_bytes(300); // 0.3
        gov.set_memory_bytes(u64::MAX); // budget 0: ignored
        assert_eq!(gov.evaluate(), PressureState::Green);
        assert!((gov.pressure() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn escalation_walks_one_stage_at_a_time_with_hysteresis() {
        let _lock = crate::global_test_lock();
        let gov = Governor::new(base_cfg());
        // Straight to over-red pressure: first evaluation only reaches
        // Yellow, the next one Red — no stage is skipped.
        gov.set_sessions(95);
        assert_eq!(gov.evaluate(), PressureState::Yellow);
        assert_eq!(gov.evaluate(), PressureState::Red);
        assert_eq!(gov.state(), PressureState::Red);
        // Between red_exit and red_enter: Red holds (hysteresis).
        gov.set_sessions(85);
        assert_eq!(gov.evaluate(), PressureState::Red);
        // Below red_exit: back to Yellow; holds above yellow_exit.
        gov.set_sessions(65);
        assert_eq!(gov.evaluate(), PressureState::Yellow);
        assert_eq!(gov.evaluate(), PressureState::Yellow);
        // Below yellow_exit: recovered.
        gov.set_sessions(10);
        assert_eq!(gov.evaluate(), PressureState::Green);
    }

    #[test]
    fn transitions_publish_events_and_gauges() {
        let _lock = crate::global_test_lock();
        crate::events::reset();
        let transitions_before = metrics::counter("governor/transitions").get();
        let gov = Governor::new(base_cfg());
        gov.set_queue_bytes(950);
        gov.evaluate(); // -> Yellow
        gov.evaluate(); // -> Red
        gov.set_queue_bytes(0);
        gov.evaluate(); // -> Yellow
        gov.evaluate(); // -> Green
        let evs: Vec<_> = crate::events::since(0)
            .into_iter()
            .filter(|e| e.detector == "governor")
            .collect();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].severity, Severity::Warn);
        assert_eq!(evs[1].severity, Severity::Critical);
        assert_eq!(evs[2].severity, Severity::Warn);
        assert_eq!(evs[3].severity, Severity::Info);
        assert!(evs[1].message.contains("queue_bytes"));
        assert_eq!(metrics::gauge("governor/state").get(), 0.0);
        assert_eq!(
            metrics::counter("governor/transitions").get() - transitions_before,
            4
        );
    }

    #[test]
    fn state_code_round_trips_for_checkpoints() {
        for s in [
            PressureState::Green,
            PressureState::Yellow,
            PressureState::Red,
        ] {
            assert_eq!(PressureState::from_code(s.code()), s);
        }
        let _lock = crate::global_test_lock();
        let gov = Governor::new(base_cfg());
        gov.restore_state(PressureState::Yellow.code());
        assert_eq!(gov.state(), PressureState::Yellow);
    }
}
