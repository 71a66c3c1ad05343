//! Stage watchdog: stall detection for the long-running pipeline.
//!
//! Every pipeline stage that makes progress (a record pushed, a batch
//! drained, a poll loop turned) **beats** its [`StageHandle`]. The
//! watchdog scans those beats; a stage whose last beat is older than
//! [`WatchdogConfig::stall_after`] is declared stalled — a `Critical`
//! `watchdog` event is published to the run's [`Telemetry`], the stage's stall counter and the
//! `watchdog/stalled_stages` gauge go up, and the stage shows up in
//! [`Watchdog::stalled_stages`] for the supervisor loop to escalate on
//! (degrade the exit code, force a checkpoint, refuse new work). The
//! first beat after a stall clears it with an `Info` recovery event.
//!
//! The scan is a pure function of injected millisecond timestamps
//! ([`StageHandle::beat_at`] / [`Watchdog::scan_at`]), so tests and
//! chaos drills drive stalls deterministically without sleeping.
//! [`Watchdog::spawn_monitor`] is the thin wall-clock loop the binaries
//! run: beat on progress, scan on a cadence, nothing else.
//!
//! A stall is an *escalation signal*, not a kill switch: the watchdog
//! never unwinds a stage itself. Tearing down a wedged thread from
//! outside would tear its state mid-update; instead the supervisor
//! decides — and because every verdict is also a typed event, a stall
//! that self-heals still leaves a record that it happened.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use webpuzzle_obs::events::{Event, Severity};
use webpuzzle_obs::{metrics, Telemetry};

/// Watchdog tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// A stage with no beat for this long is stalled.
    pub stall_after: Duration,
    /// Monitor-thread scan cadence ([`Watchdog::spawn_monitor`] only;
    /// deterministic drivers call [`Watchdog::scan_at`] themselves).
    pub poll_interval: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_after: Duration::from_secs(30),
            poll_interval: Duration::from_secs(1),
        }
    }
}

/// One watched stage: its last beat and whether it is currently
/// considered stalled.
struct StageSlot {
    name: String,
    /// Milliseconds since the watchdog's epoch at the last beat.
    last_beat_ms: AtomicU64,
    stalled: AtomicBool,
    stalls: Arc<metrics::Counter>,
}

struct Inner {
    cfg: WatchdogConfig,
    epoch: Instant,
    stages: Vec<StageSlot>,
    stop: AtomicBool,
    stalled_gauge: Arc<metrics::Gauge>,
    telemetry: Telemetry,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// Cloneable per-stage beat handle; cheap enough to call per record.
#[derive(Clone)]
pub struct StageHandle {
    inner: Arc<Inner>,
    idx: usize,
}

impl StageHandle {
    /// Record progress now (wall clock).
    pub fn beat(&self) {
        self.beat_at(self.inner.now_ms());
    }

    /// Record progress at an injected timestamp (milliseconds since
    /// the watchdog's epoch) — the deterministic form for tests and
    /// drills.
    pub fn beat_at(&self, now_ms: u64) {
        self.inner.stages[self.idx]
            .last_beat_ms
            .store(now_ms, Ordering::Relaxed);
    }
}

/// The watchdog itself. See the module docs.
pub struct Watchdog {
    inner: Arc<Inner>,
    monitor: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Build a watchdog over named stages that publishes its verdicts
    /// to `telemetry`; every stage starts freshly beaten (a stage is only
    /// stalled `stall_after` after the watchdog comes up, never at t=0).
    pub fn new(cfg: WatchdogConfig, stage_names: &[&str], telemetry: Telemetry) -> Watchdog {
        let stages = stage_names
            .iter()
            .map(|name| StageSlot {
                name: (*name).to_string(),
                last_beat_ms: AtomicU64::new(0),
                stalled: AtomicBool::new(false),
                stalls: metrics::counter(&format!("watchdog/{name}_stalls")),
            })
            .collect();
        Watchdog {
            inner: Arc::new(Inner {
                cfg,
                epoch: Instant::now(),
                stages,
                stop: AtomicBool::new(false),
                stalled_gauge: metrics::gauge("watchdog/stalled_stages"),
                telemetry,
            }),
            monitor: None,
        }
    }

    /// Beat handle for stage `idx` (order of construction).
    ///
    /// # Panics
    ///
    /// If `idx` is out of range.
    pub fn handle(&self, idx: usize) -> StageHandle {
        assert!(idx < self.inner.stages.len(), "no such watchdog stage");
        StageHandle {
            inner: Arc::clone(&self.inner),
            idx,
        }
    }

    /// Scan all stages at an injected timestamp: flag stalls, clear
    /// recoveries, publish events, update gauges. Returns how many
    /// stages are stalled after the scan.
    pub fn scan_at(&self, now_ms: u64) -> usize {
        let stall_ms = self.inner.cfg.stall_after.as_millis() as u64;
        let mut stalled_now = 0usize;
        for slot in &self.inner.stages {
            let last = slot.last_beat_ms.load(Ordering::Relaxed);
            let silent_ms = now_ms.saturating_sub(last);
            let was_stalled = slot.stalled.load(Ordering::Relaxed);
            if silent_ms > stall_ms {
                stalled_now += 1;
                if !was_stalled {
                    slot.stalled.store(true, Ordering::Relaxed);
                    slot.stalls.incr();
                    self.inner.telemetry.publish(Event::new(
                        Severity::Critical,
                        "watchdog",
                        &format!("watchdog/{}_stalls", slot.name),
                        0,
                        now_ms as f64 / 1000.0,
                        0.0,
                        1.0,
                        silent_ms as f64 / 1000.0,
                        stall_ms as f64 / 1000.0,
                        format!(
                            "stage '{}' stalled: no progress for {:.1}s \
                             (stall_after = {:.1}s)",
                            slot.name,
                            silent_ms as f64 / 1000.0,
                            stall_ms as f64 / 1000.0,
                        ),
                    ));
                }
            } else if was_stalled {
                slot.stalled.store(false, Ordering::Relaxed);
                self.inner.telemetry.publish(Event::new(
                    Severity::Info,
                    "watchdog",
                    &format!("watchdog/{}_stalls", slot.name),
                    0,
                    now_ms as f64 / 1000.0,
                    1.0,
                    0.0,
                    silent_ms as f64 / 1000.0,
                    stall_ms as f64 / 1000.0,
                    format!("stage '{}' recovered: beating again", slot.name),
                ));
            }
        }
        self.inner.stalled_gauge.set(stalled_now as f64);
        stalled_now
    }

    /// Scan at the wall clock — [`Watchdog::scan_at`] with now. For
    /// callers running their own monitor loop (e.g. one that only
    /// scans while work is actually pending).
    pub fn scan(&self) -> usize {
        self.scan_at(self.inner.now_ms())
    }

    /// Names of the stages currently flagged as stalled.
    pub fn stalled_stages(&self) -> Vec<String> {
        self.inner
            .stages
            .iter()
            .filter(|s| s.stalled.load(Ordering::Relaxed))
            .map(|s| s.name.clone())
            .collect()
    }

    /// Total stall verdicts across all stages since construction.
    pub fn total_stalls(&self) -> u64 {
        self.inner.stages.iter().map(|s| s.stalls.get()).sum()
    }

    /// Start the wall-clock monitor thread (idempotent). It beats
    /// nothing itself — it only scans on `poll_interval`.
    pub fn spawn_monitor(&mut self) {
        if self.monitor.is_some() {
            return;
        }
        let inner = Arc::clone(&self.inner);
        let scanner = Watchdog {
            inner: Arc::clone(&self.inner),
            monitor: None,
        };
        self.monitor = Some(std::thread::spawn(move || {
            while !inner.stop.load(Ordering::Relaxed) {
                std::thread::sleep(inner.cfg.poll_interval);
                if inner.stop.load(Ordering::Relaxed) {
                    break;
                }
                scanner.scan_at(inner.now_ms());
            }
        }));
    }

    /// Stop and join the monitor thread, if one is running.
    pub fn stop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dog(stall_secs: u64, telemetry: Telemetry) -> Watchdog {
        Watchdog::new(
            WatchdogConfig {
                stall_after: Duration::from_secs(stall_secs),
                poll_interval: Duration::from_millis(10),
            },
            &["ingest", "engine"],
            telemetry,
        )
    }

    #[test]
    fn silence_past_the_deadline_stalls_and_a_beat_recovers() {
        let run = Telemetry::default();
        let wd = dog(5, run.clone());
        let ingest = wd.handle(0);
        let engine = wd.handle(1);
        ingest.beat_at(0);
        engine.beat_at(0);

        // Inside the deadline: quiet is fine.
        assert_eq!(wd.scan_at(5_000), 0);
        assert!(wd.stalled_stages().is_empty());

        // Engine beats, ingest goes silent past the deadline.
        engine.beat_at(6_000);
        assert_eq!(wd.scan_at(6_001), 1);
        assert_eq!(wd.stalled_stages(), vec!["ingest".to_string()]);
        assert_eq!(wd.total_stalls(), 1);

        // Staying stalled is not a new stall.
        assert_eq!(wd.scan_at(9_000), 1);
        assert_eq!(wd.total_stalls(), 1);

        // One beat clears it.
        ingest.beat_at(9_500);
        assert_eq!(wd.scan_at(9_600), 0);
        assert!(wd.stalled_stages().is_empty());

        // A second silence is a second stall.
        assert_eq!(wd.scan_at(20_000), 2);
        assert_eq!(wd.total_stalls(), 3);

        // Every verdict is one of the run's events.
        assert_eq!(run.events().total(Severity::Critical), 3);
        assert_eq!(run.events().total(Severity::Info), 1);
    }

    #[test]
    fn monitor_thread_stops_cleanly() {
        let mut wd = dog(3600, Telemetry::default());
        wd.handle(0).beat();
        wd.handle(1).beat();
        wd.spawn_monitor();
        wd.spawn_monitor(); // idempotent
        wd.stop();
        wd.stop(); // idempotent
    }
}
