//! The run-scoped observatory: one [`Telemetry`] handle per run.
//!
//! A run's history store ([`Tsdb`]) and its sampler thread, its SLO
//! judge (`SloEngine`), its overload governor ([`Governor`]) and its
//! latest [`DiagnosticsReport`] live behind one cheap-[`Clone`] handle,
//! each only when the run asks for it. What stays process-wide, and
//! why, is in the crate docs.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use serde::Value;

use crate::diagnostics::DiagnosticsReport;
use crate::governor::{Governor, GovernorConfig};
use crate::report::RunReport;
use crate::slo::{DeepHealth, SloConfig, SloEngine};
use crate::tsdb::{self, Tsdb, TsdbConfig};
use crate::{events, metrics};

/// What a run asks of its observatory; `None` leaves a part out.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Sample the registry into a history store.
    pub history: Option<TsdbConfig>,
    /// Judge burn-rate objectives over that history at every tick.
    pub slo: Option<SloConfig>,
    /// Degrade under pressure against these budgets.
    pub governor: Option<GovernorConfig>,
}

/// Handle to one run's observatory; clones share it.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    store: Option<Mutex<Tsdb>>,
    slo: Option<Mutex<SloEngine>>,
    governor: Option<Governor>,
    diagnostics: Mutex<Option<DiagnosticsReport>>,
    /// The cadence thread, and the sender whose drop ends it.
    sampler: Mutex<Option<(Sender<()>, JoinHandle<()>)>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("telemetry lock poisoned by a panic while it was held")
}

impl Telemetry {
    /// The observatory `cfg` asks for. It takes no tick until
    /// [`Telemetry::sample`] or [`Telemetry::start_sampler`].
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                governor: cfg.governor.map(Governor::new),
                store: cfg.history.map(|c| Mutex::new(Tsdb::new(c))),
                slo: cfg.slo.map(|c| Mutex::new(SloEngine::new(c))),
                ..Inner::default()
            }),
        }
    }

    /// The run's overload governor, if it has budgets.
    pub fn governor(&self) -> Option<&Governor> {
        self.inner.governor.as_ref()
    }

    /// Take one history tick (the registry is read before the store is
    /// locked, so a `/timeseries` scrape never waits on it), refresh the
    /// `tsdb/*` self-metrics, feed the store's memory to the governor,
    /// then run the SLO pass. `None` without a history store.
    pub fn sample(&self) -> Option<u64> {
        let store = self.inner.store.as_ref()?;
        let values = metrics::sample_values();
        let (tick, stats) = {
            let mut store = lock(store);
            let tick = store.ingest(&values);
            (tick, store.stats())
        };
        metrics::gauge("tsdb/series").set(stats.series as f64);
        metrics::gauge("tsdb/memory_bytes").set(stats.memory_bytes as f64);
        metrics::gauge("tsdb/last_tick_unix").set(tsdb::now_unix_ms() as f64 / 1e3);
        if stats.evicted_samples > 0 {
            metrics::gauge("tsdb/evicted_samples").set(stats.evicted_samples as f64);
        }
        // The history store is one of the governor's memory inputs; the
        // sample cadence doubles as its evaluation cadence, so pressure
        // is re-assessed even when the engine is idle.
        if let Some(governor) = self.governor() {
            governor.set_memory_bytes(stats.memory_bytes);
            governor.evaluate();
        }
        if let Some(slo) = &self.inner.slo {
            let fired = lock(slo).evaluate(&lock(store));
            for event in fired {
                events::publish(event);
            }
        }
        Some(tick)
    }

    /// Take the baseline tick (the left edge of every burn-rate window,
    /// so even a run shorter than one interval has one), then sample
    /// every interval on a background thread until [`Telemetry::finish`].
    /// Does nothing without a history store.
    pub fn start_sampler(self) -> Telemetry {
        let Some(store) = &self.inner.store else {
            return self;
        };
        let interval = lock(store).interval();
        self.sample();
        let (stop, stopped) = mpsc::channel::<()>();
        // A weak reference: the thread must not keep the run alive.
        let inner = Arc::downgrade(&self.inner);
        let thread = std::thread::Builder::new()
            .name("webpuzzle-tsdb".to_string())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let Some(inner) = inner.upgrade() else {
                        break;
                    };
                    Telemetry { inner }.sample();
                }
            })
            .expect("spawn tsdb sampler");
        *lock(&self.inner.sampler) = Some((stop, thread));
        self
    }

    /// Stop the sampler, then take one final tick so the last partial
    /// interval is never lost.
    pub fn finish(&self) {
        let sampler = lock(&self.inner.sampler).take();
        if let Some((stop, thread)) = sampler {
            drop(stop);
            thread.join().expect("history sampler thread panicked");
        }
        self.sample();
    }

    /// Run `f` against the history store; `None` without one.
    pub fn history<R>(&self, f: impl FnOnce(&Tsdb) -> R) -> Option<R> {
        self.inner.store.as_ref().map(|store| f(&lock(store)))
    }

    /// The deep-health rollup of the SLO engine's latest evaluation and
    /// the history store's accounting.
    pub fn deep_health(&self) -> DeepHealth {
        let engine = self.inner.slo.as_ref().map(lock);
        let stats = self.history(Tsdb::stats);
        DeepHealth::new(engine.as_deref(), stats)
    }

    /// The run report's SLO verdict block, if the run judges objectives.
    pub fn slo_report(&self) -> Option<DeepHealth> {
        self.inner.slo.is_some().then(|| self.deep_health())
    }

    /// Publish `report` as the run's current diagnostics block (the
    /// engine does so at every window close and once at finish).
    pub fn set_diagnostics(&self, report: DiagnosticsReport) {
        *lock(&self.inner.diagnostics) = Some(report);
    }

    /// The run's current diagnostics block, once an engine published one.
    pub fn diagnostics(&self) -> Option<DiagnosticsReport> {
        lock(&self.inner.diagnostics).clone()
    }

    /// [`RunReport::collect`] with this run's diagnostics and SLO verdict
    /// blocks filled in.
    pub fn run_report(
        &self,
        tool: &str,
        seed: Option<u64>,
        config: Value,
        args: Vec<String>,
    ) -> RunReport {
        RunReport {
            diagnostics: self.diagnostics(),
            slo: self.slo_report(),
            ..RunReport::collect(tool, seed, config, args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn history(interval_ms: u64) -> TelemetryConfig {
        TelemetryConfig {
            history: Some(TsdbConfig {
                interval: Duration::from_millis(interval_ms),
                ..TsdbConfig::default()
            }),
            ..TelemetryConfig::default()
        }
    }

    #[test]
    fn samples_the_registry_and_answers_queries() {
        // Asserts on counter values in the registry.
        let _lock = crate::global_test_lock();
        let t = Telemetry::new(history(10));
        metrics::counter("tsdb_unit/global_counter").add(3);
        let t1 = t.sample().unwrap();
        metrics::counter("tsdb_unit/global_counter").add(4);
        let t2 = t.sample().unwrap();
        assert_eq!(t2, t1 + 1);
        let r = t
            .history(|s| s.query("tsdb_unit/global_counter", 0, 0))
            .flatten()
            .unwrap();
        assert!(r.points.len() >= 2);
        let last = r.points.last().unwrap();
        assert_eq!(last.value, 7.0);
        let names = t.history(Tsdb::series_names).unwrap();
        assert!(names.contains(&"tsdb_unit/global_counter".to_string()));
        assert!(t.history(Tsdb::stats).unwrap().ticks >= 2);
        // A run without history answers nothing, and a second run's
        // store is its own.
        let bare = Telemetry::default();
        assert!(bare.sample().is_none());
        assert!(bare.history(Tsdb::ticks).is_none());
        assert_eq!(Telemetry::new(history(10)).history(Tsdb::ticks), Some(0));
    }

    #[test]
    fn finish_stops_a_long_interval_sampler_at_once() {
        let t = Telemetry::new(history(600_000)).start_sampler();
        assert_eq!(t.history(Tsdb::ticks), Some(1), "baseline tick");
        let started = std::time::Instant::now();
        t.finish();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "no wait for the interval"
        );
        assert_eq!(t.history(Tsdb::ticks), Some(2), "baseline and final tick");
    }
}
