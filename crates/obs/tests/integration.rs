//! Integration tests for the instrumentation layer: nested span timing,
//! concurrent metric updates, and report round-trips.
//!
//! Spans and metrics are process-global, so every test funnels through
//! one lock to stay deterministic under the parallel test runner.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use webpuzzle_obs as obs;

/// Guards the process-wide span arena and metrics registry.
fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[test]
fn nested_span_timing_is_monotonic() {
    let _guard = global_lock();
    obs::reset();

    {
        let _outer = obs::span!("it/outer");
        {
            let _inner = obs::span!("it/inner");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let report = obs::RunReport::collect("test", None, serde::Value::Null, vec![]);
    let outer = report.find_span("it/outer").expect("outer recorded");
    let inner = report.find_span("it/inner").expect("inner recorded");
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 1);
    // A parent's wall-clock covers all of its children's.
    assert!(
        outer.total_ms >= inner.total_ms,
        "outer {} ms < inner {} ms",
        outer.total_ms,
        inner.total_ms
    );
    // And the inner sleep is visible in both.
    assert!(inner.total_ms >= 4.0, "inner {} ms", inner.total_ms);
    assert!(outer.total_ms >= 6.0, "outer {} ms", outer.total_ms);
    // Nesting is structural, not just by name.
    assert_eq!(outer.children.len(), 1);
    assert_eq!(outer.children[0].name, "it/inner");
}

#[test]
fn repeated_spans_aggregate_instead_of_fanning_out() {
    let _guard = global_lock();
    obs::reset();

    for _ in 0..50 {
        let _span = obs::span!("it/loop_body");
    }
    let report = obs::RunReport::collect("test", None, serde::Value::Null, vec![]);
    let node = report.find_span("it/loop_body").expect("recorded");
    assert_eq!(node.count, 50);
}

#[test]
fn concurrent_counter_increments_are_lossless() {
    let _guard = global_lock();
    obs::reset();

    const THREADS: u64 = 8;
    const INCREMENTS: u64 = 10_000;
    static OBSERVED_MAX: AtomicU64 = AtomicU64::new(0);

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(|| {
                let counter = obs::metrics::counter("it/concurrent");
                for _ in 0..INCREMENTS {
                    counter.incr();
                }
                OBSERVED_MAX.fetch_max(counter.get(), Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    assert_eq!(
        obs::metrics::counter("it/concurrent").get(),
        THREADS * INCREMENTS
    );
    // Each thread saw at least its own increments at read time.
    assert!(OBSERVED_MAX.load(Ordering::Relaxed) >= INCREMENTS);
}

#[test]
fn run_report_round_trips_through_json() {
    let _guard = global_lock();
    obs::reset();

    {
        let _outer = obs::span!("it/rt_outer");
        let _inner = obs::span!("it/rt_inner");
    }
    obs::metrics::counter("it/rt_counter").add(7);
    obs::metrics::gauge("it/rt_gauge").set(2.5);
    let h = obs::metrics::histogram("it/rt_hist");
    for v in [0, 1, 3, 1000] {
        h.record(v);
    }

    let config = serde::Value::Object(vec![(
        "scale".to_string(),
        serde::Value::Num(serde::Number::F(0.05)),
    )]);
    let report = obs::RunReport::collect("roundtrip", Some(99), config, vec!["--json".to_string()]);
    let json = report.to_json_pretty();
    let back: obs::RunReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(report, back);

    assert_eq!(back.tool, "roundtrip");
    assert_eq!(back.seed, Some(99));
    let counter = back
        .counters
        .iter()
        .find(|c| c.name == "it/rt_counter")
        .expect("counter present");
    assert_eq!(counter.value, 7);
    let hist = back
        .histograms
        .iter()
        .find(|h| h.name == "it/rt_hist")
        .expect("histogram present");
    assert_eq!(hist.count, 4);
    assert_eq!(hist.sum, 1004);
    assert!(back.find_span("it/rt_inner").is_some());
}
