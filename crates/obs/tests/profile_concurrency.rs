//! Flight-recorder behaviour under threads: aggregation across worker
//! threads, reset while spans and traces are live, and the determinism
//! of 1-in-N sampling. Profiler and span state are process-global, so
//! the tests serialize on one lock (this file is its own test binary,
//! but `cargo test` still runs `#[test]`s in parallel threads).

use std::sync::Mutex;

use webpuzzle_obs as obs;
use webpuzzle_obs::profile::{self, Stage};

/// Guards the process-wide profiler and span arena.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn spans_and_profile_aggregate_across_threads() {
    let _guard = locked();
    obs::reset();
    profile::enable(1);

    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let _span = obs::spans::enter("worker");
                    // Traces are thread-local until finish_trace folds
                    // them into the shared histograms.
                    profile::begin_trace((t as u64) * PER_THREAD + i, i as f64);
                    profile::trace_add(Stage::Sessionize, 100);
                    profile::trace_add(Stage::Estimators, 50);
                    profile::finish_trace();
                    profile::record_stage_ns(Stage::WindowClose, 10);
                }
            });
        }
    });

    let report = profile::snapshot();
    let n = (THREADS as u64) * PER_THREAD;
    assert_eq!(report.records_sampled, n);
    let sess = report.stage("sessionize").expect("sessionize stage");
    assert_eq!(sess.count, n);
    assert_eq!(sess.total_ns, n * 100);
    let est = report.stage("estimators").expect("estimators stage");
    assert_eq!(est.count, n);
    assert_eq!(est.total_ns, n * 50);
    let close = report.stage("window_close").expect("window_close stage");
    assert_eq!(close.count, n);
    assert_eq!(close.total_ns, n * 10);

    let spans = obs::spans::snapshot();
    let worker = spans
        .iter()
        .find(|s| s.name == "worker")
        .expect("worker span");
    assert_eq!(worker.count, n);
    obs::reset();
}

#[test]
fn reset_with_live_guards_and_traces_does_not_panic() {
    let _guard = locked();
    obs::reset();
    profile::enable(1);

    // A span guard and a trace are live on this thread when another
    // thread resets the world out from under them.
    let span = obs::spans::enter("doomed");
    profile::begin_trace(7, 1.0);
    profile::trace_add(Stage::ClfParse, 500);

    std::thread::scope(|s| {
        s.spawn(obs::reset);
    });

    // The trace is thread-local, so it survives the reset; finishing it
    // lands in the freshly cleared (now disabled) state without panics.
    profile::trace_add(Stage::ClfParse, 500);
    profile::finish_trace();
    drop(span); // arena may have shrunk; Drop must tolerate that

    let report = profile::snapshot();
    assert!(!report.enabled, "reset disables profiling");
    let leaked = report.records_sampled;
    assert!(leaked <= 1);
    // The world is still usable afterwards.
    profile::enable(2);
    profile::begin_trace(0, 0.0);
    profile::trace_add(Stage::SourceRead, 1);
    profile::finish_trace();
    assert_eq!(profile::snapshot().records_sampled, leaked + 1);
    obs::reset();
}

#[test]
fn sampling_is_deterministic_across_runs() {
    let _guard = locked();

    // Synthetic per-record cost: varies with the index but is a pure
    // function of it, so two passes over the "stream" are identical.
    let cost = |i: u64| 100 + (i * 37) % 5_000;
    let run = || -> (Vec<u64>, u64) {
        obs::reset();
        profile::enable(8);
        profile::set_exemplar_capacity(1_024);
        for i in 0..1_000u64 {
            if profile::should_sample(i) {
                profile::begin_trace(i, i as f64);
                profile::trace_add(Stage::ClfParse, cost(i));
                profile::finish_trace();
            }
        }
        let report = profile::snapshot();
        let mut indexes: Vec<u64> = report.exemplars.iter().map(|e| e.record_index).collect();
        indexes.sort_unstable();
        (indexes, report.records_sampled)
    };

    let (first, sampled_first) = run();
    let (second, sampled_second) = run();
    assert_eq!(sampled_first, 125, "1-in-8 over 1000 records");
    assert_eq!(sampled_first, sampled_second);
    assert_eq!(first, second, "exemplar sets must be reproducible");
    // The sampling grid is exactly the multiples of N — record 0 first,
    // so short streams still yield at least one trace.
    assert!(first.iter().all(|i| i % 8 == 0));
    assert!(first.contains(&0));
    obs::reset();
}
