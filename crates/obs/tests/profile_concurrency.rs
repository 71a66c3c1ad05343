//! Flight-recorder behaviour under threads: aggregation across worker
//! threads, a process-wide reset while spans and traces are live, and
//! the determinism of 1-in-N sampling. Each test records into its own
//! [`Profiler`]; the two that touch the process-wide span arena
//! serialize on one lock (this file is its own test binary, but
//! `cargo test` still runs `#[test]`s in parallel threads).

use std::sync::Mutex;

use webpuzzle_obs as obs;
use webpuzzle_obs::profile::{self, Profiler, Stage};

/// Guards the process-wide span arena.
static SPANS: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn spans_and_profile_aggregate_across_threads() {
    let _guard = locked();
    obs::reset();
    let profiler = Profiler::new(1);

    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let profiler = &profiler;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let _span = obs::spans::enter("worker");
                    // Traces are thread-local until finish_trace folds
                    // them into the shared histograms.
                    profile::begin_trace((t as u64) * PER_THREAD + i, i as f64);
                    profile::trace_add(Stage::Sessionize, 100);
                    profile::trace_add(Stage::Estimators, 50);
                    profiler.finish_trace();
                    profiler.record_stage_ns(Stage::WindowClose, 10);
                }
            });
        }
    });

    let report = profiler.snapshot();
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
    let profiler = Profiler::new(1);

    // A span guard and a trace are live on this thread when another
    // thread resets the process-wide state out from under them.
    let span = obs::spans::enter("doomed");
    profile::begin_trace(7, 1.0);
    profile::trace_add(Stage::ClfParse, 500);

    std::thread::scope(|s| {
        s.spawn(obs::reset);
    });

    // The trace is thread-local and the recorder belongs to the run, so
    // both survive the reset; finishing the trace records it whole.
    profile::trace_add(Stage::ClfParse, 500);
    profiler.finish_trace();
    drop(span); // arena may have shrunk; Drop must tolerate that

    let report = profiler.snapshot();
    assert!(report.enabled);
    assert_eq!(report.records_sampled, 1);
    assert_eq!(
        report.stage("clf_parse").expect("clf_parse").total_ns,
        1_000
    );
    // The span arena is still usable afterwards.
    drop(obs::spans::enter("after"));
    assert!(obs::spans::snapshot().iter().any(|s| s.name == "after"));
    obs::reset();
}

#[test]
fn sampling_is_deterministic_across_runs() {
    // Synthetic per-record cost: varies with the index but is a pure
    // function of it, so two passes over the "stream" are identical.
    let cost = |i: u64| 100 + (i * 37) % 5_000;
    let run = || -> (Vec<u64>, u64) {
        let profiler = Profiler::new(8);
        profiler.set_exemplar_capacity(1_024);
        for i in 0..1_000u64 {
            if profiler.should_sample(i) {
                profile::begin_trace(i, i as f64);
                profile::trace_add(Stage::ClfParse, cost(i));
                profiler.finish_trace();
            }
        }
        let report = profiler.snapshot();
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
}
