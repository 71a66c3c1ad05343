//! Two runs in one process share no run state.
//!
//! A run's drift events (sequence numbers, ring, per-severity totals,
//! `--events` log) and its flight recorder live in its own
//! [`Telemetry`] handle. Two supervised engines drain the same records
//! at the same time on two threads: one profiled, with a JSONL events
//! log, one on a bare `Telemetry::default()`. Neither sees the other's
//! events or samples, so the test takes no lock.

use webpuzzle_obs::events::{parse_jsonl, Event, JsonlEventSink, Severity};
use webpuzzle_obs::Telemetry;
use webpuzzle_stream::{
    ClfSource, SourcePosition, StreamConfig, Supervisor, SupervisorConfig, SupervisorReport,
    WindowConfig,
};
use webpuzzle_weblog::clf::{format_line, WVU_BASE_EPOCH};
use webpuzzle_weblog::{LogRecord, Method};

const RECORDS: u64 = 4_000;
const SAMPLE_EVERY: u64 = 16;

/// Ten-minute windows, and an open-session cap far below the 97
/// clients, so both runs publish `load_shed` events of their own.
fn config() -> StreamConfig {
    let window = WindowConfig {
        window_len: 600.0,
        fine_bin_width: None,
        min_poisson_arrivals: 5,
        ..WindowConfig::default()
    };
    StreamConfig {
        session_threshold: 100.0,
        request_window: window.clone(),
        session_window: window,
        max_open_sessions: 8,
        ..StreamConfig::default()
    }
}

fn log_text() -> String {
    (0..RECORDS)
        .map(|i| {
            let client = (i * 37 % 97) as u32;
            let rec = LogRecord::new(
                (i + 1) as f64 * 0.5,
                client,
                Method::Get,
                client,
                200,
                200 + (i * i) % 9_000,
            );
            format_line(&rec, WVU_BASE_EPOCH) + "\n"
        })
        .collect()
}

/// Drain `text` under a supervisor on `telemetry`'s run.
fn drain(text: &str, telemetry: &Telemetry) -> SupervisorReport {
    let bytes = text.as_bytes();
    let profiler_run = telemetry.clone();
    let factory = move |pos: &SourcePosition| {
        Ok(
            ClfSource::new(&bytes[pos.byte_offset as usize..], WVU_BASE_EPOCH)
                .with_position(pos)
                .with_profiler(profiler_run.profiler()),
        )
    };
    let cfg = SupervisorConfig {
        telemetry: telemetry.clone(),
        ..SupervisorConfig::default()
    };
    Supervisor::new(config(), cfg, factory)
        .run()
        .expect("supervised drain")
}

/// The run's events: numbered 1, 2, … with no gap, and counted by
/// severity exactly as its totals say.
fn own_events(run: &Telemetry) -> Vec<Event> {
    let events = run.events().since(0);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let expected: Vec<u64> = (1..=events.len() as u64).collect();
    assert_eq!(seqs, expected, "seqs start at 1 and run unbroken");
    assert_eq!(run.events().latest_seq(), events.len() as u64);
    for severity in Severity::ALL {
        let n = events.iter().filter(|e| e.severity == severity).count() as u64;
        assert_eq!(run.events().total(severity), n, "{severity:?} total");
    }
    events
}

/// What identifies an event apart from its bookkeeping fields.
fn key(e: &Event) -> (String, String, u64, String) {
    (
        e.detector.clone(),
        e.metric.clone(),
        e.window_index,
        e.message.clone(),
    )
}

#[test]
fn two_runs_in_one_process_are_disjoint() {
    let text = log_text();
    let dir = std::env::temp_dir().join(format!("webpuzzle-run-scoped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log_path = dir.join("events.jsonl");
    let _ = std::fs::remove_file(&log_path);

    let profiled = Telemetry::default();
    profiled.enable_profiler(SAMPLE_EVERY);
    profiled
        .events()
        .set_jsonl_sink(JsonlEventSink::create(&log_path).expect("events log"));
    let plain = Telemetry::default();

    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| drain(&text, &profiled));
        let b = s.spawn(|| drain(&text, &plain));
        (
            a.join().expect("profiled run"),
            b.join().expect("plain run"),
        )
    });
    assert_eq!(a.summary, b.summary, "profiling only observes");
    assert_eq!(a.summary.records, RECORDS);
    assert!(a.summary.shed_sessions > 0, "the cap sheds");

    let profiled_events = own_events(&profiled);
    let plain_events = own_events(&plain);
    // Only the profiled run times its windows; apart from those, both
    // runs published the same events, each to itself alone.
    let (timing, rest): (Vec<Event>, Vec<Event>) = profiled_events
        .iter()
        .cloned()
        .partition(|e| e.detector == "flight_recorder");
    assert!(!timing.is_empty(), "window-timing events");
    assert!(plain_events.iter().all(|e| e.detector != "flight_recorder"));
    assert!(rest.iter().any(|e| e.detector == "load_shed"));
    assert_eq!(
        rest.iter().map(key).collect::<Vec<_>>(),
        plain_events.iter().map(key).collect::<Vec<_>>()
    );

    // The events log holds the profiled run's events and nothing else.
    let (logged, torn) = parse_jsonl(&std::fs::read_to_string(&log_path).expect("log"));
    assert_eq!(torn, 0);
    assert_eq!(logged, profiled_events);

    // Only the profiled run recorded stages, one trace per sampled
    // record and no calibration or foreign sample.
    let prof = profiled.profile_report();
    let sampled = RECORDS.div_ceil(SAMPLE_EVERY);
    assert!(prof.enabled);
    assert_eq!(prof.records_sampled, sampled);
    for stage in ["source_read", "clf_parse", "sessionize", "estimators"] {
        assert_eq!(prof.stage(stage).expect(stage).count, sampled, "{stage}");
    }
    assert!(prof.stage("window_close").expect("window_close").count > 0);
    assert!(prof.stage("event_sink").expect("event_sink").count > 0);
    let bare = plain.profile_report();
    assert!(!bare.enabled);
    assert_eq!(bare.records_sampled, 0);
    assert!(bare.stages.iter().all(|s| s.count == 0));
    let _ = std::fs::remove_file(&log_path);
}
