//! Governor-coupled admission tests.
//!
//! Every hub here gets its own run's [`Telemetry`], so a governor forced
//! to Yellow or Red in one test cannot bleed into another: the tests
//! share no governor state and run in parallel.

use std::sync::Arc;

use webpuzzle_ingest::{HubConfig, IngestHub, NetSource, Priority};
use webpuzzle_obs::governor::{GovernorConfig, PressureState};
use webpuzzle_obs::{Telemetry, TelemetryConfig};
use webpuzzle_stream::{
    Checkpoint, SourcePosition, StreamAnalyzer, StreamConfig, Supervisor, SupervisorConfig,
    SupervisorReport,
};
use webpuzzle_weblog::{LogRecord, Method};

fn rec(t: f64, client: u32) -> LogRecord {
    LogRecord::new(t, client, Method::Get, 0, 200, 0)
}

/// A run's observatory whose governor (16-session budget) is forced to
/// `want` via session pressure. `evaluate_governor` walks one stage per call, so
/// Red takes two rounds.
fn governed(sessions: u64, want: PressureState) -> Telemetry {
    let telemetry = Telemetry::new(TelemetryConfig {
        governor: Some(GovernorConfig {
            session_budget: 16,
            ..GovernorConfig::default()
        }),
        ..TelemetryConfig::default()
    });
    let governor = telemetry.governor().expect("a governor");
    governor.set_sessions(sessions);
    telemetry.evaluate_governor();
    if governor.state() != want {
        telemetry.evaluate_governor();
    }
    assert_eq!(governor.state(), want, "could not force governor state");
    telemetry
}

fn conservation(stats: &webpuzzle_ingest::HubStats, sent: u64) {
    let accounted = stats.admitted
        + stats.late_dropped
        + stats.duplicate_dropped
        + stats.stall_late_dropped
        + stats.pressure_shed
        + stats.breaker_dropped
        + stats.shutdown_dropped;
    assert_eq!(
        accounted, sent,
        "shed accounting must be conservation-exact: {stats:?}"
    );
}

/// Under Yellow at pressure 0.75 (dyadic, so the Bresenham accumulator
/// is float-exact), a Low source sheds exactly proportionally while a
/// Normal source is untouched; every record is accounted somewhere.
#[test]
fn yellow_sheds_low_priority_proportionally() {
    let h = IngestHub::new(HubConfig {
        expected_sources: Some(2),
        telemetry: governed(12, PressureState::Yellow),
        ..HubConfig::default()
    });
    let low = h.register_source_with("low", Priority::Low).unwrap();
    let norm = h.register_source_with("norm", Priority::Normal).unwrap();
    let n = 10u64;
    let low_recs: Vec<LogRecord> = (0..n).map(|i| rec(i as f64, 1)).collect();
    let norm_recs: Vec<LogRecord> = (0..n).map(|i| rec(i as f64 + 0.5, 2)).collect();
    low.push_batch(&low_recs);
    norm.push_batch(&norm_recs);
    drop(low);
    drop(norm);
    while h.pop_blocking().is_some() {}

    let stats = h.stats();
    // Bresenham at 0.75/record over 10 records sheds exactly 7
    // (floor(10 * 0.75), accumulated without float drift).
    assert_eq!(stats.pressure_shed, 7, "{stats:?}");
    assert_eq!(stats.admitted, 2 * n - 7);
    conservation(&stats, 2 * n);
}

/// Red sheds all Low traffic, Normal proportionally to pressure, and
/// High never (the engine's own hard shed is the layer above).
#[test]
fn red_sheds_all_low_and_normal_proportionally_but_never_high() {
    // 15/16 = 0.9375: above red_enter and float-exact under repeated
    // accumulation.
    let h = IngestHub::new(HubConfig {
        expected_sources: Some(3),
        telemetry: governed(15, PressureState::Red),
        ..HubConfig::default()
    });
    let low = h.register_source_with("low", Priority::Low).unwrap();
    let norm = h.register_source_with("norm", Priority::Normal).unwrap();
    let high = h.register_source_with("high", Priority::High).unwrap();
    let n = 20u64;
    low.push_batch(&(0..n).map(|i| rec(i as f64, 1)).collect::<Vec<_>>());
    norm.push_batch(&(0..n).map(|i| rec(i as f64 + 0.3, 2)).collect::<Vec<_>>());
    high.push_batch(&(0..n).map(|i| rec(i as f64 + 0.6, 3)).collect::<Vec<_>>());
    drop(low);
    drop(norm);
    drop(high);
    while h.pop_blocking().is_some() {}

    let stats = h.stats();
    // Low: all 20. Normal at pressure 0.9375: Bresenham sheds
    // floor(20 * 0.9375) = 18 of 20. High: none.
    assert_eq!(stats.pressure_shed, 20 + 18, "{stats:?}");
    assert_eq!(stats.admitted, 2 + 20);
    conservation(&stats, 3 * n);
}

/// With no governor (or after relaxing back to Green) the admission
/// path sheds nothing: the fast path is untouched.
#[test]
fn green_or_uninstalled_sheds_nothing() {
    let h = IngestHub::new(HubConfig {
        expected_sources: Some(1),
        ..HubConfig::default()
    });
    let low = h.register_source_with("low", Priority::Low).unwrap();
    low.push_batch(&(0..50).map(|i| rec(i as f64, 1)).collect::<Vec<_>>());
    drop(low);
    while h.pop_blocking().is_some() {}
    let stats = h.stats();
    assert_eq!(stats.pressure_shed, 0);
    assert_eq!(stats.breaker_dropped, 0);
    assert_eq!(stats.admitted, 50);
    conservation(&stats, 50);
}

/// Push `records` from one Normal source, then drain the hub through a
/// supervised engine configured by `cfg`, calling `on_record` after
/// every record.
fn supervised(
    hub: &Arc<IngestHub>,
    records: &[LogRecord],
    cfg: SupervisorConfig,
    resume: Option<Checkpoint>,
    on_record: impl FnMut(&StreamAnalyzer) + 'static,
) -> SupervisorReport {
    let source = hub.register_source_with("src", Priority::Normal).unwrap();
    source.push_batch(records);
    drop(source);
    let factory = {
        let hub = Arc::clone(hub);
        move |_: &SourcePosition| -> webpuzzle_stream::Result<NetSource> {
            Ok(NetSource::new(Arc::clone(&hub)))
        }
    };
    let supervisor = Supervisor::new(StreamConfig::default(), cfg, factory);
    match resume {
        Some(ck) => supervisor.with_resume(ck),
        None => supervisor,
    }
    .on_record(Box::new(on_record))
    .run()
    .expect("supervised run")
}

/// A checkpoint written in Red, resumed by a run without a governor:
/// there is no stage to restore, so neither the hub nor the engine
/// sheds anything for pressure, and the next checkpoint stores Green.
#[test]
fn resume_without_a_governor_sheds_nothing() {
    let dir = std::env::temp_dir().join(format!("webpuzzle-admission-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (first_path, resumed_path) = (dir.join("first.ck"), dir.join("resumed.ck"));
    let checkpointing = |path: &std::path::Path| SupervisorConfig {
        checkpoint_path: Some(path.to_path_buf()),
        checkpoint_every_records: 50,
        ..SupervisorConfig::default()
    };

    let first_hub = IngestHub::new(HubConfig {
        expected_sources: Some(1),
        ..HubConfig::default()
    });
    let warmup: Vec<LogRecord> = (0..100).map(|i| rec(f64::from(i), i % 7)).collect();
    supervised(
        &first_hub,
        &warmup,
        checkpointing(&first_path),
        None,
        |_| {},
    );
    let mut ck = Checkpoint::load(&first_path).expect("first checkpoint");
    ck.governor_state = PressureState::Red.code();
    ck.engine.degradation_mode = PressureState::Red.code();

    let hub = IngestHub::new(HubConfig {
        expected_sources: Some(2),
        admit_floor: ck.engine.sessionizer.watermark,
        // Release the opener without waiting out the default 5 s for
        // the second source.
        stall_grace: Some(std::time::Duration::from_millis(10)),
        ..HubConfig::default()
    });
    hub.set_baseline(ck.source);
    // One record opens the resumed stream. The Low source connects only
    // once the resumed engine runs, as a live sender would, and brings
    // new clients, which an engine still in Red would hard-shed.
    let mut low: Option<Vec<LogRecord>> = Some(
        (1..=200)
            .map(|i| rec(1_000.0 + f64::from(i), 100 + i % 13))
            .collect(),
    );
    let late_hub = Arc::clone(&hub);
    let report = supervised(
        &hub,
        &[rec(1_000.0, 99)],
        checkpointing(&resumed_path),
        Some(ck),
        move |_| {
            if let Some(records) = low.take() {
                let source = late_hub.register_source_with("low", Priority::Low).unwrap();
                source.push_batch(&records);
            }
        },
    );

    let stats = hub.stats();
    assert_eq!(stats.pressure_shed, 0, "{stats:?}");
    assert_eq!(stats.admitted, 201, "{stats:?}");
    assert_eq!(report.summary.hard_shed_records, 0);
    assert_eq!(report.summary.records, 301);
    let next = Checkpoint::load(&resumed_path).expect("resumed checkpoint");
    assert_eq!(next.governor_state, 0, "no governor checkpoints Green");
    let _ = std::fs::remove_dir_all(&dir);
}
