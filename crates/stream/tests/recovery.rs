//! Crash-safety integration tests: kill-and-resume equivalence.
//!
//! The contract under test (ISSUE/DESIGN.md §11): a run that crashes at
//! record N and restores from its last checkpoint must produce a
//! [`StreamSummary`] identical to an uninterrupted run — the binary
//! checkpoint codec round-trips every estimator bit for bit, so the
//! comparison here is `assert_eq!` on the whole summary, stricter than
//! the §9 tolerance bands. Crash points cover the interesting engine
//! phases: early (before the first window closes), mid-window, and
//! during a TTL eviction burst. A transient-only fault source must
//! never change the summary at all (property test).

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use webpuzzle_obs::governor::{GovernorConfig, PressureState};
use webpuzzle_obs::{Telemetry, TelemetryConfig};
use webpuzzle_stream::checkpoint::{Checkpoint, CheckpointError, SourcePosition};
use webpuzzle_stream::{
    FaultSource, FaultSpec, Source, StreamAnalyzer, StreamConfig, StreamError, StreamSummary,
    Supervisor, SupervisorConfig, SupervisorReport, WindowConfig,
};
use webpuzzle_weblog::{LogRecord, Method};

/// The engines in this file share the process-wide metrics registry
/// and event ring (whose sequence a resume fast-forwards); serialize
/// them so counters, gauges and event seqs don't interleave.
/// (Summaries under test never read the registry.)
static GLOBALS: Mutex<()> = Mutex::new(());

fn small_config() -> StreamConfig {
    StreamConfig {
        session_threshold: 100.0,
        request_window: WindowConfig {
            window_len: 600.0,
            fine_bin_width: None,
            min_poisson_arrivals: 5,
            ..WindowConfig::default()
        },
        session_window: WindowConfig {
            window_len: 600.0,
            fine_bin_width: None,
            min_poisson_arrivals: 5,
            ..WindowConfig::default()
        },
        ..StreamConfig::default()
    }
}

fn record(t: f64, client: u32, bytes: u64) -> LogRecord {
    LogRecord::new(t, client, Method::Get, client, 200, bytes)
}

/// A deterministic workload with several TTL-eviction bursts: records
/// every 0.5 s across 97 clients, with a 200 s dead gap after index
/// 2000 so every open session expires at once when traffic returns.
fn workload() -> Vec<LogRecord> {
    let mut out = Vec::with_capacity(4_000);
    let mut t = 0.0;
    for i in 0..4_000u64 {
        if i == 2_000 {
            t += 200.0;
        }
        t += 0.5;
        let client = (i * 37 % 97) as u32;
        let bytes = 200 + (i * i) % 9_000;
        out.push(record(t, client, bytes));
    }
    out
}

/// Index of the first record after the constructed 200 s gap — pushing
/// it evicts every open session, so `gap_index + 1` crashes the engine
/// mid-eviction-burst.
const GAP_INDEX: u64 = 2_000;

/// An in-memory [`Source`] over a shared record vector that can be
/// rebuilt at any position — the test stand-in for a seekable file.
struct VecSource {
    records: Arc<Vec<LogRecord>>,
    pos: usize,
}

impl VecSource {
    fn at(records: Arc<Vec<LogRecord>>, pos: usize) -> Self {
        VecSource { records, pos }
    }
}

impl Source for VecSource {
    type Item = LogRecord;
    fn next_item(&mut self) -> Option<webpuzzle_stream::Result<LogRecord>> {
        let rec = *self.records.get(self.pos)?;
        self.pos += 1;
        Some(Ok(rec))
    }
}

impl webpuzzle_stream::RecoverableSource for VecSource {
    fn position(&self) -> SourcePosition {
        SourcePosition {
            byte_offset: self.pos as u64,
            line_no: self.pos as u64,
            parsed: self.pos as u64,
            ..SourcePosition::default()
        }
    }
}

fn uninterrupted_summary(records: &[LogRecord]) -> StreamSummary {
    uninterrupted_summary_on(records, Telemetry::default())
}

/// [`uninterrupted_summary`] on a run's observatory.
fn uninterrupted_summary_on(records: &[LogRecord], telemetry: Telemetry) -> StreamSummary {
    let mut engine = StreamAnalyzer::new(small_config())
        .expect("engine")
        .with_telemetry(telemetry);
    for rec in records {
        engine.push(rec).expect("push");
    }
    engine.finish().expect("finish")
}

/// Run the workload under a supervisor with the given fault spec,
/// checkpointing every `every` records to a temp file.
fn supervised_run(
    records: Arc<Vec<LogRecord>>,
    spec: FaultSpec,
    cfg: SupervisorConfig,
) -> webpuzzle_stream::Result<SupervisorReport> {
    let factory = move |pos: &SourcePosition| {
        let inner = VecSource::at(Arc::clone(&records), pos.parsed as usize);
        let mut src = FaultSource::new(inner, spec.clone());
        src.set_index(pos.parsed);
        Ok(src)
    };
    Supervisor::new(small_config(), cfg, factory).run()
}

fn temp_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("webpuzzle-recovery-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn supervised_run_without_faults_is_transparent() {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let expected = uninterrupted_summary(&records);
    let report = supervised_run(
        Arc::new(records),
        FaultSpec::default(),
        SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        },
    )
    .expect("supervised run");
    assert_eq!(report.summary, expected);
    assert_eq!(report.recoveries, 0);
    assert_eq!(report.transient_retries, 0);
    assert_eq!(report.checkpoints_written, 0);
}

/// Crash at record N, auto-restore from the last checkpoint, and
/// require the final summary to be identical to the uninterrupted run.
fn crash_and_recover_at(crash_at: u64, name: &str) {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let expected = uninterrupted_summary(&records);
    let path = temp_checkpoint(name);
    let _ = std::fs::remove_file(&path);
    let report = supervised_run(
        Arc::new(records),
        FaultSpec {
            crash_at: Some(crash_at),
            ..FaultSpec::default()
        },
        SupervisorConfig {
            backoff_base_ms: 0,
            checkpoint_path: Some(path.clone()),
            checkpoint_every_records: 500,
            ..SupervisorConfig::default()
        },
    )
    .expect("supervised run recovers");
    assert_eq!(report.recoveries, 1, "exactly one restore");
    assert_eq!(
        report.summary, expected,
        "resumed summary must be identical"
    );
    // The final checkpoint proves the run completed.
    let final_ck = Checkpoint::load(&path).expect("final checkpoint");
    assert_eq!(final_ck.engine.records, expected.records);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_early_before_any_window_closes() {
    // Window length is 600 s at 2 records/s: record 700 is ~350 s in.
    crash_and_recover_at(700, "ck-early.bin");
}

#[test]
fn crash_mid_window_with_closed_windows_behind() {
    crash_and_recover_at(1_700, "ck-mid.bin");
}

#[test]
fn crash_during_ttl_eviction_burst() {
    // The record after the 200 s gap evicts every open session; crash
    // immediately after that burst (and after the post-gap checkpoint
    // at 2000) exercises restore across a mass eviction.
    crash_and_recover_at(GAP_INDEX + 1, "ck-evict.bin");
}

#[test]
fn process_style_kill_then_resume_from_disk() {
    let _guard = GLOBALS.lock().unwrap();
    let records = Arc::new(workload());
    let expected = uninterrupted_summary(&records);
    let path = temp_checkpoint("ck-process.bin");
    let _ = std::fs::remove_file(&path);

    // First incarnation: crash at 1500 with zero restores allowed — the
    // supervisor gives up, as a SIGKILLed process would, leaving the
    // checkpoint file behind.
    let spec = FaultSpec {
        crash_at: Some(1_500),
        ..FaultSpec::default()
    };
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 400,
        max_restores: 0,
        ..SupervisorConfig::default()
    };
    let died = supervised_run(Arc::clone(&records), spec, cfg).expect_err("must die");
    assert!(died.to_string().contains("injected crash at record 1500"));

    // Second incarnation: load the snapshot and resume.
    let ck = Checkpoint::load(&path).expect("checkpoint survives the crash");
    assert_eq!(ck.engine.records, 1_200, "last 400-multiple before 1500");
    let records2 = Arc::clone(&records);
    let factory =
        move |pos: &SourcePosition| Ok(VecSource::at(Arc::clone(&records2), pos.parsed as usize));
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 400,
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(small_config(), cfg, factory)
        .with_resume(ck)
        .run()
        .expect("resumed run");
    assert_eq!(report.resumed_from_records, Some(1_200));
    assert_eq!(report.recoveries, 0);
    assert_eq!(report.summary, expected, "resume must reproduce the run");
    let _ = std::fs::remove_file(&path);
}

/// Kill-and-resume equivalence while the overload governor is actively
/// degrading the engine: the checkpoint must capture the governor
/// stage and the degradation counters, and a fresh "process" (fresh
/// governor, stage Green) resuming from it must reproduce the
/// uninterrupted degraded summary exactly.
#[test]
fn degraded_run_resumes_with_its_governor_stage_intact() {
    let _guard = GLOBALS.lock().unwrap();
    // 97 concurrently-open sessions against a budget of 80: Yellow at
    // the first health tick (64 open), Red from the second (97 open),
    // Green again only across the 200 s gap's mass eviction.
    let governed = || {
        Telemetry::new(TelemetryConfig {
            governor: Some(GovernorConfig {
                session_budget: 80,
                ..GovernorConfig::default()
            }),
            ..TelemetryConfig::default()
        })
    };
    let records = Arc::new(workload());
    let expected = uninterrupted_summary_on(&records, governed());
    assert!(
        expected.sampled_out > 0,
        "the reference run must actually degrade: {expected:?}"
    );

    // First incarnation: degraded, checkpointing, killed hard at 1500.
    let path = temp_checkpoint("ck-governor.bin");
    let prev = Checkpoint::previous_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
    let spec = FaultSpec {
        crash_at: Some(1_500),
        ..FaultSpec::default()
    };
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 400,
        max_restores: 0,
        telemetry: governed(),
        ..SupervisorConfig::default()
    };
    supervised_run(Arc::clone(&records), spec, cfg).expect_err("must die");

    // The snapshot carries the stage the process died in.
    let ck = Checkpoint::load(&path).expect("checkpoint survives");
    assert_eq!(ck.engine.records + ck.engine.hard_shed_records, 1_200);
    assert_eq!(ck.governor_state, 2, "killed while Red");
    assert!(ck.engine.sampled_out > 0, "degradation counters captured");

    // Second incarnation: a fresh governor starts Green; the resume
    // must restore Red from the checkpoint, not re-admit.
    let telemetry = governed();
    assert_eq!(
        telemetry.governor().map(|g| g.state()),
        Some(PressureState::Green)
    );
    let records2 = Arc::clone(&records);
    let factory =
        move |pos: &SourcePosition| Ok(VecSource::at(Arc::clone(&records2), pos.parsed as usize));
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 400,
        telemetry,
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(small_config(), cfg, factory)
        .with_resume(ck)
        .run()
        .expect("resumed degraded run");
    assert_eq!(
        report.summary, expected,
        "degraded resume must reproduce the degraded run"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn kill_mid_checkpoint_write_resumes_from_the_previous_generation() {
    let _guard = GLOBALS.lock().unwrap();
    let records = Arc::new(workload());
    let expected = uninterrupted_summary(&records);
    let path = temp_checkpoint("ck-torn.bin");
    let prev = Checkpoint::previous_path(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);

    // First incarnation: checkpoints at 400/800/1200, killed hard at
    // 1500 (no restores allowed, as with SIGKILL).
    let spec = FaultSpec {
        crash_at: Some(1_500),
        ..FaultSpec::default()
    };
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 400,
        max_restores: 0,
        ..SupervisorConfig::default()
    };
    supervised_run(Arc::clone(&records), spec, cfg).expect_err("must die");

    // The kill landed mid-checkpoint-write: the latest generation is
    // torn on disk. Rotation kept the one before it.
    let latest = std::fs::read(&path).expect("latest checkpoint bytes");
    std::fs::write(&path, &latest[..latest.len() / 2]).expect("tear latest");
    assert!(Checkpoint::load(&path).is_err(), "torn file must not load");

    let (ck, fell_back) = Checkpoint::load_with_fallback(&path).expect("fallback generation");
    assert!(fell_back, "must report the fallback");
    assert_eq!(ck.engine.records, 800, "one full generation behind");

    // Second incarnation resumes from the older snapshot and still
    // reproduces the uninterrupted run exactly.
    let records2 = Arc::clone(&records);
    let factory =
        move |pos: &SourcePosition| Ok(VecSource::at(Arc::clone(&records2), pos.parsed as usize));
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 400,
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(small_config(), cfg, factory)
        .with_resume(ck)
        .run()
        .expect("resumed run");
    assert_eq!(report.resumed_from_records, Some(800));
    assert_eq!(
        report.summary, expected,
        "fallback resume must reproduce the run"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn corrupted_and_truncated_checkpoints_are_refused() {
    let _guard = GLOBALS.lock().unwrap();
    let records = Arc::new(workload());
    let path = temp_checkpoint("ck-corrupt.bin");
    let _ = std::fs::remove_file(&path);
    supervised_run(
        Arc::clone(&records),
        FaultSpec::default(),
        SupervisorConfig {
            backoff_base_ms: 0,
            checkpoint_path: Some(path.clone()),
            checkpoint_every_records: 1_000,
            ..SupervisorConfig::default()
        },
    )
    .expect("clean run");

    let bytes = std::fs::read(&path).expect("read checkpoint");

    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xFF;
    std::fs::write(&path, &corrupt).expect("write corrupt");
    match Checkpoint::load(&path) {
        Err(CheckpointError::ChecksumMismatch { .. }) => {}
        other => panic!("corruption must be a checksum mismatch, got {other:?}"),
    }
    // And through the stream error type the CLI reports.
    let err = StreamError::from(Checkpoint::load(&path).unwrap_err());
    assert!(err.to_string().contains("checksum"), "{err}");

    std::fs::write(&path, &bytes[..bytes.len() / 3]).expect("write truncated");
    match Checkpoint::load(&path) {
        Err(CheckpointError::Truncated) | Err(CheckpointError::Malformed(_)) => {}
        other => panic!("truncation must be refused, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recovered_run_sheds_like_an_uninterrupted_one() {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let capped = StreamConfig {
        max_open_sessions: 24,
        ..small_config()
    };
    let mut engine = StreamAnalyzer::new(capped.clone()).expect("engine");
    for rec in &records {
        engine.push(rec).expect("push");
    }
    let expected = engine.finish().expect("finish");
    assert!(expected.shed_sessions > 0, "cap must bite for this test");

    let path = temp_checkpoint("ck-shed.bin");
    let _ = std::fs::remove_file(&path);
    let shared = Arc::new(records);
    let factory = {
        let shared = Arc::clone(&shared);
        move |pos: &SourcePosition| {
            let inner = VecSource::at(Arc::clone(&shared), pos.parsed as usize);
            let mut src = FaultSource::new(
                inner,
                FaultSpec {
                    crash_at: Some(1_900),
                    ..FaultSpec::default()
                },
            );
            src.set_index(pos.parsed);
            Ok(src)
        }
    };
    let cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 500,
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(capped, cfg, factory).run().expect("run");
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.summary, expected);
    assert_eq!(report.shed_sessions, expected.shed_sessions);
    assert_eq!(report.shed_records, expected.shed_records);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_and_recover_preserves_diagnostics_bit_for_bit() {
    let _guard = GLOBALS.lock().unwrap();
    let records = workload();
    let cfg = StreamConfig {
        diagnostics: true,
        ..small_config()
    };
    let mut engine = StreamAnalyzer::new(cfg.clone()).expect("engine");
    for rec in &records {
        engine.push(rec).expect("push");
    }
    let expected = engine.finish().expect("finish");
    assert!(expected.diagnostics.enabled);
    assert!(
        !expected.diagnostics.windows.is_empty(),
        "the workload must close diagnosable windows"
    );

    let path = temp_checkpoint("ck-diag.bin");
    let _ = std::fs::remove_file(&path);
    let shared = Arc::new(records);
    let factory = {
        let shared = Arc::clone(&shared);
        move |pos: &SourcePosition| {
            let inner = VecSource::at(Arc::clone(&shared), pos.parsed as usize);
            let mut src = FaultSource::new(
                inner,
                FaultSpec {
                    crash_at: Some(1_700),
                    ..FaultSpec::default()
                },
            );
            src.set_index(pos.parsed);
            Ok(src)
        }
    };
    let sup_cfg = SupervisorConfig {
        backoff_base_ms: 0,
        checkpoint_path: Some(path.clone()),
        checkpoint_every_records: 500,
        ..SupervisorConfig::default()
    };
    let report = Supervisor::new(cfg, sup_cfg, factory).run().expect("run");
    assert_eq!(report.recoveries, 1);
    assert_eq!(
        report.summary, expected,
        "diagnostics-enabled resume must reproduce the run"
    );
    assert_eq!(report.summary.diagnostics, expected.diagnostics);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Transient-only fault injection is invisible: whatever the seed
    /// and fault rate, every record is still delivered exactly once, so
    /// the summary is identical to the fault-free run.
    #[test]
    fn transient_faults_never_change_the_summary(seed in any::<u64>(), p in 0.0f64..0.3) {
        let _guard = GLOBALS.lock().unwrap();
        let records = workload();
        let expected = uninterrupted_summary(&records);
        let report = supervised_run(
            Arc::new(records),
            FaultSpec { seed, transient: p, ..FaultSpec::default() },
            SupervisorConfig {
                backoff_base_ms: 0,
                // A fair coin can streak; the cap is not under test.
                max_transient_retries: u32::MAX,
                ..SupervisorConfig::default()
            },
        ).expect("supervised run");
        prop_assert_eq!(report.summary, expected);
        prop_assert_eq!(report.recoveries, 0);
    }
}
