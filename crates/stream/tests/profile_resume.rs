//! Flight recorder × crash safety.
//!
//! Two contracts under test. First, profiling is *observational*: a
//! supervised run that crashes and restores mid-stream with the
//! recorder enabled must still reproduce the uninterrupted summary bit
//! for bit. Second, the documented resume semantics of the profiler
//! itself (DESIGN.md §12): latency histograms and exemplars are
//! wall-clock observations of one process's run, so they intentionally
//! RESET on restore rather than round-trip through the checkpoint —
//! but the sampling grid continues exactly where the stream left off,
//! because the engine's restored record counter is what the 1-in-N
//! decision keys on.
//!
//! Each test profiles into its own run's [`Telemetry`], so they need no
//! lock.

use std::sync::Arc;
use webpuzzle_obs::Telemetry;
use webpuzzle_stream::checkpoint::{Checkpoint, SourcePosition};
use webpuzzle_stream::{
    FaultSource, FaultSpec, Source, StreamAnalyzer, StreamConfig, StreamSummary, Supervisor,
    SupervisorConfig, WindowConfig,
};
use webpuzzle_weblog::{LogRecord, Method};

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

/// Deterministic 0.5 s-spaced workload across 97 clients.
fn workload() -> Vec<LogRecord> {
    (0..4_000u64)
        .map(|i| {
            LogRecord::new(
                (i + 1) as f64 * 0.5,
                (i * 37 % 97) as u32,
                Method::Get,
                (i * 37 % 97) as u32,
                200,
                200 + (i * i) % 9_000,
            )
        })
        .collect()
}

struct VecSource {
    records: Arc<Vec<LogRecord>>,
    pos: usize,
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
    let mut engine = StreamAnalyzer::new(small_config()).expect("engine");
    for rec in records {
        engine.push(rec).expect("push");
    }
    engine.finish().expect("finish")
}

#[test]
fn profiled_crash_resume_reproduces_unprofiled_summary() {
    let records = Arc::new(workload());

    // Reference run with the recorder off: profiling must never change
    // what the pipeline computes, only observe how long it takes.
    let expected = uninterrupted_summary(&records);

    let dir = std::env::temp_dir().join("webpuzzle-profile-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ck-profiled.bin");
    let _ = std::fs::remove_file(&path);

    let telemetry = Telemetry::default();
    telemetry.enable_profiler(16);
    let src_records = Arc::clone(&records);
    let factory = move |pos: &SourcePosition| {
        let inner = VecSource {
            records: Arc::clone(&src_records),
            pos: pos.parsed as usize,
        };
        let mut src = FaultSource::new(
            inner,
            FaultSpec {
                crash_at: Some(1_700),
                ..FaultSpec::default()
            },
        );
        src.set_index(pos.parsed);
        Ok(src)
    };
    let report = Supervisor::new(
        small_config(),
        SupervisorConfig {
            backoff_base_ms: 0,
            checkpoint_path: Some(path.clone()),
            checkpoint_every_records: 500,
            telemetry: telemetry.clone(),
            ..SupervisorConfig::default()
        },
        factory,
    )
    .run()
    .expect("supervised profiled run recovers");

    assert_eq!(report.recoveries, 1, "exactly one restore");
    assert_eq!(
        report.summary, expected,
        "profiling must not perturb results"
    );
    // The recorder saw the run: per-record stages were sampled and the
    // checkpoint encodes were timed.
    let prof = telemetry.profile_report();
    assert!(prof.records_sampled > 0);
    assert!(prof.stage("checkpoint_encode").expect("stage").count > 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profiler_resets_on_resume_but_sampling_grid_continues() {
    let records = workload();
    const SPLIT: usize = 1_500;
    const EVERY: u64 = 16;

    // First process generation: profile the prefix, checkpoint-export
    // the engine, and note what the recorder accumulated.
    let first = Telemetry::default();
    first.enable_profiler(EVERY).set_exemplar_capacity(4_096);
    let mut engine = StreamAnalyzer::new(small_config())
        .expect("engine")
        .with_telemetry(first.clone());
    for rec in &records[..SPLIT] {
        engine.push(rec).expect("push");
    }
    let state = engine.export_state();
    let prefix_sampled = first.profile_report().records_sampled;
    assert_eq!(
        prefix_sampled,
        (0..SPLIT as u64).filter(|i| i % EVERY == 0).count() as u64
    );

    // Round-trip the engine state through the on-disk codec, exactly
    // as a real resume would. The checkpoint carries no profiler
    // fields — that is the contract, not an accident.
    let dir = std::env::temp_dir().join("webpuzzle-profile-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ck-grid.bin");
    let ck = Checkpoint {
        config: small_config(),
        engine: state,
        source: SourcePosition {
            parsed: SPLIT as u64,
            ..SourcePosition::default()
        },
        events_seq: 0,
        poison: Default::default(),
        recoveries: 0,
        transient_retries: 0,
        checkpoints_written: 1,
        governor_state: 0,
    };
    ck.save(&path).expect("save checkpoint");
    let ck = Checkpoint::load(&path).expect("load checkpoint");

    // Second process generation: a new run's fresh profiler, the
    // restored engine, the tail of the stream.
    let second = Telemetry::default();
    second.enable_profiler(EVERY).set_exemplar_capacity(4_096);
    let mut engine = StreamAnalyzer::restore(ck.config.clone(), &ck.engine)
        .expect("restore")
        .with_telemetry(second.clone());
    assert_eq!(engine.records(), SPLIT as u64);
    for rec in &records[SPLIT..] {
        engine.push(rec).expect("push");
    }
    engine.finish().expect("finish");

    let prof = second.profile_report();
    // Reset: nothing from the prefix survives.
    let tail_grid: Vec<u64> = (SPLIT as u64..records.len() as u64)
        .filter(|i| i % EVERY == 0)
        .collect();
    assert_eq!(prof.records_sampled, tail_grid.len() as u64);
    // Continuation: the exemplar indexes are exactly the tail of the
    // global 1-in-N grid — the restored record counter kept the
    // sampling decisions deterministic across the restart.
    let mut seen: Vec<u64> = prof.exemplars.iter().map(|e| e.record_index).collect();
    seen.sort_unstable();
    assert_eq!(seen, tail_grid);
    assert!(seen.iter().all(|i| *i >= SPLIT as u64));
    // The first generation's recorder is its own: the tail never
    // reached it.
    assert_eq!(first.profile_report().records_sampled, prefix_sampled);
    let _ = std::fs::remove_file(&path);
}
