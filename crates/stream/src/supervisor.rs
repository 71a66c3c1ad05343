//! Supervised ingest: the retry / skip / restore loop that turns the
//! one-pass engine into a crash-safe long-running process.
//!
//! The supervisor classifies every failure into one of three kinds and
//! reacts accordingly:
//!
//! * **Transient** — `EINTR`-class I/O (`Interrupted`, `WouldBlock`,
//!   `TimedOut`): retried in place with capped exponential backoff plus
//!   deterministic jitter. The consecutive-failure counter resets on
//!   the first successful record, so a long stream survives any number
//!   of *scattered* transients while a hard-down source still fails
//!   after [`SupervisorConfig::max_transient_retries`] attempts in a
//!   row.
//! * **Poison** — a malformed record ([`WeblogError::ParseLine`]):
//!   retrying cannot help. Under [`SupervisorConfig::lenient`] it is
//!   skipped and counted (by [`MalformedKind`]); otherwise it is fatal,
//!   matching the strict/lenient split of the underlying parser.
//! * **Fatal** — everything else (unsorted input, estimator failures,
//!   real I/O loss): propagated to the caller.
//!
//! Engine **panics** (an injected crash from
//! [`crate::fault::FaultSource`], or a genuine bug) are caught at the
//! attempt boundary with [`std::panic::catch_unwind`]: the supervisor
//! publishes a recovery event, discards the possibly-torn engine,
//! restores the last checkpoint (or starts fresh when none exists),
//! rebuilds the source via the caller's factory at the checkpointed
//! position, disarms any injected crash, and continues — up to
//! [`SupervisorConfig::max_restores`] times.
//!
//! Checkpoints are taken on a record and/or wall-clock cadence. The
//! run's JSONL event log is fsynced *before* each checkpoint is
//! written: the checkpoint stores the run's event sequence, and a
//! resume fast-forwards past it, so an event must never be durable
//! *later* than a checkpoint that claims it happened.

use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::checkpoint::{Checkpoint, SourcePosition};
use crate::engine::{StreamAnalyzer, StreamConfig, StreamSummary};
use crate::pipeline::Source;
use crate::{Result, StreamError};
use webpuzzle_obs::events::{Event, Severity};
use webpuzzle_obs::profile::Stage;
use webpuzzle_obs::{metrics, Telemetry};
use webpuzzle_weblog::{LogRecord, MalformedBreakdown, MalformedKind, WeblogError};

/// A [`Source`] of log records that can report where it stands and be
/// rebuilt there — the contract the supervisor needs for checkpointing
/// and crash recovery. Implemented by [`crate::ClfSource`] over
/// seekable readers and by [`crate::FaultSource`] by delegation.
pub trait RecoverableSource: Source<Item = LogRecord> {
    /// Where the source stands: seek target plus parse counters.
    fn position(&self) -> SourcePosition;

    /// Disarm any injected crash fault. No-op for real sources; the
    /// supervisor calls it on every source rebuilt after a recovery or
    /// resume so one simulated crash cannot loop forever.
    fn disarm_crash(&mut self) {}
}

/// Failure taxonomy — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying in place (the source is intact).
    Transient,
    /// One bad record; skippable under lenient, never retryable.
    Poison,
    /// Unrecoverable; propagate.
    Fatal,
}

/// Classify a stream error for the supervisor's retry / skip / fail
/// decision.
pub fn classify(err: &StreamError) -> ErrorClass {
    match err {
        StreamError::Io(e) => match e.kind() {
            std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut => ErrorClass::Transient,
            _ => ErrorClass::Fatal,
        },
        StreamError::Weblog(WeblogError::ParseLine { .. }) => ErrorClass::Poison,
        _ => ErrorClass::Fatal,
    }
}

/// Supervisor tuning.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Skip-and-count poison records instead of failing on them.
    pub lenient: bool,
    /// Consecutive transient failures tolerated before the source is
    /// declared hard-down (the counter resets on every good record).
    pub max_transient_retries: u32,
    /// Backoff base, milliseconds: retry `n` sleeps
    /// `min(cap, base · 2^(n−1))` plus jitter. Zero disables sleeping
    /// (tests).
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic retry jitter.
    pub jitter_seed: u64,
    /// Total time the run may spend in transient-retry backoff before
    /// it is declared fatal, seconds (0 = unlimited). Cumulative across
    /// the whole run, not per streak: a source that flaps forever fails
    /// here even though no single streak ever exceeds
    /// [`SupervisorConfig::max_transient_retries`].
    pub max_retry_elapsed_secs: u64,
    /// Engine restarts (panic recoveries) tolerated before giving up.
    pub max_restores: u32,
    /// Where to write checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint every N records (0 = no record cadence).
    pub checkpoint_every_records: u64,
    /// Checkpoint every S wall-clock seconds (0 = no time cadence).
    pub checkpoint_every_secs: u64,
    /// The run's observatory, for every engine the supervisor builds or
    /// restores; the supervisor publishes its own events there, and the
    /// governor's stage and the event sequence are checkpointed.
    pub telemetry: Telemetry,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            lenient: false,
            max_transient_retries: 5,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            jitter_seed: 0x5EED,
            max_retry_elapsed_secs: 300,
            max_restores: 3,
            checkpoint_path: None,
            checkpoint_every_records: 0,
            checkpoint_every_secs: 0,
            telemetry: Telemetry::default(),
        }
    }
}

/// What a supervised run did, beyond the summary itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorReport {
    /// The final one-pass summary.
    pub summary: StreamSummary,
    /// Engine restarts performed (panic recoveries).
    pub recoveries: u64,
    /// Transient-fault retries performed.
    pub transient_retries: u64,
    /// Poison records skipped by the supervisor (lenient mode), by
    /// cause. Injected truncation/corruption lands here; malformed
    /// lines the source itself skipped are in
    /// [`SupervisorReport::source`].
    pub poison: MalformedBreakdown,
    /// Final source position (byte offset, parse counters, and the
    /// source-level malformed breakdown).
    pub source: SourcePosition,
    /// Sessions shed by the open-session cap.
    pub shed_sessions: u64,
    /// Records inside shed sessions.
    pub shed_records: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// `Some(records)` when the run resumed from a checkpoint file that
    /// already carried this many records.
    pub resumed_from_records: Option<u64>,
}

impl SupervisorReport {
    /// Total poison records skipped by the supervisor.
    pub fn poison_records(&self) -> u64 {
        self.poison.total()
    }
}

/// Mutable run state threaded through attempts.
struct RunState {
    recoveries: u64,
    poison: MalformedBreakdown,
    transient_retries: u64,
    total_transients: u64,
    /// Backoff time accumulated across the whole run, charged against
    /// [`SupervisorConfig::max_retry_elapsed_secs`].
    retry_slept: Duration,
    checkpoints_written: u64,
    last_checkpoint: Option<Checkpoint>,
    last_checkpoint_at: Instant,
}

/// Per-record observer installed via [`Supervisor::on_record`].
pub type RecordCallback = Box<dyn FnMut(&StreamAnalyzer)>;

/// The supervised ingest loop. `F` rebuilds a source positioned at a
/// given [`SourcePosition`] — called once at start and once per
/// recovery (real implementations reopen the file and seek; test
/// implementations slice a vector).
pub struct Supervisor<S, F>
where
    S: RecoverableSource,
    F: FnMut(&SourcePosition) -> Result<S>,
{
    engine_cfg: StreamConfig,
    cfg: SupervisorConfig,
    factory: F,
    resume: Option<Checkpoint>,
    on_record: Option<RecordCallback>,
    recoveries_counter: Arc<metrics::Counter>,
    retries_counter: Arc<metrics::Counter>,
    poison_counter: Arc<metrics::Counter>,
    kind_counters: [Arc<metrics::Counter>; 4],
    checkpoints_counter: Arc<metrics::Counter>,
    checkpoint_age_gauge: Arc<metrics::Gauge>,
}

impl<S, F> Supervisor<S, F>
where
    S: RecoverableSource,
    F: FnMut(&SourcePosition) -> Result<S>,
{
    /// Build a supervisor that starts a fresh engine.
    pub fn new(engine_cfg: StreamConfig, cfg: SupervisorConfig, factory: F) -> Self {
        Supervisor {
            engine_cfg,
            cfg,
            factory,
            resume: None,
            on_record: None,
            recoveries_counter: metrics::counter("stream/recoveries"),
            retries_counter: metrics::counter("stream/transient_retries"),
            poison_counter: metrics::counter("stream/poison_records"),
            kind_counters: crate::reader::malformed_kind_counters(),
            checkpoints_counter: metrics::counter("stream/checkpoints_written"),
            checkpoint_age_gauge: metrics::gauge("stream/checkpoint_age_secs"),
        }
    }

    /// Resume from a loaded checkpoint instead of starting fresh. The
    /// checkpoint's own engine configuration wins over the one passed
    /// to [`Supervisor::new`] — resuming under different tuning would
    /// change the analysis mid-stream.
    pub fn with_resume(mut self, checkpoint: Checkpoint) -> Self {
        self.engine_cfg = checkpoint.config.clone();
        self.resume = Some(checkpoint);
        self
    }

    /// Install a per-record callback (progress meters, partial report
    /// snapshots); called with the engine after each successful push.
    pub fn on_record(mut self, cb: RecordCallback) -> Self {
        self.on_record = Some(cb);
        self
    }

    /// An engine on the run's observatory, restored from `ck` or fresh.
    /// A governor resumes in `ck`'s stage, not Green: re-admitting a
    /// flood the killed process had already shed would flap the pipeline.
    fn engine(&self, ck: Option<&Checkpoint>) -> Result<StreamAnalyzer> {
        let engine = match ck {
            Some(ck) => {
                if let Some(governor) = self.cfg.telemetry.governor() {
                    governor.restore_state(ck.governor_state);
                }
                StreamAnalyzer::restore(ck.config.clone(), &ck.engine)?
            }
            None => StreamAnalyzer::new(self.engine_cfg.clone())?,
        };
        Ok(engine.with_telemetry(self.cfg.telemetry.clone()))
    }

    /// Run to completion: ingest the whole stream, surviving transient
    /// faults, poison records (lenient), and engine crashes, then
    /// finish the engine and report.
    ///
    /// # Errors
    ///
    /// Fatal stream errors, a transient streak past
    /// `max_transient_retries`, or more panics than `max_restores`.
    pub fn run(&mut self) -> Result<SupervisorReport> {
        let resumed_from_records = self.resume.as_ref().map(|ck| ck.engine.records);
        let mut state;
        let mut engine;
        let mut position;

        match self.resume.take() {
            Some(ck) => {
                engine = self.engine(Some(&ck))?;
                position = ck.source;
                // Never reuse an event sequence a previous incarnation
                // already published under.
                self.cfg.telemetry.events().resume_from(ck.events_seq);
                state = RunState {
                    recoveries: ck.recoveries,
                    poison: ck.poison,
                    transient_retries: ck.transient_retries,
                    total_transients: ck.transient_retries,
                    retry_slept: Duration::ZERO,
                    checkpoints_written: ck.checkpoints_written,
                    last_checkpoint_at: Instant::now(),
                    last_checkpoint: Some(ck),
                };
            }
            None => {
                engine = self.engine(None)?;
                position = SourcePosition::default();
                state = RunState {
                    recoveries: 0,
                    poison: MalformedBreakdown::default(),
                    transient_retries: 0,
                    total_transients: 0,
                    retry_slept: Duration::ZERO,
                    checkpoints_written: 0,
                    last_checkpoint: None,
                    last_checkpoint_at: Instant::now(),
                };
            }
        }

        let mut restarted = resumed_from_records.is_some();
        let final_position;
        loop {
            let mut source = (self.factory)(&position)?;
            if restarted {
                // A crash fault must fire at most once per run.
                source.disarm_crash();
            }
            let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                self.ingest(&mut engine, &mut source, &mut state)
            }));
            match attempt {
                Ok(Ok(())) => {
                    final_position = source.position();
                    break;
                }
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    state.recoveries += 1;
                    self.recoveries_counter.incr();
                    let what = panic_message(payload.as_ref());
                    self.cfg.telemetry.publish(Event::new(
                        Severity::Warn,
                        "supervisor",
                        "stream/recoveries",
                        0,
                        engine_time(&state),
                        (state.recoveries - 1) as f64,
                        state.recoveries as f64,
                        state.recoveries as f64,
                        self.cfg.max_restores as f64,
                        format!(
                            "engine panicked ({what}); restoring from {} \
                             (recovery {}/{})",
                            state.last_checkpoint.as_ref().map_or(
                                "a fresh engine".to_string(),
                                |ck| format!("checkpoint at record {}", ck.engine.records)
                            ),
                            state.recoveries,
                            self.cfg.max_restores,
                        ),
                    ));
                    if state.recoveries > self.cfg.max_restores as u64 {
                        return Err(StreamError::Io(std::io::Error::other(format!(
                            "engine panicked {} times \
                             (max_restores = {}): {what}",
                            state.recoveries, self.cfg.max_restores
                        ))));
                    }
                    match &state.last_checkpoint {
                        Some(ck) => {
                            engine = self.engine(Some(ck))?;
                            position = ck.source;
                            self.cfg.telemetry.events().resume_from(ck.events_seq);
                            // Work after the checkpoint is replayed, so
                            // its per-record tallies roll back with it.
                            state.poison = ck.poison;
                            state.transient_retries = ck.transient_retries;
                        }
                        None => {
                            engine = self.engine(None)?;
                            position = SourcePosition::default();
                            state.poison = MalformedBreakdown::default();
                            state.transient_retries = 0;
                        }
                    }
                    restarted = true;
                }
            }
        }

        // Final checkpoint so a later process can prove the run ended,
        // then the summary.
        self.checkpoint(&mut engine, final_position, &mut state);
        let summary = engine.finish()?;
        Ok(SupervisorReport {
            recoveries: state.recoveries,
            transient_retries: state.transient_retries,
            poison: state.poison,
            source: final_position,
            shed_sessions: summary.shed_sessions,
            shed_records: summary.shed_records,
            checkpoints_written: state.checkpoints_written,
            resumed_from_records,
            summary,
        })
    }

    /// One uninterrupted attempt: pull records until the source is
    /// exhausted, retrying transients and skipping poison per config.
    fn ingest(
        &mut self,
        engine: &mut StreamAnalyzer,
        source: &mut S,
        state: &mut RunState,
    ) -> Result<()> {
        let mut consecutive_transients: u32 = 0;
        loop {
            match source.next_item() {
                None => return Ok(()),
                Some(Ok(record)) => {
                    consecutive_transients = 0;
                    engine.push(&record)?;
                    if let Some(cb) = &mut self.on_record {
                        cb(engine);
                    }
                    self.maybe_checkpoint(engine, source, state);
                }
                Some(Err(e)) => match classify(&e) {
                    ErrorClass::Transient => {
                        consecutive_transients += 1;
                        state.transient_retries += 1;
                        state.total_transients += 1;
                        self.retries_counter.incr();
                        if consecutive_transients > self.cfg.max_transient_retries {
                            return Err(StreamError::Io(std::io::Error::other(format!(
                                "source failed {consecutive_transients} times in a row \
                                 (max_transient_retries = {}); last error: {e}",
                                self.cfg.max_transient_retries
                            ))));
                        }
                        let delay = self.backoff_delay(consecutive_transients, state);
                        // Charge the budget before sleeping: at the
                        // boundary the run fails instead of paying for
                        // one more sleep it no longer has.
                        state.retry_slept = state.retry_slept.saturating_add(delay);
                        if self.retry_budget_exhausted(state) {
                            return Err(StreamError::Io(std::io::Error::other(format!(
                                "transient-retry backoff budget exhausted: \
                                 {:.1}s accumulated (max_retry_elapsed_secs = {}); \
                                 last error: {e}",
                                state.retry_slept.as_secs_f64(),
                                self.cfg.max_retry_elapsed_secs
                            ))));
                        }
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                    }
                    ErrorClass::Poison => {
                        if !self.cfg.lenient {
                            return Err(e);
                        }
                        consecutive_transients = 0;
                        let kind = match &e {
                            StreamError::Weblog(WeblogError::ParseLine { reason, .. }) => {
                                MalformedKind::classify(reason)
                            }
                            _ => MalformedKind::Other,
                        };
                        state.poison.record(kind);
                        self.poison_counter.incr();
                        crate::reader::kind_counter(&self.kind_counters, kind).incr();
                    }
                    ErrorClass::Fatal => return Err(e),
                },
            }
        }
    }

    /// Capped exponential backoff with deterministic jitter: retry `n`
    /// sleeps `min(cap, base·2^(n−1))` plus up to one extra base unit,
    /// keyed on the total transient count so two sources retrying in
    /// lockstep de-synchronize.
    fn backoff_delay(&self, attempt: u32, state: &RunState) -> Duration {
        let base = self.cfg.backoff_base_ms;
        if base == 0 {
            return Duration::ZERO;
        }
        let shift = (attempt - 1).min(16);
        let exp = base
            .saturating_mul(1u64 << shift)
            .min(self.cfg.backoff_cap_ms);
        let mut x = self
            .cfg
            .jitter_seed
            .wrapping_add(state.total_transients.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 31;
        let jitter = x % base.max(1);
        Duration::from_millis(exp.saturating_add(jitter))
    }

    /// Whether accumulated backoff time has crossed the elapsed-retry
    /// budget. `>=` on purpose: a budget of N seconds buys strictly
    /// less than N seconds of sleeping.
    fn retry_budget_exhausted(&self, state: &RunState) -> bool {
        self.cfg.max_retry_elapsed_secs > 0
            && state.retry_slept >= Duration::from_secs(self.cfg.max_retry_elapsed_secs)
    }

    /// Take a checkpoint if either cadence is due.
    fn maybe_checkpoint(&mut self, engine: &mut StreamAnalyzer, source: &S, state: &mut RunState) {
        if self.cfg.checkpoint_path.is_none() {
            return;
        }
        let records = engine.records();
        if records.is_multiple_of(64) {
            self.checkpoint_age_gauge
                .set(state.last_checkpoint_at.elapsed().as_secs_f64());
        }
        let due_records = self.cfg.checkpoint_every_records > 0
            && records.is_multiple_of(self.cfg.checkpoint_every_records);
        let due_secs = self.cfg.checkpoint_every_secs > 0
            && state.last_checkpoint_at.elapsed().as_secs() >= self.cfg.checkpoint_every_secs;
        // A Red transition demands durability now, off any cadence: if
        // the process dies under the overload that caused it, the
        // restart must not replay the flood from the last checkpoint.
        let forced = engine.take_forced_checkpoint();
        if due_records || due_secs || forced {
            let position = source.position();
            self.checkpoint(engine, position, state);
        }
    }

    /// Write one checkpoint: fsync the run's event log first (the
    /// snapshot stores its sequence), then save atomically. A failed save
    /// is a warning, not a crash — losing checkpoint freshness must not
    /// kill an otherwise healthy run.
    fn checkpoint(
        &mut self,
        engine: &mut StreamAnalyzer,
        position: SourcePosition,
        state: &mut RunState,
    ) {
        let Some(path) = self.cfg.checkpoint_path.clone() else {
            return;
        };
        let telemetry = &self.cfg.telemetry;
        if let Err(e) = telemetry.events().sync_jsonl_sink() {
            telemetry.publish(Event::new(
                Severity::Warn,
                "supervisor",
                "stream/checkpoints_written",
                0,
                engine_time(state),
                0.0,
                0.0,
                0.0,
                0.0,
                format!("event sink fsync failed before checkpoint: {e}"),
            ));
        }
        let governor = telemetry.governor();
        let ck = Checkpoint {
            config: engine.config().clone(),
            engine: engine.export_state(),
            source: position,
            events_seq: telemetry.events().latest_seq(),
            poison: state.poison,
            recoveries: state.recoveries,
            transient_retries: state.transient_retries,
            checkpoints_written: state.checkpoints_written + 1,
            governor_state: governor.map_or(0, |g| g.state().code()),
        };
        let t0 = Instant::now();
        let saved = ck.save(&path);
        if let Some(profiler) = telemetry.profiler() {
            profiler.record_stage_ns(Stage::CheckpointEncode, t0.elapsed().as_nanos() as u64);
        }
        match saved {
            Ok(()) => {
                state.checkpoints_written += 1;
                self.checkpoints_counter.incr();
                self.checkpoint_age_gauge.set(0.0);
                state.last_checkpoint_at = Instant::now();
                state.last_checkpoint = Some(ck);
            }
            Err(e) => {
                telemetry.publish(Event::new(
                    Severity::Warn,
                    "supervisor",
                    "stream/checkpoints_written",
                    0,
                    engine_time(state),
                    state.checkpoints_written as f64,
                    state.checkpoints_written as f64,
                    0.0,
                    0.0,
                    format!("checkpoint save to {} failed: {e}", path.display()),
                ));
            }
        }
    }
}

/// Event timestamps want *some* stream-time anchor; the last
/// checkpoint's watermark is the best one available without touching
/// the engine from error paths.
fn engine_time(state: &RunState) -> f64 {
    state
        .last_checkpoint
        .as_ref()
        .map(|ck| ck.engine.sessionizer.watermark)
        .filter(|w| w.is_finite())
        .unwrap_or(0.0)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_taxonomy() {
        let transient = StreamError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "EINTR",
        ));
        assert_eq!(classify(&transient), ErrorClass::Transient);
        let wouldblock = StreamError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "EAGAIN",
        ));
        assert_eq!(classify(&wouldblock), ErrorClass::Transient);
        let poison = StreamError::Weblog(WeblogError::ParseLine {
            line: 3,
            reason: "bad status".to_string(),
        });
        assert_eq!(classify(&poison), ErrorClass::Poison);
        let fatal_io = StreamError::Io(std::io::Error::other("disk gone"));
        assert_eq!(classify(&fatal_io), ErrorClass::Fatal);
        let unsorted = StreamError::Weblog(WeblogError::Unsorted { at: 9 });
        assert_eq!(classify(&unsorted), ErrorClass::Fatal);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = SupervisorConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
            ..SupervisorConfig::default()
        };
        let sup: Supervisor<crate::ClfSource<&[u8]>, _> =
            Supervisor::new(StreamConfig::default(), cfg, |_pos: &SourcePosition| {
                unreachable!("factory unused in this test")
            });
        let state = RunState {
            recoveries: 0,
            poison: MalformedBreakdown::default(),
            transient_retries: 0,
            total_transients: 0,
            retry_slept: Duration::ZERO,
            checkpoints_written: 0,
            last_checkpoint: None,
            last_checkpoint_at: Instant::now(),
        };
        let d1 = sup.backoff_delay(1, &state).as_millis() as u64;
        let d4 = sup.backoff_delay(4, &state).as_millis() as u64;
        let d20 = sup.backoff_delay(20, &state).as_millis() as u64;
        // Base step is 10 ms plus up to 10 ms jitter.
        assert!((10..20).contains(&d1), "{d1}");
        assert!((80..90).contains(&d4), "{d4}");
        // Far past the cap: clamped to cap + jitter.
        assert!((500..510).contains(&d20), "{d20}");

        let zero = SupervisorConfig {
            backoff_base_ms: 0,
            ..SupervisorConfig::default()
        };
        let sup: Supervisor<crate::ClfSource<&[u8]>, _> =
            Supervisor::new(StreamConfig::default(), zero, |_pos: &SourcePosition| {
                unreachable!("factory unused in this test")
            });
        assert_eq!(sup.backoff_delay(7, &state), Duration::ZERO);
    }

    fn idle_state() -> RunState {
        RunState {
            recoveries: 0,
            poison: MalformedBreakdown::default(),
            transient_retries: 0,
            total_transients: 0,
            retry_slept: Duration::ZERO,
            checkpoints_written: 0,
            last_checkpoint: None,
            last_checkpoint_at: Instant::now(),
        }
    }

    type TestSource = crate::ClfSource<&'static [u8]>;

    fn sup_with(
        cfg: SupervisorConfig,
    ) -> Supervisor<TestSource, impl FnMut(&SourcePosition) -> Result<TestSource>> {
        Supervisor::new(StreamConfig::default(), cfg, |_pos: &SourcePosition| {
            unreachable!("factory unused in this test")
        })
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // Pathological tuning must clamp, not wrap or panic: u64::MAX
        // base with the cap wide open, at an attempt count far past the
        // shift clamp.
        let sup = sup_with(SupervisorConfig {
            backoff_base_ms: u64::MAX,
            backoff_cap_ms: u64::MAX,
            ..SupervisorConfig::default()
        });
        let state = idle_state();
        let d = sup.backoff_delay(u32::MAX, &state);
        assert!(d >= Duration::from_millis(u64::MAX - 1));
        // The exponent shift is clamped, so attempts past the clamp all
        // produce the same delay.
        let sup = sup_with(SupervisorConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: u64::MAX,
            ..SupervisorConfig::default()
        });
        assert_eq!(
            sup.backoff_delay(17, &state),
            sup.backoff_delay(400, &state)
        );
    }

    #[test]
    fn retry_budget_boundary_is_exact() {
        let sup = sup_with(SupervisorConfig {
            max_retry_elapsed_secs: 2,
            ..SupervisorConfig::default()
        });
        let mut state = idle_state();
        // One nanosecond under budget: still allowed.
        state.retry_slept = Duration::from_secs(2) - Duration::from_nanos(1);
        assert!(!sup.retry_budget_exhausted(&state));
        // Exactly at budget: exhausted (the budget buys strictly less
        // than N seconds of sleeping).
        state.retry_slept = Duration::from_secs(2);
        assert!(sup.retry_budget_exhausted(&state));
        // Zero disables the budget entirely.
        let unlimited = sup_with(SupervisorConfig {
            max_retry_elapsed_secs: 0,
            ..SupervisorConfig::default()
        });
        state.retry_slept = Duration::from_secs(1 << 40);
        assert!(!unlimited.retry_budget_exhausted(&state));
    }
}
