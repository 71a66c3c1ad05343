//! The run lifecycle shared by the one-pass binaries, `stream-analyze`
//! (file input) and `stream-serve` (wire input).
//!
//! Both binaries drive the same [`StreamAnalyzer`] under the same
//! [`Supervisor`]; only the source differs. This module owns everything
//! around the source: the shared flags, the output mode, the telemetry
//! and governor setup, checkpoint/resume, the watchdog, the end-of-run
//! lines, the run report and the exit-code policy. A binary calls the
//! steps in this order:
//!
//! 1. [`Cli`] + [`RunArgs::parse_flag`]: parse the shared flags next to
//!    the binary's own.
//! 2. [`Run::start`]: output mode and sink, `obs::reset`, the shutdown
//!    handler, the pressure governor, the JSONL events sink, the SLO
//!    engine and then the history sampler (the sampler's baseline tick
//!    is the burn-rate windows' left edge), and the panic hook that
//!    keeps injected crashes quiet. It also arms the stage watchdog.
//! 3. [`Run::serve_telemetry`] once the binary can describe its config.
//! 4. [`Run::load_resume`]: engine-config validation (exit 2) and the
//!    `--resume` checkpoint (exit 1 when it is refused).
//! 5. [`Run::supervisor`], [`Run::record_beat`] and [`Run::execute`].
//! 6. The binary's summary, then [`Run::print_recovery`].
//! 7. [`Run::finish`]: the final history tick and deep-health block,
//!    then the `--json` report. Both must precede the alert gate, which
//!    has to see events from the last partial sampling interval.
//! 8. [`Run::alert_gate`] and [`Run::degraded_gate`] fill an
//!    [`Outcome`]; the process exits with [`exit_code`].

use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use webpuzzle_obs as obs;
use webpuzzle_stream::{
    Checkpoint, FaultSpec, ObservatoryConfig, RecoverableSource, SourcePosition, StageHandle,
    StreamAnalyzer, StreamConfig, Supervisor, SupervisorConfig, SupervisorReport, Watchdog,
    WatchdogConfig, WindowConfig,
};
use webpuzzle_weblog::{MalformedKind, DEFAULT_SESSION_THRESHOLD};

/// 2004-01-12 00:00:00 UTC, the paper's WVU log start (genlog default).
pub const DEFAULT_BASE_EPOCH: i64 = 1_073_865_600;

/// Checkpoint cadence when `--checkpoint`/`--resume` names a file but
/// no `--checkpoint-every*` flag sets one.
const DEFAULT_CHECKPOINT_EVERY: u64 = 100_000;

static QUIET: AtomicBool = AtomicBool::new(false);

/// Whether `--quiet` silenced stdout (see [`say!`](crate::say)).
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// `println!` unless the run is `--quiet`.
#[macro_export]
macro_rules! say {
    ($($arg:tt)*) => {
        if !$crate::run::quiet() {
            println!($($arg)*);
        }
    };
}

/// The command line of one binary: hands out flags and their values,
/// and turns a missing value, an unparsable value or an unknown flag
/// into a usage error (one line on stderr, exit 2).
pub struct Cli {
    tool: &'static str,
    usage: &'static str,
    args: std::iter::Skip<std::env::Args>,
}

impl Cli {
    /// The process arguments of `tool`, whose usage line is `usage`.
    pub fn from_env(tool: &'static str, usage: &'static str) -> Cli {
        let args = std::env::args().skip(1);
        Cli { tool, usage, args }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`; `what` names what is expected.
    pub fn value(&mut self, flag: &str, what: &str) -> String {
        self.args.next().unwrap_or_else(|| {
            eprintln!("{}: {flag} needs a value ({what})", self.tool);
            std::process::exit(2);
        })
    }

    /// The value following `flag`, parsed as `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        let token = self.value(flag, what);
        token
            .parse()
            .unwrap_or_else(|_| self.bad(flag, &token, what))
    }

    /// Reject `token` as the value of `flag`.
    fn bad(&self, flag: &str, token: &str, what: &str) -> ! {
        eprintln!("{}: bad {flag} {token} ({what})", self.tool);
        std::process::exit(2);
    }

    /// Print the usage line and exit 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }
}

/// The flags both binaries take.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub base_epoch: i64,
    pub threshold: f64,
    pub window_len: f64,
    pub tail_k: usize,
    pub quiet: bool,
    pub json: bool,
    pub report_path: PathBuf,
    pub telemetry_addr: Option<String>,
    pub events_path: Option<PathBuf>,
    pub alert_on: Option<obs::events::Severity>,
    pub seasonal_period: Option<u64>,
    pub diagnostics: bool,
    pub checkpoint: Option<PathBuf>,
    pub checkpoint_every: u64,
    pub checkpoint_every_secs: u64,
    pub resume: Option<PathBuf>,
    pub inject_faults: Option<FaultSpec>,
    pub max_restores: u32,
    pub max_retries: u32,
    pub telemetry_history: bool,
    pub telemetry_interval_ms: u64,
    pub slo: bool,
    pub slo_file: PathBuf,
    pub governor_sessions: u64,
    pub governor_queue_bytes: u64,
    pub governor_memory_bytes: u64,
    pub watchdog_stall_secs: u64,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            base_epoch: DEFAULT_BASE_EPOCH,
            threshold: DEFAULT_SESSION_THRESHOLD,
            window_len: WindowConfig::default().window_len,
            tail_k: StreamConfig::default().tail_k,
            quiet: false,
            json: false,
            report_path: PathBuf::from("report.json"),
            telemetry_addr: None,
            events_path: None,
            alert_on: None,
            seasonal_period: None,
            diagnostics: false,
            checkpoint: None,
            checkpoint_every: 0,
            checkpoint_every_secs: 0,
            resume: None,
            inject_faults: None,
            max_restores: 3,
            max_retries: 5,
            telemetry_history: false,
            telemetry_interval_ms: 1_000,
            slo: false,
            slo_file: PathBuf::from("slo.toml"),
            governor_sessions: 0,
            governor_queue_bytes: 0,
            governor_memory_bytes: 0,
            watchdog_stall_secs: 0,
        }
    }
}

impl RunArgs {
    /// Consume `flag` (and its value) if it is a shared flag; `false`
    /// leaves it to the binary.
    pub fn parse_flag(&mut self, flag: &str, cli: &mut Cli) -> bool {
        match flag {
            "--base-epoch" => self.base_epoch = cli.parse(flag, "integer seconds"),
            "--threshold" => self.threshold = cli.parse(flag, "seconds"),
            "--window" => self.window_len = cli.parse(flag, "seconds"),
            "--tail-k" => self.tail_k = cli.parse(flag, "integer"),
            "--quiet" => self.quiet = true,
            "--json" => self.json = true,
            "--report" => self.report_path = cli.value(flag, "path").into(),
            "--telemetry-addr" => self.telemetry_addr = Some(cli.value(flag, "HOST:PORT")),
            "--events" => self.events_path = Some(cli.value(flag, "path").into()),
            "--alert-on" => {
                let what = "info|warn|critical";
                let token = cli.value(flag, what);
                let sev = obs::events::Severity::parse(&token);
                self.alert_on = Some(sev.unwrap_or_else(|| cli.bad(flag, &token, what)));
            }
            "--seasonal-period" => {
                self.seasonal_period = Some(cli.parse(flag, "windows; 0 disables"))
            }
            "--diagnostics" => self.diagnostics = true,
            "--checkpoint" => self.checkpoint = Some(cli.value(flag, "path").into()),
            "--checkpoint-every" => self.checkpoint_every = cli.parse(flag, "record count"),
            "--checkpoint-every-secs" => self.checkpoint_every_secs = cli.parse(flag, "seconds"),
            "--resume" => self.resume = Some(cli.value(flag, "path").into()),
            "--inject-faults" => {
                let what = "fault spec, e.g. seed=7,transient=0.01,crash=5000";
                let token = cli.value(flag, what);
                let spec = FaultSpec::parse(&token).unwrap_or_else(|e| cli.bad(flag, &token, &e));
                self.inject_faults = Some(spec);
            }
            "--max-restores" => self.max_restores = cli.parse(flag, "integer"),
            "--max-retries" => self.max_retries = cli.parse(flag, "integer"),
            "--telemetry-history" => self.telemetry_history = true,
            "--telemetry-interval-ms" => {
                let ms: u64 = cli.parse(flag, "milliseconds");
                self.telemetry_interval_ms = ms.max(1);
                self.telemetry_history = true;
            }
            "--slo" => self.slo = true,
            "--slo-file" => {
                self.slo_file = cli.value(flag, "path").into();
                self.slo = true;
            }
            "--governor-sessions" => {
                self.governor_sessions = cli.parse(flag, "open-session budget")
            }
            "--governor-queue-bytes" => self.governor_queue_bytes = cli.parse(flag, "bytes"),
            "--governor-memory-mb" => {
                let mb: u64 = cli.parse(flag, "megabytes");
                self.governor_memory_bytes = mb.saturating_mul(1_000_000);
            }
            "--watchdog-stall-secs" => self.watchdog_stall_secs = cli.parse(flag, "seconds"),
            _ => return false,
        }
        true
    }

    /// The engine configuration the shared flags select.
    pub fn stream_config(&self) -> StreamConfig {
        StreamConfig {
            session_threshold: self.threshold,
            request_window: WindowConfig {
                window_len: self.window_len,
                ..WindowConfig::default()
            },
            session_window: WindowConfig {
                window_len: self.window_len,
                fine_bin_width: None,
                ..WindowConfig::default()
            },
            tail_k: self.tail_k,
            observatory: ObservatoryConfig {
                seasonal_period: self.seasonal_period,
                ..ObservatoryConfig::default()
            },
            diagnostics: self.diagnostics,
            ..StreamConfig::default()
        }
    }
}

/// The verdicts that decide a finished run's exit status.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// A check the binary runs found the tool at fault (exit 1).
    pub failed: bool,
    /// Events at or above `--alert-on` (exit 3).
    pub drift_alarms: u64,
    /// Declared planted truths the final CIs missed (exit 5).
    pub truth_failures: u32,
    /// Completed only after a recovery or resume that shed sessions
    /// (exit 4).
    pub degraded: bool,
}

/// The exit status of a finished run: 1 > 3 > 5 > 4 > 0, as tabled in
/// the README.
pub fn exit_code(outcome: &Outcome) -> i32 {
    if outcome.failed {
        1
    } else if outcome.drift_alarms > 0 {
        3
    } else if outcome.truth_failures > 0 {
        5
    } else if outcome.degraded {
        4
    } else {
        0
    }
}

/// Per-record work every run does: advance the progress meter and beat
/// the watchdog's engine stage.
pub struct RecordBeat {
    progress: obs::ProgressMeter,
    beat: Option<StageHandle>,
}

impl RecordBeat {
    /// Count one record.
    pub fn tick(&mut self) {
        self.progress.tick(1);
        if let Some(beat) = &self.beat {
            beat.beat();
        }
    }
}

/// One run of a one-pass binary, from [`Run::start`] to its exit.
pub struct Run {
    tool: &'static str,
    args: RunArgs,
    raw_args: Vec<String>,
    sampler: Option<obs::tsdb::SamplerHandle>,
    watchdog: Option<Watchdog>,
    telemetry: Option<obs::TelemetryServer>,
    resumed: bool,
}

impl Run {
    /// Set up output and process-wide telemetry for `tool`, in order.
    /// Exits 2 when the events log or the SLO file cannot be used.
    pub fn start(tool: &'static str, args: &RunArgs) -> Run {
        QUIET.store(args.quiet, Ordering::Relaxed);
        if args.quiet {
            // NullSink is the default: nothing reaches stderr.
        } else if args.json {
            obs::set_sink(Box::new(obs::JsonSink));
        } else {
            obs::set_sink(Box::new(obs::StderrSink::default()));
        }
        obs::reset();
        obs::shutdown::install();
        if args.governor_sessions > 0
            || args.governor_queue_bytes > 0
            || args.governor_memory_bytes > 0
        {
            obs::governor::install(obs::governor::GovernorConfig {
                session_budget: args.governor_sessions,
                queue_bytes_budget: args.governor_queue_bytes,
                memory_budget_bytes: args.governor_memory_bytes,
                ..obs::governor::GovernorConfig::default()
            });
            crate::say!(
                "pressure governor armed: sessions {} / queue bytes {} / memory bytes {}",
                args.governor_sessions,
                args.governor_queue_bytes,
                args.governor_memory_bytes
            );
        }
        if let Some(path) = &args.events_path {
            let sink = obs::events::JsonlEventSink::create(path).unwrap_or_else(|e| {
                eprintln!("{tool}: cannot open events log {}: {e}", path.display());
                std::process::exit(2);
            });
            obs::events::set_jsonl_sink(sink);
        }
        let sampler = crate::start_history_sampler(&crate::HistoryOptions {
            enabled: args.telemetry_history,
            interval_ms: args.telemetry_interval_ms,
            slo: args.slo,
            slo_file: args.slo_file.clone(),
        })
        .unwrap_or_else(|e| {
            eprintln!("{tool}: {e}");
            std::process::exit(2);
        });

        // Injected crashes are recovered by the supervisor; keep their
        // panic backtraces off stderr so drills read like operations, not
        // bugs. Genuine panics still print through the default hook.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.contains("injected crash")) {
                return;
            }
            default_hook(info);
        }));

        // Stage watchdog over the engine: no record for
        // `--watchdog-stall-secs` publishes a Critical event. The monitor
        // thread scans on a wall-clock cadence; the engine beats per record.
        let watchdog = (args.watchdog_stall_secs > 0).then(|| {
            let mut wd = Watchdog::new(
                WatchdogConfig {
                    stall_after: Duration::from_secs(args.watchdog_stall_secs),
                    ..WatchdogConfig::default()
                },
                &["engine"],
            );
            wd.spawn_monitor();
            wd
        });

        Run {
            tool,
            args: args.clone(),
            raw_args: std::env::args().skip(1).collect(),
            sampler,
            watchdog,
            telemetry: None,
            resumed: false,
        }
    }

    /// The command line as given, for run reports.
    pub fn raw_args(&self) -> &[String] {
        &self.raw_args
    }

    /// Serve live telemetry on `--telemetry-addr`, if given; `config` is
    /// the `/report` config block. Exits 2 when the address cannot be
    /// bound.
    pub fn serve_telemetry(&mut self, config: serde::Value) {
        let Some(addr) = &self.args.telemetry_addr else {
            return;
        };
        let ctx = obs::ReportContext {
            tool: self.tool.to_string(),
            seed: None,
            config,
            args: self.raw_args.clone(),
        };
        let server = obs::serve(addr, ctx).unwrap_or_else(|e| {
            eprintln!("{}: cannot bind telemetry endpoint {addr}: {e}", self.tool);
            std::process::exit(2);
        });
        if !self.args.quiet {
            eprintln!(
                "{}: telemetry listening on http://{} (/metrics /healthz /report)",
                self.tool,
                server.local_addr()
            );
        }
        self.telemetry = Some(server);
    }

    /// Validate the engine configuration (bad tuning is a usage error,
    /// exit 2, not a mid-run failure) and load the `--resume`
    /// checkpoint. A corrupted, truncated or version-skewed snapshot is
    /// refused with exit 1: resuming from bad state would silently
    /// poison every estimate downstream.
    pub fn load_resume(&mut self, engine_cfg: &StreamConfig) -> Option<Checkpoint> {
        if let Err(e) = StreamAnalyzer::new(engine_cfg.clone()) {
            eprintln!("{}: {e}", self.tool);
            std::process::exit(2);
        }
        let checkpoint = self.args.resume.as_ref().map(|path| {
            Checkpoint::load(path).unwrap_or_else(|e| {
                eprintln!("{}: cannot resume from {}: {e}", self.tool, path.display());
                std::process::exit(1);
            })
        });
        self.resumed = checkpoint.is_some();
        checkpoint
    }

    /// The supervised engine over `factory`'s sources, resuming from
    /// `resume` if given. `--resume` keeps checkpointing to the same
    /// file unless `--checkpoint` overrides it.
    pub fn supervisor<S, F>(
        &self,
        engine_cfg: StreamConfig,
        resume: Option<Checkpoint>,
        lenient: bool,
        factory: F,
    ) -> Supervisor<S, F>
    where
        S: RecoverableSource,
        F: FnMut(&SourcePosition) -> webpuzzle_stream::Result<S>,
    {
        let args = &self.args;
        let checkpoint_path = args.checkpoint.clone().or_else(|| args.resume.clone());
        let mut every_records = args.checkpoint_every;
        if checkpoint_path.is_some() && every_records == 0 && args.checkpoint_every_secs == 0 {
            every_records = DEFAULT_CHECKPOINT_EVERY;
        }
        let cfg = SupervisorConfig {
            lenient,
            max_transient_retries: args.max_retries,
            max_restores: args.max_restores,
            checkpoint_path,
            checkpoint_every_records: every_records,
            checkpoint_every_secs: args.checkpoint_every_secs,
            ..SupervisorConfig::default()
        };
        let supervisor = Supervisor::new(engine_cfg, cfg, factory);
        match resume {
            Some(ck) => supervisor.with_resume(ck),
            None => supervisor,
        }
    }

    /// A beat handle on the watchdog's engine stage, when one is armed.
    pub fn engine_beat(&self) -> Option<StageHandle> {
        self.watchdog.as_ref().map(|wd| wd.handle(0))
    }

    /// The per-record progress meter and watchdog beat, for the
    /// binary's `on_record` callback.
    pub fn record_beat(&self) -> RecordBeat {
        RecordBeat {
            progress: obs::ProgressMeter::new("stream/records", None),
            beat: self.engine_beat(),
        }
    }

    /// Run the supervisor to the end of its input; exits 1 on a fatal
    /// error. Returns the report and the wall time taken.
    pub fn execute<S, F>(&self, mut supervisor: Supervisor<S, F>) -> (SupervisorReport, Duration)
    where
        S: RecoverableSource,
        F: FnMut(&SourcePosition) -> webpuzzle_stream::Result<S>,
    {
        let t0 = std::time::Instant::now();
        let report = supervisor.run().unwrap_or_else(|e| {
            eprintln!("{}: {e}", self.tool);
            std::process::exit(1);
        });
        (report, t0.elapsed())
    }

    /// Print what the supervisor had to do, if anything, then stop the
    /// watchdog and print its stalls, the governor's final state, and
    /// `shutdown_note` when a shutdown signal ended the run.
    pub fn print_recovery(&mut self, report: &SupervisorReport, shutdown_note: &str) {
        let eventful = self.resumed
            || report.recoveries > 0
            || report.transient_retries > 0
            || report.poison_records() > 0
            || report.shed_sessions > 0
            || report.checkpoints_written > 0;
        if eventful {
            crate::say!("  supervisor:");
            if let Some(records) = report.resumed_from_records {
                crate::say!("    resumed from a checkpoint at record {records}");
            }
            crate::say!(
                "    {} recovery(ies), {} transient retry(ies), {} checkpoint(s) written",
                report.recoveries,
                report.transient_retries,
                report.checkpoints_written
            );
            if report.poison_records() > 0 {
                let by_kind: Vec<String> = MalformedKind::ALL
                    .iter()
                    .filter(|k| report.poison.count(**k) > 0)
                    .map(|k| format!("{} {}", k.as_str(), report.poison.count(*k)))
                    .collect();
                crate::say!(
                    "    {} poison record(s) skipped ({})",
                    report.poison_records(),
                    by_kind.join(", ")
                );
            }
            if report.shed_sessions > 0 {
                crate::say!(
                    "    {} session(s) ({} records) shed at the open-session cap",
                    report.shed_sessions,
                    report.shed_records
                );
            }
        }
        // Stopped before anything else runs: post-run work (batch
        // verification, report writing) beats no stage and must not
        // read as a stall.
        if let Some(wd) = &mut self.watchdog {
            wd.stop();
            let stalls = wd.total_stalls();
            if stalls > 0 {
                crate::say!("  watchdog: {stalls} stall(s) detected during the run");
            }
        }
        if obs::governor::is_installed() {
            let summary = &report.summary;
            crate::say!(
                "  governor: final state {} (pressure {:.2}); \
                 {} record(s) hard-shed, {} estimator sample(s) skipped, \
                 {} session(s) evicted early",
                obs::governor::state().as_str(),
                obs::governor::pressure(),
                summary.hard_shed_records,
                summary.sampled_out,
                summary.early_evicted_sessions
            );
        }
        if obs::shutdown::requested() {
            crate::say!(
                "  graceful shutdown: {shutdown_note}, final checkpoint and report written"
            );
        }
    }

    /// Take the final telemetry tick and SLO pass (printing the
    /// deep-health block under `--slo`), then write the `--json` run
    /// report with `config` as its config block; exits 1 when the
    /// report cannot be written.
    pub fn finish(&mut self, config: serde::Value) {
        if let Some(health) = crate::finish_history_sampler(self.sampler.take(), self.args.slo) {
            crate::say!("{}", health.render().trim_end());
        }
        if !self.args.json {
            return;
        }
        let path = &self.args.report_path;
        let report = obs::RunReport::collect(self.tool, None, config, self.raw_args.clone());
        match report.save(path) {
            Ok(()) => obs::info(&format!("run report written to {}", path.display())),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// Count the events at or above `--alert-on` (0 without the flag).
    /// The verdict reaches stderr even under `--quiet`.
    pub fn alert_gate(&self) -> u64 {
        let Some(min_sev) = self.args.alert_on else {
            return 0;
        };
        let alarms = obs::events::total_at_or_above(min_sev);
        if alarms > 0 {
            eprintln!(
                "{}: {alarms} drift alarm(s) at or above {}",
                self.tool,
                min_sev.as_str()
            );
        } else {
            crate::say!("alert-on: no drift alarms at or above {}", min_sev.as_str());
        }
        alarms
    }

    /// Whether the run is complete only because it recovered (or
    /// resumed) *and* shed sessions along the way: degraded, not clean.
    pub fn degraded_gate(&self, report: &SupervisorReport) -> bool {
        let degraded = (report.recoveries > 0 || self.resumed) && report.shed_sessions > 0;
        if degraded {
            eprintln!(
                "{}: completed after recovery with {} shed session(s) \
                 ({} records) — results are complete but degraded",
                self.tool, report.shed_sessions, report.shed_records
            );
        }
        degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_precedence_is_1_3_5_4() {
        let all = Outcome {
            failed: true,
            drift_alarms: 2,
            truth_failures: 1,
            degraded: true,
        };
        assert_eq!(exit_code(&all), 1);
        let no_failure = Outcome {
            failed: false,
            ..all.clone()
        };
        assert_eq!(exit_code(&no_failure), 3);
        let no_alarms = Outcome {
            drift_alarms: 0,
            ..no_failure.clone()
        };
        assert_eq!(exit_code(&no_alarms), 5);
        let degraded_only = Outcome {
            truth_failures: 0,
            ..no_alarms
        };
        assert_eq!(exit_code(&degraded_only), 4);
        assert_eq!(exit_code(&Outcome::default()), 0);
    }
}
