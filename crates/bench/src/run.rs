//! The front end of all seven binaries, and the run lifecycle of the
//! one-pass ones.
//!
//! Every binary parses its command line through [`Cli`], so a missing
//! value, an unparsable value or an unknown flag is one stderr line and
//! exit 2 everywhere. The binaries that report on themselves (`repro`,
//! `genlog` and the two stream binaries) share [`OutputArgs`],
//! [`HistoryArgs`] and [`Frontend`]: the output mode and sink, the
//! telemetry endpoint, the history sampler and the `--json` run report.
//!
//! The one-pass binaries, `stream-analyze` (file input) and
//! `stream-serve` (wire input), drive the same [`StreamAnalyzer`] under
//! the same [`Supervisor`]; only the source differs. [`Run`] owns
//! everything around the source: the shared flags, the governor,
//! checkpoint/resume, the watchdog, the end-of-run lines and the
//! exit-code policy. A binary calls the steps in this order:
//!
//! 1. [`Cli`] + [`RunArgs::parse_flag`]: parse the shared flags next to
//!    the binary's own.
//! 2. [`Run::start`]: [`Frontend::start`], the shutdown handler, the
//!    JSONL events log, then [`Frontend::start_telemetry`] (the run's
//!    events, governor, SLO judge and history store in one
//!    [`obs::Telemetry`]; the sampler's baseline tick is the burn-rate
//!    windows' left edge), and the panic hook that keeps injected
//!    crashes quiet. It also arms the stage watchdog.
//! 3. [`Frontend::serve_telemetry`] once the binary can describe its
//!    config.
//! 4. [`Run::load_resume`]: engine-config validation (exit 2) and the
//!    `--resume` checkpoint (exit 1 when it is refused).
//! 5. [`Run::supervisor`], [`Run::record_beat`] and [`Run::execute`].
//! 6. The binary's summary, then [`Run::print_recovery`].
//! 7. [`Frontend::finish`]: the final history tick and deep-health
//!    block, then the `--json` report. Both must precede the alert gate,
//!    which has to see events from the last partial sampling interval.
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

/// The default `--base-epoch` of `genlog`, `replay` and the stream
/// binaries: the paper's WVU log start.
pub const DEFAULT_BASE_EPOCH: i64 = webpuzzle_weblog::clf::WVU_BASE_EPOCH;

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
        self.parse_with(flag, what, |token| token.parse().ok())
    }

    /// The value following `flag`, converted by `convert`; `None`
    /// rejects it.
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        what: &str,
        convert: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        let token = self.value(flag, what);
        convert(&token).unwrap_or_else(|| self.bad(flag, &token, what))
    }

    /// Reject `token` as the value of `flag`.
    fn bad(&self, flag: &str, token: &str, what: &str) -> ! {
        eprintln!("{}: bad {flag} {token} ({what})", self.tool);
        std::process::exit(2);
    }

    /// Reject `arg`, which the binary does not take, and exit 2.
    pub fn unknown(&self, arg: &str) -> ! {
        eprintln!("{}: unknown argument {arg}; {}", self.tool, self.usage);
        std::process::exit(2);
    }

    /// Print the usage line and exit 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }
}

/// The output flags: `--quiet`, `--json`, `--report PATH` and
/// `--telemetry-addr HOST:PORT`.
#[derive(Debug, Clone)]
pub struct OutputArgs {
    /// Nothing on stdout, nothing from the sink on stderr.
    pub quiet: bool,
    /// JSON-line events on stderr and a run report on exit.
    pub json: bool,
    /// Where the `--json` run report goes.
    pub report_path: PathBuf,
    /// Serve `/metrics`, `/healthz` and `/report` here (port 0 picks
    /// one).
    pub telemetry_addr: Option<String>,
}

impl Default for OutputArgs {
    fn default() -> Self {
        OutputArgs {
            quiet: false,
            json: false,
            report_path: PathBuf::from("report.json"),
            telemetry_addr: None,
        }
    }
}

impl OutputArgs {
    /// Consume `flag` (and its value) if it is an output flag; `false`
    /// leaves it to the binary.
    pub fn parse_flag(&mut self, flag: &str, cli: &mut Cli) -> bool {
        match flag {
            "--quiet" => self.quiet = true,
            "--json" => self.json = true,
            "--report" => self.report_path = cli.value(flag, "path").into(),
            "--telemetry-addr" => self.telemetry_addr = Some(cli.value(flag, "HOST:PORT")),
            _ => return false,
        }
        true
    }
}

/// The telemetry-history flags: `--telemetry-history`,
/// `--telemetry-interval-ms MS`, `--slo` and `--slo-file PATH`.
#[derive(Debug, Clone)]
pub struct HistoryArgs {
    /// Sample the registry into the in-process time-series store.
    pub enabled: bool,
    /// Sampling cadence (min 1 ms).
    pub interval_ms: u64,
    /// Evaluate burn-rate objectives after every tick.
    pub slo: bool,
    /// The objectives file.
    pub slo_file: PathBuf,
}

impl Default for HistoryArgs {
    fn default() -> Self {
        HistoryArgs {
            enabled: false,
            interval_ms: 1_000,
            slo: false,
            slo_file: PathBuf::from("slo.toml"),
        }
    }
}

impl HistoryArgs {
    /// Consume `flag` (and its value) if it is a history flag; `false`
    /// leaves it to the binary.
    pub fn parse_flag(&mut self, flag: &str, cli: &mut Cli) -> bool {
        match flag {
            "--telemetry-history" => self.enabled = true,
            "--telemetry-interval-ms" => {
                let ms: u64 = cli.parse(flag, "milliseconds");
                self.interval_ms = ms.max(1);
                self.enabled = true;
            }
            "--slo" => self.slo = true,
            "--slo-file" => {
                self.slo_file = cli.value(flag, "path").into();
                self.slo = true;
            }
            _ => return false,
        }
        true
    }
}

/// What every reporting binary does around its work: the output mode,
/// the run's observatory and its telemetry endpoint, and the `--json`
/// run report.
pub struct Frontend {
    tool: &'static str,
    seed: Option<u64>,
    output: OutputArgs,
    raw_args: Vec<String>,
    /// The run's observatory, for the ingest hub and the supervisor.
    pub telemetry: obs::Telemetry,
    server: Option<obs::TelemetryServer>,
}

impl Frontend {
    /// Select the output mode (stdout for [`say!`](crate::say), the
    /// stderr sink) and reset the process-wide span arena and metrics
    /// registry. `seed` goes into the telemetry endpoint's and the run
    /// report's context.
    pub fn start(tool: &'static str, seed: Option<u64>, output: &OutputArgs) -> Frontend {
        QUIET.store(output.quiet, Ordering::Relaxed);
        obs::sink::set_mode(match (output.quiet, output.json) {
            (true, _) => obs::sink::Mode::Off,
            (false, true) => obs::sink::Mode::Json,
            (false, false) => obs::sink::Mode::Human,
        });
        obs::reset();
        Frontend {
            tool,
            seed,
            output: output.clone(),
            raw_args: std::env::args().skip(1).collect(),
            telemetry: obs::Telemetry::default(),
            server: None,
        }
    }

    /// The command line as given, for run reports.
    pub fn raw_args(&self) -> &[String] {
        &self.raw_args
    }

    /// Build the run's observatory: `governor`, the SLO judge (under
    /// `--slo`), the `--events` log and the history store (under either
    /// history flag), whose sampler takes an immediate baseline tick, so
    /// even a run shorter than one interval has a burn-rate window.
    /// Exits 2 when the objectives file is missing or invalid.
    pub fn start_telemetry(
        &mut self,
        history: &HistoryArgs,
        governor: Option<obs::governor::GovernorConfig>,
        events_log: Option<obs::events::JsonlEventSink>,
    ) {
        let slo = history.slo.then(|| {
            obs::slo::SloConfig::load(&history.slo_file).unwrap_or_else(|e| {
                eprintln!("{}: {e}", self.tool);
                std::process::exit(2);
            })
        });
        let telemetry = obs::Telemetry::new(obs::TelemetryConfig {
            history: (history.enabled || history.slo).then(|| obs::tsdb::TsdbConfig {
                interval: Duration::from_millis(history.interval_ms.max(1)),
                ..obs::tsdb::TsdbConfig::default()
            }),
            slo,
            governor,
        });
        if let Some(sink) = events_log {
            telemetry.events().set_jsonl_sink(sink);
        }
        self.telemetry = telemetry.start_sampler();
    }

    /// Serve live telemetry on `--telemetry-addr`, if given; `config` is
    /// the `/report` config block. The endpoint stays up until the
    /// frontend is dropped. Exits 2 when the address cannot be bound.
    pub fn serve_telemetry(&mut self, config: serde::Value) {
        let Some(addr) = &self.output.telemetry_addr else {
            return;
        };
        let ctx = obs::ReportContext {
            tool: self.tool.to_string(),
            seed: self.seed,
            config,
            args: self.raw_args.clone(),
        };
        let limits = obs::http::HttpLimits::default();
        let server = obs::serve(addr, ctx, self.telemetry.clone(), limits).unwrap_or_else(|e| {
            eprintln!("{}: cannot bind telemetry endpoint {addr}: {e}", self.tool);
            std::process::exit(2);
        });
        if !self.output.quiet {
            eprintln!(
                "{}: telemetry listening on http://{} (/metrics /healthz /report)",
                self.tool,
                server.local_addr()
            );
        }
        self.server = Some(server);
    }

    /// Stop the history sampler after one final tick and SLO pass (a
    /// short run may fit between two cadence ticks), printing the
    /// deep-health block under `--slo`; then write the `--json` run
    /// report with `config` as its config block. Exits 1 when the
    /// report cannot be written.
    pub fn finish(&mut self, config: serde::Value) {
        self.telemetry.finish();
        if let Some(health) = self.telemetry.slo_report() {
            crate::say!("{}", health.render().trim_end());
        }
        if !self.output.json {
            return;
        }
        let path = &self.output.report_path;
        let report = self
            .telemetry
            .run_report(self.tool, self.seed, config, self.raw_args.clone());
        match report.save(path) {
            Ok(()) => obs::info(&format!("run report written to {}", path.display())),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// The flags both one-pass binaries take.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub output: OutputArgs,
    pub history: HistoryArgs,
    pub base_epoch: i64,
    pub threshold: f64,
    pub window_len: f64,
    pub tail_k: usize,
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
    pub governor: obs::governor::GovernorConfig,
    pub watchdog_stall_secs: u64,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            output: OutputArgs::default(),
            history: HistoryArgs::default(),
            base_epoch: DEFAULT_BASE_EPOCH,
            threshold: DEFAULT_SESSION_THRESHOLD,
            window_len: WindowConfig::default().window_len,
            tail_k: StreamConfig::default().tail_k,
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
            governor: obs::governor::GovernorConfig::default(),
            watchdog_stall_secs: 0,
        }
    }
}

impl RunArgs {
    /// Consume `flag` (and its value) if it is a shared flag; `false`
    /// leaves it to the binary.
    pub fn parse_flag(&mut self, flag: &str, cli: &mut Cli) -> bool {
        if self.output.parse_flag(flag, cli) || self.history.parse_flag(flag, cli) {
            return true;
        }
        match flag {
            "--base-epoch" => self.base_epoch = cli.parse(flag, "integer seconds"),
            "--threshold" => self.threshold = cli.parse(flag, "seconds"),
            "--window" => self.window_len = cli.parse(flag, "seconds"),
            "--tail-k" => self.tail_k = cli.parse(flag, "integer"),
            "--events" => self.events_path = Some(cli.value(flag, "path").into()),
            "--alert-on" => {
                let what = "info|warn|critical";
                self.alert_on = Some(cli.parse_with(flag, what, obs::events::Severity::parse));
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
            "--governor-sessions" => {
                self.governor.session_budget = cli.parse(flag, "open-session budget")
            }
            "--governor-queue-bytes" => self.governor.queue_bytes_budget = cli.parse(flag, "bytes"),
            "--governor-memory-mb" => {
                let mb: u64 = cli.parse(flag, "megabytes");
                self.governor.memory_budget_bytes = mb.saturating_mul(1_000_000);
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
    /// Output, telemetry endpoint, history sampler and run report.
    pub front: Frontend,
    args: RunArgs,
    watchdog: Option<Watchdog>,
    resumed: bool,
}

impl Run {
    /// Set up output and the run's telemetry for `tool`, in order.
    /// Exits 2 when the events log or the SLO file cannot be used.
    pub fn start(tool: &'static str, args: &RunArgs) -> Run {
        let mut front = Frontend::start(tool, None, &args.output);
        obs::shutdown::install();
        let g = &args.governor;
        let armed = g.session_budget > 0 || g.queue_bytes_budget > 0 || g.memory_budget_bytes > 0;
        if armed {
            crate::say!(
                "pressure governor armed: sessions {} / queue bytes {} / memory bytes {}",
                g.session_budget,
                g.queue_bytes_budget,
                g.memory_budget_bytes
            );
        }
        let events_log = args.events_path.as_ref().map(|path| {
            obs::events::JsonlEventSink::create(path).unwrap_or_else(|e| {
                eprintln!("{tool}: cannot open events log {}: {e}", path.display());
                std::process::exit(2);
            })
        });
        front.start_telemetry(&args.history, armed.then(|| g.clone()), events_log);

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
                front.telemetry.clone(),
            );
            wd.spawn_monitor();
            wd
        });

        Run {
            front,
            args: args.clone(),
            watchdog,
            resumed: false,
        }
    }

    /// Validate the engine configuration (bad tuning is a usage error,
    /// exit 2, not a mid-run failure) and load the `--resume`
    /// checkpoint. A corrupted, truncated or version-skewed snapshot is
    /// refused with exit 1: resuming from bad state would silently
    /// poison every estimate downstream.
    pub fn load_resume(&mut self, engine_cfg: &StreamConfig) -> Option<Checkpoint> {
        if let Err(e) = StreamAnalyzer::new(engine_cfg.clone()) {
            eprintln!("{}: {e}", self.front.tool);
            std::process::exit(2);
        }
        let checkpoint = self.args.resume.as_ref().map(|path| {
            Checkpoint::load(path).unwrap_or_else(|e| {
                eprintln!(
                    "{}: cannot resume from {}: {e}",
                    self.front.tool,
                    path.display()
                );
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
            telemetry: self.front.telemetry.clone(),
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
            eprintln!("{}: {e}", self.front.tool);
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
        if let Some(governor) = self.front.telemetry.governor() {
            let summary = &report.summary;
            crate::say!(
                "  governor: final state {} (pressure {:.2}); \
                 {} record(s) hard-shed, {} estimator sample(s) skipped, \
                 {} session(s) evicted early",
                governor.state().as_str(),
                governor.pressure(),
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

    /// Count the run's events at or above `--alert-on` (0 without the
    /// flag). The verdict reaches stderr even under `--quiet`.
    pub fn alert_gate(&self) -> u64 {
        let Some(min_sev) = self.args.alert_on else {
            return 0;
        };
        let alarms = self.front.telemetry.events().total_at_or_above(min_sev);
        if alarms > 0 {
            eprintln!(
                "{}: {alarms} drift alarm(s) at or above {}",
                self.front.tool,
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
                self.front.tool, report.shed_sessions, report.shed_records
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
