//! One-pass, bounded-memory analysis of a Common Log Format access log.
//!
//! The streaming counterpart to `repro`: where `repro` materializes
//! whole synthetic weeks and runs the batch FULL-Web pipeline, this
//! binary pulls records straight off a file (or stdin), sessionizes
//! them through a TTL map, and keeps only fixed-memory online
//! estimators — Welford moments, top-k Hill tails, and per-window
//! variance-time / Poisson-battery analyses.
//!
//! ```text
//! stream-analyze [FILE|-] [--base-epoch SECS] [--threshold SECS]
//!                [--window SECS] [--tail-k N] [--lenient]
//!                [--quiet] [--json] [--report PATH] [--snapshot-every N]
//!                [--telemetry-addr HOST:PORT] [--verify-batch]
//!                [--events PATH] [--alert-on info|warn|critical]
//!                [--seasonal-period WINDOWS]
//!                [--checkpoint PATH] [--checkpoint-every N]
//!                [--checkpoint-every-secs S] [--resume PATH]
//!                [--inject-faults SPEC] [--max-open-sessions N]
//!                [--max-restores N] [--max-retries N]
//!                [--profile] [--profile-sample N] [--profile-out PATH]
//!                [--profile-exemplars PATH]
//!                [--diagnostics] [--truth-alpha A] [--truth-h H]
//!                [--telemetry-history] [--telemetry-interval-ms MS]
//!                [--slo] [--slo-file PATH]
//!                [--governor-sessions N] [--governor-queue-bytes N]
//!                [--governor-memory-mb MB] [--watchdog-stall-secs S]
//! ```
//!
//! Any `--governor-*` budget arms the run's pressure governor
//! (DESIGN.md §16): under Yellow the engine samples its per-record
//! estimators 1-in-N (counted, with honestly wider CIs) and tightens
//! the session TTL; under Red it also refuses records that would open
//! new sessions (counted) and forces a checkpoint. The governor stage
//! rides in the checkpoint and is restored on `--resume`.
//! `--watchdog-stall-secs S` arms the stage watchdog: no engine
//! progress for S seconds publishes a `Critical` watchdog event
//! (`--alert-on critical` turns that into exit 3). SIGTERM/SIGINT
//! stop the read loop at the next record boundary, write the final
//! checkpoint and run report, and exit 0.
//!
//! `FILE` defaults to `-` (stdin). `--lenient` skips and counts
//! malformed lines instead of aborting. `--snapshot-every N` rewrites
//! the `--report` file with a partial [`obs::RunReport`] (including the
//! mid-stream summary) every N records, so long runs are inspectable
//! while in flight; `--telemetry-addr` serves the same live state over
//! HTTP (including `/events?since=` for the drift ring). The drift
//! observatory (DESIGN.md §10) watches every closed window;
//! `--events PATH` appends each alarm as one JSON line, and
//! `--alert-on SEV` turns any event at or above SEV into an exit
//! status. `--seasonal-period N` overrides the observatory's
//! automatic 24 h differencing lag on the rate channel (`0` disables
//! differencing — more sensitive, only sound for streams known to have
//! no daily cycle). `--verify-batch` re-reads `FILE` through the batch
//! pipeline (`parse_log` → `sessionize` → `hill_plot` /
//! `variance_time` / `poisson_arrival_test`) and exits nonzero if the
//! streaming results drift outside the DESIGN.md §9 tolerance bands —
//! counts must match exactly, estimators within tolerance.
//!
//! ## Crash safety (DESIGN.md §11)
//!
//! Ingestion runs under a supervisor: transient I/O errors are retried
//! with capped exponential backoff, malformed records are skipped and
//! counted under `--lenient`, and engine panics restore the last
//! checkpoint. `--checkpoint PATH` writes a versioned, checksummed
//! snapshot of the full engine state every `--checkpoint-every N`
//! records (default 100000) and/or `--checkpoint-every-secs S`;
//! `--resume PATH` restarts from such a snapshot, re-seeks the input,
//! and reproduces the uninterrupted run bit for bit. A corrupted or
//! truncated snapshot is refused with a nonzero exit. `--inject-faults
//! SPEC` (e.g. `seed=7,transient=0.01,crash=5000`) wraps the source in
//! the deterministic fault injector for recovery drills.
//! `--max-open-sessions N` bounds sessionizer memory by shedding (and
//! counting) the oldest open sessions.
//!
//! ## Flight recorder (DESIGN.md §12)
//!
//! `--profile` turns on the pipeline flight recorder: 1-in-N sampled
//! per-stage latency histograms (`--profile-sample N`, default 32),
//! slowest-record trace exemplars, per-window stage-timing events, and
//! a per-stage attribution table after the summary. Before ingesting
//! anything, the tool measures the recorder's own cost on synthetic
//! records (paired on/off runs) and publishes it as the
//! `profile/overhead_pct` gauge plus a `profile_overhead_pct` field in
//! the run report — the DESIGN.md §12 budget is ≤ 3%. `--profile-out
//! PATH` writes the folded flamegraph stacks (`flamegraph.pl` /
//! `inferno-flamegraph` input); `--profile-exemplars PATH` writes the
//! exemplar traces as schema-versioned JSONL; either flag implies
//! `--profile`. The live snapshot is also served at `/profile` under
//! `--telemetry-addr`, and the `--json` run report embeds it as
//! `config.profile`. The recorder belongs to the run (its
//! `obs::Telemetry` handle), and a resumed process is a new run, so
//! profiler state intentionally resets on `--resume`: latency
//! histograms are wall-clock observations of *this* process, so
//! stitching them across process generations would blur incomparable
//! timings (the stream-side counters the sampler keys on do resume, so
//! trace indices stay deterministic). Note the per-window timing events
//! are info-severity and count toward `--alert-on info`.
//!
//! ## Estimator diagnostics (DESIGN.md §13)
//!
//! `--diagnostics` attaches confidence evidence to every per-window
//! estimate: a Hill-plot stability scan (plateau location + asymptotic
//! CI) over the session-bytes tail, the variance-time regression's CI
//! and R², Welford CIs on the per-window byte / inter-arrival means,
//! and a cross-estimator verdict on the heavy-tail/LRD consistency
//! relation `2H = 3 − α`. The evidence prints as a per-window table, is
//! embedded in the `--json` run report as the schema-versioned
//! `diagnostics` block, is served live at `/diagnostics` under
//! `--telemetry-addr`, and surfaces on `/metrics` as the
//! `estimator_confidence/*` gauges. Disagreement emits a warn-severity
//! `estimator_disagreement` event; an unjudgeable window emits an
//! info-severity `low_confidence` event (both count toward
//! `--alert-on`). `--truth-alpha A` / `--truth-h H` (each implies
//! `--diagnostics`) declare the generator's planted ground truth; the
//! run fails when the final diagnosable window's CI does not cover it —
//! the calibration gate CI runs against `genlog` output.
//!
//! ## Telemetry history & SLOs (DESIGN.md §15)
//!
//! `--telemetry-history` samples the whole metrics registry every
//! `--telemetry-interval-ms MS` (default 1000) into the fixed-memory
//! in-process time-series store, served at
//! `/timeseries?metric=&since=&step=` under `--telemetry-addr`. `--slo`
//! additionally loads burn-rate objectives from `slo.toml`
//! (`--slo-file PATH` overrides; either flag implies the history
//! sampler), evaluates them multi-window after every tick, publishes
//! `slo/*` events (which count toward `--alert-on`), prints a
//! deep-health verdict block after the summary, and embeds it in the
//! run report as the `slo` block. `/healthz?deep=1` serves the same
//! rollup live.
//!
//! Exit codes: see the table in README.md.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};

use serde::Serialize;
use webpuzzle_bench::run::{self, Cli, Run, RunArgs};
use webpuzzle_bench::say;
use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
use webpuzzle_heavytail::hill_plot;
use webpuzzle_lrd::variance_time;
use webpuzzle_obs as obs;
use webpuzzle_stream::{
    ClfSource, FaultSource, SourcePosition, StreamConfig, StreamSummary, TailSnapshot,
    WindowConfig, WindowReport,
};
use webpuzzle_timeseries::CountSeries;
use webpuzzle_weblog::clf::{parse_log, parse_log_lenient};
use webpuzzle_weblog::{sessionize, Session};

/// DESIGN.md §9 tolerance band on Hill tail indices.
const HILL_TOLERANCE: f64 = 0.15;
/// DESIGN.md §9 tolerance band on per-window variance-time H (the
/// computations are bit-identical; the band only absorbs round-off).
const H_TOLERANCE: f64 = 1e-9;
/// DESIGN.md §9 relative tolerance on Welford vs two-pass moments.
const MOMENT_RTOL: f64 = 1e-6;

const USAGE: &str = "usage: stream-analyze [FILE|-] [--base-epoch SECS] [--threshold SECS] \
     [--window SECS] [--tail-k N] [--lenient] [--quiet] [--json] \
     [--report PATH] [--snapshot-every N] [--telemetry-addr HOST:PORT] \
     [--verify-batch] [--events PATH] [--alert-on info|warn|critical] \
     [--seasonal-period WINDOWS] [--checkpoint PATH] [--checkpoint-every N] \
     [--checkpoint-every-secs S] [--resume PATH] [--inject-faults SPEC] \
     [--max-open-sessions N] [--max-restores N] [--max-retries N] \
     [--profile] [--profile-sample N] [--profile-out PATH] \
     [--profile-exemplars PATH] [--diagnostics] [--truth-alpha A] \
     [--truth-h H] [--telemetry-history] [--telemetry-interval-ms MS] \
     [--slo] [--slo-file PATH] [--governor-sessions N] \
     [--governor-queue-bytes N] [--governor-memory-mb MB] \
     [--watchdog-stall-secs S]";

#[derive(Clone)]
struct Args {
    run: RunArgs,
    input: Option<String>,
    lenient: bool,
    snapshot_every: u64,
    verify_batch: bool,
    max_open_sessions: usize,
    profile: bool,
    profile_sample: u64,
    profile_out: Option<std::path::PathBuf>,
    profile_exemplars: Option<std::path::PathBuf>,
    profile_overhead_pct: Option<f64>,
    truth_alpha: Option<f64>,
    truth_h: Option<f64>,
}

fn parse_args() -> Args {
    let mut cli = Cli::from_env("stream-analyze", USAGE);
    let mut parsed = Args {
        run: RunArgs::default(),
        input: None,
        lenient: false,
        snapshot_every: 0,
        verify_batch: false,
        max_open_sessions: 0,
        profile: false,
        profile_sample: obs::profile::DEFAULT_SAMPLE_EVERY,
        profile_out: None,
        profile_exemplars: None,
        profile_overhead_pct: None,
        truth_alpha: None,
        truth_h: None,
    };
    while let Some(flag) = cli.next_arg() {
        if parsed.run.parse_flag(&flag, &mut cli) {
            continue;
        }
        match flag.as_str() {
            "--lenient" => parsed.lenient = true,
            "--snapshot-every" => parsed.snapshot_every = cli.parse(&flag, "record count"),
            "--verify-batch" => parsed.verify_batch = true,
            "--max-open-sessions" => parsed.max_open_sessions = cli.parse(&flag, "session count"),
            "--profile" => parsed.profile = true,
            "--profile-sample" => {
                let n: u64 = cli.parse(&flag, "record period");
                parsed.profile_sample = n.max(1);
                parsed.profile = true;
            }
            "--profile-out" => {
                parsed.profile_out = Some(cli.value(&flag, "path").into());
                parsed.profile = true;
            }
            "--profile-exemplars" => {
                parsed.profile_exemplars = Some(cli.value(&flag, "path").into());
                parsed.profile = true;
            }
            "--truth-alpha" => {
                parsed.truth_alpha = Some(cli.parse(&flag, "tail index"));
                parsed.run.diagnostics = true;
            }
            "--truth-h" => {
                parsed.truth_h = Some(cli.parse(&flag, "Hurst exponent"));
                parsed.run.diagnostics = true;
            }
            other if !other.starts_with('-') || other == "-" => {
                if parsed.input.is_some() {
                    cli.usage();
                }
                parsed.input = Some(other.to_string());
            }
            _ => cli.unknown(&flag),
        }
    }
    parsed
}

fn stream_config(args: &Args) -> StreamConfig {
    StreamConfig {
        max_open_sessions: args.max_open_sessions,
        ..args.run.stream_config()
    }
}

/// The run report's config block; `partial` is true everywhere but in
/// the end-of-run report.
///
/// Besides the flags it echoes the derived engine seed and tail
/// fraction: everything needed to re-run (or audit) the analysis from
/// the report alone.
fn config_value(
    args: &Args,
    telemetry: &obs::Telemetry,
    summary: Option<&StreamSummary>,
    partial: bool,
) -> serde::Value {
    let opt_f64 = |v: Option<f64>| v.map(|x| x.to_value()).unwrap_or(serde::Value::Null);
    let cfg = stream_config(args);
    let records = summary.map_or(0, |s| s.records);
    let mut fields = vec![
        ("base_epoch".to_string(), args.run.base_epoch.to_value()),
        ("threshold".to_string(), args.run.threshold.to_value()),
        ("window_len".to_string(), args.run.window_len.to_value()),
        ("tail_k".to_string(), (args.run.tail_k as u64).to_value()),
        ("lenient".to_string(), args.lenient.to_value()),
        ("records".to_string(), records.to_value()),
        ("partial".to_string(), partial.to_value()),
        (
            "window_seed".to_string(),
            cfg.request_window.seed.to_value(),
        ),
        ("tail_fraction".to_string(), cfg.tail_fraction.to_value()),
        (
            "seasonal_period".to_string(),
            args.run
                .seasonal_period
                .map(|p| p.to_value())
                .unwrap_or(serde::Value::Null),
        ),
        (
            "checkpoint_every_records".to_string(),
            args.run.checkpoint_every.to_value(),
        ),
        (
            "checkpoint_every_secs".to_string(),
            args.run.checkpoint_every_secs.to_value(),
        ),
        (
            "max_open_sessions".to_string(),
            (args.max_open_sessions as u64).to_value(),
        ),
        ("diagnostics".to_string(), args.run.diagnostics.to_value()),
        ("truth_alpha".to_string(), opt_f64(args.truth_alpha)),
        ("truth_h".to_string(), opt_f64(args.truth_h)),
    ];
    if let Some(s) = summary {
        fields.push(("summary".to_string(), s.to_value()));
    }
    if args.profile {
        // Live flight-recorder snapshot: stage histograms, exemplars,
        // and the startup-calibrated self-overhead number the CI gate
        // asserts against (DESIGN.md §12 budget: ≤ 3%).
        fields.push(("profile".to_string(), telemetry.profile_report().to_value()));
        if let Some(pct) = args.profile_overhead_pct {
            fields.push(("profile_overhead_pct".to_string(), pct.to_value()));
        }
    }
    serde::Value::Object(fields)
}

/// Stops the stream at the next record boundary once a shutdown
/// signal has arrived: the supervisor sees a normal end of input
/// and takes its usual final-checkpoint-and-report exit.
struct DrainSource<S>(S);

impl<S: webpuzzle_stream::Source<Item = webpuzzle_weblog::LogRecord>> webpuzzle_stream::Source
    for DrainSource<S>
{
    type Item = webpuzzle_weblog::LogRecord;
    fn next_item(&mut self) -> Option<webpuzzle_stream::Result<webpuzzle_weblog::LogRecord>> {
        if obs::shutdown::requested() {
            return None;
        }
        self.0.next_item()
    }
}

impl<S: webpuzzle_stream::RecoverableSource> webpuzzle_stream::RecoverableSource
    for DrainSource<S>
{
    fn position(&self) -> SourcePosition {
        self.0.position()
    }
    fn disarm_crash(&mut self) {
        self.0.disarm_crash();
    }
}

type DrainedClf = DrainSource<FaultSource<ClfSource<Box<dyn io::BufRead>>>>;

fn main() {
    let mut args = parse_args();
    // Flight recorder: calibrate the profiler's own cost first, on
    // synthetic records, so the published overhead number never mixes
    // with real-stream variance. The calibration profiles into a
    // private run of its own, so no synthetic sample or event reaches
    // this run; the metric counters it bumps are process-wide, and
    // `Run::start` resets them.
    args.profile_overhead_pct = args.profile.then(|| {
        let pct = webpuzzle_bench::measure_profile_overhead_pct(50_000, args.profile_sample);
        if !args.run.output.quiet {
            eprintln!(
                "stream-analyze: profiler self-overhead {pct:.2}% \
                 (1-in-{} sampling, 50000-record calibration)",
                args.profile_sample
            );
        }
        pct
    });
    let mut run = Run::start("stream-analyze", &args.run);
    let telemetry = run.front.telemetry.clone();
    if let Some(pct) = args.profile_overhead_pct {
        telemetry.enable_profiler(args.profile_sample);
        obs::metrics::gauge("profile/overhead_pct").set(pct);
    }

    run.front
        .serve_telemetry(config_value(&args, &telemetry, None, true));

    let input = args.input.clone().unwrap_or_else(|| "-".to_string());
    if args.verify_batch && input == "-" {
        eprintln!("stream-analyze: --verify-batch needs a FILE (stdin cannot be re-read)");
        std::process::exit(2);
    }
    if input == "-" && (args.run.checkpoint.is_some() || args.run.resume.is_some()) {
        eprintln!(
            "stream-analyze: --checkpoint/--resume need a FILE \
             (stdin cannot be re-sought on restart)"
        );
        std::process::exit(2);
    }
    if input != "-" {
        if let Err(e) = File::open(&input) {
            eprintln!("stream-analyze: cannot open {input}: {e}");
            std::process::exit(2);
        }
    }

    let engine_cfg = stream_config(&args);
    let resume = run.load_resume(&engine_cfg);

    let fault_spec = args.run.inject_faults.clone().unwrap_or_default();
    let base_epoch = args.run.base_epoch;
    let lenient = args.lenient;
    let factory_input = input.clone();
    let factory_telemetry = telemetry.clone();
    let mut stdin_taken = false;
    let factory = move |pos: &SourcePosition| -> webpuzzle_stream::Result<DrainedClf> {
        let reader: Box<dyn io::BufRead> = if factory_input == "-" {
            if stdin_taken {
                return Err(io::Error::other(
                    "stdin cannot be reopened after a crash; use a FILE input",
                )
                .into());
            }
            stdin_taken = true;
            Box::new(BufReader::new(io::stdin()))
        } else {
            let mut file = File::open(&factory_input)?;
            if pos.byte_offset > 0 {
                file.seek(SeekFrom::Start(pos.byte_offset))?;
            }
            Box::new(BufReader::new(file))
        };
        let clf = ClfSource::new(reader, base_epoch)
            .lenient(lenient)
            .with_position(pos)
            .with_profiler(factory_telemetry.profiler());
        let mut source = FaultSource::new(clf, fault_spec.clone());
        source.set_index(pos.parsed);
        Ok(DrainSource(source))
    };

    let snapshot_every = args.snapshot_every;
    let snapshot_cfg = args.clone();
    let snapshot_argv = run.front.raw_args().to_vec();
    let snapshot_telemetry = telemetry.clone();
    let mut beat = run.record_beat();
    let supervisor = run
        .supervisor(engine_cfg, resume, args.lenient, factory)
        .on_record(Box::new(move |engine| {
            beat.tick();
            if snapshot_every > 0 && engine.records().is_multiple_of(snapshot_every) {
                let partial = engine.summary();
                let report = snapshot_telemetry.run_report(
                    "stream-analyze",
                    None,
                    config_value(&snapshot_cfg, &snapshot_telemetry, Some(&partial), true),
                    snapshot_argv.clone(),
                );
                let snapshot_path = &snapshot_cfg.run.output.report_path;
                if let Err(e) = report.save(snapshot_path) {
                    obs::warn(&format!("snapshot write failed: {e}"));
                } else {
                    obs::info(&format!(
                        "partial report ({} records) written to {}",
                        engine.records(),
                        snapshot_path.display()
                    ));
                }
            }
        }));

    let (report, elapsed) = run.execute(supervisor);
    let summary = &report.summary;
    let skipped = report.source.skipped;
    obs::info(&format!(
        "{} records ({} skipped) in {elapsed:.1?} ({:.0} rec/s)",
        summary.records,
        skipped,
        summary.records as f64 / elapsed.as_secs_f64().max(1e-9)
    ));

    print_summary(summary, skipped);
    run.print_recovery(&report, "stopped at a record boundary");
    if args.run.diagnostics {
        print_diagnostics(&summary.diagnostics);
    }

    if args.profile {
        let prof = telemetry.profile_report();
        print_profile(&prof, args.profile_overhead_pct);
        if let Some(path) = &args.profile_out {
            if let Err(e) = std::fs::write(path, prof.folded()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            say!("  folded stacks written to {}", path.display());
        }
        if let Some(path) = &args.profile_exemplars {
            if let Err(e) = std::fs::write(path, prof.exemplars_jsonl()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            say!("  exemplar traces written to {}", path.display());
        }
    }

    run.front
        .finish(config_value(&args, &telemetry, Some(summary), false));
    let failed = args.verify_batch && verify_batch(&args, &input, summary, skipped) > 0;
    let drift_alarms = run.alert_gate();
    let truth_failures = check_truth_coverage(summary, &args);
    let degraded = run.degraded_gate(&report);
    std::process::exit(run::exit_code(&run::Outcome {
        failed,
        drift_alarms,
        truth_failures,
        degraded,
    }));
}

/// Print the flight recorder's stage-attribution table: latency
/// quantiles per stage plus the single-thread throughput each
/// per-record stage alone would sustain (`count / total_time`).
fn print_profile(prof: &obs::profile::ProfileReport, overhead_pct: Option<f64>) {
    say!(
        "  flight recorder: 1-in-{} sampling, {} record(s) traced{}",
        prof.sample_every,
        prof.records_sampled,
        overhead_pct
            .map(|p| format!(", self-overhead {p:.2}%"))
            .unwrap_or_default()
    );
    say!(
        "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "stage",
        "count",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "p999 µs",
        "max µs",
        "~rec/s"
    );
    let us = |v: Option<f64>| {
        v.map(|x| format!("{:.1}", x / 1e3))
            .unwrap_or_else(|| "NA".to_string())
    };
    for s in &prof.stages {
        if s.count == 0 {
            continue;
        }
        let per_record = obs::profile::STAGES
            .iter()
            .any(|st| st.as_str() == s.stage && st.is_per_record());
        let rate = if per_record && s.total_ns > 0 {
            format!("{:.0}", s.count as f64 * 1e9 / s.total_ns as f64)
        } else {
            "-".to_string()
        };
        say!(
            "  {:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9.1} {:>10}",
            s.stage,
            s.count,
            us(s.p50_ns),
            us(s.p95_ns),
            us(s.p99_ns),
            us(s.p999_ns),
            s.max_ns as f64 / 1e3,
            rate
        );
    }
    for e in prof.exemplars.iter().take(3) {
        let stages: Vec<String> = e
            .stages
            .iter()
            .map(|b| format!("{} {:.1}µs", b.stage, b.ns as f64 / 1e3))
            .collect();
        say!(
            "    slowest: record {} @ {:.1}s took {:.1}µs ({})",
            e.record_index,
            e.stream_time,
            e.total_ns as f64 / 1e3,
            stages.join(", ")
        );
    }
}

/// Print the per-window estimator-confidence table (DESIGN.md §13).
fn print_diagnostics(report: &obs::diagnostics::DiagnosticsReport) {
    say!(
        "  estimator diagnostics ({:.0}% CIs, schema v{}):",
        report.confidence_level * 100.0,
        report.schema
    );
    say!(
        "  {:>4} {:>7} {:>7} {:>13} {:>7} {:>7} {:>6} {:>4} {:>7} {:>14}",
        "win",
        "α",
        "±CI",
        "plateau k",
        "H",
        "±CI",
        "R²",
        "pts",
        "score",
        "verdict"
    );
    let f = |v: Option<f64>| {
        v.map(|x| format!("{x:.3}"))
            .unwrap_or_else(|| "NA".to_string())
    };
    for w in &report.windows {
        let plateau = match (w.plateau_k_lo, w.plateau_k_hi) {
            (Some(lo), Some(hi)) => format!("{lo}..{hi}"),
            _ => "NS".to_string(),
        };
        say!(
            "  {:>4} {:>7} {:>7} {:>13} {:>7} {:>7} {:>6} {:>4} {:>7} {:>14}",
            w.index,
            f(w.alpha),
            f(w.alpha_ci_half_width),
            plateau,
            f(w.h),
            f(w.h_ci_half_width),
            f(w.h_r_squared),
            w.h_points,
            f(w.agreement_score),
            w.agreement.as_str()
        );
    }
    say!(
        "  {} low-confidence, {} disagreement window(s); final 2H=3−α verdict: {}",
        report.low_confidence_windows,
        report.disagreement_windows,
        report.final_verdict.as_str()
    );
}

/// Exit-5 check: one coverage check per declared truth, against the
/// *last* window that produced the estimate with a CI; returns the
/// failure count (0 when no truth was declared).
fn check_truth_coverage(summary: &StreamSummary, args: &Args) -> u32 {
    let windows = &summary.diagnostics.windows;
    let mut failures = 0;
    let mut judge = |label: &str, truth: f64, found: Option<(u64, f64, f64)>| match found {
        Some((idx, est, half)) => {
            let covered = (est - truth).abs() <= half;
            if covered {
                say!(
                    "  PASS  truth {label:<24} window {idx}: {est:.3} ± {half:.3} \
                     covers {truth:.3}"
                );
            } else {
                // Failures always print: they are the verdict.
                println!(
                    "  FAIL  truth {label:<24} window {idx}: {est:.3} ± {half:.3} \
                     misses {truth:.3}"
                );
                failures += 1;
            }
        }
        None => {
            println!("  FAIL  truth {label:<24} no window produced the estimate with a CI");
            failures += 1;
        }
    };
    if let Some(truth) = args.truth_alpha {
        let found = windows
            .iter()
            .rev()
            .find_map(|w| Some((w.index, w.alpha?, w.alpha_ci_half_width?)));
        judge("α (bytes tail)", truth, found);
    }
    if let Some(truth) = args.truth_h {
        let found = windows
            .iter()
            .rev()
            .find_map(|w| Some((w.index, w.h?, w.h_ci_half_width?)));
        judge("H (arrivals)", truth, found);
    }
    if failures > 0 {
        eprintln!("stream-analyze: {failures} planted-truth coverage failure(s)");
    } else if args.truth_alpha.is_some() || args.truth_h.is_some() {
        say!("truth-coverage: final-window CIs cover the planted truth");
    }
    failures
}

fn verdict_str(v: PoissonVerdict) -> &'static str {
    match v {
        PoissonVerdict::ConsistentWithPoisson => "Poisson",
        PoissonVerdict::Rejected => "REJECT",
        PoissonVerdict::NotApplicable => "NA",
    }
}

fn print_summary(summary: &StreamSummary, skipped: u64) {
    say!("stream summary");
    say!(
        "  records {}  skipped {}  sessions {}  peak open {}  MB {:.1}",
        summary.records,
        skipped,
        summary.sessions,
        summary.peak_open_sessions,
        summary.bytes as f64 / 1e6
    );
    say!(
        "  {:<22} {:>12} {:>14} {:>10}",
        "metric",
        "mean",
        "variance",
        "hill α"
    );
    let rows: [(&str, f64, f64, &TailSnapshot); 3] = [
        (
            "session duration (s)",
            summary.session_duration.mean,
            summary.session_duration.variance,
            &summary.duration_tail,
        ),
        (
            "requests/session",
            summary.session_requests.mean,
            summary.session_requests.variance,
            &summary.requests_tail,
        ),
        (
            "bytes/session",
            summary.session_bytes.mean,
            summary.session_bytes.variance,
            &summary.bytes_tail,
        ),
    ];
    for (name, mean, var, tail) in rows {
        let alpha = tail
            .alpha
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "NA".to_string());
        say!("  {name:<22} {mean:>12.3} {var:>14.3} {alpha:>10}");
    }
    for (what, windows) in [
        ("request", &summary.request_windows),
        ("session", &summary.session_windows),
    ] {
        say!("  {what} arrival windows:");
        say!(
            "  {:>4} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "win",
            "events",
            "H(1s)",
            "H(10ms)",
            "hourly",
            "10-min"
        );
        for w in windows.iter() {
            let h = |v: Option<f64>| {
                v.map(|x| format!("{x:.3}"))
                    .unwrap_or_else(|| "NA".to_string())
            };
            say!(
                "  {:>4} {:>10} {:>8} {:>8} {:>8} {:>8}",
                w.index,
                w.events,
                h(w.h_variance_time),
                h(w.h_variance_time_fine),
                verdict_str(w.poisson_hourly),
                verdict_str(w.poisson_ten_min)
            );
        }
    }
    let drift = &summary.drift;
    say!(
        "  drift observatory: {} windows, {} alarms ({} warn, {} critical){}",
        drift.windows,
        drift.alarms,
        drift.warn,
        drift.critical,
        drift
            .first_alarm_window
            .map(|w| format!(", first at window {w}"))
            .unwrap_or_default()
    );
    for ch in &drift.by_channel {
        say!(
            "    {:<12} {:<28} {:>6} alarm(s)",
            ch.detector,
            ch.metric,
            ch.alarms
        );
    }
}

// ------------------------------------------------------------ batch check

/// One drift check: prints PASS/DRIFT and returns 1 on drift.
fn check(label: &str, ok: bool, detail: String) -> u32 {
    if ok {
        say!("  PASS  {label:<28} {detail}");
        0
    } else {
        // Drifts always print, even under --quiet: they are the verdict.
        println!("  DRIFT {label:<28} {detail}");
        1
    }
}

fn close_rel(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * a.abs().max(b.abs()).max(1.0)
}

fn check_optional(label: &str, stream: Option<f64>, batch: Option<f64>, tol: f64) -> u32 {
    match (stream, batch) {
        (Some(s), Some(b)) => check(
            label,
            (s - b).abs() <= tol,
            format!("stream {s:.4} batch {b:.4} (tol {tol})"),
        ),
        (None, None) => check(label, true, "both NA".to_string()),
        (s, b) => check(label, false, format!("stream {s:?} batch {b:?}")),
    }
}

/// Outer-half Hill plot mean — the same assessment the streaming top-k
/// estimator computes, without the plateau CV gate (which only decides
/// whether the batch pipeline *reports* the value).
fn batch_hill_mean(values: &[f64], tail_fraction: f64) -> Option<f64> {
    let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    let plot = hill_plot(&positive, tail_fraction).ok()?;
    let k_max = plot.last()?.0;
    let window: Vec<f64> = plot
        .iter()
        .filter(|(k, _)| *k >= k_max / 2)
        .map(|(_, a)| *a)
        .collect();
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

fn batch_windows(times: &[f64], reports: &[WindowReport], cfg: &WindowConfig, label: &str) -> u32 {
    let mut drift = 0;
    for report in reports {
        let start = report.start;
        let in_window: Vec<f64> = times
            .iter()
            .copied()
            .filter(|&t| t >= start && t < start + cfg.window_len)
            .collect();
        drift += check(
            &format!("{label} win{} events", report.index),
            in_window.len() as u64 == report.events,
            format!("stream {} batch {}", report.events, in_window.len()),
        );
        let n_bins = (cfg.window_len / cfg.bin_width).ceil().max(1.0) as usize;
        let batch_h =
            CountSeries::from_event_times_in_window(&in_window, cfg.bin_width, start, n_bins)
                .ok()
                .and_then(|s| variance_time(s.counts()).ok())
                .map(|e| e.h);
        drift += check_optional(
            &format!("{label} win{} H", report.index),
            report.h_variance_time,
            batch_h,
            H_TOLERANCE,
        );
        for (name, subs, got) in [
            ("hourly", 3_600.0, report.poisson_hourly),
            ("10-min", 600.0, report.poisson_ten_min),
        ] {
            let subintervals = ((cfg.window_len / subs).round() as usize).max(2);
            let batch_verdict = if in_window.is_empty() {
                PoissonVerdict::NotApplicable
            } else {
                poisson_arrival_test(
                    &in_window,
                    start,
                    cfg.window_len,
                    subintervals,
                    TieSpreading::Uniform,
                    cfg.min_poisson_arrivals,
                    cfg.seed,
                )
                .ok()
                .flatten()
                .map_or(PoissonVerdict::NotApplicable, |o| o.verdict())
            };
            drift += check(
                &format!("{label} win{} poisson {name}", report.index),
                got == batch_verdict,
                format!(
                    "stream {} batch {}",
                    verdict_str(got),
                    verdict_str(batch_verdict)
                ),
            );
        }
    }
    drift
}

/// Exit-1 check: re-run the batch pipeline on `path` and count the
/// streamed results that drift outside the DESIGN.md §9 bands.
fn verify_batch(args: &Args, path: &str, summary: &StreamSummary, stream_skipped: u64) -> u32 {
    say!("verify-batch: re-running the batch pipeline on {path}");
    let mut text = String::new();
    // Batch verification is inherently un-streamed: it exists to check
    // the one-pass path against the reference, so it may buffer.
    let mut file = File::open(path).expect("verify-batch: reopen input");
    file.read_to_string(&mut text)
        .expect("verify-batch: read input");
    let (records, batch_skipped) = if args.lenient {
        let lenient = parse_log_lenient(&text, args.run.base_epoch);
        (lenient.records, lenient.skipped)
    } else {
        (
            parse_log(&text, args.run.base_epoch).expect("strict batch parse"),
            0,
        )
    };
    let sessions: Vec<Session> =
        sessionize(&records, args.run.threshold).expect("batch sessionize");

    let mut drift = 0;
    drift += check(
        "records",
        summary.records == records.len() as u64,
        format!("stream {} batch {}", summary.records, records.len()),
    );
    drift += check(
        "skipped lines",
        stream_skipped == batch_skipped,
        format!("stream {stream_skipped} batch {batch_skipped}"),
    );
    drift += check(
        "sessions",
        summary.sessions == sessions.len() as u64,
        format!("stream {} batch {}", summary.sessions, sessions.len()),
    );
    let batch_bytes: u64 = records.iter().map(|r| r.bytes).sum();
    drift += check(
        "bytes",
        summary.bytes == batch_bytes,
        format!("stream {} batch {batch_bytes}", summary.bytes),
    );

    let durations: Vec<f64> = sessions.iter().map(|s| s.duration()).collect();
    let request_counts: Vec<f64> = sessions.iter().map(|s| s.request_count as f64).collect();
    let session_bytes: Vec<f64> = sessions.iter().map(|s| s.bytes as f64).collect();
    for (label, stream_mean, values) in [
        ("duration mean", summary.session_duration.mean, &durations),
        (
            "requests mean",
            summary.session_requests.mean,
            &request_counts,
        ),
        (
            "bytes/session mean",
            summary.session_bytes.mean,
            &session_bytes,
        ),
    ] {
        let batch_mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        drift += check(
            label,
            close_rel(stream_mean, batch_mean, MOMENT_RTOL),
            format!("stream {stream_mean:.6} batch {batch_mean:.6}"),
        );
    }

    let tail_fraction = StreamConfig::default().tail_fraction;
    for (label, tail, values) in [
        ("hill α duration", &summary.duration_tail, &durations),
        ("hill α requests", &summary.requests_tail, &request_counts),
        ("hill α bytes", &summary.bytes_tail, &session_bytes),
    ] {
        drift += check_optional(
            label,
            tail.alpha,
            batch_hill_mean(values, tail_fraction),
            HILL_TOLERANCE,
        );
    }

    let request_times: Vec<f64> = records.iter().map(|r| r.timestamp).collect();
    let mut session_starts: Vec<f64> = sessions.iter().map(|s| s.start).collect();
    session_starts.sort_by(|a, b| a.partial_cmp(b).expect("finite starts"));
    let cfg = stream_config(args);
    drift += batch_windows(
        &request_times,
        &summary.request_windows,
        &cfg.request_window,
        "req",
    );
    drift += batch_windows(
        &session_starts,
        &summary.session_windows,
        &cfg.session_window,
        "sess",
    );
    if drift > 0 {
        eprintln!("stream-analyze: {drift} drift(s) from the batch pipeline");
    } else {
        say!("verify-batch: streaming and batch pipelines agree");
    }
    drift
}
