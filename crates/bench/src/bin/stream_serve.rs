//! Live ingestion daemon: the network-facing counterpart to
//! `stream-analyze`.
//!
//! Where `stream-analyze` pulls one file (or stdin) through the
//! streaming engine, `stream-serve` binds a TCP listener, accepts
//! concurrent log sources — the newline-delimited CLF line protocol
//! and HTTP `POST /ingest` batches — merges them into one time-ordered
//! stream by per-source watermark (DESIGN.md §14), and feeds that
//! stream to the same `StreamAnalyzer` under the same crash-safe
//! supervisor. Checkpoints, resume, drift alarms, telemetry and
//! estimator diagnostics all work exactly as they do on file input.
//!
//! ```text
//! stream-serve [--listen HOST:PORT] [--addr-file PATH]
//!              [--telemetry-addr HOST:PORT]
//!              [--base-epoch SECS] [--threshold SECS] [--window SECS]
//!              [--tail-k N] [--strict] [--quiet] [--json] [--report PATH]
//!              [--events PATH] [--alert-on info|warn|critical]
//!              [--seasonal-period WINDOWS] [--diagnostics]
//!              [--checkpoint PATH] [--checkpoint-every N]
//!              [--checkpoint-every-secs S] [--resume PATH]
//!              [--reorder-window SECS] [--queue-capacity N]
//!              [--max-connections N] [--max-sources N]
//!              [--exit-after-sources N] [--stall-grace-ms MS]
//!              [--max-line-bytes N] [--batch-records MAX]
//!              [--inject-faults SPEC] [--max-restores N] [--max-retries N]
//!              [--telemetry-history] [--telemetry-interval-ms MS]
//!              [--slo] [--slo-file PATH]
//!              [--governor-sessions N] [--governor-queue-bytes N]
//!              [--governor-memory-mb MB] [--watchdog-stall-secs S]
//! ```
//!
//! `--listen` defaults to `127.0.0.1:0` (ephemeral port); the bound
//! address always prints to stderr, and `--addr-file PATH` additionally
//! writes it to a file so scripted clients (the CI equivalence gate,
//! the integration tests) can find the port without parsing logs.
//!
//! `--batch-records MAX` (default 256) caps the records a connection
//! hands the merge in one batch; a batch is handed over sooner whenever
//! no complete line is buffered, so a slow sender's records are never
//! held back waiting for the batch to fill.
//!
//! Lenient parsing is the *default* on the wire — one peer's bad line
//! must not kill a shared service; `--strict` flips a connection's
//! first malformed line into closing that connection (counted, with a
//! warning). Every shed is counted, nothing is dropped silently:
//! oversized lines, torn final lines, late records outside the reorder
//! window, resume duplicates below the admit floor — each has its own
//! `ingest/*` counter on `/metrics`, next to per-source queue-depth and
//! watermark-lag gauges.
//!
//! The run ends when the merged stream ends: after `--exit-after-sources
//! N` sources have connected and all of them closed (the deterministic
//! shape the tests and the CI gate use), or never — a daemon without
//! that flag runs until killed, which is where `--checkpoint` +
//! `--resume` come in. On resume the checkpoint's sessionizer watermark
//! becomes the hub's admit floor: senders simply replay from the start
//! of their logs and every record at or below the watermark is counted
//! as a duplicate and dropped, making wire replay idempotent.
//!
//! `--telemetry-history` samples the metrics registry into the
//! in-process time-series store (DESIGN.md §15), served as
//! `/timeseries` under `--telemetry-addr`; `--slo` additionally
//! evaluates burn-rate objectives from `slo.toml` (`--slo-file PATH`
//! overrides), publishes `slo/*` events (which count toward
//! `--alert-on`), prints a deep-health verdict after the summary, and
//! embeds it in the run report. `/healthz?deep=1` serves the same
//! rollup live.
//!
//! Any `--governor-*` budget arms the run's pressure governor
//! (DESIGN.md §16): occupancy over budget moves the run through
//! Green → Yellow → Red, the hub sheds low-priority batches
//! proportionally, the engine degrades to estimator sampling and a
//! tightened session TTL, and every shed is counted. The governor's
//! stage rides in the checkpoint, so a resumed run picks the flood
//! back up where it left it. `--watchdog-stall-secs` arms the stage
//! watchdog: records buffered in the hub with no engine progress for
//! that long publishes a `Critical` watchdog event (which `--alert-on
//! critical` turns into exit 3).
//!
//! SIGTERM/SIGINT request a graceful drain: the hub stops admitting
//! (late arrivals are counted as shutdown drops), buffered records
//! flow through the engine, the final checkpoint and run report are
//! written, and the process exits 0.
//!
//! Exit codes: see the table in README.md.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;
use webpuzzle_bench::run::{self, Cli, Run, RunArgs};
use webpuzzle_bench::say;
use webpuzzle_ingest as ingest;
use webpuzzle_obs as obs;
use webpuzzle_stream::{FaultSource, SourcePosition, StreamSummary};

const USAGE: &str = "usage: stream-serve [--listen HOST:PORT] [--addr-file PATH] \
     [--telemetry-addr HOST:PORT] [--base-epoch SECS] [--threshold SECS] \
     [--window SECS] [--tail-k N] [--strict] [--quiet] [--json] \
     [--report PATH] [--events PATH] [--alert-on info|warn|critical] \
     [--seasonal-period WINDOWS] [--diagnostics] [--checkpoint PATH] \
     [--checkpoint-every N] [--checkpoint-every-secs S] [--resume PATH] \
     [--reorder-window SECS] [--queue-capacity N] [--max-connections N] \
     [--max-sources N] [--exit-after-sources N] [--stall-grace-ms MS] \
     [--max-line-bytes N] [--batch-records MAX] [--inject-faults SPEC] \
     [--max-restores N] [--max-retries N] [--telemetry-history] \
     [--telemetry-interval-ms MS] [--slo] [--slo-file PATH] \
     [--governor-sessions N] [--governor-queue-bytes N] \
     [--governor-memory-mb MB] [--watchdog-stall-secs S]";

struct Args {
    run: RunArgs,
    listen: String,
    addr_file: Option<std::path::PathBuf>,
    strict: bool,
    reorder_window: f64,
    queue_capacity: usize,
    max_connections: usize,
    max_sources: usize,
    exit_after_sources: Option<u64>,
    stall_grace_ms: u64,
    max_line_bytes: usize,
    batch_records: usize,
}

fn parse_args() -> Args {
    let mut cli = Cli::from_env("stream-serve", USAGE);
    let mut parsed = Args {
        run: RunArgs::default(),
        listen: "127.0.0.1:0".to_string(),
        addr_file: None,
        strict: false,
        reorder_window: 0.0,
        queue_capacity: ingest::HubConfig::default().queue_capacity,
        max_connections: 64,
        max_sources: ingest::HubConfig::default().max_sources,
        exit_after_sources: None,
        stall_grace_ms: 5_000,
        max_line_bytes: ingest::ConnConfig::default().max_line_bytes,
        batch_records: ingest::ConnConfig::default().batch_records,
    };
    while let Some(flag) = cli.next_arg() {
        if parsed.run.parse_flag(&flag, &mut cli) {
            continue;
        }
        match flag.as_str() {
            "--listen" => parsed.listen = cli.value(&flag, "HOST:PORT"),
            "--addr-file" => parsed.addr_file = Some(cli.value(&flag, "path").into()),
            "--strict" => parsed.strict = true,
            "--reorder-window" => parsed.reorder_window = cli.parse(&flag, "seconds"),
            "--queue-capacity" => parsed.queue_capacity = cli.parse(&flag, "record count"),
            "--max-connections" => parsed.max_connections = cli.parse(&flag, "integer"),
            "--max-sources" => parsed.max_sources = cli.parse(&flag, "integer"),
            "--exit-after-sources" => parsed.exit_after_sources = Some(cli.parse(&flag, "integer")),
            "--stall-grace-ms" => parsed.stall_grace_ms = cli.parse(&flag, "milliseconds"),
            "--max-line-bytes" => parsed.max_line_bytes = cli.parse(&flag, "bytes"),
            "--batch-records" => {
                let n: usize = cli.parse(&flag, "record count");
                parsed.batch_records = n.max(1);
            }
            _ => cli.unknown(&flag),
        }
    }
    parsed
}

/// The run report's config block; `partial` is true everywhere but in
/// the end-of-run report.
fn config_value(
    args: &Args,
    summary: Option<&StreamSummary>,
    ingest_stats: Option<&ingest::HubStats>,
    partial: bool,
) -> serde::Value {
    let mut fields = vec![
        ("base_epoch".to_string(), args.run.base_epoch.to_value()),
        ("threshold".to_string(), args.run.threshold.to_value()),
        ("window_len".to_string(), args.run.window_len.to_value()),
        ("tail_k".to_string(), (args.run.tail_k as u64).to_value()),
        ("lenient".to_string(), (!args.strict).to_value()),
        ("reorder_window".to_string(), args.reorder_window.to_value()),
        (
            "queue_capacity".to_string(),
            (args.queue_capacity as u64).to_value(),
        ),
        ("diagnostics".to_string(), args.run.diagnostics.to_value()),
        (
            "records".to_string(),
            summary.map(|s| s.records).unwrap_or(0).to_value(),
        ),
        ("partial".to_string(), partial.to_value()),
    ];
    if let Some(s) = summary {
        fields.push(("summary".to_string(), s.to_value()));
    }
    if let Some(st) = ingest_stats {
        fields.push(("ingest".to_string(), ingest_value(st)));
    }
    serde::Value::Object(fields)
}

fn ingest_value(st: &ingest::HubStats) -> serde::Value {
    serde::Value::Object(vec![
        ("sources_seen".to_string(), st.sources_seen.to_value()),
        ("admitted".to_string(), st.admitted.to_value()),
        ("emitted".to_string(), st.emitted.to_value()),
        ("late_dropped".to_string(), st.late_dropped.to_value()),
        (
            "duplicate_dropped".to_string(),
            st.duplicate_dropped.to_value(),
        ),
        (
            "stall_late_dropped".to_string(),
            st.stall_late_dropped.to_value(),
        ),
        (
            "skipped_malformed".to_string(),
            st.skipped_malformed.to_value(),
        ),
        ("oversized_lines".to_string(), st.oversized_lines.to_value()),
        ("torn_lines".to_string(), st.torn_lines.to_value()),
        ("pressure_shed".to_string(), st.pressure_shed.to_value()),
        ("breaker_dropped".to_string(), st.breaker_dropped.to_value()),
        ("breaker_trips".to_string(), st.breaker_trips.to_value()),
        (
            "shutdown_dropped".to_string(),
            st.shutdown_dropped.to_value(),
        ),
        ("bytes_received".to_string(), st.bytes_received.to_value()),
        ("lines_received".to_string(), st.lines_received.to_value()),
    ])
}

fn main() {
    let args = parse_args();
    let mut run = Run::start("stream-serve", &args.run);
    let engine_cfg = args.run.stream_config();
    let resume = run.load_resume(&engine_cfg);

    // The wire cannot be re-sought, so resume idempotency comes from
    // the admit floor instead: everything at or below the checkpoint's
    // sessionizer watermark is a replay duplicate and is dropped
    // (counted). Senders just re-send from the start of their logs.
    let admit_floor = resume
        .as_ref()
        .map(|ck| ck.engine.sessionizer.watermark)
        .unwrap_or(f64::NEG_INFINITY);

    let hub = ingest::IngestHub::new(ingest::HubConfig {
        reorder_window: args.reorder_window,
        admit_floor,
        queue_capacity: args.queue_capacity,
        max_sources: args.max_sources,
        expected_sources: args.exit_after_sources,
        stall_grace: (args.stall_grace_ms > 0).then(|| Duration::from_millis(args.stall_grace_ms)),
        telemetry: run.front.telemetry.clone(),
        ..ingest::HubConfig::default()
    });
    if let Some(ck) = &resume {
        hub.set_baseline(ck.source);
    }

    let conn_cfg = ingest::ConnConfig {
        base_epoch: args.run.base_epoch,
        lenient: !args.strict,
        max_line_bytes: args.max_line_bytes,
        batch_records: args.batch_records,
        ..ingest::ConnConfig::default()
    };
    let listener = ingest::bind(&args.listen, hub.clone(), conn_cfg, args.max_connections)
        .unwrap_or_else(|e| {
            eprintln!(
                "stream-serve: cannot bind ingest listener {}: {e}",
                args.listen
            );
            std::process::exit(2);
        });
    // Always announced, even under --quiet: a server whose address is
    // unknowable is useless.
    eprintln!(
        "stream-serve: ingest listening on {} (line protocol + HTTP POST /ingest)",
        listener.local_addr()
    );
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, listener.local_addr().to_string()) {
            eprintln!("stream-serve: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    run.front
        .serve_telemetry(config_value(&args, None, None, true));

    // Engine restarts reuse the same hub: records still buffered in it
    // survive a panic recovery. Records the crashed engine consumed
    // past the last checkpoint cannot be rewound from the wire — those
    // come back only through sender replay against the admit floor.
    let fault_spec = args.run.inject_faults.clone().unwrap_or_default();
    let factory_hub = hub.clone();
    let factory =
        move |pos: &SourcePosition| -> webpuzzle_stream::Result<FaultSource<ingest::NetSource>> {
            let mut source = FaultSource::new(
                ingest::NetSource::new(factory_hub.clone()),
                fault_spec.clone(),
            );
            source.set_index(pos.parsed);
            Ok(source)
        };

    // SIGTERM/SIGINT → graceful drain: finish the hub so buffered
    // records flow out and the merged stream ends; the supervisor then
    // takes its normal final-checkpoint-and-report exit. For the
    // watchdog, an empty hub counts as engine progress: a stall is
    // records buffered while the engine makes none, and an idle wire is
    // not a stall.
    let run_done = Arc::new(AtomicBool::new(false));
    {
        let hub = hub.clone();
        let run_done = Arc::clone(&run_done);
        let idle_beat = run.engine_beat();
        std::thread::spawn(move || {
            let mut draining = false;
            while !run_done.load(Ordering::Relaxed) {
                if !draining && obs::shutdown::requested() {
                    eprintln!("stream-serve: shutdown signal — draining buffered records");
                    hub.finish();
                    draining = true;
                }
                if let Some(beat) = &idle_beat {
                    if hub.stats().buffered == 0 {
                        beat.beat();
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
    }

    let mut beat = run.record_beat();
    let supervisor = run
        .supervisor(engine_cfg, resume, !args.strict, factory)
        .on_record(Box::new(move |_engine| beat.tick()));
    let (report, elapsed) = run.execute(supervisor);
    run_done.store(true, Ordering::Relaxed);
    // The merged stream has ended; stop accepting and let connection
    // threads drain out.
    hub.finish();
    listener.shutdown();
    let summary = &report.summary;
    let stats = hub.stats();
    obs::info(&format!(
        "{} records from {} source(s) in {elapsed:.1?} ({:.0} rec/s)",
        summary.records,
        stats.sources_seen,
        summary.records as f64 / elapsed.as_secs_f64().max(1e-9)
    ));

    print_summary(summary, &stats);
    run.print_recovery(&report, "drained");
    run.front
        .finish(config_value(&args, Some(summary), Some(&stats), false));
    std::process::exit(run::exit_code(&run::Outcome {
        drift_alarms: run.alert_gate(),
        degraded: run.degraded_gate(&report),
        ..run::Outcome::default()
    }));
}

fn print_summary(summary: &StreamSummary, stats: &ingest::HubStats) {
    say!("stream-serve summary");
    say!(
        "  records {}  sessions {}  peak open {}  MB {:.1}",
        summary.records,
        summary.sessions,
        summary.peak_open_sessions,
        summary.bytes as f64 / 1e6
    );
    say!(
        "  ingest: {} source(s), {} line(s) / {:.1} MB on the wire",
        stats.sources_seen,
        stats.lines_received,
        stats.bytes_received as f64 / 1e6
    );
    let sheds = [
        ("malformed", stats.skipped_malformed),
        ("oversized", stats.oversized_lines),
        ("torn", stats.torn_lines),
        ("late", stats.late_dropped),
        ("duplicate", stats.duplicate_dropped),
        ("stall-late", stats.stall_late_dropped),
        ("pressure-shed", stats.pressure_shed),
        ("breaker-dropped", stats.breaker_dropped),
        ("shutdown-dropped", stats.shutdown_dropped),
    ];
    let shed: Vec<String> = sheds
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(what, n)| format!("{n} {what}"))
        .collect();
    if shed.is_empty() {
        say!("  ingest sheds: none");
    } else {
        say!("  ingest sheds: {}", shed.join(", "));
    }
    if stats.breaker_trips > 0 || stats.breakers_open > 0 {
        say!(
            "  circuit breakers: {} trip(s), {} currently open/probing",
            stats.breaker_trips,
            stats.breakers_open
        );
    }
    let alpha = |tail: &webpuzzle_stream::TailSnapshot| {
        tail.alpha
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "NA".to_string())
    };
    say!(
        "  hill α: duration {}  requests {}  bytes {}",
        alpha(&summary.duration_tail),
        alpha(&summary.requests_tail),
        alpha(&summary.bytes_tail)
    );
    let drift = &summary.drift;
    say!(
        "  drift observatory: {} windows, {} alarms ({} warn, {} critical)",
        drift.windows,
        drift.alarms,
        drift.warn,
        drift.critical
    );
}
