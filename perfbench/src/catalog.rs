//! Every metric the benchmark reports: name, unit, direction, and —
//! for per-layer metrics — which end-to-end metric, on which workload,
//! it should move. `BENCHMARK.json` is generated from this table
//! (`perfbench --manifest`) and `perfbench/README.md` carries its
//! Markdown form (`perfbench --catalog`); a test keeps both in step.

use std::fmt::Write as _;

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    /// Zero for the other tables.
    pub bound: f64,
    /// What the metric is; for a per-layer metric, the end-to-end
    /// metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    moves: &'static str,
) -> Entry {
    Entry {
        name,
        unit,
        better,
        bound,
        moves,
    }
}

const fn e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Entry {
    e2e(name, unit, better, 0.0, moves)
}

/// The command that runs the benchmark from the repository root; the
/// workload flags follow it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures when `--seconds` is not given. The shared
/// machine's speed swings by half in phases that can outlast a 25 s run,
/// so a run must be long enough to catch a quiet phase for the
/// fastest-of-passes timing (`best`) to find.
pub const RUN_SECONDS: u64 = 38;

/// The workload seed when `--seed` is not given; the batch workload's
/// paper-fidelity check runs on this seed, the one `paper_targets.toml`
/// was measured on.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads compared between commits (`BENCHMARK.json`), with why
/// each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "drain",
        "closed loop: in-memory WVU CLF through ClfSource under Supervisor, the stream-analyze path; CLF parse, per-record engine work and window closes",
    ),
    (
        "live",
        "open loop: ClarkNet paced at 50k records/s over 2 connections with checkpoints; window-close and checkpoint stalls show up as latency",
    ),
    (
        "batch",
        "WeekDataset + FullWebModel::analyze for all four profiles at scale 0.02, fast config; the only workload where Whittle, sweeps, curvature and KPSS work",
    ),
];

/// Workloads the command runs when named (and under `--workload all`)
/// but that are not compared between commits. Four compared workloads
/// leave room for runs of about 25 s only, too short on the shared
/// machine; `catchup`'s ingest layers still run, below saturation, on
/// `live`.
pub const EXTRA_WORKLOADS: [(&str, &str); 1] = [(
    "catchup",
    "closed loop: a WVU backlog sent flat out over 2 loopback TCP connections into the ingest hub; the only workload where conn parse, hub and merge run saturated",
)];

/// End-to-end metrics, reported by every workload's untraced run and
/// compared between commits.
pub const END_TO_END: [Entry; 6] = [
    e2e("setup_s", "s", "lower", 0.25, "median of the set-up repetitions: generate the fixture, render and deal its text"),
    e2e("wall_s", "s", "lower", 0.25, "pass wall time: the sum of each segment's fastest time over the run's passes (segments of 32 768 records; batch: each week's model)"),
    e2e("records_per_s", "1/s", "higher", 0.25, "records analysed per second, finish included (batch: records characterised)"),
    e2e("latency_p50_ms", "ms", "lower", 0.25, "a record's due time to its push returning (batch: a week's model, the request a caller waits on), the fastest over the run's passes; due at its schedule slot on live, at the pass start on catchup, at the previous reply in the drain and batch closed loops"),
    e2e("result_latency_p50_ms", "ms", "lower", 0.25, "the latency of the records that close a request window (batch: of each week's model)"),
    e2e("result_latency_p75_ms", "ms", "lower", 0.25, "as result_latency_p50_ms; with about 41 window results a pass, the highest percentile with ten beyond it"),
];

/// End-to-end figures printed by every run beside [`END_TO_END`] but
/// not compared between commits: the tail latencies swing by a fifth to
/// a third between runs (on `live` the records queued behind a stall
/// wait longer the slower the machine runs, and on `drain` the tail of
/// sub-microsecond pushes moves with the neighbours' use of the shared
/// caches), memory growth moves with allocator timing from run to run,
/// `error_rate` is zero on every healthy run, and generator lateness
/// exists only on `live`.
pub const NOTED: [Entry; 6] = [
    e("latency_p90_ms", "ms", "lower", "as latency_p50_ms; on live the slowest tenth of the records wait behind window-close and checkpoint stalls"),
    e("latency_p99_ms", "ms", "lower", "as latency_p50_ms"),
    e("latency_p999_ms", "ms", "lower", "as latency_p50_ms"),
    e(
        "rss_growth_mib",
        "MiB",
        "lower",
        "peak RSS during the passes minus RSS after set-up",
    ),
    e(
        "error_rate",
        "ratio",
        "lower",
        "records (batch: analyses) attempted but not analysed, over those attempted",
    ),
    e(
        "lateness_p99_ms",
        "ms",
        "lower",
        "live only: how late the generator put records on the wire against its schedule",
    ),
];

const STREAM_PUSH: &str = "records_per_s on drain; latency_p50_ms on live";
const CLOSE: &str =
    "records_per_s on drain; result_latency_p50_ms, result_latency_p75_ms and latency_p50_ms on live";
const CHECKPOINT: &str = "latency_p50_ms on live; no effect on drain";
const INGEST: &str =
    "latency_p50_ms on live; records_per_s on catchup; no effect on drain or batch";
const BATCH: &str = "wall_s on batch; no effect on the stream workloads";

/// Per-layer metrics, reported by traced runs (zero where a workload
/// does not exercise the layer).
pub const PER_LAYER: [Entry; 42] = [
    e("weblog.parse_ns", "ns", "lower", "records_per_s on drain; no effect on batch"),
    e("stream.engine.push_ns", "ns", "lower", STREAM_PUSH),
    e("stream.sessionizer.push_ns", "ns", "lower", STREAM_PUSH),
    e("stream.window.push_ns", "ns", "lower", STREAM_PUSH),
    e("stream.engine.other_ns", "ns", "lower", STREAM_PUSH),
    e("stream.sessionizer.open_peak", "count", "lower", "rss_growth_mib on drain, catchup and live"),
    e("stream.window.close_ms", "ms", "lower", CLOSE),
    e("stream.window.closes", "count", "lower", CLOSE),
    e("lrd.variance_time_fine_ms", "ms", "lower", CLOSE),
    e("lrd.variance_time_coarse_ms", "ms", "lower", CLOSE),
    e("core.poisson_test_ms", "ms", "lower", CLOSE),
    e("stream.engine.finish_ms", "ms", "lower", "wall_s on drain, catchup and live"),
    e("stream.supervisor.overhead_ns", "ns", "lower", "records_per_s on drain; latency_p50_ms on live"),
    e("stream.checkpoint.encode_ms", "ms", "lower", CHECKPOINT),
    e("stream.checkpoint.save_ms", "ms", "lower", CHECKPOINT),
    e("stream.checkpoint.bytes", "bytes", "lower", CHECKPOINT),
    e("stream.engine.busy_share", "ratio", "lower", "latency_p50_ms on live"),
    e("ingest.pop_wait_us", "us", "lower", INGEST),
    e("ingest.send_blocked_ms", "ms", "lower", INGEST),
    e("ingest.queue_depth_max", "count", "lower", INGEST),
    e("ingest.dropped", "count", "lower", INGEST),
    e("ingest.bytes_received", "bytes", "lower", INGEST),
    e("gen.lateness_p99_ms", "ms", "lower", "validity of every latency metric on live"),
    e("workload.generate_s", "s", "lower", "setup_s on every workload"),
    e("weblog.sessionize_ms", "ms", "lower", BATCH),
    e("core.arrival_analysis_ms", "ms", "lower", BATCH),
    e("core.poisson_battery_ms", "ms", "lower", BATCH),
    e("core.intra_session_ms", "ms", "lower", BATCH),
    e("lrd.whittle_ms", "ms", "lower", BATCH),
    e("lrd.sweep_ms", "ms", "lower", BATCH),
    e("lrd.abry_veitch_ms", "ms", "lower", BATCH),
    e("lrd.periodogram_ms", "ms", "lower", BATCH),
    e("lrd.rs_ms", "ms", "lower", BATCH),
    e(
        "lrd.variance_time_ms",
        "ms",
        "lower",
        "wall_s on batch; variance_time_detailed is shared with window close, so records_per_s on drain too",
    ),
    e("heavytail.curvature_ms", "ms", "lower", BATCH),
    e("heavytail.llcd_ms", "ms", "lower", BATCH),
    e("heavytail.hill_ms", "ms", "lower", BATCH),
    e("stats.kpss_ms", "ms", "lower", BATCH),
    e("trace.wall_s", "s", "lower", "the traced pass's wall time, which the layer rows account for"),
    e("trace.unattributed_ms", "ms", "lower", "the traced wall time no layer span covers"),
    e("trace.overhead_s", "s", "lower", "traced minus untraced wall_s: the cost of tracing"),
    e("canary.fft_86400_ms", "ms", "lower", "nothing: machine speed, printed beside the metrics, never used to rescale them"),
];

/// Unit of a catalogued metric, also under a `workload/` prefix.
pub fn unit(name: &str) -> &'static str {
    let bare = name.rsplit('/').next().unwrap_or(name);
    END_TO_END
        .iter()
        .chain(NOTED.iter())
        .chain(PER_LAYER.iter())
        .find(|m| m.name == bare)
        .map_or("", |m| m.unit)
}

/// The catalogue as Markdown tables.
pub fn markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name, m.unit, m.better, m.bound, m.moves
        );
    }
    out.push_str("\n| printed, not compared | unit | better | what |\n|---|---|---|---|\n");
    for m in &NOTED {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name, m.unit, m.better, m.moves
        );
    }
    out.push_str("\n| per-layer metric | unit | better | moves |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}

fn quoted(items: impl IntoIterator<Item = &'static str>) -> String {
    items
        .into_iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `BENCHMARK.json`: the command, the workloads with why each was
/// chosen, the end-to-end metrics with their bounds, and the per-layer
/// metrics. Catalogue strings contain no character JSON must escape.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted(COMMAND));
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", rows(workloads));
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", rows(end_to_end));
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", rows(per_layer));
    out.push_str("}\n");
    out
}
