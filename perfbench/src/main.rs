//! End-to-end benchmark of the webpuzzle pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload drain|catchup|live|batch|all] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest  # BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --catalog   # metric tables
//! ```
//!
//! Each workload builds its fixture from `--seed` in set-up (five
//! times; `setup_s` is the median), then repeats whole passes for about
//! `--seconds` seconds and reports each segment's and each record's
//! fastest time over the passes (`perfbench::best`). `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs
//! a cold pass, a warm untraced pass and a traced pass (the batch
//! workload calls the model's steps one by one in its traced pass), and
//! prints the per-layer metrics,
//! the self-time accounting of the traced pass, and the tracing
//! overhead, and writes the traced pass's spans to
//! `.bench_out/trace-<workload>-seed<N>.jsonl`. Every run checks its
//! outputs against the batch pipeline; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones), and the exit code is 1 when a check failed. See
//! `perfbench/README.md` for the workloads and every metric.

mod affinity;
mod batch;
mod fixture;
mod reference;
mod rss;
mod stream;

use std::time::Instant;

use perfbench::catalog::{
    self, DEFAULT_SEED, END_TO_END, EXTRA_WORKLOADS, NOTED, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use perfbench::outcome::{result_line, Metrics, Tally};
use perfbench::quantile::median;
use perfbench::trace::Accounting;
use webpuzzle_timeseries::fft::{fft, Complex};

use crate::reference::Checks;

/// Where traced runs write their spans, relative to the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

/// Command-line arguments.
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Fixture seed.
    pub seed: u64,
    /// Measurement budget per workload, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench [--workload drain|catchup|live|batch|all (default all)] \
         [--seed N (default {DEFAULT_SEED})] [--seconds S (default {RUN_SECONDS})] \
         [--trace 0|1] | --manifest | --catalog"
    );
    std::process::exit(2);
}

/// The compared workloads, then the extra ones.
fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS
        .iter()
        .chain(EXTRA_WORKLOADS.iter())
        .map(|(w, _)| *w)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--manifest" => {
                print!("{}", catalog::manifest());
                std::process::exit(0);
            }
            "--catalog" => {
                print!("{}", catalog::markdown());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    let known = args.workload == "all" || all_workloads().any(|w| w == args.workload);
    if !known || !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// What one workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub e2e: Metrics,
    /// End-to-end figures printed but not compared between commits.
    pub noted: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Work attempted and analysed.
    pub tally: Tally,
    /// Output checks.
    pub checks: Checks,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Self-time accounting of the traced pass.
    pub accounting: Option<Accounting>,
    /// Spans of the traced pass, as JSON lines.
    pub spans: Option<String>,
}

impl Default for Outcome {
    /// An outcome with every catalogued metric at zero.
    fn default() -> Self {
        Outcome {
            e2e: Metrics::zeroed(&END_TO_END),
            noted: Metrics::zeroed(&NOTED),
            layers: Metrics::zeroed(&PER_LAYER),
            tally: Tally::default(),
            checks: Checks::default(),
            notes: Vec::new(),
            accounting: None,
            spans: None,
        }
    }
}

/// Passes every run makes at least: the first is cold (page faults,
/// allocator growth), so the fastest of three is a warm one.
const MIN_PASSES: usize = 3;

/// Run passes until the budget is spent: at least [`MIN_PASSES`], and
/// another only while it should fit in the remaining `seconds`. With
/// `each_cpu`, pass `i` runs pinned to the `i`-th of the process's CPUs
/// (for single-threaded passes only: threads a pass spawned would
/// inherit the pin).
pub fn measure<T, E>(
    seconds: f64,
    each_cpu: bool,
    mut pass: impl FnMut() -> Result<T, E>,
    wall: impl Fn(&T) -> f64,
) -> Result<Vec<T>, E> {
    let cpus = each_cpu.then(affinity::Cpus::of_process);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let result = loop {
        if let Some(cpus) = &cpus {
            cpus.pin(passes.len());
        }
        let p = match pass() {
            Ok(p) => p,
            Err(e) => break Err(e),
        };
        let last = wall(&p);
        passes.push(p);
        if passes.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() + last > seconds {
            break Ok(passes);
        }
    };
    if let Some(cpus) = &cpus {
        cpus.unpin();
    }
    result
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// Machine-speed canary: median of nine 86 400-point FFTs (the
/// Bluestein path of a day of 1 s bins), ms. Printed with every run so
/// a slow shared machine shows; never used to rescale a metric.
fn canary_ms() -> f64 {
    let signal: Vec<Complex> = (0..86_400)
        .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
        .collect();
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let mut buf = signal.clone();
            let t = Instant::now();
            fft(&mut buf);
            std::hint::black_box(&buf);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    match name {
        "drain" => stream::run(stream::Kind::Drain, args),
        "catchup" => stream::run(stream::Kind::Catchup, args),
        "live" => stream::run(stream::Kind::Live, args),
        "batch" => batch::run(args),
        _ => unreachable!("workload names are validated"),
    }
}

/// Print a workload's report; returns whether its checks held.
fn report(name: &str, args: &Args, out: &mut Outcome, canary: f64) -> bool {
    println!(
        "== {name} (seed {}, trace {})",
        args.seed,
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let mode = if args.trace { &out.layers } else { &out.e2e };
    for bad in mode.non_finite() {
        out.checks
            .expect(false, || format!("metric {bad} is not finite"));
    }
    out.noted.set("error_rate", out.tally.error_rate());
    println!(
        "  {} failed of {} attempted",
        out.tally.failed(),
        out.tally.attempted
    );
    if args.trace {
        if let Some(acc) = &out.accounting {
            println!("  traced pass, self time per layer:");
            print!("{}", acc.render());
        }
        println!(
            "  tracing overhead: {:.4} s (traced minus untraced wall_s)",
            out.layers.get("trace.overhead_s").unwrap_or(0.0)
        );
        out.layers.set("canary.fft_86400_ms", canary);
        if let Some(spans) = &out.spans {
            let path = format!("{OUT_DIR}/trace-{name}-seed{}.jsonl", args.seed);
            match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, spans)) {
                Ok(()) => println!("  spans written to {path}"),
                Err(e) => out
                    .checks
                    .expect(false, || format!("cannot write {path}: {e}")),
            }
        }
        println!("  per-layer metrics:");
        print!("{}", out.layers.render());
    } else {
        println!("  end-to-end metrics:");
        print!("{}", out.e2e.render());
        println!("  printed, not compared:");
        print!("{}", out.noted.render());
    }
    println!(
        "  checks: {} passed, {} failed",
        out.checks.passed,
        out.checks.failures.len()
    );
    for f in &out.checks.failures {
        println!("  FAILED {f}");
    }
    out.checks.ok()
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let canary = canary_ms();
    println!(
        "perfbench: seed {} commit {} nproc {nproc} canary fft/86400 {canary:.3} ms",
        args.seed,
        git_commit()
    );
    let names: Vec<&str> = if args.workload == "all" {
        all_workloads().collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let mut tally = Tally::default();
    let mut combined = Metrics::default();
    for name in &names {
        let mut out = run_workload(name, &args);
        correct &= report(name, &args, &mut out, canary);
        tally.add(out.tally.attempted, out.tally.analysed);
        let metrics = if args.trace { out.layers } else { out.e2e };
        if names.len() == 1 {
            combined = metrics;
        } else {
            for m in metrics.iter() {
                let key: &'static str = Box::leak(format!("{name}/{}", m.name).into_boxed_str());
                combined.set(key, m.value);
            }
        }
    }
    println!("{}", result_line(correct, tally, &combined));
    if !correct {
        std::process::exit(1);
    }
}
