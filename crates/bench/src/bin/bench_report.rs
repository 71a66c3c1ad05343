//! Aggregate criterion-lite benchmark samples into a dated report, and
//! diff snapshots as a perf regression sentinel.
//!
//! `cargo bench` appends one JSON line per benchmark to
//! `target/criterion-lite/results.jsonl`. This tool folds those lines
//! into a single `BENCH_<YYYY-MM-DD>.json` at the repo root (the
//! fastest mean of each benchmark id wins, so running the suite more
//! than once before folding tightens the snapshot), and the result can
//! be committed and diffed across PRs.
//!
//! `--compare` switches to sentinel mode: the two newest committed
//! snapshots (by their `created_unix` stamp) are diffed per benchmark,
//! and any mean slowdown beyond `--threshold` (default 20%) fails the
//! run with exit 1 naming the offending benchmarks. Benchmarks present
//! in only one snapshot are reported but never fail the gate.
//!
//! Usage:
//!
//! ```text
//! bench-report [--input PATH] [--out PATH]
//! bench-report --compare [--dir PATH] [--threshold FRACTION]
//! bench-report --compare --against OLD.json --latest NEW.json
//! ```

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use webpuzzle_bench::run::Cli;

/// One benchmark's aggregated timing, as written by criterion-lite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchSample {
    /// Benchmark id (`group/function/parameter`).
    id: String,
    /// Timed iterations.
    samples: u64,
    /// Mean wall-clock nanoseconds per iteration.
    mean_ns: f64,
    /// Fastest iteration.
    min_ns: f64,
    /// Slowest iteration.
    max_ns: f64,
}

/// The committed benchmark artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchReport {
    /// Emitting tool.
    tool: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    date: String,
    /// Unix timestamp of report generation.
    created_unix: u64,
    /// Per-benchmark results, sorted by id.
    benchmarks: Vec<BenchSample>,
}

/// Civil date from a unix timestamp (days-since-epoch algorithm of
/// Howard Hinnant's `civil_from_days`). Avoids a chrono dependency.
fn utc_date(unix: u64) -> String {
    let z = (unix / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Load and parse one committed snapshot.
fn load_snapshot(path: &PathBuf) -> Result<BenchReport, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("{} is not a bench report: {e}", path.display()))
}

/// Sentinel mode: diff the two newest snapshots; exit 1 on regression.
fn compare(dir: &PathBuf, against: Option<PathBuf>, latest: Option<PathBuf>, threshold: f64) -> ! {
    let (old_path, new_path) = match (against, latest) {
        (Some(o), Some(n)) => (o, n),
        (None, None) => {
            // Newest two BENCH_*.json by their created_unix stamp (the
            // filename date alone can't order same-day snapshots).
            let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
            let entries = match std::fs::read_dir(dir) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("bench-report: cannot list {}: {e}", dir.display());
                    std::process::exit(2);
                }
            };
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                if name.starts_with("BENCH_") && name.ends_with(".json") {
                    match load_snapshot(&entry.path()) {
                        Ok(r) => snapshots.push((r.created_unix, entry.path())),
                        Err(e) => eprintln!("bench-report: skipping {e}"),
                    }
                }
            }
            snapshots.sort();
            if snapshots.len() < 2 {
                eprintln!(
                    "bench-report: need at least two BENCH_*.json snapshots in {} to compare \
                     (found {})",
                    dir.display(),
                    snapshots.len()
                );
                std::process::exit(2);
            }
            let newest = snapshots.pop().expect("len >= 2").1;
            let previous = snapshots.pop().expect("len >= 2").1;
            (previous, newest)
        }
        _ => {
            eprintln!("bench-report: --against and --latest must be given together");
            std::process::exit(2);
        }
    };

    let (old, new) = match (load_snapshot(&old_path), load_snapshot(&new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-report: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "bench-report: comparing {} ({}) -> {} ({}), regression threshold {:.0}%",
        old_path.display(),
        old.date,
        new_path.display(),
        new.date,
        threshold * 100.0
    );

    let old_by_id: BTreeMap<&str, &BenchSample> =
        old.benchmarks.iter().map(|b| (b.id.as_str(), b)).collect();
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "benchmark", "old mean ns", "new mean ns", "delta"
    );
    for b in &new.benchmarks {
        match old_by_id.get(b.id.as_str()) {
            Some(prev) if prev.mean_ns > 0.0 => {
                compared += 1;
                let delta = (b.mean_ns - prev.mean_ns) / prev.mean_ns;
                let flag = if delta > threshold {
                    regressions.push((b.id.clone(), delta));
                    "  REGRESSION"
                } else {
                    ""
                };
                println!(
                    "{:<44} {:>12.0} {:>12.0} {:>+7.1}%{flag}",
                    b.id,
                    prev.mean_ns,
                    b.mean_ns,
                    delta * 100.0
                );
            }
            _ => println!("{:<44} {:>12} {:>12.0}     (new)", b.id, "-", b.mean_ns),
        }
    }
    for id in old_by_id.keys() {
        if !new.benchmarks.iter().any(|b| b.id == *id) {
            println!("{id:<44} (removed)");
        }
    }
    if regressions.is_empty() {
        println!(
            "bench-report: no regressions beyond {:.0}% across {compared} benchmark(s)",
            threshold * 100.0
        );
        std::process::exit(0);
    }
    for (id, delta) in &regressions {
        eprintln!(
            "bench-report: PERF REGRESSION {id}: {:+.1}% (threshold {:.0}%)",
            delta * 100.0,
            threshold * 100.0
        );
    }
    eprintln!(
        "bench-report: {}/{} benchmark(s) regressed",
        regressions.len(),
        compared
    );
    std::process::exit(1);
}

const USAGE: &str = "usage: bench-report [--input PATH] [--out PATH] | \
     --compare [--dir PATH] [--threshold FRACTION] [--against OLD --latest NEW]";

fn main() {
    let mut cli = Cli::from_env("bench-report", USAGE);
    let mut input = PathBuf::from("target/criterion-lite/results.jsonl");
    let mut out: Option<PathBuf> = None;
    let mut do_compare = false;
    let mut dir = PathBuf::from(".");
    let mut against: Option<PathBuf> = None;
    let mut latest: Option<PathBuf> = None;
    let mut threshold = 0.20f64;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--input" => input = cli.value(&arg, "path").into(),
            "--out" => out = Some(cli.value(&arg, "path").into()),
            "--compare" => do_compare = true,
            "--dir" => dir = cli.value(&arg, "path").into(),
            "--against" => against = Some(cli.value(&arg, "path").into()),
            "--latest" => latest = Some(cli.value(&arg, "path").into()),
            "--threshold" => {
                threshold = cli.parse_with(&arg, "positive fraction, e.g. 0.2", |t| {
                    t.parse().ok().filter(|t: &f64| *t > 0.0)
                })
            }
            _ => cli.unknown(&arg),
        }
    }

    if do_compare {
        compare(&dir, against, latest, threshold);
    }

    let raw = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "bench-report: cannot read {} ({e}); run `cargo bench` first",
                input.display()
            );
            std::process::exit(1);
        }
    };

    // Fastest mean per id wins: timing noise on a shared machine is
    // strictly additive, so when the suite has been run more than once
    // the best run of each benchmark is the least-contaminated one.
    let mut by_id: BTreeMap<String, BenchSample> = BTreeMap::new();
    let mut skipped = 0usize;
    for line in raw.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str::<BenchSample>(line) {
            Ok(s) => match by_id.get(&s.id) {
                Some(prev) if prev.mean_ns <= s.mean_ns => {}
                _ => {
                    by_id.insert(s.id.clone(), s);
                }
            },
            Err(_) => skipped += 1,
        }
    }
    if skipped > 0 {
        eprintln!("bench-report: skipped {skipped} malformed line(s)");
    }
    if by_id.is_empty() {
        eprintln!(
            "bench-report: no samples in {}; run `cargo bench` first",
            input.display()
        );
        std::process::exit(1);
    }

    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let date = utc_date(created_unix);
    let report = BenchReport {
        tool: "bench-report".to_string(),
        date: date.clone(),
        created_unix,
        benchmarks: by_id.into_values().collect(),
    };
    let path = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{date}.json")));
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&path, json + "\n") {
        eprintln!("bench-report: cannot write {} ({e})", path.display());
        std::process::exit(1);
    }
    println!(
        "bench-report: {} benchmark(s) -> {}",
        report.benchmarks.len(),
        path.display()
    );
}
