//! Paper-fidelity gate: compare a run report against `paper_targets.toml`.
//!
//! Loads the `report.json` written by `repro --json`, looks up every
//! target's `fidelity/...` gauge, and prints the scoreboard. Exits 0
//! when all targets are within tolerance; exits 1 naming each
//! out-of-tolerance estimator, so CI can hard-fail on fidelity drift
//! (the continuous-validation discipline argued for by the LRD
//! methodology literature — a reproduction's numbers should be checked
//! on every change, not claimed once).
//!
//! Usage: `paper-check [--targets PATH] [REPORT.json]`
//!
//! Defaults: `paper_targets.toml` and `report.json` in the current
//! directory. The targets file records (in `profile`) the exact repro
//! invocation its values are calibrated against; comparing a report from
//! a different profile prints a warning, since scale and seed move every
//! statistic.

use std::path::PathBuf;
use std::process::ExitCode;

use webpuzzle_bench::run::Cli;
use webpuzzle_obs::fidelity::{check, PaperTargets};
use webpuzzle_obs::RunReport;

const USAGE: &str = "usage: paper-check [--targets PATH] [REPORT.json]";

fn main() -> ExitCode {
    let mut cli = Cli::from_env("paper-check", USAGE);
    let mut targets_path = PathBuf::from("paper_targets.toml");
    let mut report_path = PathBuf::from("report.json");
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--targets" => targets_path = cli.value(&arg, "path").into(),
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => cli.unknown(flag),
            _ => report_path = arg.into(),
        }
    }

    let targets = match PaperTargets::load(&targets_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("paper-check: {e}");
            return ExitCode::from(2);
        }
    };
    let raw = match std::fs::read_to_string(&report_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "paper-check: cannot read {} ({e}); run `repro --json` first",
                report_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let report: RunReport = match serde_json::from_str(&raw) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "paper-check: {} is not a run report: {e}",
                report_path.display()
            );
            return ExitCode::from(2);
        }
    };

    if !targets.profile.is_empty() {
        let report_args = report.args.join(" ");
        // Flag-order-insensitive containment check: every calibrated
        // token should appear in the report's invocation.
        let mismatched: Vec<&str> = targets
            .profile
            .split_whitespace()
            .filter(|tok| *tok != "repro" && !report_args.split_whitespace().any(|a| a == *tok))
            .collect();
        if !mismatched.is_empty() {
            eprintln!(
                "paper-check: warning: report args `{report_args}` differ from the calibrated \
                 profile `{}` (missing: {}); targets assume that exact profile",
                targets.profile,
                mismatched.join(" ")
            );
        }
    }

    let result = check(&report, &targets);
    print!("{}", result.render());
    let failures = result.failures();
    if failures.is_empty() {
        println!(
            "paper-check: {} target(s) within tolerance ({})",
            result.checks.len(),
            targets_path.display()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!(
                "paper-check: FIDELITY DRIFT {}: measured {} vs target {:.3} ± {:.3} ({})",
                f.target.metric,
                match f.measured {
                    Some(v) => format!("{v:.3}"),
                    None => "absent".to_string(),
                },
                f.target.value,
                f.target.tol,
                f.target.source,
            );
        }
        eprintln!(
            "paper-check: {}/{} target(s) out of tolerance",
            failures.len(),
            result.checks.len()
        );
        ExitCode::FAILURE
    }
}
