//! Generate a synthetic week-long access log in Common Log Format.
//!
//! Makes the calibrated substrate usable outside this repository (feed the
//! output to any log-analysis tool, or back into
//! `examples/characterize_log`):
//!
//! ```text
//! genlog --profile wvu|clarknet|csee|nasa [--scale S] [--seed N]
//!        [--base-epoch SECS] [--out PATH] [--quiet] [--json]
//!        [--telemetry-addr HOST:PORT] [--stationary]
//!        [--inject-shift level|trend|diurnal:AT:MAGNITUDE]
//!        [--calibration H:ALPHA] [--markov]
//! ```
//!
//! Writes CLF lines to `--out` (default stdout). Progress and status go
//! through the observability sink on stderr: human lines by default,
//! JSON lines with `--json`, nothing with `--quiet`.
//!
//! `--stationary` zeroes the profile's diurnal cycle and weekly trend —
//! the negative-control fixture for drift detection. `--inject-shift`
//! warps timestamps after `AT` (stream seconds) so the arrival rate
//! changes by a known amount: `level:432000:2` doubles the rate from
//! day 5, `trend:259200:1` ramps it +100 %/day from day 3,
//! `diurnal:259200:0.5` adds a ±50 % daily modulation. Detection
//! latency is then measurable against exact ground truth.
//!
//! Two fixtures back the CI `diagnostics-gate` (DESIGN.md §13):
//! `--calibration H:ALPHA` replaces the profile with the single-request
//! calibration fixture whose session-byte tail is exactly Pareto(ALPHA)
//! and whose arrivals are exactly fGn-Cox(H) — the planted truths that
//! `stream-analyze --truth-alpha/--truth-h` checks coverage against.
//! `--markov` overrides the arrival process with the two-state
//! Markov-modulated Poisson control (exponential sojourns, short
//! memory): bursty traffic whose Hurst and tail estimates must *not*
//! agree under the 2H = 3 − α consistency relation.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use webpuzzle_bench::run::{Cli, Frontend, OutputArgs, DEFAULT_BASE_EPOCH};
use webpuzzle_obs as obs;
use webpuzzle_weblog::clf::format_line;
use webpuzzle_workload::{
    ArrivalModel, ServerProfile, ShiftInjector, ShiftSpec, WorkloadGenerator,
};

const USAGE: &str = "usage: genlog --profile wvu|clarknet|csee|nasa \
     [--scale S] [--seed N] [--base-epoch SECS] [--out PATH] \
     [--quiet] [--json] [--telemetry-addr HOST:PORT] \
     [--stationary] [--inject-shift KIND:AT:MAGNITUDE] \
     [--calibration H:ALPHA] [--markov]";

/// Report an output failure and exit 1.
fn fail(what: &str, e: io::Error) -> ! {
    eprintln!("genlog: {what}: {e}");
    std::process::exit(1);
}

fn main() {
    let mut cli = Cli::from_env("genlog", USAGE);
    let mut profile_name = "csee".to_string();
    let mut scale = 0.05f64;
    let mut seed = 0u64;
    let mut base_epoch = DEFAULT_BASE_EPOCH;
    let mut out_path: Option<String> = None;
    let mut output = OutputArgs::default();
    let mut stationary = false;
    let mut inject_shift: Option<String> = None;
    let mut calibration: Option<String> = None;
    let mut markov = false;

    while let Some(flag) = cli.next_arg() {
        match flag.as_str() {
            "--profile" => profile_name = cli.value(&flag, "wvu|clarknet|csee|nasa"),
            "--scale" => scale = cli.parse(&flag, "volume multiplier"),
            "--seed" => seed = cli.parse(&flag, "integer"),
            "--base-epoch" => base_epoch = cli.parse(&flag, "integer seconds"),
            "--out" => out_path = Some(cli.value(&flag, "path")),
            // The output flags but `--report`: genlog writes no report.
            "--quiet" | "--json" | "--telemetry-addr" => {
                output.parse_flag(&flag, &mut cli);
            }
            "--stationary" => stationary = true,
            "--inject-shift" => inject_shift = Some(cli.value(&flag, "KIND:AT:MAGNITUDE")),
            "--calibration" => calibration = Some(cli.value(&flag, "H:ALPHA")),
            "--markov" => markov = true,
            _ => cli.unknown(&flag),
        }
    }

    let mut front = Frontend::start("genlog", Some(seed), &output);
    front.serve_telemetry(serde::Value::Null);

    let mut profile = match calibration.as_deref() {
        Some(spec) => {
            let (h, alpha) = spec
                .split_once(':')
                .and_then(|(h, a)| Some((h.parse::<f64>().ok()?, a.parse::<f64>().ok()?)))
                .unwrap_or_else(|| {
                    eprintln!("genlog: --calibration wants H:ALPHA, got {spec}");
                    std::process::exit(2);
                });
            ServerProfile::calibration(h, alpha).unwrap_or_else(|e| {
                eprintln!("genlog: bad --calibration parameters: {e}");
                std::process::exit(2);
            })
        }
        None => match profile_name.to_ascii_lowercase().as_str() {
            "wvu" => ServerProfile::wvu(),
            "clarknet" => ServerProfile::clarknet(),
            "csee" => ServerProfile::csee(),
            "nasa" | "nasa-pub2" => ServerProfile::nasa_pub2(),
            other => {
                eprintln!("unknown profile {other} (wvu|clarknet|csee|nasa)");
                std::process::exit(2);
            }
        },
    };
    if markov {
        profile = profile.with_arrival(ArrivalModel::MarkovModulated {
            rate_ratio: 4.0,
            mean_sojourn: 120.0,
        });
    }
    if stationary {
        profile = profile
            .with_seasonality(0.0, 0.0)
            .expect("zero seasonality is always valid");
    }
    let mut injector = inject_shift.as_deref().map(|spec| {
        let spec = ShiftSpec::parse(spec).unwrap_or_else(|e| {
            eprintln!("genlog: bad --inject-shift: {e}");
            std::process::exit(2);
        });
        obs::info(&format!(
            "genlog: injecting {} shift at t={} s, magnitude {}",
            spec.kind.as_str(),
            spec.at,
            spec.magnitude
        ));
        ShiftInjector::new(spec)
    });

    obs::info(&format!(
        "genlog: generating {} at scale {scale}, seed {seed}{}",
        profile.name(),
        if stationary { " (stationary)" } else { "" }
    ));
    let generator = WorkloadGenerator::new(profile.with_scale(scale)).seed(seed);
    let expected = generator.profile().expected_requests() as u64;

    let stdout = io::stdout();
    let mut sink: Box<dyn Write> = match out_path {
        Some(path) => Box::new(BufWriter::new(
            File::create(&path).unwrap_or_else(|e| fail(&format!("cannot create {path}"), e)),
        )),
        None => Box::new(BufWriter::new(stdout.lock())),
    };
    // Records stream straight from the generator's bounded merge to the
    // writer — the whole synthetic week is never resident in memory.
    let mut progress = obs::ProgressMeter::new("genlog/write", Some(expected));
    let written = generator
        .generate_with(|record| {
            let mut record = record;
            if let Some(inj) = injector.as_mut() {
                record.timestamp = inj.warp(record.timestamp);
            }
            writeln!(sink, "{}", format_line(&record, base_epoch))
                .unwrap_or_else(|e| fail("cannot write the log", e));
            progress.tick(1);
        })
        .expect("built-in profiles generate cleanly");
    progress.finish();
    if let Err(e) = sink.flush() {
        fail("cannot write the log", e);
    }
    obs::info(&format!("genlog: {written} records"));
}
