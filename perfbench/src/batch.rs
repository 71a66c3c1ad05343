//! The `batch` workload: `WeekDataset::from_records` and
//! `FullWebModel::analyze` for all four server profiles at scale 0.02
//! with `AnalysisConfig::fast()` — the profile `paper_targets.toml` is
//! calibrated on, and the only workload where the Whittle estimator,
//! the aggregation sweeps, the curvature test and KPSS do work.
//!
//! The pass is a closed loop: a week is analysed when the previous
//! week's model has returned. A week's model is the request a caller
//! waits on, so its time is both the request latency and, as the batch
//! counterpart of a window result, the result latency.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use perfbench::best::Fastest;
use perfbench::quantile::{median, Sample};
use perfbench::trace::Tracer;
use webpuzzle_core::{
    AnalysisConfig, ArrivalAnalysis, FullWebModel, IntraSessionAnalysis, PoissonBattery,
    SessionMetric,
};
use webpuzzle_heavytail::{curvature_test, hill_estimate, llcd_fit, CurvatureModel};
use webpuzzle_lrd::{
    abry_veitch, aggregated_hurst_sweep, periodogram_hurst, rescaled_range, variance_time, whittle,
    SweepEstimator,
};
use webpuzzle_obs::fidelity::{check, PaperTargets};
use webpuzzle_obs::RunReport;
use webpuzzle_stats::htest::{kpss_test, KpssType};
use webpuzzle_timeseries::{decompose, CountSeries};
use webpuzzle_weblog::{LogRecord, WeekDataset, SECONDS_PER_WEEK};
use webpuzzle_workload::ServerProfile;

use crate::fixture::{generate, set_up};
use crate::reference::Checks;
use crate::rss::{current_kib, PeakSampler};
use crate::{measure, Args, Outcome};

/// Generator scale of every profile.
const SCALE: f64 = 0.02;
/// Session inactivity threshold, seconds (the paper's 30 minutes).
const THRESHOLD: f64 = 1800.0;
/// The seed `paper_targets.toml` was measured on.
const TARGETS_SEED: u64 = 1;
/// The paper-fidelity targets, as committed.
const TARGETS: &str = include_str!("../../paper_targets.toml");

/// One server's generated week.
struct Week {
    name: &'static str,
    records: Vec<LogRecord>,
}

fn build(seed: u64) -> (Vec<Week>, f64) {
    let t0 = Instant::now();
    let weeks = ServerProfile::all()
        .into_iter()
        .map(|profile| Week {
            name: profile.name(),
            records: generate(profile, SCALE, seed),
        })
        .collect();
    (weeks, t0.elapsed().as_secs_f64())
}

/// One untraced pass.
struct Pass {
    wall_s: f64,
    /// Each week's `from_records` + `analyze` time, ms.
    model_ms: Vec<f64>,
    models: Vec<Result<FullWebModel, String>>,
}

fn run_pass(weeks: &[Week], cfg: &AnalysisConfig) -> Pass {
    // Copies are made before the clock starts: `from_records` consumes
    // its input.
    let inputs: Vec<Vec<LogRecord>> = weeks.iter().map(|w| w.records.clone()).collect();
    let start = Instant::now();
    let mut model_ms = Vec::with_capacity(weeks.len());
    let mut models = Vec::with_capacity(weeks.len());
    for (week, records) in weeks.iter().zip(inputs) {
        let asked = Instant::now();
        let model = WeekDataset::from_records(records, THRESHOLD)
            .map_err(|e| e.to_string())
            .and_then(|ds| FullWebModel::analyze(week.name, &ds, cfg).map_err(|e| e.to_string()));
        model_ms.push(asked.elapsed().as_secs_f64() * 1e3);
        models.push(model);
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        model_ms,
        models,
    }
}

/// The traced pass: `FullWebModel::analyze`'s steps called one by one,
/// each timed as its layer.
fn traced_pass(weeks: &[Week], cfg: &AnalysisConfig) -> Result<Tracer, String> {
    let inputs: Vec<Vec<LogRecord>> = weeks.iter().map(|w| w.records.clone()).collect();
    let mut tr = Tracer::new(1);
    let err = |e: webpuzzle_core::StatsError| e.to_string();
    tr.open_root("batch", Instant::now());
    for records in inputs {
        let ds = tr
            .time("weblog.sessionize", || {
                WeekDataset::from_records(records, THRESHOLD)
            })
            .map_err(|e| e.to_string())?;
        let requests = ds.request_times();
        tr.time("core.arrival_analysis", || {
            ArrivalAnalysis::analyze(&requests, SECONDS_PER_WEEK, cfg)
        })
        .map_err(err)?;
        let starts = ds.session_start_times();
        tr.time("core.arrival_analysis", || {
            ArrivalAnalysis::analyze(&starts, SECONDS_PER_WEEK, cfg)
        })
        .map_err(err)?;
        let (low, med, high) = ds.select_low_med_high();
        for iv in [low, med, high] {
            let len = iv.end - iv.start;
            let req = ds.request_times_in(&iv);
            let sess = ds.session_starts_in(&iv);
            let sessions = ds.sessions_in(&iv);
            tr.time("core.poisson_battery", || {
                PoissonBattery::run(&req, iv.start, len, cfg.min_poisson_arrivals, cfg.seed)
            })
            .map_err(err)?;
            tr.time("core.poisson_battery", || {
                PoissonBattery::run(
                    &sess,
                    iv.start,
                    len,
                    cfg.min_poisson_arrivals,
                    cfg.seed.wrapping_add(1),
                )
            })
            .map_err(err)?;
            tr.time("core.intra_session", || {
                IntraSessionAnalysis::analyze(&sessions, cfg)
            })
            .map_err(err)?;
        }
        tr.time("core.intra_session", || {
            IntraSessionAnalysis::analyze(ds.sessions(), cfg)
        })
        .map_err(err)?;
    }
    tr.close_root(Instant::now());
    Ok(tr)
}

/// The estimators inside `core.arrival_analysis` and
/// `core.intra_session`, run on their own: LRD estimators and KPSS on
/// each week's binned, stationarised request series, tail estimators
/// on its session metrics. Totals over the four weeks, ms.
fn replays(weeks: &[Week], cfg: &AnalysisConfig) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut totals: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        *totals.entry(name).or_default() += t.elapsed();
    };
    for week in weeks {
        let ds = WeekDataset::from_records(week.records.clone(), THRESHOLD)
            .map_err(|e| e.to_string())?;
        let n_bins = (SECONDS_PER_WEEK / cfg.bin_width).round() as usize;
        let series = CountSeries::from_event_times_in_window(
            &ds.request_times(),
            cfg.bin_width,
            0.0,
            n_bins,
        )
        .map_err(|e| e.to_string())?;
        let counts = series.counts();
        timed("stats.kpss_ms", &mut || {
            let _ = kpss_test(counts, KpssType::Level);
        });
        let min_p = (cfg.period_search.0 / cfg.bin_width).max(2.1);
        let max_p = (cfg.period_search.1 / cfg.bin_width).min(counts.len() as f64 / 2.0);
        let x = decompose(counts, min_p, max_p, cfg.period_snr)
            .map_err(|e| e.to_string())?
            .stationary;
        timed("lrd.variance_time_ms", &mut || {
            let _ = variance_time(&x);
        });
        timed("lrd.rs_ms", &mut || {
            let _ = rescaled_range(&x);
        });
        timed("lrd.periodogram_ms", &mut || {
            let _ = periodogram_hurst(&x);
        });
        timed("lrd.whittle_ms", &mut || {
            let _ = whittle(&x);
        });
        timed("lrd.abry_veitch_ms", &mut || {
            let _ = abry_veitch(&x);
        });
        timed("lrd.sweep_ms", &mut || {
            for est in [SweepEstimator::Whittle, SweepEstimator::AbryVeitch] {
                let _ = aggregated_hurst_sweep(&x, est, cfg.sweep_min_points);
            }
        });
        for metric in SessionMetric::all() {
            let values: Vec<f64> = ds
                .sessions()
                .iter()
                .filter_map(|s| metric.extract(s))
                .collect();
            if values.len() < cfg.min_tail_sample {
                continue;
            }
            timed("heavytail.llcd_ms", &mut || {
                let _ = llcd_fit(&values, cfg.tail_fraction);
            });
            timed("heavytail.hill_ms", &mut || {
                let _ = hill_estimate(&values, cfg.tail_fraction);
            });
            timed("heavytail.curvature_ms", &mut || {
                for (model, seed) in [
                    (CurvatureModel::Pareto, cfg.seed),
                    (CurvatureModel::LogNormal, cfg.seed.wrapping_add(1)),
                ] {
                    let _ = curvature_test(
                        &values,
                        model,
                        cfg.tail_fraction,
                        cfg.curvature_replicates,
                        seed,
                    );
                }
            });
        }
    }
    Ok(totals
        .into_iter()
        .map(|(k, d)| (k, d.as_secs_f64() * 1e3))
        .collect())
}

/// Every estimate a model reports must be finite.
fn check_finite(model: &FullWebModel, checks: &mut Checks) {
    let server = &model.server;
    for (what, a) in [
        ("request", &model.request_level),
        ("session", &model.inter_session),
    ] {
        let kpss = [a.kpss_raw.statistic, a.kpss_stationary.statistic];
        checks.expect(kpss.iter().all(|k| k.is_finite()), || {
            format!("{server} {what} KPSS not finite: {kpss:?}")
        });
        for e in a.hurst_raw.iter().chain(a.hurst_stationary.iter()) {
            checks.expect(e.h.is_finite(), || {
                format!("{server} {what} H not finite: {e}")
            });
        }
    }
    for tail in model.intra_session_week.iter() {
        let alphas = [
            tail.llcd.map(|f| f.alpha),
            tail.hill.as_ref().and_then(|h| h.alpha),
        ];
        checks.expect(alphas.iter().flatten().all(|a| a.is_finite()), || {
            format!("{server} {} α not finite: {alphas:?}", tail.metric)
        });
    }
}

/// Run the `batch` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = AnalysisConfig::fast();
    let ((weeks, generate_s), setup_times) = set_up(|| build(args.seed));
    let total_records: usize = weeks.iter().map(|w| w.records.len()).sum();
    out.notes.push(format!(
        "fixture: {} weeks, {total_records} records, generated in {generate_s:.3} s",
        weeks.len()
    ));

    let baseline_kib = current_kib().unwrap_or(0);
    let sampler = PeakSampler::start();
    let passes = if args.trace {
        // A cold pass, then the warm baseline for the tracing overhead.
        vec![run_pass(&weeks, &cfg), run_pass(&weeks, &cfg)]
    } else {
        measure(
            args.seconds,
            true,
            || Ok::<_, String>(run_pass(&weeks, &cfg)),
            |p| p.wall_s,
        )
        .expect("batch passes are infallible")
    };
    let traced = args.trace.then(|| traced_pass(&weeks, &cfg));
    let peak_kib = sampler.stop();

    for (i, p) in passes.iter().enumerate() {
        let ok = p.models.iter().filter(|m| m.is_ok()).count();
        out.tally.add(p.models.len() as u64, ok as u64);
        for (week, model) in weeks.iter().zip(&p.models) {
            match model {
                Ok(m) => check_finite(m, &mut out.checks),
                Err(e) => out.checks.expect(false, || {
                    format!("pass {i}: {} analyze failed: {e}", week.name)
                }),
            }
        }
    }
    if args.seed == TARGETS_SEED {
        match PaperTargets::parse(TARGETS) {
            Ok(targets) => {
                let report =
                    RunReport::collect("perfbench", Some(args.seed), serde::Value::Null, vec![]);
                let fidelity = check(&report, &targets);
                for c in fidelity.failures() {
                    out.checks.expect(false, || {
                        format!(
                            "fidelity {}: measured {:?}, target {} ± {}",
                            c.target.metric, c.measured, c.target.value, c.target.tol
                        )
                    });
                }
                out.checks.passed += (fidelity.checks.len() - fidelity.failures().len()) as u64;
                out.notes.push(format!(
                    "fidelity: {}/{} paper targets within tolerance",
                    fidelity.checks.len() - fidelity.failures().len(),
                    fidelity.checks.len()
                ));
            }
            Err(e) => out
                .checks
                .expect(false, || format!("paper_targets.toml: {e}")),
        }
    } else {
        out.notes.push(format!(
            "fidelity: not checked (paper targets are pinned to seed {TARGETS_SEED})"
        ));
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    // Each week's model is a segment of the pass and the request a
    // caller waits on: its fastest time over the passes is both a
    // request latency and a result latency. Weighting each week by its
    // records instead would make the median jump from one week's time
    // to another's whenever their order changed.
    let mut fastest = Fastest::new();
    for p in &passes {
        fastest.add(&p.model_ms);
    }
    let models = Sample::new(fastest.values());
    let wall_s = fastest.total() / 1e3;
    out.notes.push(format!(
        "passes: {} ({}); fastest weeks sum to {wall_s:.3} s; model latency {}",
        passes.len(),
        walls
            .iter()
            .map(|w| format!("{w:.3} s"))
            .collect::<Vec<_>>()
            .join(", "),
        models.describe("ms")
    ));

    if let Some(traced) = traced {
        match traced.and_then(|tr| replays(&weeks, &cfg).map(|r| (tr, r))) {
            Ok((tr, replayed)) => {
                let l = &mut out.layers;
                l.set("workload.generate_s", generate_s);
                for (layer, metric) in [
                    ("weblog.sessionize", "weblog.sessionize_ms"),
                    ("core.arrival_analysis", "core.arrival_analysis_ms"),
                    ("core.poisson_battery", "core.poisson_battery_ms"),
                    ("core.intra_session", "core.intra_session_ms"),
                ] {
                    l.set(metric, tr.total(layer).ns as f64 / 1e6);
                }
                for (metric, v) in replayed {
                    l.set(metric, v);
                }
                let accounting = tr.accounting();
                l.set("trace.wall_s", accounting.wall_ns as f64 / 1e9);
                l.set(
                    "trace.unattributed_ms",
                    accounting.unattributed_ns as f64 / 1e6,
                );
                l.set(
                    "trace.overhead_s",
                    accounting.wall_ns as f64 / 1e9 - walls[1],
                );
                out.spans = Some(tr.to_jsonl(&format!(
                    "{{\"workload\":\"batch\",\"seed\":{},\"span_sample_every\":1}}",
                    args.seed
                )));
                out.accounting = Some(accounting);
            }
            Err(e) => out
                .checks
                .expect(false, || format!("traced batch pass: {e}")),
        }
    }

    out.noted.set("latency_p90_ms", models.at(0.9));
    out.noted.set("latency_p99_ms", models.at(0.99));
    out.noted.set("latency_p999_ms", models.at(0.999));
    out.noted.set(
        "rss_growth_mib",
        peak_kib.saturating_sub(baseline_kib) as f64 / 1024.0,
    );
    let e2e = &mut out.e2e;
    e2e.set("setup_s", median(&setup_times));
    e2e.set("wall_s", wall_s);
    e2e.set("records_per_s", total_records as f64 / wall_s);
    e2e.set("latency_p50_ms", models.at(0.5));
    e2e.set("result_latency_p50_ms", models.at(0.5));
    e2e.set("result_latency_p75_ms", models.at(0.75));
    out
}
