//! Shared helpers for the benchmark harness and the binaries.
//!
//! The interesting entry points live in `src/bin/repro.rs` (table/figure
//! reproduction) and `benches/` (criterion performance benches); this
//! library hosts the small utilities they share, and [`run`], the front
//! end of all seven binaries and the run lifecycle of the one-pass
//! binaries `stream-analyze` and `stream-serve`.

pub mod run;

use webpuzzle_core::Result;
use webpuzzle_obs::profile;
use webpuzzle_stream::{ClfSource, Source, StreamAnalyzer, StreamConfig, WindowConfig};
use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::{LogRecord, Method, WeekDataset};
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

/// Generate the standard four-server datasets at the given volume scale.
///
/// # Errors
///
/// Propagates generator failures (none for the built-in profiles).
///
/// # Examples
///
/// ```
/// let sets = webpuzzle_bench::standard_datasets(0.005, 1).unwrap();
/// assert_eq!(sets.len(), 4);
/// assert_eq!(sets[0].0, "WVU");
/// ```
pub fn standard_datasets(scale: f64, seed: u64) -> Result<Vec<(&'static str, WeekDataset)>> {
    let mut out = Vec::with_capacity(4);
    for profile in ServerProfile::all() {
        let name = profile.name();
        let records = WorkloadGenerator::new(profile.with_scale(scale))
            .seed(seed)
            .generate()?;
        let dataset = WeekDataset::from_records(records, 1800.0)
            .expect("generated records lie within the week window");
        out.push((name, dataset));
    }
    Ok(out)
}

/// Render a float that may be absent (the paper's NA/NS cells).
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "NS/NA".to_string(),
    }
}

/// Synthetic CLF text for profiler calibration: `n` well-formed lines,
/// 10 ms apart, with enough client/path/byte variety to exercise the
/// sessionizer and the online estimators.
fn calibration_log(n: usize) -> String {
    (0..n)
        .map(|i| {
            let rec = LogRecord::new(
                i as f64 * 0.01,
                (i % 97) as u32,
                Method::Get,
                (i % 31) as u32,
                200,
                200 + (i % 1_000) as u64,
            );
            format_line(&rec, run::DEFAULT_BASE_EPOCH) + "\n"
        })
        .collect()
}

/// Wall time of one full `ClfSource` → [`StreamAnalyzer`] drain of the
/// calibration `text`. Fine bins are off: the 10 ms-resolution window
/// buffers dominate setup cost and are identical in both arms anyway.
fn calibration_drain_secs(text: &str) -> f64 {
    let cfg = StreamConfig {
        request_window: WindowConfig {
            fine_bin_width: None,
            ..WindowConfig::default()
        },
        ..StreamConfig::default()
    };
    let mut engine = StreamAnalyzer::new(cfg).expect("valid calibration config");
    let mut src = ClfSource::new(text.as_bytes(), run::DEFAULT_BASE_EPOCH);
    let t0 = std::time::Instant::now();
    while let Some(item) = src.next_item() {
        engine
            .push(&item.expect("calibration line parses"))
            .expect("sorted calibration input");
    }
    engine.finish().expect("calibration finish");
    t0.elapsed().as_secs_f64()
}

/// The overhead of an "on" arm over a plain calibration drain of
/// `n_records` records: each round times a drain, runs `setup`, times
/// a drain with it, then hands its result to `teardown`. Returns the
/// minimum `(t_on − t_off) / t_off` over 5–9 rounds as a percentage
/// (clamped at 0).
///
/// Each round yields its own overhead estimate and the minimum across
/// rounds is the answer. A load burst on a shared core contaminates one
/// arm of one round and inflates only that round's estimate, which the
/// min rejects, while a real cost shows up in every round and survives
/// it. (Taking per-arm minima instead lets a burst that straddles only
/// the enabled arms of every round masquerade as overhead.) Alternating
/// arms keeps cache and frequency state comparable.
fn paired_overhead_pct<T>(
    n_records: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let text = calibration_log(n_records);
    let mut pct = f64::INFINITY;
    for round in 0..9 {
        let t_off = calibration_drain_secs(&text);
        let on = setup();
        let t_on = calibration_drain_secs(&text);
        teardown(on);
        pct = pct.min((t_on - t_off) / t_off.max(1e-12) * 100.0);
        if round >= 4 {
            // Five clean-ish rounds are enough; if the estimate is
            // still high, a co-tenant burst may have outlasted the
            // whole back-to-back sequence, so space the remaining
            // rounds out with growing pauses to straddle it.
            if pct <= 1.0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50 << (round - 4)));
        }
    }
    pct.max(0.0)
}

/// Measure the flight recorder's own cost: run the full `ClfSource` →
/// [`StreamAnalyzer`] path over `n_records` synthetic records with
/// profiling off and on (1-in-`sample_every`), paired and alternating,
/// and return `(t_on − t_off) / t_off` as a percentage (clamped at 0).
///
/// The minimum over 5–9 paired rounds suppresses scheduler noise (late
/// rounds are spaced out to wait bursts out). The measurement drives
/// the *global* profiler and metrics registry — callers should
/// [`webpuzzle_obs::reset`] (or at least [`profile::clear`]) afterwards
/// so synthetic samples never leak into a real run's report. The
/// profiler is left disabled on return.
///
/// # Panics
///
/// Panics if the synthetic log fails to parse or push — both would be
/// bugs, not runtime conditions.
pub fn measure_profile_overhead_pct(n_records: usize, sample_every: u64) -> f64 {
    profile::disable();
    paired_overhead_pct(
        n_records,
        || profile::enable(sample_every),
        |()| profile::disable(),
    )
}

/// Measure the telemetry-history sampler's cost to the engine: run the
/// full `ClfSource` → [`StreamAnalyzer`] path over `n_records`
/// synthetic records with a history sampler stopped and running (at
/// `interval_ms` cadence), paired and alternating, and return
/// `(t_on − t_off) / t_off` as a percentage (clamped at 0). The same
/// min-over-rounds noise rejection as [`measure_profile_overhead_pct`];
/// each round's sampler thread is stopped and its store dropped.
///
/// # Panics
///
/// Panics if the synthetic log fails to parse or push — both would be
/// bugs, not runtime conditions.
pub fn measure_history_overhead_pct(n_records: usize, interval_ms: u64) -> f64 {
    let config = webpuzzle_obs::TelemetryConfig {
        history: Some(webpuzzle_obs::tsdb::TsdbConfig {
            interval: std::time::Duration::from_millis(interval_ms.max(1)),
            ..webpuzzle_obs::tsdb::TsdbConfig::default()
        }),
        ..webpuzzle_obs::TelemetryConfig::default()
    };
    paired_overhead_pct(
        n_records,
        || webpuzzle_obs::Telemetry::new(config.clone()).start_sampler(),
        |telemetry| telemetry.finish(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_ordered_and_nonempty() {
        let sets = standard_datasets(0.002, 7).unwrap();
        let names: Vec<&str> = sets.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["WVU", "ClarkNet", "CSEE", "NASA-Pub2"]);
        for (name, ds) in &sets {
            assert!(!ds.records().is_empty(), "{name} empty");
        }
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(Some(1.2345)), "1.234");
        assert_eq!(cell(None), "NS/NA");
    }

    #[test]
    fn history_overhead_measurement_is_finite_and_tears_down() {
        let pct = measure_history_overhead_pct(2_000, 10);
        eprintln!("tsdb sampler overhead: {pct:.2}%");
        assert!(pct.is_finite());
        assert!(pct >= 0.0);
        webpuzzle_obs::reset();
    }

    #[test]
    fn overhead_measurement_is_finite_and_leaves_profiler_disabled() {
        let pct = measure_profile_overhead_pct(2_000, 32);
        assert!(pct.is_finite());
        assert!(pct >= 0.0);
        assert!(!profile::is_enabled());
        webpuzzle_obs::reset();
    }
}
