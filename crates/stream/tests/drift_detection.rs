//! End-to-end drift-observatory checks against the calibrated workload
//! substrate: a seeded stationary fGn fixture must stay silent, a
//! ground-truth level shift must be caught within three windows of its
//! injection point, and the TTL-map health gauges must track heavy
//! eviction.
//!
//! All three tests drive [`StreamAnalyzer`] engines, which share the
//! process-global metrics registry (the named health gauges); they
//! serialize on one mutex so concurrent engines never interleave gauge
//! writes mid-assertion.

use std::sync::Mutex;

use webpuzzle_obs as obs;
use webpuzzle_stream::{StreamAnalyzer, StreamConfig};
use webpuzzle_weblog::{LogRecord, Method};
use webpuzzle_workload::{ServerProfile, ShiftInjector, ShiftSpec, WorkloadGenerator};

/// Guards the process-wide metrics registry, whose gauges the tests
/// read back.
static GAUGES: Mutex<()> = Mutex::new(());

const WINDOW_LEN: f64 = 14_400.0;
/// Level shift: triple the arrival rate from day 5 (window 30).
const SHIFT_AT: f64 = 432_000.0;
const SHIFT_WINDOW: u64 = (SHIFT_AT as u64) / (WINDOW_LEN as u64);

fn engine() -> StreamAnalyzer {
    let mut cfg = StreamConfig::default();
    cfg.request_window.window_len = WINDOW_LEN;
    cfg.session_window.window_len = WINDOW_LEN;
    StreamAnalyzer::new(cfg).expect("default-derived config is valid")
}

/// Run the seeded stationary CSEE profile (diurnal cycle and weekly
/// trend zeroed) through an engine, optionally warping timestamps with
/// an injected shift, and return the finished engine's summary.
fn run_fixture(shift: Option<&str>) -> webpuzzle_stream::StreamSummary {
    let profile = ServerProfile::csee()
        .with_seasonality(0.0, 0.0)
        .expect("zero seasonality is valid")
        .with_scale(0.05);
    let mut injector = shift.map(|s| ShiftInjector::new(ShiftSpec::parse(s).expect("valid spec")));
    let mut engine = engine();
    WorkloadGenerator::new(profile)
        .seed(7)
        .generate_with(|mut record| {
            if let Some(inj) = injector.as_mut() {
                record.timestamp = inj.warp(record.timestamp);
            }
            engine.push(&record).expect("time-ordered stream");
        })
        .expect("built-in profile generates cleanly");
    engine.finish().expect("finish succeeds")
}

#[test]
fn stationary_fgn_fixture_raises_no_alarms() {
    let _lock = GAUGES.lock().unwrap();
    let summary = run_fixture(None);
    assert!(
        summary.drift.windows > 30,
        "the week must close many windows"
    );
    assert_eq!(
        summary.drift.alarms, 0,
        "stationary fixture must be silent: {:?}",
        summary.drift
    );
    assert_eq!(summary.drift.first_alarm_window, None);
}

#[test]
fn injected_level_shift_is_caught_within_three_windows() {
    let _lock = GAUGES.lock().unwrap();
    let summary = run_fixture(Some("level:432000:3"));
    let first = summary
        .drift
        .first_alarm_window
        .expect("a tripled rate must raise an alarm");
    assert!(
        (SHIFT_WINDOW..=SHIFT_WINDOW + 3).contains(&first),
        "first alarm at window {first}, shift at window {SHIFT_WINDOW}"
    );
    // No false alarms before the shift: the stationary prefix is the
    // same stream the silent fixture runs.
    assert!(summary.drift.alarms >= 1);
    let rate_alarms: u64 = summary
        .drift
        .by_channel
        .iter()
        .filter(|c| c.metric == "request_rate")
        .map(|c| c.alarms)
        .sum();
    assert!(
        rate_alarms >= 1,
        "the rate channel must fire: {:?}",
        summary.drift
    );
}

/// One request per client, 100 s apart, 30 s inactivity threshold:
/// every push closes the previous session, so the TTL map stays at
/// occupancy 1 while evictions churn — the gauges must say exactly
/// that.
#[test]
fn ttl_map_gauges_track_heavy_eviction() {
    let _lock = GAUGES.lock().unwrap();
    let cfg = StreamConfig {
        session_threshold: 30.0,
        ..StreamConfig::default()
    };
    let mut engine = StreamAnalyzer::new(cfg).expect("valid config");
    for i in 0..500u32 {
        let record = LogRecord::new(f64::from(i) * 100.0, i, Method::Get, 1, 200, 1_000);
        engine.push(&record).expect("time-ordered stream");
    }

    let gauge = |name: &str| {
        obs::metrics::snapshot()
            .gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("gauge {name} must exist"))
    };
    assert_eq!(
        gauge("stream/ttl_map_occupancy"),
        1.0,
        "only the newest session may be open"
    );
    assert!(
        gauge("stream/eviction_rate_per_sec") > 0.0,
        "steady eviction must register a positive rate"
    );
    // Evictions ride the watermark sweep, so the sweep can never lag
    // the watermark by more than the 100 s inter-arrival gap.
    let lag = gauge("stream/watermark_lag_secs");
    assert!(
        (0.0..=100.0).contains(&lag),
        "sweep lag out of range: {lag}"
    );
    assert!(gauge("stream/chunk_backlog") >= 0.0);

    let summary = engine.finish().expect("finish succeeds");
    assert_eq!(summary.sessions, 500);
    assert_eq!(
        gauge("stream/ttl_map_occupancy"),
        0.0,
        "finish drains the TTL map"
    );
}
