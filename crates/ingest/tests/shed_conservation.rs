//! Property test: shed accounting is conservation-exact.
//!
//! Whatever combination of governor pressure, priorities, disorder,
//! duplicates, and early shutdown a run throws at the hub, every record
//! a source pushes must land in exactly one accounting bucket:
//!
//! ```text
//! records_sent == admitted + late + duplicate + stall_late
//!               + pressure_shed + breaker_dropped + shutdown_dropped
//! ```
//!
//! This is the invariant the chaos gate asserts at the binary level;
//! here it is driven with randomized inputs at the API level. Each case
//! gives its hub a run's own governor, so it needs no lock.

use proptest::prelude::*;

use webpuzzle_ingest::{HubConfig, HubStats, IngestHub, Priority};
use webpuzzle_obs::governor::GovernorConfig;
use webpuzzle_obs::{Telemetry, TelemetryConfig};
use webpuzzle_weblog::{LogRecord, Method};

fn rec(t: f64, client: u32) -> LogRecord {
    LogRecord::new(t, client, Method::Get, 0, 200, 0)
}

fn priority_of(code: u8) -> Priority {
    match code % 3 {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// A run's observatory with a 16-session governor budget, its
/// one-stage-per-evaluation machine walked until it settles for the
/// given session load (two rounds reach Red from Green; extra rounds
/// are no-ops).
fn settled(sessions: u64) -> Telemetry {
    let telemetry = Telemetry::new(TelemetryConfig {
        governor: Some(GovernorConfig {
            session_budget: 16,
            ..GovernorConfig::default()
        }),
        ..TelemetryConfig::default()
    });
    let governor = telemetry.governor().expect("a governor");
    governor.set_sessions(sessions);
    governor.evaluate();
    governor.evaluate();
    telemetry
}

fn accounted(stats: &HubStats) -> u64 {
    stats.admitted
        + stats.late_dropped
        + stats.duplicate_dropped
        + stats.stall_late_dropped
        + stats.pressure_shed
        + stats.breaker_dropped
        + stats.shutdown_dropped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // `gov_sessions` sweeps the whole stage machine against a budget of
    // 16: 0..=11 stays Green, 12..=14 is Yellow, 15..=18 is Red (some
    // over budget, so shed fractions saturate). Timestamps collide and
    // run backwards on purpose: with the default zero reorder window
    // that exercises the late and duplicate buckets alongside the
    // pressure sheds.
    #[test]
    fn every_pushed_record_lands_in_exactly_one_bucket(
        prios in prop::collection::vec(0u8..6, 1..4),
        batches in prop::collection::vec(
            (0usize..3, prop::collection::vec(0u32..40, 0..20)),
            1..8,
        ),
        // 0..=18 drives the stage machine; 19 means "no governor".
        gov_sessions in 0u64..20,
        finish_before_last in any::<bool>(),
    ) {
        let telemetry = if gov_sessions < 19 {
            settled(gov_sessions)
        } else {
            Telemetry::default()
        };

        let hub = IngestHub::new(HubConfig {
            expected_sources: Some(prios.len() as u64),
            telemetry,
            ..HubConfig::default()
        });
        let handles: Vec<_> = prios
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                hub.register_source_with(&format!("src{i}"), priority_of(p))
                    .expect("register")
            })
            .collect();

        let mut sent = 0u64;
        let last = batches.len() - 1;
        for (i, (src, stamps)) in batches.iter().enumerate() {
            if finish_before_last && i == last {
                // The analyzer goes away mid-run; the remaining pushes
                // must be counted shutdown-dropped, not lost.
                hub.finish();
            }
            let records: Vec<LogRecord> = stamps
                .iter()
                .map(|&t| rec(t as f64, (src % prios.len()) as u32 + 1))
                .collect();
            sent += records.len() as u64;
            handles[src % prios.len()].push_batch(&records);
        }

        drop(handles);
        while hub.pop_blocking().is_some() {}

        let stats = hub.stats();
        prop_assert_eq!(
            accounted(&stats),
            sent,
            "conservation violated: {:?}",
            stats
        );
    }
}
