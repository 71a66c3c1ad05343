//! Property-based invariants of the log-handling substrate: CLF round
//! trips, sessionization partitioning, and stream merging.

use proptest::prelude::*;
use webpuzzle::weblog::clf::{format_line, parse_line, WVU_BASE_EPOCH};
use webpuzzle::weblog::{merge_sorted, sessionize, LogRecord, Method};

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![Just(Method::Get), Just(Method::Post), Just(Method::Head),]
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        0.0f64..604_800.0,
        any::<u32>(),
        arb_method(),
        0u32..1_000_000,
        prop_oneof![Just(200u16), Just(304), Just(404), Just(500)],
        0u64..10_000_000_000,
    )
        .prop_map(|(t, client, method, resource, status, bytes)| {
            LogRecord::new(t, client, method, resource, status, bytes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn clf_roundtrip_preserves_everything_but_subsecond(rec in arb_record()) {
        let line = format_line(&rec, WVU_BASE_EPOCH);
        let back = parse_line(&line, WVU_BASE_EPOCH).expect("own output parses");
        prop_assert_eq!(back.timestamp, rec.timestamp.floor());
        prop_assert_eq!(back.client, rec.client);
        prop_assert_eq!(back.method, rec.method);
        prop_assert_eq!(back.resource, rec.resource);
        prop_assert_eq!(back.status, rec.status);
        prop_assert_eq!(back.bytes, rec.bytes);
    }

    #[test]
    fn sessionize_partitions_requests(
        recs in prop::collection::vec(arb_record(), 1..300),
        threshold in 1.0f64..10_000.0,
    ) {
        let sessions = sessionize(&recs, threshold).expect("sessionize runs");
        // Every request lands in exactly one session.
        let total: usize = sessions.iter().map(|s| s.request_count).sum();
        prop_assert_eq!(total, recs.len());
        // Bytes are conserved.
        let bytes: u64 = sessions.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(bytes, recs.iter().map(|r| r.bytes).sum::<u64>());
        for s in &sessions {
            prop_assert!(s.end >= s.start);
            prop_assert!(s.request_count >= 1);
            // A session can never outlive its request span by construction:
            // duration <= (count-1) * threshold.
            prop_assert!(
                s.duration() <= (s.request_count.saturating_sub(1)) as f64 * threshold
            );
        }
        // Sessions of the same client are separated by >= threshold.
        let mut by_client: std::collections::HashMap<u32, Vec<_>> =
            std::collections::HashMap::new();
        for s in &sessions {
            by_client.entry(s.client).or_default().push(*s);
        }
        for (_, mut list) in by_client {
            list.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in list.windows(2) {
                prop_assert!(
                    w[1].start - w[0].end >= threshold,
                    "consecutive sessions too close: {} .. {}",
                    w[0].end,
                    w[1].start
                );
            }
        }
    }

    #[test]
    fn smaller_threshold_never_fewer_sessions(
        recs in prop::collection::vec(arb_record(), 1..200),
    ) {
        let coarse = sessionize(&recs, 3_600.0).unwrap().len();
        let fine = sessionize(&recs, 60.0).unwrap().len();
        prop_assert!(fine >= coarse);
    }

    #[test]
    fn merge_preserves_order_and_count(
        mut a in prop::collection::vec(arb_record(), 0..100),
        mut b in prop::collection::vec(arb_record(), 0..100),
    ) {
        a.sort_by(|x, y| x.timestamp.partial_cmp(&y.timestamp).unwrap());
        b.sort_by(|x, y| x.timestamp.partial_cmp(&y.timestamp).unwrap());
        let merged = merge_sorted(&[&a, &b]).expect("sorted inputs merge");
        prop_assert_eq!(merged.len(), a.len() + b.len());
        for w in merged.windows(2) {
            prop_assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}

#[test]
fn sessionize_is_permutation_invariant() {
    // Deterministic spot-check stronger than the proptest: shuffling the
    // input record order must not change the derived sessions.
    let mut recs = Vec::new();
    for i in 0..200u32 {
        recs.push(LogRecord::new(
            (i * 37 % 5000) as f64,
            i % 13,
            Method::Get,
            i,
            200,
            (i as u64 + 1) * 10,
        ));
    }
    let forward = sessionize(&recs, 600.0).unwrap();
    recs.reverse();
    let reversed = sessionize(&recs, 600.0).unwrap();
    assert_eq!(forward, reversed);
}
