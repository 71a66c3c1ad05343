//! Property-based equivalence between the one-pass streaming engine and
//! the batch reference pipeline: for any record set, any inactivity
//! threshold, any eviction sweep cadence, and any read chunking, the
//! streaming path must derive exactly the sessions (and parsed records)
//! the batch path derives.

use proptest::prelude::*;
use std::io::BufReader;
use webpuzzle_stream::{ClfSource, Source, StreamSessionizer};
use webpuzzle_weblog::clf::{format_line, parse_log, WVU_BASE_EPOCH};
use webpuzzle_weblog::{sessionize, LogRecord, Method, Session};

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![Just(Method::Get), Just(Method::Post), Just(Method::Head)]
}

/// Records with deliberately small client/time spaces so sessions merge,
/// split, and collide across clients instead of being all-singletons.
fn arb_record() -> impl Strategy<Value = LogRecord> {
    (
        0.0f64..50_000.0,
        0u32..40,
        arb_method(),
        0u32..1_000,
        prop_oneof![Just(200u16), Just(304), Just(404), Just(500)],
        0u64..1_000_000,
    )
        .prop_map(|(t, client, method, resource, status, bytes)| {
            LogRecord::new(t, client, method, resource, status, bytes)
        })
}

fn by_time(records: &mut [LogRecord]) {
    records.sort_by(|a, b| a.timestamp.partial_cmp(&b.timestamp).expect("finite"));
}

/// Canonical order for comparing session sets that were emitted in
/// different (but individually deterministic) orders.
fn canon(mut sessions: Vec<Session>) -> Vec<Session> {
    sessions.sort_by(|a, b| {
        (a.start, a.client)
            .partial_cmp(&(b.start, b.client))
            .expect("finite starts")
    });
    sessions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tentpole equivalence: streaming sessionization over the
    /// time-ordered stream equals batch `sessionize` over an arbitrary
    /// ordering of the same records, for any threshold and any eviction
    /// sweep cadence (the TTL sweep is a latency knob, never a
    /// correctness knob).
    #[test]
    fn streaming_sessionization_equals_batch(
        records in prop::collection::vec(arb_record(), 1..400),
        threshold in 1.0f64..10_000.0,
        sweep_interval in 1.0f64..5_000.0,
    ) {
        // Batch gets the raw (arbitrary) ordering — it sorts internally.
        let batch = canon(sessionize(&records, threshold).expect("batch runs"));

        let mut sorted = records.clone();
        by_time(&mut sorted);
        let mut sessionizer = StreamSessionizer::new(threshold)
            .expect("valid threshold")
            .with_sweep_interval(sweep_interval);
        let mut streamed = Vec::new();
        for record in &sorted {
            sessionizer.push(record, &mut streamed).expect("sorted stream");
        }
        sessionizer.finish(&mut streamed);

        prop_assert_eq!(canon(streamed), batch);
    }

    /// Reading CLF through arbitrarily small IO chunks changes nothing:
    /// the chunked source parses exactly what the whole-file batch
    /// parser parses.
    #[test]
    fn chunked_reads_parse_identically(
        records in prop::collection::vec(arb_record(), 1..150),
        capacity in 1usize..64,
    ) {
        let mut sorted = records.clone();
        by_time(&mut sorted);
        let text: String = sorted
            .iter()
            .map(|r| format_line(r, WVU_BASE_EPOCH) + "\n")
            .collect();

        let batch = parse_log(&text, WVU_BASE_EPOCH).expect("own output parses");
        let mut source = ClfSource::new(
            BufReader::with_capacity(capacity, text.as_bytes()),
            WVU_BASE_EPOCH,
        );
        let mut streamed = Vec::new();
        while let Some(item) = source.next_item() {
            streamed.push(item.expect("well-formed line"));
        }
        prop_assert_eq!(streamed, batch);
    }

    /// End-to-end: CLF text → chunked reader → streaming sessionizer
    /// equals CLF text → batch parse → batch sessionize. (Timestamps go
    /// through the whole-second CLF round trip on both sides.)
    #[test]
    fn chunked_end_to_end_equals_batch(
        records in prop::collection::vec(arb_record(), 1..150),
        capacity in 1usize..48,
        threshold in 1.0f64..5_000.0,
    ) {
        let mut sorted = records.clone();
        by_time(&mut sorted);
        let text: String = sorted
            .iter()
            .map(|r| format_line(r, WVU_BASE_EPOCH) + "\n")
            .collect();

        let parsed = parse_log(&text, WVU_BASE_EPOCH).expect("parses");
        let batch = canon(sessionize(&parsed, threshold).expect("batch runs"));

        let mut source = ClfSource::new(
            BufReader::with_capacity(capacity, text.as_bytes()),
            WVU_BASE_EPOCH,
        );
        let mut sessionizer = StreamSessionizer::new(threshold).expect("valid");
        let mut streamed = Vec::new();
        while let Some(record) = source.next_item() {
            let record = record.expect("well-formed line");
            sessionizer.push(&record, &mut streamed).expect("sorted stream");
        }
        sessionizer.finish(&mut streamed);
        prop_assert_eq!(canon(streamed), batch);
    }
}
