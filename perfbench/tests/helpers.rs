//! Tests of the benchmark's own helpers: the fastest-of-passes timing,
//! the percentile and sample-count rule, the open-loop schedule and lateness,
//! window-boundary attribution, `error_rate` accounting, the traced
//! run's self-time accounting, and `BENCHMARK.json` and the README
//! against the metric catalogue.

use std::time::{Duration, Instant};

use perfbench::best::{segments, Fastest};
use perfbench::catalog::{self, END_TO_END, EXTRA_WORKLOADS, PER_LAYER, WORKLOADS};
use perfbench::outcome::{result_line, Metrics, Tally};
use perfbench::quantile::{
    highest_supported, median, quantile_sorted, samples_beyond, supports, Sample,
};
use perfbench::schedule::{dealt, Due, Schedule};
use perfbench::trace::{Accounting, Tracer};
use perfbench::windows::{closing_pushes, request_closers, session_starts, windows_closed};

#[test]
fn fastest_keeps_each_positions_lowest_time_over_passes() {
    let mut f = Fastest::new();
    assert_eq!(f.passes(), 0);
    assert_eq!(f.total(), 0.0);
    f.add(&[3.0, 1.0, 4.0]);
    assert_eq!(f.values(), &[3.0, 1.0, 4.0]);
    // A slow phase over the first two positions, a quiet one over the
    // last: each position keeps its own best.
    f.add(&[5.0, 2.0, 2.5]);
    f.add(&[2.0, 9.0, 3.0]);
    assert_eq!(f.values(), &[2.0, 1.0, 2.5]);
    assert_eq!(f.total(), 5.5);
    assert_eq!(f.passes(), 3);
    // A pass of another length keeps the common prefix only.
    f.add(&[1.0, 1.0]);
    assert_eq!(f.values(), &[1.0, 1.0]);
}

#[test]
fn segments_cut_a_pass_at_its_marks_and_sum_to_its_wall() {
    let s = segments(&[0.5, 1.25, 2.0], 3.0);
    assert_eq!(s, vec![0.5, 0.75, 0.75, 1.0]);
    assert_eq!(s.iter().sum::<f64>(), 3.0);
    assert_eq!(segments(&[], 1.5), vec![1.5], "no mark: one segment");
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
    let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(quantile_sorted(&sorted, 0.0), 10.0);
    assert_eq!(quantile_sorted(&sorted, 1.0), 50.0);
    assert_eq!(quantile_sorted(&sorted, 0.25), 20.0);
    assert!((quantile_sorted(&sorted, 0.9) - 46.0).abs() < 1e-12);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(40, 0.75), 10);
    assert!(supports(40, 0.75));
    assert!(!supports(39, 0.75));
    assert!(supports(10_000, 0.999));
    assert!(!supports(9_999, 0.999));
    assert!(supports(20, 0.5));
    assert!(!supports(19, 0.5));
    // About 42 window results a pass: p75 is the highest supported.
    assert_eq!(highest_supported(42), Some(0.75));
    assert_eq!(highest_supported(1_000), Some(0.99));
    assert_eq!(highest_supported(300_000), Some(0.9999));
    assert_eq!(highest_supported(9), None);
}

#[test]
fn sample_description_names_the_supported_percentile_and_count() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    let s = Sample::new(&values);
    assert_eq!(s.len(), 100);
    let d = s.describe("ms");
    assert!(d.starts_with("p50 50.5000 ms"), "{d}");
    assert!(d.contains("p90 "), "{d}");
    assert!(d.ends_with("(n=100)"), "{d}");
    let tiny = Sample::new(&[1.0, 2.0]).describe("ms");
    assert_eq!(tiny, "p50 1.5000 ms (n=2)");
}

#[test]
fn schedule_releases_records_on_time() {
    let s = Schedule::new(1_000.0);
    assert_eq!(s.due(0), 0.0);
    assert!((s.due(250) - 0.25).abs() < 1e-12);
    assert_eq!(s.due_count(-0.1, 10), 0);
    assert_eq!(s.due_count(0.0, 10), 1);
    assert_eq!(s.due_count(0.000_999, 10), 1);
    assert_eq!(s.due_count(0.001, 10), 2);
    assert_eq!(s.due_count(5.0, 10), 10, "capped at the log length");
    assert!((s.until_due(3, 0.001) - 0.002).abs() < 1e-12);
    assert!(s.until_due(1, 0.5) < 0.0, "overdue");
}

#[test]
fn lateness_and_latency_count_from_the_due_time() {
    let s = Schedule::new(100.0);
    assert_eq!(s.lateness(10, 0.05), 0.0, "early is not late");
    assert!((s.lateness(10, 0.13) - 0.03).abs() < 1e-12);
    // A stall delays every record due behind it, not only the first.
    let stall_end = 0.5;
    let latencies: Vec<f64> = (0..50)
        .map(|k| stall_end - Due::Slot(s).of(k, 0.0))
        .collect();
    assert!((latencies[0] - 0.5).abs() < 1e-12);
    assert!((latencies[49] - 0.01).abs() < 1e-12);
    assert!(latencies.windows(2).all(|w| w[0] > w[1]));
}

#[test]
fn backlogs_and_closed_loops_are_due_at_the_pass_start_or_the_previous_reply() {
    // A backlog: every record is due at once, so latency is the time
    // since the pass started.
    assert_eq!(Due::PassStart.of(0, 0.0), 0.0);
    assert_eq!(Due::PassStart.of(7, 3.5), 0.0);
    // A closed loop: latency is the time since the previous reply.
    assert_eq!(Due::PreviousReply.of(0, 0.0), 0.0);
    assert_eq!(Due::PreviousReply.of(7, 3.5), 3.5);
    let s = Schedule::new(10.0);
    assert!((Due::Slot(s).of(7, 99.0) - 0.7).abs() < 1e-12);
}

#[test]
fn round_robin_dealing_accounts_for_every_record() {
    for conns in 1..=4u64 {
        for records in 0..=20u64 {
            let total: u64 = (0..conns).map(|c| dealt(records, c, conns)).sum();
            assert_eq!(total, records);
            for c in 0..conns {
                let brute = (0..records).filter(|k| k % conns == c).count() as u64;
                assert_eq!(
                    dealt(records, c, conns),
                    brute,
                    "{records} over {conns}, conn {c}"
                );
            }
        }
    }
}

#[test]
fn window_boundaries_close_on_the_crossing_arrival() {
    assert_eq!(windows_closed(None, 5.0, 10.0), 0);
    assert_eq!(
        windows_closed(None, 25.0, 10.0),
        2,
        "a late first arrival closes the empty windows before it"
    );
    assert_eq!(
        windows_closed(Some(9.9), 10.0, 10.0),
        1,
        "boundary belongs to the next window"
    );
    assert_eq!(windows_closed(Some(10.0), 19.9, 10.0), 0);
    assert_eq!(windows_closed(Some(5.0), 35.0, 10.0), 3);
    assert_eq!(
        request_closers(&[1.0, 2.0, 10.0, 11.0, 30.0], 10.0),
        vec![2, 4]
    );
}

#[test]
fn sessions_start_after_the_inactivity_threshold() {
    let records = [(1, 0.0), (2, 5.0), (1, 50.0), (1, 150.0), (2, 104.9)];
    assert_eq!(
        session_starts(&records, 100.0),
        vec![true, true, false, true, false]
    );
    // Exactly the threshold starts a new session (batch `sessionize`).
    assert_eq!(
        session_starts(&[(7, 0.0), (7, 100.0)], 100.0),
        vec![true, true]
    );
}

#[test]
fn session_windows_close_only_on_session_starts() {
    // Window 10 s, threshold 100 s: client 1 keeps one session across
    // the boundary at 10 s, so only its request window closes there;
    // client 2's first request at 12 s closes the session window.
    let records = [(1, 1.0), (1, 11.0), (2, 12.0), (1, 13.0)];
    assert_eq!(
        closing_pushes(&records, 10.0, 100.0),
        vec![false, true, true, false]
    );
}

#[test]
fn accounting_rows_and_remainder_sum_to_the_wall() {
    let acc = Accounting::new(1_000, vec![("a", 300), ("b", 650)]);
    assert_eq!(acc.unattributed_ns, 50);
    assert_eq!(acc.total_ns(), 1_000);
    let over = Accounting::new(100, vec![("a", 80), ("b", 40)]);
    assert_eq!(over.unattributed_ns, -20);
    assert_eq!(over.total_ns(), 100);
    let table = acc.render();
    assert!(table.contains("unattributed"));
    assert!(table.contains("= traced wall"));
}

#[test]
fn tracer_totals_are_exact_while_per_record_spans_are_sampled() {
    let mut tr = Tracer::new(4);
    let t0 = Instant::now();
    tr.open_root("pass", t0);
    for i in 0..10u32 {
        let start = t0 + Duration::from_micros(10 * u64::from(i));
        tr.record("push", start, start + Duration::from_micros(2), true);
    }
    let close = t0 + Duration::from_micros(200);
    tr.record("close", close, close + Duration::from_micros(50), false);
    tr.close_root(t0 + Duration::from_micros(300));

    assert_eq!(tr.total("push").calls, 10);
    assert_eq!(tr.total("push").ns, 20_000);
    assert_eq!(tr.total("close").ns, 50_000);
    assert_eq!(tr.total("missing").calls, 0);
    // Root + calls 1, 5, 9 of "push" + the unsampled "close".
    assert_eq!(tr.spans().len(), 5);
    assert!(tr.spans()[1..].iter().all(|s| s.parent == Some(0)));
    let acc = tr.accounting();
    assert_eq!(acc.wall_ns, 300_000);
    assert_eq!(acc.unattributed_ns, 230_000);
    assert_eq!(acc.total_ns(), 300_000);
    let jsonl = tr.to_jsonl("{\"workload\":\"t\"}");
    assert_eq!(jsonl.lines().count(), 6);
    assert!(jsonl.lines().nth(1).unwrap().contains("\"parent\":null"));
}

#[test]
fn error_rate_counts_what_was_attempted_but_not_analysed() {
    let mut t = Tally::default();
    assert_eq!(t.error_rate(), 0.0, "nothing attempted, nothing failed");
    t.add(1_000, 990);
    t.add(1_000, 1_000);
    assert_eq!(t.failed(), 10);
    assert!((t.error_rate() - 0.005).abs() < 1e-12);
    let dup = Tally {
        attempted: 5,
        analysed: 6,
    };
    assert_eq!(dup.failed(), 0, "a duplicate is not a negative failure");
}

#[test]
fn result_line_carries_every_metric_with_full_precision() {
    let mut m = Metrics::zeroed(&END_TO_END);
    m.set("wall_s", 1.234_567_890_123);
    assert_eq!(m.len(), END_TO_END.len());
    let line = result_line(true, Tally::default(), &m);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}"));
    assert!(line.contains("\"records_per_s\": {\"value\": 0.0, \"unit\": \"1/s\"}"));
    m.set("wall_s", f64::NAN);
    assert_eq!(m.non_finite(), vec!["wall_s"]);
    assert!(result_line(false, Tally::default(), &m).contains("\"value\": null"));
}

#[test]
fn manifest_is_generated_from_the_catalogue() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let manifest = std::fs::read_to_string(format!("{root}/BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        manifest,
        catalog::manifest(),
        "regenerate with `perfbench --manifest`"
    );
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("perfbench/README.md");
    assert!(
        readme.contains(&catalog::markdown()),
        "paste `perfbench --catalog` into perfbench/README.md"
    );
}

#[test]
fn catalogue_names_units_and_bounds_are_well_formed() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .chain(EXTRA_WORKLOADS.iter())
        .map(|(n, _)| *n)
        .collect();
    assert!((2..=8).contains(&WORKLOADS.len()));
    for (name, why) in WORKLOADS.iter().chain(EXTRA_WORKLOADS.iter()) {
        assert!(
            why.len() <= 200 && !why.contains(['"', '\\', '\n']),
            "why of {name}"
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(unit_ok(m.unit), "unit of {}", m.name);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        names.push(m.name);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    assert!(names.iter().all(|n| name_ok(n)));
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "every name is used once");
}
