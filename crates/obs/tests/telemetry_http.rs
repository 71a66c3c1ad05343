//! End-to-end test of the telemetry HTTP endpoint: start `obs::serve`
//! on an ephemeral port, scrape it with a raw `TcpStream` (no HTTP
//! client in the tree), and validate the Prometheus exposition rules a
//! real scraper depends on.
//!
//! Metrics are process-global; this file is its own test binary (own
//! process), and the tests here share one `#[test]` so the snapshot the
//! server renders is exactly what the test recorded.

use std::io::{Read, Write};
use std::net::TcpStream;

use webpuzzle_obs as obs;

/// Issue one `GET path` against the server and return (status line, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw.lines().next().unwrap_or_default().to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn serve_scrape_and_shutdown() {
    obs::reset();
    obs::metrics::counter("scrape/events").add(7);
    obs::metrics::sharded_counter("scrape/hot_loop").add(1000);
    obs::metrics::gauge("scrape/h_estimate").set(0.83);
    let hist = obs::metrics::histogram("scrape/latency");
    for v in [1u64, 3, 9, 100, 5000] {
        hist.record(v);
    }

    // The run's history store, sampled by hand below (no sampler thread).
    let telemetry = obs::Telemetry::new(obs::TelemetryConfig {
        history: Some(obs::tsdb::TsdbConfig {
            interval: std::time::Duration::from_millis(50),
            ..obs::tsdb::TsdbConfig::default()
        }),
        ..obs::TelemetryConfig::default()
    });
    let server = obs::serve(
        "127.0.0.1:0",
        obs::ReportContext::default(),
        telemetry.clone(),
        obs::http::HttpLimits::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    // /healthz is a plain liveness probe.
    let (status, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "healthz status: {status}");
    assert_eq!(body, "ok\n");

    // /metrics follows the Prometheus text exposition rules.
    let (status, text) = get(addr, "/metrics");
    assert!(status.contains("200"), "metrics status: {status}");
    assert!(text.contains("# HELP webpuzzle_scrape_events_total"));
    assert!(text.contains("# TYPE webpuzzle_scrape_events_total counter"));
    assert!(text.contains("webpuzzle_scrape_events_total 7"));
    // Sharded counters export as one summed series.
    assert!(text.contains("webpuzzle_scrape_hot_loop_total 1000"));
    assert!(text.contains("webpuzzle_scrape_h_estimate 0.83"));

    // Every series has HELP and TYPE lines preceding its samples.
    for family in ["webpuzzle_scrape_events_total", "webpuzzle_scrape_latency"] {
        let help = text
            .lines()
            .position(|l| l.starts_with(&format!("# HELP {family}")))
            .unwrap_or_else(|| panic!("missing HELP for {family}"));
        let ty = text
            .lines()
            .position(|l| l.starts_with(&format!("# TYPE {family}")))
            .unwrap_or_else(|| panic!("missing TYPE for {family}"));
        let first_sample = text
            .lines()
            .position(|l| l.starts_with(family) && !l.starts_with('#'))
            .unwrap_or_else(|| panic!("missing samples for {family}"));
        assert!(help < ty && ty < first_sample, "{family} ordering");
    }

    // Histogram buckets must be cumulative (monotone non-decreasing in
    // `le` order) and end with le="+Inf" equal to _count.
    let bucket_counts: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with("webpuzzle_scrape_latency_bucket"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().expect("bucket count"))
        .collect();
    assert!(bucket_counts.len() >= 2, "expected several buckets: {text}");
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "buckets not cumulative: {bucket_counts:?}"
    );
    let inf_line = text
        .lines()
        .find(|l| l.contains("le=\"+Inf\""))
        .expect("+Inf bucket");
    assert!(
        inf_line.ends_with(" 5"),
        "+Inf bucket should be total count: {inf_line}"
    );
    assert!(text.contains("webpuzzle_scrape_latency_count 5"));

    // Unknown paths 404; non-GET methods 405.
    let (status, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");

    // /events serves the drift-event ring as a JSON array with a
    // `?since=` cursor for incremental polling.
    let seq = obs::events::publish(obs::events::Event::new(
        obs::events::Severity::Warn,
        "cusum",
        "stream/arrival_rate",
        3,
        1_000_000.0,
        1.0,
        2.5,
        6.1,
        5.0,
        "rate step".to_string(),
    ));
    let (status, body) = get(addr, "/events");
    assert!(status.contains("200"), "events status: {status}");
    let all: Vec<obs::events::Event> = serde_json::from_str(&body).expect("events parse");
    assert!(all.iter().any(|e| e.seq == seq && e.detector == "cusum"));
    let (_, body) = get(addr, &format!("/events?since={seq}"));
    let later: Vec<obs::events::Event> = serde_json::from_str(&body).expect("events parse");
    assert!(later.is_empty(), "cursor past newest event: {later:?}");
    // The per-severity counter family is live on /metrics.
    let (_, text) = get(addr, "/metrics");
    assert!(
        text.contains("webpuzzle_events_total{severity=\"warn\"} 1"),
        "missing labeled events_total: {text}"
    );

    // /report returns the current RunReport as JSON and round-trips.
    let (status, body) = get(addr, "/report");
    assert!(status.contains("200"), "{status}");
    let report: obs::RunReport = serde_json::from_str(&body).expect("report parses");
    assert!(report
        .counters
        .iter()
        .any(|c| c.name == "scrape/events" && c.value == 7));

    // /profile serves the flight recorder: JSON snapshot by default,
    // folded flamegraph stacks with ?format=folded.
    obs::profile::enable(4);
    obs::profile::begin_trace(0, 1.5);
    obs::profile::trace_add(obs::profile::Stage::ClfParse, 1_000);
    obs::profile::finish_trace();
    obs::profile::record_stage_ns(obs::profile::Stage::WindowClose, 2_000_000);
    let (status, body) = get(addr, "/profile");
    assert!(status.contains("200"), "profile status: {status}");
    let prof: obs::profile::ProfileReport = serde_json::from_str(&body).expect("profile parses");
    assert_eq!(prof.schema, obs::profile::PROFILE_SCHEMA_VERSION);
    assert!(prof.enabled);
    assert_eq!(prof.sample_every, 4);
    assert_eq!(prof.records_sampled, 1);
    assert_eq!(prof.stage("clf_parse").expect("clf_parse stage").count, 1);
    assert_eq!(prof.exemplars.len(), 1);
    let (status, folded) = get(addr, "/profile?format=folded");
    assert!(status.contains("200"), "folded status: {status}");
    assert!(folded.contains("pipeline;clf_parse 1000"), "{folded}");
    assert!(folded.contains("pipeline;window_close 2000000"), "{folded}");

    // /timeseries answers 503 for a run without a history store.
    let bare = obs::serve(
        "127.0.0.1:0",
        obs::ReportContext::default(),
        obs::Telemetry::default(),
        obs::http::HttpLimits::default(),
    )
    .expect("bind ephemeral port");
    let (status, _) = get(bare.local_addr(), "/timeseries");
    assert!(status.contains("503"), "no history store: {status}");
    bare.shutdown();

    // Take two samples and range-query a counter.
    telemetry.sample();
    obs::metrics::counter("scrape/events").add(3); // 7 -> 10
    telemetry.sample();
    let (status, body) = get(addr, "/timeseries?metric=scrape/events");
    assert!(status.contains("200"), "timeseries status: {status}");
    let range: obs::tsdb::RangeResult = serde_json::from_str(&body).expect("range parses");
    assert_eq!(range.metric, "scrape/events");
    assert_eq!(range.kind, "counter");
    assert_eq!(range.tier, "dense");
    assert!(range.points.len() >= 2, "{range:?}");
    assert_eq!(range.points.last().unwrap().value, 10.0);
    // The `next` cursor polls incrementally: nothing new yet.
    let (_, body) = get(
        addr,
        &format!("/timeseries?metric=scrape/events&since={}", range.next),
    );
    let tail: obs::tsdb::RangeResult = serde_json::from_str(&body).expect("range parses");
    assert!(tail.points.is_empty(), "{tail:?}");
    // Discovery listing names the series.
    let (status, body) = get(addr, "/timeseries");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("scrape/events"), "{body}");
    // Unknown series 404.
    let (status, _) = get(addr, "/timeseries?metric=no/such/series");
    assert!(status.contains("404"), "{status}");

    // /healthz?deep=1 serves the deep-health rollup (healthy here: no
    // SLO engine installed, nothing degraded).
    let (status, body) = get(addr, "/healthz?deep=1");
    assert!(status.contains("200"), "deep healthz: {status}");
    let health: obs::slo::DeepHealth = serde_json::from_str(&body).expect("health parses");
    assert_eq!(health.status, "healthy");
    assert!(!health.slo_installed);
    assert_eq!(health.subsystems.len(), obs::slo::SUBSYSTEMS.len());
    assert!(health.telemetry.is_some(), "store stats present");
    // Plain /healthz stays the cheap liveness probe.
    let (_, body) = get(addr, "/healthz");
    assert_eq!(body, "ok\n");

    // Shutdown joins the listener thread; the port must stop answering.
    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can still accept the connect; a request
            // must at least get no response.
            let mut s = TcpStream::connect(addr).unwrap();
            let _ = write!(
                s,
                "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            );
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap_or(0) == 0
        },
        "server still answering after shutdown"
    );
}
