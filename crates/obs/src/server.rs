//! Std-only live telemetry endpoint.
//!
//! [`serve`] binds a `TcpListener` and answers three routes from a
//! background thread, so a long `repro` / `genlog` run can be observed
//! while it executes:
//!
//! - `GET /metrics` — the metrics registry in Prometheus text
//!   exposition format (counters, gauges, histograms with cumulative
//!   buckets);
//! - `GET /healthz` — `200 ok` liveness probe; `GET /healthz?deep=1`
//!   returns the run's [`crate::slo`] deep-health rollup as JSON instead
//!   (`503` when any subsystem is critical, so a probe can alert on
//!   status code alone);
//! - `GET /report` — the current [`crate::RunReport`] as JSON, collected at
//!   request time;
//! - `GET /events?since=SEQ` — the run's drift events
//!   ([`crate::events`]) with sequence numbers above `SEQ` (default 0:
//!   the whole ring), as a JSON array. Pollers pass the highest `seq`
//!   they have seen as the next cursor;
//! - `GET /profile` — the run's flight-recorder ([`crate::profile`])
//!   snapshot (per-stage latency histograms + slowest-record
//!   exemplars) as JSON, an empty disabled one when the run is not
//!   profiled; `GET /profile?format=folded` returns the
//!   collapsed-stack rendering flamegraph tooling consumes directly;
//! - `GET /diagnostics` — the run's current estimator-confidence block
//!   ([`crate::diagnostics::DiagnosticsReport`]) as JSON: per-window
//!   CIs, Hill-plateau evidence, and agreement verdicts;
//! - `GET /timeseries?metric=NAME&since=TICK&step=MS` — a range query
//!   against the run's telemetry history ([`crate::tsdb`], when
//!   `--telemetry-history` asked for it): points after the `since`
//!   cursor, from the dense tier (`step` ≤ the sampling interval) or
//!   the downsampled coarse tier (larger `step`, min/max per bucket).
//!   Without `metric=` it lists the stored series and the store's
//!   memory accounting.
//!
//! The run-scoped answers come from the [`Telemetry`] handle the server
//! is started with.
//!
//! The server is deliberately minimal: one handler thread, one request
//! per connection (`Connection: close`), no TLS, no keep-alive — it
//! exists to be scraped by `curl` or a Prometheus agent on localhost,
//! not to face the internet. Every response (including errors) carries
//! a correct `Content-Length`; non-GET methods get a proper `405` with
//! an `Allow: GET` header rather than a dropped connection.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use serde::Value;

use crate::events;
use crate::http::{self, HttpError, HttpLimits};
use crate::metrics::{self, MetricsSnapshot};
use crate::telemetry::Telemetry;
use crate::tsdb::Tsdb;

/// Identity baked into `/report` responses (the report itself is
/// re-collected from the live span arena and metrics registry on every
/// request).
#[derive(Debug, Clone)]
pub struct ReportContext {
    /// Producing tool, e.g. `"repro"`.
    pub tool: String,
    /// RNG seed of the run, when one applies.
    pub seed: Option<u64>,
    /// Tool-specific configuration.
    pub config: Value,
    /// Command-line arguments after the program name.
    pub args: Vec<String>,
}

impl Default for ReportContext {
    fn default() -> Self {
        ReportContext {
            tool: "unknown".to_string(),
            seed: None,
            config: Value::Null,
            args: Vec::new(),
        }
    }
}

/// Handle to a running telemetry server.
///
/// Dropping the handle does **not** stop the server (binaries hold it
/// until process exit); call [`TelemetryServer::shutdown`] for an
/// orderly stop (used by tests).
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// The actually bound address — resolves port 0 requests
    /// (`127.0.0.1:0`) to the ephemeral port the OS picked.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the handler thread and release the listener.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Start the telemetry server for the run `telemetry` observes on `addr`
/// (e.g. `"127.0.0.1:9184"`; use port `0` for an ephemeral port, then
/// read it back via [`TelemetryServer::local_addr`]). `limits` bounds
/// each connection's timeouts and request size: the default 2 s limits
/// are right for production scraping, tests use short timeouts.
///
/// # Errors
///
/// Propagates bind failures (port in use, bad address).
pub fn serve(
    addr: &str,
    ctx: ReportContext,
    telemetry: Telemetry,
    limits: HttpLimits,
) -> io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("webpuzzle-telemetry".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = conn {
                    let _ = handle_connection(&mut stream, &ctx, &telemetry, &limits);
                }
            }
        })?;
    Ok(TelemetryServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

fn handle_connection(
    stream: &mut TcpStream,
    ctx: &ReportContext,
    telemetry: &Telemetry,
    limits: &HttpLimits,
) -> io::Result<()> {
    http::apply_timeouts(stream, limits)?;
    let req = match http::read_request(stream, limits) {
        Ok(req) => req,
        Err(HttpError::HeadTooLarge { .. }) => {
            return http::reject(
                stream,
                "431 Request Header Fields Too Large",
                b"request head too large\n",
            );
        }
        Err(HttpError::BodyTooLarge { .. }) => {
            return http::reject(stream, "413 Content Too Large", b"request body too large\n");
        }
        Err(HttpError::Malformed(_)) => {
            return http::reject(stream, "400 Bad Request", b"malformed request\n");
        }
        // Half-open, stalled, or already-closed peers get nothing: the
        // read timeout has bounded what they can cost us.
        Err(HttpError::Closed) | Err(HttpError::Io(_)) => return Ok(()),
    };
    let (method, path, query) = (req.method.as_str(), req.path.as_str(), req.query.as_str());

    // HEAD gets GET's headers (Content-Length included) with no body,
    // per RFC 9110; anything else is a 405 that names the allowed
    // method instead of silently dropping the connection.
    if method != "GET" && method != "HEAD" {
        return http::write_response(
            stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            &[("Allow", "GET, HEAD")],
            b"method not allowed\n",
            true,
        );
    }

    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(&metrics::snapshot()),
        ),
        "/healthz" => {
            if matches!(req.query_param("deep"), Some("1") | Some("true")) {
                let health = telemetry.deep_health();
                let status = if health.status == "critical" {
                    "503 Service Unavailable"
                } else {
                    "200 OK"
                };
                (
                    status,
                    "application/json; charset=utf-8",
                    serde_json::to_string_pretty(&health).unwrap_or_else(|_| "{}".to_string())
                        + "\n",
                )
            } else {
                ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string())
            }
        }
        "/timeseries" => telemetry
            .history(|store| timeseries_response(&req, store))
            .unwrap_or_else(|| {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "telemetry history not enabled (run with --telemetry-history)\n".to_string(),
                )
            }),
        "/report" => {
            let report =
                telemetry.run_report(&ctx.tool, ctx.seed, ctx.config.clone(), ctx.args.clone());
            (
                "200 OK",
                "application/json; charset=utf-8",
                report.to_json_pretty() + "\n",
            )
        }
        "/profile" => {
            let report = telemetry.profile_report();
            if query.split('&').any(|kv| kv == "format=folded") {
                ("200 OK", "text/plain; charset=utf-8", report.folded())
            } else {
                (
                    "200 OK",
                    "application/json; charset=utf-8",
                    serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string())
                        + "\n",
                )
            }
        }
        "/events" => {
            let since = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("since="))
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            let batch = telemetry.events().since(since);
            (
                "200 OK",
                "application/json; charset=utf-8",
                serde_json::to_string_pretty(&batch).unwrap_or_else(|_| "[]".to_string()) + "\n",
            )
        }
        "/diagnostics" => {
            // Serve an explicit empty (disabled) block rather than a
            // 404 when no producer has published yet, so pollers can
            // rely on the schema being present.
            let report = telemetry
                .diagnostics()
                .unwrap_or_else(|| crate::diagnostics::DiagnosticsReport::empty(false, 0.95));
            (
                "200 OK",
                "application/json; charset=utf-8",
                serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string()) + "\n",
            )
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found: try /metrics, /healthz, /report, /events, /diagnostics, /timeseries, or /profile\n"
                .to_string(),
        ),
    };
    // Content-Length counts body *bytes* (the body is ASCII-safe JSON /
    // text, but len() on the String is the byte length either way).
    http::write_response(
        stream,
        status,
        content_type,
        &[],
        body.as_bytes(),
        method == "GET",
    )
}

/// Answer a `/timeseries` request against the run's history store.
fn timeseries_response(req: &http::Request, store: &Tsdb) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json; charset=utf-8";
    const TEXT: &str = "text/plain; charset=utf-8";
    let Some(metric) = req.query_param("metric") else {
        // Discovery: the stored series plus the store's accounting.
        use serde::Serialize;
        let listing = Value::Object(vec![
            ("series".to_string(), store.series_names().to_value()),
            ("stats".to_string(), store.stats().to_value()),
        ]);
        return (
            "200 OK",
            JSON,
            serde_json::to_string_pretty(&listing).unwrap_or_else(|_| "{}".to_string()) + "\n",
        );
    };
    let since = req
        .query_param("since")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    let step_ms = req
        .query_param("step")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    match store.query(metric, since, step_ms) {
        Some(range) => (
            "200 OK",
            JSON,
            serde_json::to_string_pretty(&range).unwrap_or_else(|_| "{}".to_string()) + "\n",
        ),
        None => (
            "404 Not Found",
            TEXT,
            format!("no series named {metric:?} in the history store\n"),
        ),
    }
}

/// Prometheus metric name: `webpuzzle_` prefix, every character outside
/// `[a-zA-Z0-9_]` mapped to `_` (our registry names use `/` separators).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("webpuzzle_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Escape free text for a `# HELP` line: the exposition format allows
/// any UTF-8 there but `\` and newlines must be escaped or a hostile
/// registry name (e.g. a source name fed into a metric path) could
/// inject arbitrary exposition lines. Other control characters are
/// mapped to spaces — HELP is documentation, not data.
fn prom_help_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Escape a label value per the exposition format: `\`, `"`, and
/// newline are the three characters with escape sequences; other
/// control characters are mapped to spaces so a hostile value cannot
/// corrupt the scrape even for clients with lax parsers.
fn prom_label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus float formatting: `f64::to_string` except for the
/// non-finite spellings the exposition format requires.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render a metrics snapshot in Prometheus text exposition format.
///
/// Histograms are exported with *cumulative* bucket counts and an
/// explicit `le="+Inf"` bucket, as the format requires; our log-2 bucket
/// upper bounds are exclusive while `le` is inclusive, a half-open
/// discrepancy of at most one integer value that the HELP line records.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    // The `events/total/<severity>` counters are one logical family:
    // export them under a single metric name with a `severity` label
    // instead of three mangled names.
    let family: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter_map(|(name, value)| {
            name.strip_prefix(events::EVENTS_TOTAL_PREFIX)
                .map(|sev| (sev, *value))
        })
        .collect();
    if !family.is_empty() {
        out.push_str("# HELP webpuzzle_events_total Drift events published, by severity\n");
        out.push_str("# TYPE webpuzzle_events_total counter\n");
        for (sev, value) in &family {
            out.push_str(&format!(
                "webpuzzle_events_total{{severity=\"{}\"}} {value}\n",
                prom_label_escape(sev)
            ));
        }
    }
    // Same treatment for the `weblog/malformed_lines/<kind>` counters:
    // one family with a `kind` label.
    let malformed: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter_map(|(name, value)| {
            name.strip_prefix(metrics::MALFORMED_LINES_PREFIX)
                .map(|kind| (kind, *value))
        })
        .collect();
    if !malformed.is_empty() {
        out.push_str(
            "# HELP webpuzzle_malformed_lines_total Malformed log lines skipped, by cause\n",
        );
        out.push_str("# TYPE webpuzzle_malformed_lines_total counter\n");
        for (kind, value) in &malformed {
            out.push_str(&format!(
                "webpuzzle_malformed_lines_total{{kind=\"{}\"}} {value}\n",
                prom_label_escape(kind)
            ));
        }
    }
    for (name, value) in &snap.counters {
        if name.starts_with(events::EVENTS_TOTAL_PREFIX)
            || name.starts_with(metrics::MALFORMED_LINES_PREFIX)
        {
            continue;
        }
        let prom = prom_name(name) + "_total";
        out.push_str(&format!(
            "# HELP {prom} Counter {}\n",
            prom_help_escape(name)
        ));
        out.push_str(&format!("# TYPE {prom} counter\n"));
        out.push_str(&format!("{prom} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        let prom = prom_name(name);
        out.push_str(&format!("# HELP {prom} Gauge {}\n", prom_help_escape(name)));
        out.push_str(&format!("# TYPE {prom} gauge\n"));
        out.push_str(&format!("{prom} {}\n", prom_f64(*value)));
    }
    for h in &snap.histograms {
        let prom = prom_name(&h.name);
        out.push_str(&format!(
            "# HELP {prom} Histogram {} (log-2 buckets, upper bounds exclusive)\n",
            prom_help_escape(&h.name)
        ));
        out.push_str(&format!("# TYPE {prom} histogram\n"));
        let mut cumulative = 0u64;
        for b in &h.buckets {
            cumulative += b.count;
            out.push_str(&format!(
                "{prom}_bucket{{le=\"{}\"}} {cumulative}\n",
                b.upper
            ));
        }
        out.push_str(&format!("{prom}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{prom}_sum {}\n", h.sum));
        out.push_str(&format!("{prom}_count {}\n", h.count));
        // Tail quantile as a sibling gauge: the histogram type has no
        // place for precomputed quantiles, and scrape-side quantile
        // reconstruction from log-2 buckets is too coarse at p999.
        if let Some(p999) = h.p999 {
            out.push_str(&format!(
                "# HELP {prom}_p999 Interpolated 99.9th percentile of {}\n",
                prom_help_escape(&h.name)
            ));
            out.push_str(&format!("# TYPE {prom}_p999 gauge\n"));
            out.push_str(&format!("{prom}_p999 {}\n", prom_f64(p999)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::report::{BucketReport, HistogramReport};

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(
            prom_name("weblog/records_parsed"),
            "webpuzzle_weblog_records_parsed"
        );
        assert_eq!(
            prom_name("fidelity/h/NASA-Pub2"),
            "webpuzzle_fidelity_h_NASA_Pub2"
        );
    }

    #[test]
    fn prom_floats_spell_non_finite_values() {
        assert_eq!(prom_f64(1.5), "1.5");
        assert_eq!(prom_f64(f64::NAN), "NaN");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn events_total_renders_as_one_labeled_family() {
        let snap = MetricsSnapshot {
            counters: vec![
                ("events/total/critical".to_string(), 1),
                ("events/total/warn".to_string(), 4),
                ("other/counter".to_string(), 2),
            ],
            gauges: vec![],
            histograms: vec![],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE webpuzzle_events_total counter"));
        assert!(text.contains("webpuzzle_events_total{severity=\"warn\"} 4"));
        assert!(text.contains("webpuzzle_events_total{severity=\"critical\"} 1"));
        // No mangled per-severity metric names leak out.
        assert!(!text.contains("webpuzzle_events_total_warn"));
        assert!(text.contains("webpuzzle_other_counter_total 2"));
        // TYPE appears exactly once for the family.
        assert_eq!(text.matches("TYPE webpuzzle_events_total ").count(), 1);
    }

    #[test]
    fn malformed_lines_render_as_one_labeled_family() {
        let snap = MetricsSnapshot {
            counters: vec![
                ("weblog/malformed_lines/bad_timestamp".to_string(), 3),
                ("weblog/malformed_lines/truncated".to_string(), 9),
                ("weblog/malformed_lines_skipped".to_string(), 12),
            ],
            gauges: vec![],
            histograms: vec![],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE webpuzzle_malformed_lines_total counter"));
        assert!(text.contains("webpuzzle_malformed_lines_total{kind=\"bad_timestamp\"} 3"));
        assert!(text.contains("webpuzzle_malformed_lines_total{kind=\"truncated\"} 9"));
        // No mangled per-kind metric names leak out.
        assert!(!text.contains("webpuzzle_weblog_malformed_lines_bad_timestamp"));
        // The pre-existing unlabeled total keeps its own name (it is not
        // under the per-kind prefix).
        assert!(text.contains("webpuzzle_weblog_malformed_lines_skipped_total 12"));
        assert_eq!(
            text.matches("TYPE webpuzzle_malformed_lines_total ")
                .count(),
            1
        );
    }

    /// Check one rendered exposition line against the text-format
    /// grammar: a comment (`# HELP`/`# TYPE` + valid name), or
    /// `name[{labels}] value` where the name matches
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*` and any label block closes its quotes
    /// with the three legal escapes (`\\`, `\"`, `\n`).
    fn line_is_well_formed(line: &str) -> bool {
        fn valid_name(name: &str) -> bool {
            let mut chars = name.chars();
            let Some(first) = chars.next() else {
                return false;
            };
            (first.is_ascii_alphabetic() || first == '_' || first == ':')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            return (keyword == "HELP" || keyword == "TYPE") && valid_name(name);
        }
        let Some(space) = line.rfind(' ') else {
            return false;
        };
        let (series, value) = line.split_at(space);
        if value.trim().is_empty() || value.trim().contains(' ') {
            return false;
        }
        match series.split_once('{') {
            None => valid_name(series),
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return false;
                };
                if !valid_name(name) {
                    return false;
                }
                // Every label value must be a closed quoted string with
                // only legal escapes inside.
                let mut rest = labels;
                while !rest.is_empty() {
                    let Some((label, after_eq)) = rest.split_once("=\"") else {
                        return false;
                    };
                    if !valid_name(label.trim_start_matches(',')) {
                        return false;
                    }
                    let mut closed = None;
                    let mut chars = after_eq.char_indices();
                    while let Some((i, c)) = chars.next() {
                        match c {
                            '\\' => match chars.next() {
                                Some((_, '\\')) | Some((_, '"')) | Some((_, 'n')) => {}
                                _ => return false,
                            },
                            '"' => {
                                closed = Some(i);
                                break;
                            }
                            _ => {}
                        }
                    }
                    let Some(end) = closed else {
                        return false;
                    };
                    rest = &after_eq[end + 1..];
                }
                true
            }
        }
    }

    /// Fuzz-style: hostile registry names (quotes, newlines,
    /// backslashes, spaces, braces) must never corrupt the scrape. The
    /// name generator is a deterministic LCG over a deliberately nasty
    /// alphabet.
    #[test]
    fn hostile_names_cannot_corrupt_the_exposition() {
        const ALPHABET: &[char] = &[
            'a', 'Z', '9', '_', '/', ' ', '"', '\\', '\n', '{', '}', '=', '#', '\t', 'é', ',',
        ];
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % bound
        };
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        for i in 0..200 {
            let len = 1 + next(12);
            let name: String = (0..len).map(|_| ALPHABET[next(ALPHABET.len())]).collect();
            // Hostile *label values* ride the two labeled families.
            if i % 5 == 0 {
                counters.push((format!("events/total/{name}"), i as u64));
            } else if i % 5 == 1 {
                counters.push((format!("weblog/malformed_lines/{name}"), i as u64));
            } else if i % 2 == 0 {
                counters.push((name, i as u64));
            } else {
                gauges.push((name, i as f64 / 3.0));
            }
        }
        let snap = MetricsSnapshot {
            counters,
            gauges,
            histograms: vec![HistogramReport {
                name: "evil\nname with \"quotes\" and \\slashes".to_string(),
                count: 1,
                sum: 2,
                max: Some(2),
                p50: Some(2.0),
                p95: Some(2.0),
                p99: Some(2.0),
                p999: Some(2.0),
                buckets: vec![BucketReport { upper: 2, count: 1 }],
            }],
        };
        let text = prometheus_text(&snap);
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            assert!(
                line_is_well_formed(line),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn help_and_label_escapes() {
        assert_eq!(prom_help_escape("a\\b\nc\td"), "a\\\\b\\nc d");
        assert_eq!(prom_label_escape("say \"hi\"\\\n"), "say \\\"hi\\\"\\\\\\n");
    }

    #[test]
    fn histogram_buckets_render_cumulatively() {
        let snap = MetricsSnapshot {
            counters: vec![("unit/c".to_string(), 7)],
            gauges: vec![("unit/g".to_string(), 0.5)],
            histograms: vec![HistogramReport {
                name: "unit/h".to_string(),
                count: 5,
                sum: 8,
                max: Some(3),
                p50: Some(2.0),
                p95: Some(3.5),
                p99: Some(3.9),
                p999: Some(3.99),
                // Two zeros, then three values in [2, 4).
                buckets: vec![
                    BucketReport { upper: 1, count: 2 },
                    BucketReport { upper: 4, count: 3 },
                ],
            }],
        };
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE webpuzzle_unit_c_total counter"));
        assert!(text.contains("webpuzzle_unit_c_total 7"));
        assert!(text.contains("# TYPE webpuzzle_unit_g gauge"));
        assert!(text.contains("webpuzzle_unit_h_bucket{le=\"1\"} 2"));
        assert!(text.contains("webpuzzle_unit_h_bucket{le=\"4\"} 5"));
        assert!(text.contains("webpuzzle_unit_h_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("webpuzzle_unit_h_sum 8"));
        assert!(text.contains("webpuzzle_unit_h_count 5"));
        assert!(text.contains("# TYPE webpuzzle_unit_h_p999 gauge"));
        assert!(text.contains("webpuzzle_unit_h_p999 3.99"));
    }
}
