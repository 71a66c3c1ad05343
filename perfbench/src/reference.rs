//! Output checks. Every streaming summary is compared with a batch
//! reference built from the same generated records, exactly as
//! `stream-analyze --verify-batch` does (DESIGN.md §9): the CLF text is
//! parsed back by the batch parser and sessionized in one piece; counts
//! must match exactly, estimators within the tolerance bands.

use webpuzzle_core::{poisson_arrival_test, PoissonVerdict, TieSpreading};
use webpuzzle_heavytail::hill_plot;
use webpuzzle_lrd::variance_time;
use webpuzzle_stream::{StreamConfig, StreamSummary, WindowConfig, WindowReport};
use webpuzzle_timeseries::CountSeries;
use webpuzzle_weblog::clf::parse_log;
use webpuzzle_weblog::{sessionize, LogRecord, Session};

use crate::fixture::BASE_EPOCH;

/// DESIGN.md §9 band on Hill tail indices.
const HILL_TOLERANCE: f64 = 0.15;
/// DESIGN.md §9 band on per-window variance-time H (round-off only).
const H_TOLERANCE: f64 = 1e-9;
/// DESIGN.md §9 relative band on Welford vs two-pass means.
const MOMENT_RTOL: f64 = 1e-6;

/// Verdicts of a run's output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks that held.
    pub passed: u64,
    /// One line per check that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes it when it fails.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    /// True when every check held.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The batch pipeline's view of a fixture.
pub struct Reference {
    /// Records as the batch parser reads them back from the CLF text.
    pub records: Vec<LogRecord>,
    /// Batch sessions of those records.
    pub sessions: Vec<Session>,
}

fn close_rel(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * a.abs().max(b.abs()).max(1.0)
}

/// Outer-half Hill plot mean: the assessment the streaming top-k
/// estimator computes.
fn batch_hill_mean(values: &[f64], tail_fraction: f64) -> Option<f64> {
    let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    let plot = hill_plot(&positive, tail_fraction).ok()?;
    let k_max = plot.last()?.0;
    let window: Vec<f64> = plot
        .iter()
        .filter(|(k, _)| *k >= k_max / 2)
        .map(|(_, a)| *a)
        .collect();
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

fn verdict(times: &[f64], start: f64, cfg: &WindowConfig, subs: f64) -> PoissonVerdict {
    if times.is_empty() {
        return PoissonVerdict::NotApplicable;
    }
    let subintervals = ((cfg.window_len / subs).round() as usize).max(2);
    poisson_arrival_test(
        times,
        start,
        cfg.window_len,
        subintervals,
        TieSpreading::Uniform,
        cfg.min_poisson_arrivals,
        cfg.seed,
    )
    .ok()
    .flatten()
    .map_or(PoissonVerdict::NotApplicable, |o| o.verdict())
}

/// The arrivals of `sorted` inside window `report`.
pub fn window_slice(sorted: &[f64], start: f64, len: f64) -> &[f64] {
    let lo = sorted.partition_point(|&t| t < start);
    let hi = sorted.partition_point(|&t| t < start + len);
    &sorted[lo..hi]
}

fn check_windows(
    label: &str,
    sorted: &[f64],
    reports: &[WindowReport],
    cfg: &WindowConfig,
    checks: &mut Checks,
) {
    for report in reports {
        let w = report.index;
        let in_window = window_slice(sorted, report.start, cfg.window_len);
        checks.expect(in_window.len() as u64 == report.events, || {
            format!(
                "{label} win{w} events: stream {} batch {}",
                report.events,
                in_window.len()
            )
        });
        let n_bins = (cfg.window_len / cfg.bin_width).ceil().max(1.0) as usize;
        let batch_h =
            CountSeries::from_event_times_in_window(in_window, cfg.bin_width, report.start, n_bins)
                .ok()
                .and_then(|s| variance_time(s.counts()).ok())
                .map(|e| e.h);
        let h_ok = match (report.h_variance_time, batch_h) {
            (Some(s), Some(b)) => (s - b).abs() <= H_TOLERANCE,
            (None, None) => true,
            _ => false,
        };
        checks.expect(h_ok, || {
            format!(
                "{label} win{w} H: stream {:?} batch {batch_h:?}",
                report.h_variance_time
            )
        });
        for (name, subs, got) in [
            ("hourly", 3_600.0, report.poisson_hourly),
            ("10-min", 600.0, report.poisson_ten_min),
        ] {
            let want = verdict(in_window, report.start, cfg, subs);
            checks.expect(got == want, || {
                format!("{label} win{w} poisson {name}: stream {got:?} batch {want:?}")
            });
        }
    }
}

impl Reference {
    /// Parse `text` back through the batch parser and sessionize it.
    pub fn build(text: &str, threshold: f64) -> Self {
        let records = parse_log(text, BASE_EPOCH).expect("generated CLF parses");
        let sessions = sessionize(&records, threshold).expect("batch sessionize");
        Reference { records, sessions }
    }

    /// Request arrival times, in log order (ascending).
    pub fn times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.timestamp).collect()
    }

    /// `(client, timestamp)` per record, in log order.
    pub fn arrivals(&self) -> Vec<(u32, f64)> {
        self.records
            .iter()
            .map(|r| (r.client, r.timestamp))
            .collect()
    }

    /// Compare one streaming summary with the batch pipeline.
    pub fn check(&self, label: &str, s: &StreamSummary, cfg: &StreamConfig, checks: &mut Checks) {
        let n = self.records.len() as u64;
        checks.expect(s.records == n, || {
            format!("{label} records: stream {} batch {n}", s.records)
        });
        let sessions = self.sessions.len() as u64;
        checks.expect(s.sessions == sessions, || {
            format!("{label} sessions: stream {} batch {sessions}", s.sessions)
        });
        let bytes: u64 = self.records.iter().map(|r| r.bytes).sum();
        checks.expect(s.bytes == bytes, || {
            format!("{label} bytes: stream {} batch {bytes}", s.bytes)
        });

        let durations: Vec<f64> = self.sessions.iter().map(|x| x.duration()).collect();
        let requests: Vec<f64> = self
            .sessions
            .iter()
            .map(|x| x.request_count as f64)
            .collect();
        let session_bytes: Vec<f64> = self.sessions.iter().map(|x| x.bytes as f64).collect();
        for (what, stream_mean, values) in [
            ("duration mean", s.session_duration.mean, &durations),
            ("requests mean", s.session_requests.mean, &requests),
            ("bytes/session mean", s.session_bytes.mean, &session_bytes),
        ] {
            let batch_mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            checks.expect(close_rel(stream_mean, batch_mean, MOMENT_RTOL), || {
                format!("{label} {what}: stream {stream_mean} batch {batch_mean}")
            });
        }
        for (what, tail, values) in [
            ("hill α duration", &s.duration_tail, &durations),
            ("hill α requests", &s.requests_tail, &requests),
            ("hill α bytes", &s.bytes_tail, &session_bytes),
        ] {
            let batch = batch_hill_mean(values, cfg.tail_fraction);
            let ok = match (tail.alpha, batch) {
                (Some(a), Some(b)) => a.is_finite() && (a - b).abs() <= HILL_TOLERANCE,
                (None, None) => true,
                _ => false,
            };
            checks.expect(ok, || {
                format!("{label} {what}: stream {:?} batch {batch:?}", tail.alpha)
            });
        }

        let times = self.times();
        let mut starts: Vec<f64> = self.sessions.iter().map(|x| x.start).collect();
        starts.sort_by(f64::total_cmp);
        let req = &cfg.request_window;
        let expected_windows = (times.last().copied().unwrap_or(0.0) / req.window_len) as usize;
        checks.expect(s.request_windows.len() >= expected_windows, || {
            format!(
                "{label} request windows: {} closed, at least {expected_windows} expected",
                s.request_windows.len()
            )
        });
        check_windows(
            &format!("{label} req"),
            &times,
            &s.request_windows,
            req,
            checks,
        );
        check_windows(
            &format!("{label} sess"),
            &starts,
            &s.session_windows,
            &cfg.session_window,
            checks,
        );
    }
}

/// Counts two summaries of the same fixture must share exactly (DESIGN.md
/// §14: wire and file drains of one log agree on every count; only float
/// accumulation order may differ when timestamps tie across sources).
pub fn check_same_counts(label: &str, a: &StreamSummary, b: &StreamSummary, checks: &mut Checks) {
    for (what, x, y) in [
        ("records", a.records, b.records),
        ("sessions", a.sessions, b.sessions),
        ("bytes", a.bytes, b.bytes),
        (
            "request windows",
            a.request_windows.len() as u64,
            b.request_windows.len() as u64,
        ),
        (
            "session windows",
            a.session_windows.len() as u64,
            b.session_windows.len() as u64,
        ),
    ] {
        checks.expect(x == y, || format!("{label} {what}: {x} vs {y}"));
    }
    for (which, wa, wb) in [
        ("req", &a.request_windows, &b.request_windows),
        ("sess", &a.session_windows, &b.session_windows),
    ] {
        for (x, y) in wa.iter().zip(wb.iter()) {
            checks.expect(x.events == y.events, || {
                format!(
                    "{label} {which} win{} events: {} vs {}",
                    x.index, x.events, y.events
                )
            });
        }
    }
}
