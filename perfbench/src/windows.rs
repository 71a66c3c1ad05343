//! Window-boundary attribution.
//!
//! The streaming engine analyses each completed window (variance-time
//! on both count rings plus the Poisson battery) inside the push whose
//! timestamp first crosses the boundary: windows cover
//! `[i·len, (i+1)·len)` from `t = 0`, and an arrival at `t` closes every
//! window it has moved past — the very first arrival included, so a
//! log starting late closes the empty windows before it. Session
//! windows close the same way, but only on pushes that start a session
//! (a client's first request, or one at least the session threshold
//! after its previous request).

use std::collections::HashMap;

/// Windows closed by an arrival at `t` after one at `prev` (`None` for
/// the first arrival of the stream).
pub fn windows_closed(prev: Option<f64>, t: f64, window_len: f64) -> u64 {
    let idx = |x: f64| (x / window_len).floor().max(0.0) as u64;
    match prev {
        None => idx(t),
        Some(p) => idx(t).saturating_sub(idx(p)),
    }
}

/// For each record `(client, timestamp)` of a time-ordered log, whether
/// it starts a session under `threshold` seconds of inactivity.
pub fn session_starts(records: &[(u32, f64)], threshold: f64) -> Vec<bool> {
    let mut last: HashMap<u32, f64> = HashMap::new();
    records
        .iter()
        .map(|&(client, t)| match last.insert(client, t) {
            None => true,
            Some(prev) => t - prev >= threshold,
        })
        .collect()
}

/// Mark the pushes of a time-ordered log that close at least one
/// request window or one session window.
pub fn closing_pushes(records: &[(u32, f64)], window_len: f64, threshold: f64) -> Vec<bool> {
    let starts = session_starts(records, threshold);
    let mut prev_request: Option<f64> = None;
    let mut prev_session: Option<f64> = None;
    records
        .iter()
        .zip(starts)
        .map(|(&(_, t), starts_session)| {
            let mut closes = windows_closed(prev_request, t, window_len) > 0;
            prev_request = Some(t);
            if starts_session {
                closes |= windows_closed(prev_session, t, window_len) > 0;
                prev_session = Some(t);
            }
            closes
        })
        .collect()
}

/// Indices of the pushes that close at least one request window — the
/// "result" records whose latency is the window-result latency.
pub fn request_closers(times: &[f64], window_len: f64) -> Vec<usize> {
    let mut prev = None;
    let mut out = Vec::new();
    for (i, &t) in times.iter().enumerate() {
        if windows_closed(prev, t, window_len) > 0 {
            out.push(i);
        }
        prev = Some(t);
    }
    out
}
