//! Workload fixtures, generated from the seed in set-up and held in
//! memory: synthetic weeks of records, their CLF text, and the text
//! dealt round-robin over wire connections.

use std::time::Instant;

use webpuzzle_weblog::clf::format_line;
use webpuzzle_weblog::LogRecord;
use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

use crate::affinity::Cpus;

/// 2004-01-12 00:00:00 UTC, the paper's WVU log start (genlog default).
pub const BASE_EPOCH: i64 = 1_073_865_600;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Generate one synthetic week of `profile` at `scale`.
pub fn generate(profile: ServerProfile, scale: f64, seed: u64) -> Vec<LogRecord> {
    WorkloadGenerator::new(profile.with_scale(scale))
        .seed(seed)
        .generate()
        .expect("built-in profiles generate cleanly")
}

/// A generated week rendered as CLF, one line per record.
pub struct LogText {
    /// The CLF text, newline-terminated lines in record order.
    pub text: String,
    /// Byte offset one past the end of each line.
    pub line_ends: Vec<usize>,
}

impl LogText {
    /// Render `records` as CLF.
    pub fn render(records: &[LogRecord]) -> Self {
        let mut text = String::with_capacity(records.len() * 80);
        let mut line_ends = Vec::with_capacity(records.len());
        for r in records {
            text.push_str(&format_line(r, BASE_EPOCH));
            text.push('\n');
            line_ends.push(text.len());
        }
        LogText { text, line_ends }
    }

    /// Line `i` including its newline.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.line_ends[i - 1] };
        &self.text.as_bytes()[start..self.line_ends[i]]
    }

    /// Number of lines.
    pub fn lines(&self) -> usize {
        self.line_ends.len()
    }
}

/// One connection's share of a log dealt round-robin: line `i` of the
/// log goes to connection `i % n`, so every share is itself sorted.
pub struct Share {
    /// The share's bytes.
    pub bytes: Vec<u8>,
    /// Byte offset one past the end of each of the share's lines.
    pub line_ends: Vec<usize>,
}

/// Deal `log` round-robin over `n` connections.
pub fn deal(log: &LogText, n: usize) -> Vec<Share> {
    let mut shares: Vec<Share> = (0..n)
        .map(|_| Share {
            bytes: Vec::with_capacity(log.text.len() / n + 1),
            line_ends: Vec::with_capacity(log.lines() / n + 1),
        })
        .collect();
    for i in 0..log.lines() {
        let share = &mut shares[i % n];
        share.bytes.extend_from_slice(log.line(i));
        share.line_ends.push(share.bytes.len());
    }
    shares
}

/// Run `build` [`SETUP_REPS`] times, each on the next of the process's
/// CPUs (set-up is single-threaded; see `affinity`); return the last
/// fixture and each repetition's wall time in seconds.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let cpus = Cpus::of_process();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for rep in 0..SETUP_REPS {
        cpus.pin(rep);
        // Free the previous repetition first so they do not stack.
        drop(last.take());
        let t0 = Instant::now();
        let fixture = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(fixture);
    }
    cpus.unpin();
    (last.expect("at least one set-up"), times)
}
