//! Chunked Common Log Format reading.
//!
//! [`ClfSource`] pulls lines from any [`BufRead`] — a file, stdin, a
//! socket — through a reusable byte buffer, so memory is one line at a
//! time no matter how long the log is. Each line's bytes go straight to
//! [`parse_raw_line`], with no UTF-8 decoding; invalid UTF-8 parses as
//! its `String::from_utf8_lossy` decoding would. Malformed lines either abort
//! (strict mode, mirroring [`webpuzzle_weblog::clf::parse_log`]) or are
//! skipped and counted (lenient mode, mirroring
//! [`webpuzzle_weblog::clf::parse_log_lenient`]).

use crate::checkpoint::SourcePosition;
use crate::pipeline::Source;
use crate::supervisor::RecoverableSource;
use crate::Result;
use std::io::BufRead;
use std::sync::Arc;
use webpuzzle_obs::metrics;
use webpuzzle_obs::profile::{self, Profiler};
use webpuzzle_weblog::clf::{parse_raw_line, MALFORMED_SKIPPED_COUNTER};
use webpuzzle_weblog::{LogRecord, MalformedBreakdown, MalformedKind, WeblogError};

/// Registry counters for the per-cause malformed-line breakdown, in
/// [`MalformedKind::ALL`] order. Named
/// `weblog/malformed_lines/<kind>`, which `/metrics` renders as one
/// labeled Prometheus family `webpuzzle_malformed_lines_total{kind=…}`.
pub(crate) fn malformed_kind_counters() -> [Arc<metrics::Counter>; 4] {
    MalformedKind::ALL.map(|k| {
        metrics::counter(&format!(
            "{}{}",
            metrics::MALFORMED_LINES_PREFIX,
            k.as_str()
        ))
    })
}

/// The counter for one kind, from a [`malformed_kind_counters`] array.
pub(crate) fn kind_counter(
    counters: &[Arc<metrics::Counter>; 4],
    kind: MalformedKind,
) -> &Arc<metrics::Counter> {
    let i = MalformedKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is in ALL");
    &counters[i]
}

/// A pull-based CLF record source over any buffered reader.
///
/// # Examples
///
/// ```
/// use webpuzzle_stream::{ClfSource, Source};
/// use webpuzzle_weblog::clf::WVU_BASE_EPOCH;
///
/// let log = "10.0.0.1 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/1 HTTP/1.0\" 200 10\n\
///            garbage\n\
///            10.0.0.2 - - [12/Jan/2004:00:00:09 +0000] \"GET /r/2 HTTP/1.0\" 200 20\n";
/// let mut source = ClfSource::new(log.as_bytes(), WVU_BASE_EPOCH).lenient(true);
/// let mut n = 0;
/// while let Some(rec) = source.next_item() {
///     rec.unwrap();
///     n += 1;
/// }
/// assert_eq!(n, 2);
/// assert_eq!(source.skipped(), 1);
/// ```
#[derive(Debug)]
pub struct ClfSource<R> {
    reader: R,
    base_epoch: i64,
    lenient: bool,
    buf: Vec<u8>,
    byte_offset: u64,
    line_no: usize,
    parsed: u64,
    skipped: u64,
    malformed: MalformedBreakdown,
    done: bool,
    /// The run's 1-in-N flight-recorder period; 0 when unprofiled.
    sample_every: u64,
    parsed_counter: Arc<webpuzzle_obs::ShardedCounter>,
    skip_counter: Arc<metrics::Counter>,
    kind_counters: [Arc<metrics::Counter>; 4],
}

impl<R: BufRead> ClfSource<R> {
    /// Wrap a buffered reader; record timestamps come out relative to
    /// `base_epoch` (Unix seconds).
    pub fn new(reader: R, base_epoch: i64) -> Self {
        ClfSource {
            reader,
            base_epoch,
            lenient: false,
            buf: Vec::with_capacity(256),
            byte_offset: 0,
            line_no: 0,
            parsed: 0,
            skipped: 0,
            malformed: MalformedBreakdown::default(),
            done: false,
            sample_every: 0,
            parsed_counter: metrics::sharded_counter("weblog/records_parsed"),
            skip_counter: metrics::counter(MALFORMED_SKIPPED_COUNTER),
            kind_counters: malformed_kind_counters(),
        }
    }

    /// Skip (and count) malformed lines instead of aborting the stream.
    /// Lines are parsed as bytes: invalid UTF-8 reads as its lossy
    /// decoding (U+FFFD), so it fails a line only inside a field that must
    /// be ASCII (a number, a month name).
    pub fn lenient(mut self, lenient: bool) -> Self {
        self.lenient = lenient;
        self
    }

    /// Time the read and parse of the records the run's `profiler`
    /// samples, the start of each one's trace.
    pub fn with_profiler(mut self, profiler: Option<&Profiler>) -> Self {
        self.sample_every = profiler.map_or(0, Profiler::sample_every);
        self
    }

    /// Records successfully parsed so far.
    pub fn parsed(&self) -> u64 {
        self.parsed
    }

    /// Malformed lines skipped so far (always 0 in strict mode).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Bytes consumed from the reader so far. After a yielded record
    /// this is exactly the end of its line, so it doubles as the seek
    /// target for resuming a file-backed source.
    pub fn byte_offset(&self) -> u64 {
        self.byte_offset
    }

    /// Breakdown of the skipped lines by cause (lenient mode).
    pub fn malformed(&self) -> MalformedBreakdown {
        self.malformed
    }

    /// Restore the position counters from a checkpoint. The caller is
    /// responsible for seeking the underlying reader to
    /// `position.byte_offset` *before* wrapping it — this source only
    /// carries the bookkeeping forward so parse counts, line numbers,
    /// and offsets continue instead of restarting at zero.
    pub fn with_position(mut self, position: &SourcePosition) -> Self {
        self.byte_offset = position.byte_offset;
        self.line_no = position.line_no as usize;
        self.parsed = position.parsed;
        self.skipped = position.skipped;
        self.malformed = position.malformed;
        self
    }
}

impl<R: BufRead> RecoverableSource for ClfSource<R> {
    fn position(&self) -> SourcePosition {
        SourcePosition {
            byte_offset: self.byte_offset,
            line_no: self.line_no as u64,
            parsed: self.parsed,
            skipped: self.skipped,
            malformed: self.malformed,
        }
    }
}

impl<R: BufRead> Source for ClfSource<R> {
    type Item = LogRecord;

    fn next_item(&mut self) -> Option<Result<LogRecord>> {
        if self.done {
            return None;
        }
        // Flight recorder: the sampling decision comes from the
        // deterministic index of the *next* parsed record, before any
        // work — unsampled records never take a timestamp. Skipped
        // malformed/blank lines on the way to a sampled record are
        // charged to it (they are part of producing it).
        let sample = self.sample_every != 0 && self.parsed.is_multiple_of(self.sample_every);
        let mut read_ns = 0u64;
        let mut parse_ns = 0u64;
        loop {
            self.buf.clear();
            let t_read = sample.then(std::time::Instant::now);
            let read = self.reader.read_until(b'\n', &mut self.buf);
            if let Some(t0) = t_read {
                read_ns += t0.elapsed().as_nanos() as u64;
            }
            match read {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(n) => self.byte_offset += n as u64,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            }
            self.line_no += 1;
            let t_parse = sample.then(std::time::Instant::now);
            let parsed = parse_raw_line(&self.buf, self.base_epoch);
            if let Some(t0) = t_parse {
                parse_ns += t0.elapsed().as_nanos() as u64;
            }
            let Some(parsed) = parsed else {
                continue;
            };
            match parsed {
                Ok(rec) => {
                    if sample {
                        profile::begin_trace(self.parsed, rec.timestamp);
                        profile::trace_add(profile::Stage::SourceRead, read_ns);
                        profile::trace_add(profile::Stage::ClfParse, parse_ns);
                    }
                    self.parsed += 1;
                    self.parsed_counter.incr();
                    return Some(Ok(rec));
                }
                Err(WeblogError::ParseLine { reason, .. }) if self.lenient => {
                    self.skipped += 1;
                    let kind = MalformedKind::classify(&reason);
                    self.malformed.record(kind);
                    self.skip_counter.incr();
                    kind_counter(&self.kind_counters, kind).incr();
                }
                Err(WeblogError::ParseLine { reason, .. }) => {
                    self.done = true;
                    return Some(Err(WeblogError::ParseLine {
                        line: self.line_no,
                        reason,
                    }
                    .into()));
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_weblog::clf::{format_line, WVU_BASE_EPOCH};
    use webpuzzle_weblog::Method;

    fn log_text(n: usize) -> String {
        (0..n)
            .map(|i| {
                let rec = LogRecord::new(i as f64, i as u32, Method::Get, 1, 200, 10);
                format_line(&rec, WVU_BASE_EPOCH) + "\n"
            })
            .collect()
    }

    fn drain<R: BufRead>(mut src: ClfSource<R>) -> (Vec<LogRecord>, ClfSource<R>) {
        let mut out = Vec::new();
        while let Some(item) = src.next_item() {
            out.push(item.expect("parse ok"));
        }
        (out, src)
    }

    #[test]
    fn lenient_skips_bump_the_per_kind_counters() {
        let counters = malformed_kind_counters();
        let before: Vec<u64> = counters.iter().map(|c| c.get()).collect();
        let good = format_line(
            &LogRecord::new(5.0, 1, Method::Get, 1, 200, 10),
            WVU_BASE_EPOCH,
        );
        let text = format!(
            "{good}\n\
             10.0.0.1 - - [not a date] \"GET /x HTTP/1.0\" 200 10\n\
             10.0.0.1 - - [12/Jan/2004:00:00:07 +0000] \"GET /x HTTP/1.0\" abc 10\n\
             total garbage\n"
        );
        let (records, src) = drain(ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH).lenient(true));
        assert_eq!(records.len(), 1);
        assert_eq!(src.malformed().bad_timestamp, 1);
        assert_eq!(src.malformed().bad_status, 1);
        // Each counter moved by at least this source's tally (the
        // registry is process-global, so other tests may add more).
        for (i, kind) in MalformedKind::ALL.iter().enumerate() {
            assert!(
                counters[i].get() >= before[i] + src.malformed().count(*kind),
                "counter for {} did not advance",
                kind.as_str()
            );
        }
    }

    #[test]
    fn streams_all_records() {
        let text = log_text(100);
        let (records, src) = drain(ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH));
        assert_eq!(records.len(), 100);
        assert_eq!(src.parsed(), 100);
        assert_eq!(records[7].timestamp, 7.0);
    }

    #[test]
    fn matches_batch_parse() {
        let text = log_text(50);
        let batch = webpuzzle_weblog::clf::parse_log(&text, WVU_BASE_EPOCH).unwrap();
        let (streamed, _) = drain(ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn strict_mode_reports_line_number() {
        let text = format!("{}garbage here\n{}", log_text(2), log_text(1));
        let mut src = ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH);
        assert!(src.next_item().unwrap().is_ok());
        assert!(src.next_item().unwrap().is_ok());
        match src.next_item().unwrap() {
            Err(crate::StreamError::Weblog(WeblogError::ParseLine { line, .. })) => {
                assert_eq!(line, 3)
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // A failed strict source is exhausted.
        assert!(src.next_item().is_none());
    }

    #[test]
    fn lenient_mode_skips_garbage_and_bad_utf8() {
        let mut bytes = log_text(3).into_bytes();
        bytes.extend_from_slice(b"\xFF\xFE broken bytes\n");
        bytes.extend_from_slice(log_text(2).as_bytes());
        let (records, src) = drain(ClfSource::new(&bytes[..], WVU_BASE_EPOCH).lenient(true));
        assert_eq!(records.len(), 5);
        assert_eq!(src.skipped(), 1);
    }

    #[test]
    fn blank_lines_are_free() {
        let text = format!("\n\n{}\n\n", log_text(2));
        let (records, src) = drain(ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH));
        assert_eq!(records.len(), 2);
        assert_eq!(src.skipped(), 0);
    }

    #[test]
    fn missing_trailing_newline_still_parses() {
        let text = log_text(2);
        let text = text.trim_end();
        let (records, _) = drain(ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH));
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn position_tracks_exact_end_of_line_offsets() {
        let text = log_text(10);
        let mut src = ClfSource::new(text.as_bytes(), WVU_BASE_EPOCH);
        let mut consumed = 0usize;
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for line in &lines[..6] {
            src.next_item().unwrap().unwrap();
            consumed += line.len();
            assert_eq!(src.position().byte_offset, consumed as u64);
        }
        let pos = src.position();
        assert_eq!(pos.parsed, 6);
        assert_eq!(pos.line_no, 6);
        assert_eq!(pos.skipped, 0);
    }

    #[test]
    fn seek_and_with_position_resumes_identical_records() {
        use std::io::{Cursor, Seek, SeekFrom};

        let mut bytes = log_text(4).into_bytes();
        bytes.extend_from_slice(b"not a log line\n");
        bytes.extend_from_slice(log_text(8).as_bytes());

        let (whole, whole_src) =
            drain(ClfSource::new(Cursor::new(bytes.clone()), WVU_BASE_EPOCH).lenient(true));

        // Run a prefix, capture the position, then resume from a fresh
        // reader seeked to the recorded byte offset.
        let mut head = ClfSource::new(Cursor::new(bytes.clone()), WVU_BASE_EPOCH).lenient(true);
        for _ in 0..5 {
            head.next_item().unwrap().unwrap();
        }
        let pos = head.position();
        assert_eq!(pos.parsed, 5);
        assert_eq!(pos.skipped, 1);
        assert_eq!(pos.malformed.total(), 1);

        let mut reader = Cursor::new(bytes);
        reader.seek(SeekFrom::Start(pos.byte_offset)).unwrap();
        let (tail, tail_src) = drain(
            ClfSource::new(reader, WVU_BASE_EPOCH)
                .lenient(true)
                .with_position(&pos),
        );

        assert_eq!(tail.len(), whole.len() - 5);
        assert_eq!(tail[..], whole[5..]);
        assert_eq!(tail_src.position(), whole_src.position());
    }
}
