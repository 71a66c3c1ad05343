//! Common Log Format (CLF) reading and writing.
//!
//! Lines look like:
//!
//! ```text
//! 10.0.3.17 - - [12/Jan/2004:00:00:07 +0000] "GET /r/42 HTTP/1.0" 200 2326
//! ```
//!
//! Record timestamps in this suite are *relative* seconds from the start of
//! the observation window, so both directions take a `base_epoch` (Unix
//! seconds, UTC) anchoring the window — e.g. the paper's WVU log starts
//! 12-Jan-04.

use crate::record::{LogRecord, Method};
use crate::{Result, WeblogError};
use canonical::canonical;
use std::fmt::Write as _;
use std::io::{self, BufRead, Read as _};

/// Unix seconds of 12-Jan-2004 00:00:00 UTC, where the paper's WVU log
/// starts: the default `base_epoch` of every binary and fixture here.
pub const WVU_BASE_EPOCH: i64 = 1_073_865_600;

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Format one record as a CLF line anchored at `base_epoch` (Unix seconds).
///
/// The client id renders as a synthetic IPv4 address and the resource id as
/// `/r/<id>`; sub-second timestamp precision is truncated, exactly like real
/// 1-second-granularity server logs (the property that forces the paper's
/// tie-spreading step in §4.2).
///
/// # Examples
///
/// ```
/// use webpuzzle_weblog::clf::{format_line, WVU_BASE_EPOCH};
/// use webpuzzle_weblog::{LogRecord, Method};
///
/// let rec = LogRecord::new(7.9, 0x0A000311, Method::Get, 42, 200, 2326);
/// let line = format_line(&rec, WVU_BASE_EPOCH); // 12-Jan-2004 00:00 UTC
/// assert_eq!(
///     line,
///     "10.0.3.17 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/42 HTTP/1.0\" 200 2326"
/// );
/// ```
pub fn format_line(record: &LogRecord, base_epoch: i64) -> String {
    let [a, b, c, d] = record.client.to_be_bytes();
    let epoch = base_epoch + record.timestamp.floor() as i64;
    let (date, time) = split_epoch(epoch);
    let mut line = String::with_capacity(96);
    let _ = write!(
        line,
        "{a}.{b}.{c}.{d} - - [{:02}/{}/{}:{:02}:{:02}:{:02} +0000] \"{} /r/{} HTTP/1.0\" {} {}",
        date.2,
        MONTHS[date.1 as usize - 1],
        date.0,
        time.0,
        time.1,
        time.2,
        record.method,
        record.resource,
        record.status,
        record.bytes,
    );
    line
}

/// Parse one CLF line into a record with timestamp relative to `base_epoch`.
///
/// Accepts `-` for the byte count (written by servers for bodyless
/// responses) and maps it to 0. The same as [`parse_line_bytes`].
///
/// # Errors
///
/// Returns [`WeblogError::ParseLine`] describing the first malformed field.
///
/// # Examples
///
/// ```
/// use webpuzzle_weblog::clf::{format_line, parse_line};
/// use webpuzzle_weblog::{LogRecord, Method};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rec = LogRecord::new(61.0, 7, Method::Post, 3, 404, 0);
/// let line = format_line(&rec, 1_000_000_000);
/// let back = parse_line(&line, 1_000_000_000)?;
/// assert_eq!(back, rec);
/// # Ok(())
/// # }
/// ```
pub fn parse_line(line: &str, base_epoch: i64) -> Result<LogRecord> {
    parse_line_bytes(line.as_bytes(), base_epoch)
}

/// Parse one CLF line (without its terminator) from raw bytes.
///
/// It never decodes UTF-8 and never allocates on a well-formed line, yet
/// its result on any byte string equals [`parse_line`] on that string's
/// `String::from_utf8_lossy` decoding: fields are split on the UTF-8
/// encodings of exactly the `char::is_whitespace` characters, and every
/// other delimiter is ASCII, which lossy decoding never touches.
///
/// A line in the canonical layout ([`format_line`]'s, and the common
/// format Apache and NCSA servers log) is read in one forward pass; any
/// other line goes to the general grammar, which gives the same record
/// on every line the canonical pass reads.
///
/// # Errors
///
/// Returns [`WeblogError::ParseLine`] (line number 0) with the same
/// reason [`parse_line`] gives.
pub fn parse_line_bytes(line: &[u8], base_epoch: i64) -> Result<LogRecord> {
    canonical(line, base_epoch).or_else(|_| {
        fields(line, base_epoch).map_err(|reason| WeblogError::ParseLine {
            line: 0,
            reason: reason.to_string(),
        })
    })
}

/// Parse one line as read from a stream: trailing `\n`/`\r` bytes are
/// trimmed, a blank (all-whitespace) line gives `None`, anything else
/// goes to [`parse_line_bytes`].
///
/// # Examples
///
/// ```
/// use webpuzzle_weblog::clf::{parse_raw_line, WVU_BASE_EPOCH};
///
/// let base = WVU_BASE_EPOCH;
/// let line = b"10.0.0.1 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/1 HTTP/1.0\" 200 10\r\n";
/// let rec = parse_raw_line(line, base).unwrap().unwrap();
/// assert_eq!(rec.timestamp, 7.0);
/// assert!(parse_raw_line(b" \t\r\n", base).is_none());
/// ```
pub fn parse_raw_line(raw: &[u8], base_epoch: i64) -> Option<Result<LogRecord>> {
    let mut line = raw;
    while let [rest @ .., b'\n' | b'\r'] = line {
        line = rest;
    }
    if is_blank(line) {
        None
    } else {
        Some(parse_line_bytes(line, base_epoch))
    }
}

/// Longest line, terminator included, that [`read_line_capped`] keeps:
/// the ingest default and `ClfSource`'s bound. Apache's default
/// `LimitRequestLine` (8 190 bytes) keeps real log lines far below it.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// The outcome of one [`read_line_capped`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// A complete, newline-terminated line of this many bytes.
    Line(usize),
    /// End of input after this many bytes with no final newline.
    Partial(usize),
    /// A line longer than the cap; this many bytes were discarded, its
    /// newline included.
    Oversized(usize),
    /// End of input at a line boundary.
    Eof,
}

/// `read_until(b'\n')` with a hard length cap: `buf` holds the line,
/// terminator included, when it is at most `cap` bytes. A longer line is
/// discarded up to and including its newline without being buffered
/// (`buf` is left empty), so memory stays within `cap + 1` bytes.
///
/// # Errors
///
/// Any error of the underlying reader other than `Interrupted`.
///
/// # Examples
///
/// ```
/// use webpuzzle_weblog::clf::{read_line_capped, LineRead};
///
/// let mut input = &b"short\nmuch too long\ntail"[..];
/// let mut buf = Vec::new();
/// assert_eq!(read_line_capped(&mut input, &mut buf, 8).unwrap(), LineRead::Line(6));
/// assert_eq!(read_line_capped(&mut input, &mut buf, 8).unwrap(), LineRead::Oversized(14));
/// assert_eq!(read_line_capped(&mut input, &mut buf, 8).unwrap(), LineRead::Partial(4));
/// assert_eq!(buf, b"tail");
/// assert_eq!(read_line_capped(&mut input, &mut buf, 8).unwrap(), LineRead::Eof);
/// ```
pub fn read_line_capped<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<LineRead> {
    buf.clear();
    let n = reader.take(cap as u64 + 1).read_until(b'\n', buf)?;
    let newline = buf.last() == Some(&b'\n');
    if n <= cap {
        return Ok(match (n, newline) {
            (0, _) => LineRead::Eof,
            (_, true) => LineRead::Line(n),
            (_, false) => LineRead::Partial(n),
        });
    }
    buf.clear();
    let rest = if newline {
        0
    } else {
        reader.skip_until(b'\n')?
    };
    Ok(LineRead::Oversized(n + rest))
}

// host ident user [date tz] "request" status bytes
fn fields(line: &[u8], base_epoch: i64) -> std::result::Result<LogRecord, &'static str> {
    let sp = find(line, b' ').ok_or("missing host")?;
    let client = parse_ipv4(&line[..sp]).ok_or("bad host address")?;
    let rest = &line[sp + 1..];

    let open = find(rest, b'[').ok_or("missing [date]")?;
    let close = find(&rest[open..], b']')
        .map(|i| i + open)
        .ok_or("unterminated [date]")?;
    let epoch = parse_clf_date(&rest[open + 1..close]).ok_or("bad date")?;

    let after_date = &rest[close + 1..];
    let q1 = find(after_date, b'"').ok_or("missing request")?;
    let q2 = find(&after_date[q1 + 1..], b'"')
        .map(|i| i + q1 + 1)
        .ok_or("unterminated request")?;
    let mut request = Words(&after_date[q1 + 1..q2]);
    let method = Method::parse_bytes(request.next().ok_or("empty request")?);
    let resource = resource_id(request.next().ok_or("request missing URI")?);

    let mut tail = Words(&after_date[q2 + 1..]);
    let status = parse_u64(tail.next().ok_or("missing status")?)
        .and_then(|v| u16::try_from(v).ok())
        .ok_or("bad status")?;
    let bytes_tok = tail.next().ok_or("missing bytes")?;
    let bytes = if bytes_tok == b"-" {
        0
    } else {
        parse_u64(bytes_tok).ok_or("bad byte count")?
    };

    Ok(LogRecord {
        timestamp: epoch.wrapping_sub(base_epoch) as f64,
        client,
        method,
        resource,
        status,
        bytes,
    })
}

/// Metrics-registry name of the counter tracking malformed lines skipped
/// by lenient parsing (here and in the streaming reader).
pub const MALFORMED_SKIPPED_COUNTER: &str = "weblog/malformed_lines_skipped";

/// Why a line failed to parse — the poison-record taxonomy lenient
/// consumers report. Derived from the parse-error reason, so strict and
/// lenient paths classify identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MalformedKind {
    /// The `[date]` body was present but unparseable.
    BadTimestamp,
    /// The status field was present but not a `u16` (an optional `+` and
    /// decimal digits, at most 65535). Out-of-range codes such as 42 or
    /// 1000 parse.
    BadStatus,
    /// The line ended before a required field (truncated write): a
    /// missing, unterminated, or empty field.
    Truncated,
    /// Any other malformation (bad host address, bad byte count, …).
    Other,
}

impl MalformedKind {
    /// All kinds, in reporting order.
    pub const ALL: [MalformedKind; 4] = [
        MalformedKind::BadTimestamp,
        MalformedKind::BadStatus,
        MalformedKind::Truncated,
        MalformedKind::Other,
    ];

    /// Stable lower-case token for reports and counter names.
    pub fn as_str(self) -> &'static str {
        match self {
            MalformedKind::BadTimestamp => "bad_timestamp",
            MalformedKind::BadStatus => "bad_status",
            MalformedKind::Truncated => "truncated",
            MalformedKind::Other => "other",
        }
    }

    /// Classify a [`WeblogError::ParseLine`] reason string.
    pub fn classify(reason: &str) -> MalformedKind {
        match reason {
            "bad date" => MalformedKind::BadTimestamp,
            "bad status" => MalformedKind::BadStatus,
            "empty request" | "request missing URI" => MalformedKind::Truncated,
            r if r.starts_with("missing") || r.starts_with("unterminated") => {
                MalformedKind::Truncated
            }
            _ => MalformedKind::Other,
        }
    }
}

/// Per-cause tally of skipped malformed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MalformedBreakdown {
    /// Lines with an unparseable `[date]` body.
    pub bad_timestamp: u64,
    /// Lines whose status is not a `u16`.
    pub bad_status: u64,
    /// Lines truncated before a required field.
    pub truncated: u64,
    /// Everything else.
    pub other: u64,
}

impl MalformedBreakdown {
    /// Count one skipped line of the given kind.
    pub fn record(&mut self, kind: MalformedKind) {
        match kind {
            MalformedKind::BadTimestamp => self.bad_timestamp += 1,
            MalformedKind::BadStatus => self.bad_status += 1,
            MalformedKind::Truncated => self.truncated += 1,
            MalformedKind::Other => self.other += 1,
        }
    }

    /// Tally for one kind.
    pub fn count(&self, kind: MalformedKind) -> u64 {
        match kind {
            MalformedKind::BadTimestamp => self.bad_timestamp,
            MalformedKind::BadStatus => self.bad_status,
            MalformedKind::Truncated => self.truncated,
            MalformedKind::Other => self.other,
        }
    }

    /// Sum over all kinds — the historical `skipped` count.
    pub fn total(&self) -> u64 {
        self.bad_timestamp + self.bad_status + self.truncated + self.other
    }

    /// Fold another breakdown into this one.
    pub fn merge(&mut self, other: &MalformedBreakdown) {
        self.bad_timestamp += other.bad_timestamp;
        self.bad_status += other.bad_status;
        self.truncated += other.truncated;
        self.other += other.other;
    }
}

/// A leniently parsed CLF stream: the good records plus the count of
/// garbage lines that were skipped.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// Successfully parsed records, in input order.
    pub records: Vec<LogRecord>,
    /// Number of malformed (non-blank, unparseable) lines skipped —
    /// always `malformed.total()`, kept for existing consumers.
    pub skipped: u64,
    /// The skipped lines broken down by cause.
    pub malformed: MalformedBreakdown,
}

/// Parse a whole CLF stream; line numbers are reported in errors.
///
/// # Errors
///
/// Returns [`WeblogError::ParseLine`] with the 1-based line number of the
/// first malformed line. Blank lines are skipped.
pub fn parse_log(text: &str, base_epoch: i64) -> Result<Vec<LogRecord>> {
    let _span = webpuzzle_obs::span!("weblog/parse");
    let parsed = webpuzzle_obs::metrics::sharded_counter("weblog/records_parsed");
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, base_epoch) {
            Ok(r) => out.push(r),
            Err(WeblogError::ParseLine { reason, .. }) => {
                return Err(WeblogError::ParseLine {
                    line: i + 1,
                    reason,
                })
            }
            Err(e) => return Err(e),
        }
    }
    parsed.add(out.len() as u64);
    Ok(out)
}

/// Parse a whole CLF stream, skipping (and counting) malformed lines
/// instead of aborting — week-long real-world logs always contain a few
/// garbage lines (truncated writes, embedded control bytes, scanner
/// noise), and losing the whole week to one of them is the wrong trade.
///
/// Skips are surfaced on the [`MALFORMED_SKIPPED_COUNTER`] metrics
/// counter as well as in the returned [`LenientParse::skipped`] tally.
/// Blank lines are ignored and not counted as malformed.
///
/// # Examples
///
/// ```
/// use webpuzzle_weblog::clf::{parse_log_lenient, WVU_BASE_EPOCH};
///
/// let text = "10.0.0.1 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/1 HTTP/1.0\" 200 10\n\
///             total garbage line\n";
/// let parsed = parse_log_lenient(text, WVU_BASE_EPOCH);
/// assert_eq!(parsed.records.len(), 1);
/// assert_eq!(parsed.skipped, 1);
/// ```
pub fn parse_log_lenient(text: &str, base_epoch: i64) -> LenientParse {
    let _span = webpuzzle_obs::span!("weblog/parse");
    let parsed = webpuzzle_obs::metrics::sharded_counter("weblog/records_parsed");
    let skip_counter = webpuzzle_obs::metrics::counter(MALFORMED_SKIPPED_COUNTER);
    let mut records = Vec::new();
    let mut malformed = MalformedBreakdown::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line, base_epoch) {
            Ok(r) => records.push(r),
            Err(WeblogError::ParseLine { reason, .. }) => {
                malformed.record(MalformedKind::classify(&reason))
            }
            Err(_) => malformed.record(MalformedKind::Other),
        }
    }
    parsed.add(records.len() as u64);
    skip_counter.add(malformed.total());
    LenientParse {
        records,
        skipped: malformed.total(),
        malformed,
    }
}

fn parse_ipv4(s: &[u8]) -> Option<u32> {
    let mut parts = s.split(|&b| b == b'.');
    let mut bytes = [0u8; 4];
    for b in &mut bytes {
        *b = u8::try_from(parse_u64(parts.next()?)?).ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(u32::from_be_bytes(bytes))
}

// [dd/Mon/yyyy:HH:MM:SS +ZZZZ] body (without brackets) → Unix seconds.
fn parse_clf_date(s: &[u8]) -> Option<i64> {
    let (datetime, tz) = match split_once(s, b' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let (day, rest) = split_once(datetime, b'/')?;
    let (mon_name, rest) = split_once(rest, b'/')?;
    let (year, rest) = split_once(rest, b':')?;
    let (hh, rest) = split_once(rest, b':')?;
    let (mm, ss) = split_once(rest, b':')?;
    let day = parse_i64(day)?;
    let month = MONTHS.iter().position(|m| m.as_bytes() == mon_name)? as i64 + 1;
    let hms = [parse_i64(hh)?, parse_i64(mm)?, parse_i64(ss)?];
    let tz = match tz {
        Some(tz) => Some((*tz.first()?, parse_i64(&tz[1..])?)),
        None => None,
    };
    clf_epoch(parse_i64(year)?, month, day, hms, tz)
}

// A logged local date and time, less its `(sign byte, hhmm)` offset, →
// Unix seconds, or `None` for a day, hour, minute or second out of range
// or a sign other than `+` or `-`. The arithmetic wraps on absurd years
// and offsets rather than panicking.
fn clf_epoch(
    year: i64,
    month: i64,
    day: i64,
    [hh, mm, ss]: [i64; 3],
    tz: Option<(u8, i64)>,
) -> Option<i64> {
    if !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 {
        return None;
    }
    let mut epoch = days_from_civil(year, month, day)
        .wrapping_mul(86_400)
        .wrapping_add(hh.wrapping_mul(3_600))
        .wrapping_add(mm.wrapping_mul(60))
        .wrapping_add(ss);
    if let Some((sign, hhmm)) = tz {
        let sign: i64 = match sign {
            b'+' => 1,
            b'-' => -1,
            _ => return None,
        };
        // ±HHMM offset: logged local time minus offset = UTC.
        let offset = (hhmm / 100)
            .wrapping_mul(3_600)
            .wrapping_add((hhmm % 100) * 60);
        epoch = epoch.wrapping_sub(sign.wrapping_mul(offset));
    }
    Some(epoch)
}

// The resource id of a request URI: its last `/` segment as a `u32`, or
// the FNV-1a hash of the URI's lossy decoding.
fn resource_id(uri: &[u8]) -> u32 {
    let last_segment = match uri.iter().rposition(|&b| b == b'/') {
        Some(i) => &uri[i + 1..],
        None => uri,
    };
    parse_u64(last_segment)
        .and_then(|v| u32::try_from(v).ok())
        .unwrap_or_else(|| fnv1a(String::from_utf8_lossy(uri).as_bytes()))
}

/// Byte length of the `char::is_whitespace` character whose UTF-8
/// encoding starts `s`, or 0: the 6 ASCII ones and the 19 non-ASCII ones.
/// Every encoding begins with an ASCII or lead byte, so a match is always
/// a character boundary of the lossy decoding too.
fn whitespace_len(s: &[u8]) -> usize {
    match *s {
        [b'\t'..=b'\r' | b' ', ..] => 1,
        // U+0085, U+00A0
        [0xC2, 0x85 | 0xA0, ..] => 2,
        // U+1680
        [0xE1, 0x9A, 0x80, ..] => 3,
        // U+2000..=U+200A, U+2028, U+2029, U+202F
        [0xE2, 0x80, 0x80..=0x8A | 0xA8 | 0xA9 | 0xAF, ..] => 3,
        // U+205F
        [0xE2, 0x81, 0x9F, ..] => 3,
        // U+3000
        [0xE3, 0x80, 0x80, ..] => 3,
        _ => 0,
    }
}

// `str::trim().is_empty()` on the lossy decoding.
fn is_blank(mut s: &[u8]) -> bool {
    while !s.is_empty() {
        match whitespace_len(s) {
            0 => return false,
            n => s = &s[n..],
        }
    }
    true
}

/// `str::split_whitespace` on bytes.
struct Words<'a>(&'a [u8]);

impl<'a> Iterator for Words<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let s = self.0;
        let mut start = 0;
        while start < s.len() {
            match whitespace_len(&s[start..]) {
                0 => break,
                n => start += n,
            }
        }
        if start == s.len() {
            self.0 = &s[start..];
            return None;
        }
        let mut end = start + 1;
        // Printable ASCII is never whitespace: skip the full check.
        while end < s.len() && ((b'!'..=b'~').contains(&s[end]) || whitespace_len(&s[end..]) == 0) {
            end += 1;
        }
        self.0 = &s[end..];
        Some(&s[start..end])
    }
}

fn split_once(s: &[u8], byte: u8) -> Option<(&[u8], &[u8])> {
    let i = find(s, byte)?;
    Some((&s[..i], &s[i + 1..]))
}

fn find(s: &[u8], byte: u8) -> Option<usize> {
    s.iter().position(|&b| b == byte)
}

// One or more ASCII digits, no sign; overflow is an error.
fn parse_digits(s: &[u8]) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in s {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

// `u64::from_str` on bytes: an optional `+`, then digits.
fn parse_u64(s: &[u8]) -> Option<u64> {
    parse_digits(s.strip_prefix(b"+").unwrap_or(s))
}

// `i64::from_str` on bytes: an optional `+` or `-`, then digits.
fn parse_i64(s: &[u8]) -> Option<i64> {
    match s.strip_prefix(b"-") {
        Some(digits) => {
            let magnitude = parse_digits(digits)?;
            (magnitude <= i64::MIN.unsigned_abs()).then(|| (magnitude as i64).wrapping_neg())
        }
        None => i64::try_from(parse_u64(s)?).ok(),
    }
}

// Days since 1970-01-01 (Howard Hinnant's days_from_civil).
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y.wrapping_sub(1) } else { y };
    let era = if y >= 0 { y } else { y.wrapping_sub(399) } / 400;
    let yoe = y.wrapping_sub(era.wrapping_mul(400));
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe
        .wrapping_mul(365)
        .wrapping_add(yoe / 4 - yoe / 100)
        .wrapping_add(doy);
    era.wrapping_mul(146_097)
        .wrapping_add(doe)
        .wrapping_sub(719_468)
}

// Inverse of days_from_civil.
fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

// Epoch seconds → ((year, month, day), (hh, mm, ss)) in UTC.
fn split_epoch(epoch: i64) -> ((i64, i64, i64), (i64, i64, i64)) {
    let days = epoch.div_euclid(86_400);
    let secs = epoch.rem_euclid(86_400);
    (
        civil_from_days(days),
        (secs / 3_600, (secs / 60) % 60, secs % 60),
    )
}

// FNV-1a hash for non-numeric URIs so foreign logs can still be interned.
fn fnv1a(s: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in s {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

mod canonical;

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip() {
        for &z in &[-719_468i64, -1, 0, 1, 10_957, 12_418, 20_000, 100_000] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z, "z = {z} → {y}-{m}-{d}");
        }
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        // 2004-01-12 is 12 431 days after the epoch.
        assert_eq!(days_from_civil(2004, 1, 12) * 86_400, WVU_BASE_EPOCH);
    }

    #[test]
    fn format_known_line() {
        let rec = LogRecord::new(7.0, 0x0A00_0311, Method::Get, 42, 200, 2326);
        assert_eq!(
            format_line(&rec, WVU_BASE_EPOCH),
            "10.0.3.17 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/42 HTTP/1.0\" 200 2326"
        );
    }

    #[test]
    fn roundtrip_many() {
        for (i, &(ts, client, status, bytes)) in [
            (0.0, 1u32, 200u16, 0u64),
            (86_399.0, u32::MAX, 404, 123_456_789),
            (604_799.0, 0, 500, 1),
            (3_601.5, 77, 304, 0),
        ]
        .iter()
        .enumerate()
        {
            let rec = LogRecord::new(ts, client, Method::Head, i as u32, status, bytes);
            let line = format_line(&rec, WVU_BASE_EPOCH);
            let back = parse_line(&line, WVU_BASE_EPOCH).unwrap();
            assert_eq!(back.timestamp, ts.floor(), "line {line}");
            assert_eq!(back.client, client);
            assert_eq!(back.status, status);
            assert_eq!(back.bytes, bytes);
            assert_eq!(back.method, Method::Head);
            assert_eq!(back.resource, i as u32);
        }
    }

    #[test]
    fn parses_real_world_shapes() {
        // A ClarkNet-era line with "-" bytes and a textual URI.
        let line = r#"199.72.81.55 - - [28/Aug/1995:00:00:01 -0400] "GET /images/ksclogo.gif HTTP/1.0" 304 -"#;
        let rec = parse_line(line, 0).unwrap();
        assert_eq!(rec.status, 304);
        assert_eq!(rec.bytes, 0);
        assert_eq!(rec.method, Method::Get);
        // -0400 means UTC is 4h ahead of the logged local time.
        assert_eq!(
            rec.timestamp as i64,
            days_from_civil(1995, 8, 28) * 86_400 + 1 + 4 * 3_600
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_line("not a log line", 0).is_err());
        assert!(parse_line("1.2.3.4 - - [bad] \"GET / HTTP/1.0\" 200 1", 0).is_err());
        assert!(parse_line(
            "1.2.3.4 - - [12/Jan/2004:00:00:07 +0000] \"GET / HTTP/1.0\" xx 1",
            0
        )
        .is_err());
        assert!(parse_line(
            "300.2.3.4 - - [12/Jan/2004:00:00:07 +0000] \"GET / HTTP/1.0\" 200 1",
            0
        )
        .is_err());
    }

    #[test]
    fn parse_log_reports_line_numbers() {
        let text =
            "10.0.0.1 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/1 HTTP/1.0\" 200 10\n\ngarbage\n";
        let err = parse_log(text, WVU_BASE_EPOCH).unwrap_err();
        match err {
            WeblogError::ParseLine { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_log_ok() {
        let mut text = String::new();
        for i in 0..50 {
            let rec = LogRecord::new(i as f64, i, Method::Get, i, 200, 100 + i as u64);
            text.push_str(&format_line(&rec, WVU_BASE_EPOCH));
            text.push('\n');
        }
        let records = parse_log(&text, WVU_BASE_EPOCH).unwrap();
        assert_eq!(records.len(), 50);
        assert_eq!(records[49].bytes, 149);
    }

    #[test]
    fn lenient_skips_and_counts_garbage() {
        let good = format_line(
            &LogRecord::new(3.0, 9, Method::Get, 1, 200, 64),
            WVU_BASE_EPOCH,
        );
        let text = format!("{good}\nnot a log line\n\n1.2.3.4 incomplete\n{good}\n");
        let parsed = parse_log_lenient(&text, WVU_BASE_EPOCH);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.skipped, 2);
        assert_eq!(parsed.records[0], parsed.records[1]);
        // A fully clean stream skips nothing.
        let clean = parse_log_lenient(&good, WVU_BASE_EPOCH);
        assert_eq!(clean.skipped, 0);
        assert_eq!(clean.records.len(), 1);
    }

    #[test]
    fn lenient_breakdown_classifies_by_cause() {
        let good = format_line(
            &LogRecord::new(3.0, 9, Method::Get, 1, 200, 64),
            WVU_BASE_EPOCH,
        );
        let bad_date = r#"1.2.3.4 - - [99/Jan/2004:00:00:07 +0000] "GET /r HTTP/1.0" 200 5"#;
        let bad_status = r#"1.2.3.4 - - [12/Jan/2004:00:00:07 +0000] "GET /r HTTP/1.0" 2x0 5"#;
        let truncated = "1.2.3.4 - - [12/Jan/2004";
        let other = r#"zzz - - [12/Jan/2004:00:00:07 +0000] "GET /r HTTP/1.0" 200 5"#;
        let text = format!("{good}\n{bad_date}\n{bad_status}\n{truncated}\n{other}\n");
        let parsed = parse_log_lenient(&text, WVU_BASE_EPOCH);
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.malformed.bad_timestamp, 1);
        assert_eq!(parsed.malformed.bad_status, 1);
        assert_eq!(parsed.malformed.truncated, 1);
        assert_eq!(parsed.malformed.other, 1);
        // The legacy count stays the sum of the breakdown.
        assert_eq!(parsed.skipped, parsed.malformed.total());
        let mut merged = parsed.malformed;
        merged.merge(&parsed.malformed);
        assert_eq!(merged.total(), 8);
        for kind in MalformedKind::ALL {
            assert_eq!(merged.count(kind), 2, "{}", kind.as_str());
        }
    }

    #[test]
    fn capped_reader_passes_normal_lines() {
        let mut r = &b"one\ntwo\nthree"[..];
        let mut buf = Vec::new();
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line(4)
        );
        assert_eq!(buf, b"one\n");
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line(4)
        );
        // Final line without newline: partial.
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Partial(5)
        );
        assert_eq!(buf, b"three");
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Eof
        );
    }

    #[test]
    fn capped_reader_discards_oversized_lines_without_buffering() {
        let mut data = vec![b'x'; 1000];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = io::Cursor::new(data);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Oversized(1001)
        );
        assert!(buf.len() <= 64, "oversized line must not be buffered");
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line(3)
        );
        assert_eq!(buf, b"ok\n");
    }

    #[test]
    fn capped_reader_handles_oversized_at_eof() {
        let mut r = io::Cursor::new(vec![b'y'; 500]);
        let mut buf = Vec::new();
        assert_eq!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Oversized(500)
        );
    }

    #[test]
    fn capped_reader_cap_counts_the_newline() {
        // A line of exactly `cap` bytes, newline included, is kept; one
        // byte more is discarded whether or not the newline fits the read.
        for (line, want) in [
            (&b"1234567\n"[..], LineRead::Line(8)),
            (b"12345678\n", LineRead::Oversized(9)),
            (b"12345678", LineRead::Partial(8)),
            (b"123456789", LineRead::Oversized(9)),
        ] {
            let mut input = [line, b"next\n"].concat();
            if !line.ends_with(b"\n") {
                input.truncate(line.len());
            }
            let mut r = &input[..];
            let mut buf = Vec::new();
            assert_eq!(read_line_capped(&mut r, &mut buf, 8).unwrap(), want);
            let next = if line.ends_with(b"\n") {
                LineRead::Line(5)
            } else {
                LineRead::Eof
            };
            assert_eq!(read_line_capped(&mut r, &mut buf, 8).unwrap(), next);
        }
    }

    #[test]
    fn textual_uri_hashes_stably() {
        let line = r#"1.2.3.4 - - [12/Jan/2004:00:00:07 +0000] "GET /a/b.html HTTP/1.0" 200 5"#;
        let a = parse_line(line, WVU_BASE_EPOCH).unwrap().resource;
        let b = parse_line(line, WVU_BASE_EPOCH).unwrap().resource;
        assert_eq!(a, b);
    }
}
