//! The `&str` CLF parser that [`super::parse_line_bytes`] replaced, kept
//! as a test oracle: every input, fed through the old
//! `String::from_utf8_lossy` decoding and trims, must give the byte
//! parser's result. The oracle's date arithmetic wraps, as the old
//! parser's did in release builds.

use super::canonical::{canonical, Bail};
use super::{
    format_line, parse_log_lenient, MalformedBreakdown, MalformedKind, MONTHS, WVU_BASE_EPOCH,
};
use crate::record::{LogRecord, Method};
use crate::{Result, WeblogError};
use proptest::prelude::*;

fn parse_line(line: &str, base_epoch: i64) -> Result<LogRecord> {
    let bad = |reason: &str| WeblogError::ParseLine {
        line: 0,
        reason: reason.to_string(),
    };

    // host ident user [date tz] "request" status bytes
    let (host, rest) = line.split_once(' ').ok_or_else(|| bad("missing host"))?;
    let client = parse_ipv4(host).ok_or_else(|| bad("bad host address"))?;

    let open = rest.find('[').ok_or_else(|| bad("missing [date]"))?;
    let close = rest[open..]
        .find(']')
        .map(|i| i + open)
        .ok_or_else(|| bad("unterminated [date]"))?;
    let epoch = parse_clf_date(&rest[open + 1..close]).ok_or_else(|| bad("bad date"))?;

    let after_date = &rest[close + 1..];
    let q1 = after_date.find('"').ok_or_else(|| bad("missing request"))?;
    let q2 = after_date[q1 + 1..]
        .find('"')
        .map(|i| i + q1 + 1)
        .ok_or_else(|| bad("unterminated request"))?;
    let request = &after_date[q1 + 1..q2];
    let mut req_parts = request.split_whitespace();
    let method = method(req_parts.next().ok_or_else(|| bad("empty request"))?);
    let uri = req_parts.next().ok_or_else(|| bad("request missing URI"))?;
    let resource = uri
        .rsplit('/')
        .next()
        .and_then(|tail| tail.parse::<u32>().ok())
        .unwrap_or_else(|| fnv1a(uri));

    let mut tail = after_date[q2 + 1..].split_whitespace();
    let status: u16 = tail
        .next()
        .ok_or_else(|| bad("missing status"))?
        .parse()
        .map_err(|_| bad("bad status"))?;
    let bytes_tok = tail.next().ok_or_else(|| bad("missing bytes"))?;
    let bytes: u64 = if bytes_tok == "-" {
        0
    } else {
        bytes_tok.parse().map_err(|_| bad("bad byte count"))?
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

fn method(token: &str) -> Method {
    match token.to_ascii_uppercase().as_str() {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "HEAD" => Method::Head,
        _ => Method::Other,
    }
}

fn parse_ipv4(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut bytes = [0u8; 4];
    for b in &mut bytes {
        *b = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(u32::from_be_bytes(bytes))
}

fn parse_clf_date(s: &str) -> Option<i64> {
    let (datetime, tz) = match s.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut it = datetime.splitn(3, '/');
    let day: i64 = it.next()?.parse().ok()?;
    let mon_name = it.next()?;
    let month = MONTHS.iter().position(|m| *m == mon_name)? as i64 + 1;
    let mut rest = it.next()?.splitn(4, ':');
    let year: i64 = rest.next()?.parse().ok()?;
    let hh: i64 = rest.next()?.parse().ok()?;
    let mm: i64 = rest.next()?.parse().ok()?;
    let ss: i64 = rest.next()?.parse().ok()?;
    if !(1..=31).contains(&day) || hh > 23 || mm > 59 || ss > 60 {
        return None;
    }
    let days = days_from_civil(year, month, day);
    let mut epoch = days
        .wrapping_mul(86_400)
        .wrapping_add(hh.wrapping_mul(3_600))
        .wrapping_add(mm.wrapping_mul(60))
        .wrapping_add(ss);
    if let Some(tz) = tz {
        let sign: i64 = match tz.as_bytes().first()? {
            b'+' => 1,
            b'-' => -1,
            _ => return None,
        };
        let hhmm: i64 = tz[1..].parse().ok()?;
        let offset = (hhmm / 100)
            .wrapping_mul(3_600)
            .wrapping_add((hhmm % 100) * 60);
        epoch = epoch.wrapping_sub(sign.wrapping_mul(offset));
    }
    Some(epoch)
}

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

fn fnv1a(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The per-line glue `ClfSource` and both ingest loops used to share.
fn parse_raw_line(raw: &[u8], base_epoch: i64) -> Option<Result<LogRecord>> {
    let line = String::from_utf8_lossy(raw);
    let line = line.trim_end_matches(['\n', '\r']);
    if line.trim().is_empty() {
        return None;
    }
    Some(parse_line(line, base_epoch))
}

/// `parse_log_lenient` as it was, minus the metrics.
fn lenient(text: &str, base_epoch: i64) -> (Vec<LogRecord>, MalformedBreakdown) {
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
    (records, malformed)
}

/// Every `char::is_whitespace` character: 6 ASCII, 19 not.
const WHITESPACE: [char; 25] = [
    '\t', '\n', '\u{B}', '\u{C}', '\r', ' ', '\u{85}', '\u{A0}', '\u{1680}', '\u{2000}',
    '\u{2001}', '\u{2002}', '\u{2003}', '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}',
    '\u{2009}', '\u{200A}', '\u{2028}', '\u{2029}', '\u{202F}', '\u{205F}', '\u{3000}',
];

/// Characters next to the whitespace set in code-point or encoding space
/// that are not whitespace.
const NEAR_WHITESPACE: [char; 14] = [
    '\u{84}', '\u{A1}', '\u{1681}', '\u{180E}', '\u{1FFF}', '\u{200B}', '\u{2027}', '\u{202A}',
    '\u{2030}', '\u{205E}', '\u{2060}', '\u{3001}', '\u{FEFF}', '\u{FFFD}',
];

/// Invalid UTF-8: lone continuation, truncated sequences, a surrogate,
/// overlong encodings of a space and of U+2000, and bytes never valid.
const INVALID_UTF8: [&[u8]; 9] = [
    b"\x80",
    b"\xC2",
    b"\xE2\x80",
    b"\xE2\x80\x20",
    b"\xED\xA0\x80",
    b"\xC0\xA0",
    b"\xE0\x80\xA0",
    b"\xF0\x80\x80\x80",
    b"\xFF\xFE",
];

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, one_in: u64) -> bool {
    rng.below(one_in) == 0
}

fn push_char(out: &mut Vec<u8>, c: char) {
    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
}

/// A field separator: mostly a space, sometimes any whitespace run.
fn separator(rng: &mut TestRng, out: &mut Vec<u8>) {
    if chance(rng, 3) {
        for _ in 0..1 + rng.below(3) {
            push_char(out, *pick(rng, &WHITESPACE));
        }
    } else {
        out.push(b' ');
    }
}

/// A `[date]` body: canonical, a near-repeat of the previous body that
/// differs only in seconds or timezone, or built from odd fields.
fn date_body(rng: &mut TestRng, prev: &mut Vec<u8>, second: &mut i64) -> Vec<u8> {
    const TZ: [&str; 16] = [
        "+0000",
        "-0000",
        "+0100",
        "-0400",
        "+0530",
        "+-0100",
        "++0100",
        "+",
        "",
        "0000",
        "+99999",
        "-9223372036854775808",
        "+9223372036854775807",
        "+00000000000000000000001",
        "+0000 ",
        "+9223372036854775808",
    ];
    let body = match rng.below(6) {
        0 | 1 if !prev.is_empty() => {
            // Near-repeat: same body, or one differing in the last
            // seconds digit or in the timezone.
            let mut body = prev.clone();
            match rng.below(3) {
                0 => {}
                1 => {
                    if let Some(i) = body.iter().position(|&b| b == b' ') {
                        if i > 0 && body[i - 1].is_ascii_digit() {
                            body[i - 1] = b'0' + (body[i - 1] - b'0' + 1) % 10;
                        }
                    }
                }
                _ => {
                    if let Some(i) = body.iter().position(|&b| b == b' ') {
                        body.truncate(i + 1);
                        body.extend_from_slice(pick(rng, &TZ).as_bytes());
                    }
                }
            }
            body
        }
        0..=3 => {
            *second += rng.below(3) as i64;
            let rec = LogRecord::new(*second as f64, 1, Method::Get, 1, 200, 1);
            let line = format_line(&rec, WVU_BASE_EPOCH);
            let (open, close) = (line.find('[').unwrap(), line.find(']').unwrap());
            let mut body = line.as_bytes()[open + 1..close].to_vec();
            if chance(rng, 4) {
                let i = body.iter().position(|&b| b == b' ').unwrap();
                body.truncate(i + 1);
                body.extend_from_slice(pick(rng, &TZ).as_bytes());
            }
            body
        }
        _ => {
            const DAY: [&str; 8] = ["12", "+07", "7", "007", "0", "32", "-1", "31"];
            const MON: [&str; 6] = ["Jan", "Feb", "Dec", "jan", "JAN", "Foo"];
            const YEAR: [&str; 10] = [
                "2004",
                "+2004",
                "-2004",
                "0",
                "99999999999",
                "9223372036854775807",
                "-9223372036854775808",
                "9223372036854775808",
                "1970",
                "-1",
            ];
            const HMS: [&str; 12] = [
                "00",
                "23",
                "24",
                "59",
                "60",
                "61",
                "+05",
                "-5",
                "-9223372036854775808",
                "59:00",
                "",
                "007",
            ];
            let mut body = format!(
                "{}/{}/{}:{}:{}:{}",
                pick(rng, &DAY),
                pick(rng, &MON),
                pick(rng, &YEAR),
                pick(rng, &HMS),
                pick(rng, &HMS),
                pick(rng, &HMS)
            )
            .into_bytes();
            if !chance(rng, 4) {
                body.push(b' ');
                body.extend_from_slice(pick(rng, &TZ).as_bytes());
            }
            body
        }
    };
    prev.clone_from(&body);
    body
}

/// A line assembled from adversarial field values.
fn built_line(rng: &mut TestRng, prev_date: &mut Vec<u8>, second: &mut i64) -> Vec<u8> {
    const HOST: [&str; 13] = [
        "10.0.3.17",
        "+1.2.3.4",
        "001.002.003.004",
        "255.255.255.255",
        "256.0.0.1",
        "1.2.3",
        "1.2.3.4.5",
        "",
        "-1.2.3.4",
        "1..3.4",
        "a.b.c.d",
        "1.2.3.+",
        "1.2.3.4\u{A0}",
    ];
    const METHOD: [&str; 12] = [
        "GET", "get", "GeT", "POST", "post", "HEAD", "hEaD", "PUT", "DELETE", "G\u{C9}T", "GETS",
        "OTHER",
    ];
    const URI: [&str; 16] = [
        "/r/42",
        "/r/+42",
        "/r/0042",
        "/r/4294967295",
        "/r/4294967296",
        "/r/-1",
        "/a/b.html",
        "/",
        "noslash",
        "7",
        "/r/42/",
        "/\u{E9}t\u{E9}",
        "/r/4\u{200B}2",
        "/r/\u{661}\u{662}",
        "/r/+",
        "/r/99999999999999999999",
    ];
    const STATUS: [&str; 14] = [
        "200",
        "+200",
        "0200",
        "099",
        "42",
        "1000",
        "65535",
        "65536",
        "-1",
        "+",
        "2x0",
        "99999999999999999999999",
        "0",
        "+0",
    ];
    const BYTES: [&str; 9] = [
        "-",
        "--",
        "+5",
        "0",
        "18446744073709551615",
        "18446744073709551616",
        "-5",
        "+",
        "0000000000000000000000012",
    ];
    let mut line = Vec::new();
    if chance(rng, 2) {
        let quad = rng.next_u64() as u32;
        let [a, b, c, d] = quad.to_be_bytes();
        line.extend_from_slice(format!("{a}.{b}.{c}.{d}").as_bytes());
    } else {
        line.extend_from_slice(pick(rng, &HOST).as_bytes());
    }
    line.extend_from_slice(if chance(rng, 8) { b"\t- - " } else { b" - - " });
    line.push(b'[');
    line.extend_from_slice(&date_body(rng, prev_date, second));
    line.extend_from_slice(b"] \"");
    if chance(rng, 6) {
        separator(rng, &mut line);
    }
    // One request in twelve is all whitespace.
    if !chance(rng, 12) {
        line.extend_from_slice(pick(rng, &METHOD).as_bytes());
        separator(rng, &mut line);
        if chance(rng, 8) {
            line.extend_from_slice(b"/r/");
            line.extend_from_slice(pick::<&[u8]>(rng, &INVALID_UTF8));
        } else {
            line.extend_from_slice(pick(rng, &URI).as_bytes());
        }
        if !chance(rng, 5) {
            separator(rng, &mut line);
            line.extend_from_slice(b"HTTP/1.0");
        }
    }
    line.push(b'"');
    separator(rng, &mut line);
    if chance(rng, 3) {
        line.extend_from_slice((rng.next_u64() >> rng.below(64)).to_string().as_bytes());
    } else {
        line.extend_from_slice(pick(rng, &STATUS).as_bytes());
    }
    separator(rng, &mut line);
    line.extend_from_slice(pick(rng, &BYTES).as_bytes());
    if chance(rng, 4) {
        separator(rng, &mut line);
        line.extend_from_slice(b"extra \"field\"");
    }
    line
}

/// Flip, insert, delete or truncate bytes.
fn mutate(rng: &mut TestRng, line: &mut Vec<u8>) {
    let at = |rng: &mut TestRng, len: usize| rng.below(len as u64 + 1) as usize;
    match rng.below(4) {
        0 if !line.is_empty() => {
            let i = at(rng, line.len() - 1);
            line[i] ^= 1 + rng.below(255) as u8;
        }
        1 => {
            let i = at(rng, line.len());
            let mut insert = Vec::new();
            match rng.below(5) {
                0 => push_char(&mut insert, *pick(rng, &WHITESPACE)),
                1 => push_char(&mut insert, *pick(rng, &NEAR_WHITESPACE)),
                2 => insert.extend_from_slice(pick::<&[u8]>(rng, &INVALID_UTF8)),
                3 => insert.push(*pick(rng, b"[]\" /:+-0")),
                _ => insert.push(rng.next_u64() as u8),
            }
            line.splice(i..i, insert);
        }
        2 if !line.is_empty() => {
            let i = at(rng, line.len() - 1);
            let n = 1 + rng.below(4) as usize;
            line.drain(i..(i + n).min(line.len()));
        }
        _ => {
            let i = at(rng, line.len());
            line.truncate(i);
        }
    }
}

/// A batch of raw lines, terminators included, in log order: date bodies
/// repeat and nearly repeat (only the seconds or the timezone differ).
struct RawLines;

impl Strategy for RawLines {
    type Value = Vec<Vec<u8>>;

    fn gen_value(&self, rng: &mut TestRng) -> Vec<Vec<u8>> {
        const END: [&[u8]; 6] = [b"\n", b"\r\n", b"", b"\r", b"\r\r\n", b"\n\r"];
        let mut prev_date = Vec::new();
        let mut second = rng.below(86_400 * 400) as i64;
        (0..1 + rng.below(48))
            .map(|_| {
                let mut line = match rng.below(8) {
                    0..=2 => {
                        second += rng.below(3) as i64;
                        let rec = LogRecord::new(
                            second as f64,
                            rng.next_u64() as u32,
                            *pick(
                                rng,
                                &[Method::Get, Method::Post, Method::Head, Method::Other],
                            ),
                            rng.next_u64() as u32,
                            rng.next_u64() as u16,
                            rng.next_u64() >> rng.below(64),
                        );
                        format_line(&rec, WVU_BASE_EPOCH).into_bytes()
                    }
                    3..=5 => built_line(rng, &mut prev_date, &mut second),
                    6 => {
                        // Blank, or whitespace around one stray character.
                        let mut line = Vec::new();
                        for _ in 0..rng.below(4) {
                            push_char(&mut line, *pick(rng, &WHITESPACE));
                        }
                        if chance(rng, 3) {
                            push_char(&mut line, *pick(rng, &NEAR_WHITESPACE));
                        }
                        line
                    }
                    _ => {
                        let mut line = built_line(rng, &mut prev_date, &mut second);
                        line.splice(0..0, pick(rng, &INVALID_UTF8).iter().copied());
                        line
                    }
                };
                if chance(rng, 2) {
                    for _ in 0..1 + rng.below(3) {
                        mutate(rng, &mut line);
                    }
                }
                line.extend_from_slice(pick::<&[u8]>(rng, &END));
                line
            })
            .collect()
    }
}

fn same_record(a: &LogRecord, b: &LogRecord) -> bool {
    a.timestamp.to_bits() == b.timestamp.to_bits()
        && a.client == b.client
        && a.method == b.method
        && a.resource == b.resource
        && a.status == b.status
        && a.bytes == b.bytes
}

fn same_result(a: &Result<LogRecord>, b: &Result<LogRecord>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => same_record(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

#[test]
fn whitespace_table_is_char_is_whitespace() {
    let mut found = Vec::new();
    for c in (0..=char::MAX as u32).filter_map(char::from_u32) {
        let mut buf = [0; 4];
        let enc = c.encode_utf8(&mut buf).as_bytes();
        let want = if c.is_whitespace() { enc.len() } else { 0 };
        assert_eq!(super::whitespace_len(enc), want, "{c:?}");
        if c.is_whitespace() {
            found.push(c);
        }
    }
    assert_eq!(found, WHITESPACE);
}

#[test]
fn oracle_agrees_on_hand_picked_lines() {
    for line in [
        &b"10.0.3.17 - - [12/Jan/2004:00:00:07 +0000] \"GET /r/42 HTTP/1.0\" 200 2326"[..],
        b"10.0.3.17 - - [12/Jan/2004:00:00:07 +0100] \"GET /r/42 HTTP/1.0\" 200 2326",
        b"10.0.3.17 - - [12/Jan/2004:00:00:07 +0100] \"GET\xE2\x80\x80/a\xFF HTTP/1.0\" 70000 1",
        b"1.2.3.4 - - [12/Jan/9999999999999:00:00:07 -9223372036854775808] \"x y\" +200\xC2\x85+5",
        b"1.2.3.4 - - [12/Jan/2004:-5:00:07] \"x y\" 99 -",
        b"\xE2\x80\x80\xC2",
    ] {
        let old = parse_raw_line(line, WVU_BASE_EPOCH);
        let new = super::parse_raw_line(line, WVU_BASE_EPOCH);
        let same = match (&old, &new) {
            (Some(old), Some(new)) => same_result(old, new),
            (None, None) => true,
            _ => false,
        };
        assert!(same, "{}: {old:?} vs {new:?}", line.escape_ascii());
    }
}

/// The generator reaches every outcome: each error reason, records,
/// blank lines, and a date body repeated with only its timezone changed.
#[test]
fn generator_reaches_every_outcome() {
    let mut rng = TestRng::deterministic("generator_reaches_every_outcome");
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..256 {
        let mut prev: Option<(Vec<u8>, Vec<u8>)> = None;
        for raw in RawLines.gen_value(&mut rng) {
            seen.insert(match parse_raw_line(&raw, WVU_BASE_EPOCH) {
                None => "blank".to_string(),
                Some(Ok(_)) => "ok".to_string(),
                Some(Err(WeblogError::ParseLine { reason, .. })) => reason,
                Some(Err(e)) => e.to_string(),
            });
            let line = String::from_utf8_lossy(&raw);
            let body = line
                .split_once('[')
                .and_then(|(_, rest)| rest.split_once(']'))
                .and_then(|(body, _)| body.split_once(' '));
            if let Some((datetime, tz)) = body {
                let cur = (datetime.as_bytes().to_vec(), tz.as_bytes().to_vec());
                if prev.as_ref().is_some_and(|p| p.0 == cur.0 && p.1 != cur.1) {
                    seen.insert("timezone-only change".to_string());
                }
                prev = Some(cur);
            }
        }
    }
    for want in [
        "blank",
        "ok",
        "timezone-only change",
        "missing host",
        "bad host address",
        "missing [date]",
        "unterminated [date]",
        "bad date",
        "missing request",
        "unterminated request",
        "empty request",
        "request missing URI",
        "missing status",
        "bad status",
        "missing bytes",
        "bad byte count",
    ] {
        assert!(seen.contains(want), "never generated: {want}; saw {seen:?}");
    }
}

/// The generator reaches the canonical reader's every outcome: lines it
/// reads, and a give-up at each of its bail-out points. Wherever it reads
/// a line, the general grammar reads the same record.
#[test]
fn generator_reaches_every_canonical_outcome() {
    let mut rng = TestRng::deterministic("generator_reaches_every_canonical_outcome");
    let mut seen = std::collections::BTreeMap::new();
    for _ in 0..256 {
        for raw in RawLines.gen_value(&mut rng) {
            let mut line = &raw[..];
            while let [rest @ .., b'\n' | b'\r'] = line {
                line = rest;
            }
            let outcome = canonical(line, WVU_BASE_EPOCH);
            if let Ok(rec) = &outcome {
                let general = super::fields(line, WVU_BASE_EPOCH);
                assert!(
                    general.as_ref().is_ok_and(|g| same_record(g, rec)),
                    "{}: canonical {rec:?}, general {general:?}",
                    line.escape_ascii()
                );
            }
            *seen.entry(outcome.err()).or_insert(0u32) += 1;
        }
    }
    for want in [
        None,
        Some(Bail::Host),
        Some(Bail::Date),
        Some(Bail::Method),
        Some(Bail::Uri),
        Some(Bail::Request),
        Some(Bail::Status),
        Some(Bail::Bytes),
    ] {
        assert!(
            seen.contains_key(&want),
            "never generated: {want:?}; saw {seen:?}"
        );
    }
}

/// Common-format lines as real servers log them (textual URIs, local
/// offsets either side of UTC, methods beyond the three named ones, a
/// leap second, the widest byte count) take the canonical path to the
/// record the `&str` oracle reads.
#[test]
fn canonical_reader_reads_real_world_shapes() {
    for line in [
        r#"199.72.81.55 - - [28/Aug/1995:00:00:01 -0400] "GET /images/ksclogo.gif HTTP/1.0" 304 0"#,
        r#"127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] "GET /apache_pb.gif HTTP/1.0" 200 2326"#,
        r#"1.2.3.4 - - [31/Dec/1999:23:59:60 +0530] "POST /cgi-bin/q?a=1&b=/2 HTTP/1.1" 500 12"#,
        r#"0.0.0.0 - - [01/Jan/1970:00:00:00 -0000] "HEAD / HTTP/1.0" 200 0"#,
        r#"255.255.255.255 - - [29/Feb/2004:12:00:00 +1400] "PROPFIND /dav/ HTTP/1.1" 207 18446744073709551615"#,
        r#"10.1.2.3 - - [12/Jan/2004:00:00:07 -1230] "GET /r/42 HTTP/1.0" 200 2326"#,
    ] {
        let oracle = parse_line(line, WVU_BASE_EPOCH).unwrap();
        let back = canonical(line.as_bytes(), WVU_BASE_EPOCH);
        assert!(
            back.as_ref().is_ok_and(|b| same_record(b, &oracle)),
            "{line}: {back:?}, oracle {oracle:?}"
        );
    }
}

/// Every line `format_line` writes for a date in years 1000–9999 takes
/// the canonical path to the record it was written from, so a change that
/// silently sends such lines to the general grammar fails here instead of
/// only slowing the drain down.
#[test]
fn every_formatted_line_is_canonical() {
    // 01-Jan-1000 and 31-Dec-9999 23:59:59 UTC.
    const SPAN: (i64, i64) = (-30_610_224_000, 253_402_300_799);
    let mut rng = TestRng::deterministic("every_formatted_line_is_canonical");
    let methods = [Method::Get, Method::Post, Method::Head, Method::Other];
    for case in 0..4096u64 {
        let seconds = match case {
            0 => SPAN.0,
            1 => SPAN.1,
            _ => SPAN.0 + rng.below((SPAN.1 - SPAN.0) as u64 + 1) as i64,
        };
        let base_epoch = rng.below(2_000_000_000) as i64;
        let rec = LogRecord::new(
            (seconds - base_epoch) as f64 + rng.next_f64() * 0.999,
            rng.next_u64() as u32,
            *pick(&mut rng, &methods),
            rng.next_u64() as u32,
            rng.next_u64() as u16,
            rng.next_u64() >> rng.below(64),
        );
        let line = format_line(&rec, base_epoch);
        let back = canonical(line.as_bytes(), base_epoch);
        let want = LogRecord {
            timestamp: rec.timestamp.floor(),
            ..rec
        };
        assert!(
            back.as_ref().is_ok_and(|b| same_record(b, &want)),
            "{line}: {back:?}, want {want:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn byte_parser_matches_the_str_parser(lines in RawLines) {
            for raw in &lines {
            let old = parse_raw_line(raw, WVU_BASE_EPOCH);
            let new = super::parse_raw_line(raw, WVU_BASE_EPOCH);
            let same = match (&old, &new) {
                (Some(old), Some(new)) => same_result(old, new),
                (None, None) => true,
                _ => false,
            };
            prop_assert!(same, "{}: oracle {old:?}, parser {new:?}", raw.escape_ascii());
            // The one-off entry point agrees on the decoded line too.
            let text = String::from_utf8_lossy(raw);
            let text = text.trim_end_matches(['\n', '\r']);
            prop_assert!(
                same_result(&parse_line(text, WVU_BASE_EPOCH), &super::parse_line(text, WVU_BASE_EPOCH)),
                "parse_line {}",
                raw.escape_ascii()
            );
        }
        // The whole batch as one text, through one lenient parser.
        let text = String::from_utf8_lossy(&lines.concat()).into_owned();
        let (records, malformed) = lenient(&text, WVU_BASE_EPOCH);
        let parsed = parse_log_lenient(&text, WVU_BASE_EPOCH);
        prop_assert_eq!(parsed.malformed, malformed);
        prop_assert_eq!(parsed.records.len(), records.len());
        for (a, b) in parsed.records.iter().zip(&records) {
            prop_assert!(same_record(a, b), "{a:?} vs {b:?}");
        }
    }
}
