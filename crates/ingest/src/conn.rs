//! Per-connection protocol handling.
//!
//! One accepted socket speaks one of two protocols, sniffed from its
//! first bytes:
//!
//! - **Line protocol** (syslog-style): raw CLF lines, newline
//!   terminated, streamed for the life of the connection. This is the
//!   high-throughput path — the connection thread parses lines locally
//!   and hands the hub batches of records, so k connections parse on k
//!   cores and only the merge is serialized.
//! - **HTTP POST batches**: `POST /ingest` with a CLF-lines body
//!   (parsed through the same line machinery), answered with a JSON
//!   accounting of what was accepted. Parsing reuses
//!   [`webpuzzle_obs::http`] — the same request parser the telemetry
//!   endpoint runs — under the same size/timeout limits.
//!
//! Both paths hand each line's raw bytes to
//! [`webpuzzle_weblog::clf::parse_raw_line`]: no UTF-8 decoding, and
//! invalid bytes parse as their `String::from_utf8_lossy` decoding would.
//!
//! Robustness rules, shared by both paths: lines longer than
//! `max_line_bytes` are discarded-to-newline and counted
//! (`ingest/lines_oversized`); a partial line cut off by a disconnect
//! is counted (`ingest/lines_torn`) unless it happens to parse (a
//! sender may legitimately omit the final newline); malformed lines are
//! skipped and counted by cause under lenient parsing, or end the
//! connection under strict. Nothing in this module panics on hostile
//! input.
//!
//! **Admission priority** is declared in-band: a line-protocol client
//! sends a `#priority <high|normal|low>` control line (any point in the
//! stream, conventionally first), an HTTP client sets the
//! `X-Ingest-Priority` header. Unknown or missing declarations leave
//! the source at [`Priority::Normal`]; under governor pressure the hub
//! sheds lowest-priority sources first.

use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use webpuzzle_obs::http::{self, HttpError, HttpLimits};
use webpuzzle_obs::metrics;
use webpuzzle_weblog::clf::parse_raw_line;
use webpuzzle_weblog::{LogRecord, MalformedKind, WeblogError};

use crate::hub::{IngestHub, Priority, SourceHandle};

/// Per-connection parsing configuration.
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Base epoch (Unix seconds) CLF timestamps are made relative to —
    /// must match the analyzer's, or sessions shift.
    pub base_epoch: i64,
    /// Skip-and-count malformed lines instead of ending the connection.
    pub lenient: bool,
    /// Hard cap on one line's length; longer lines are discarded to the
    /// next newline and counted.
    pub max_line_bytes: usize,
    /// Records per hub push (amortizes the merge lock).
    pub batch_records: usize,
    /// Socket read timeout for the line protocol. `None` waits forever
    /// (live tailing has quiet stretches); the watermark stall grace is
    /// what protects the merge from a silent peer.
    pub read_timeout: Option<Duration>,
    /// Limits for the HTTP POST path.
    pub http_limits: HttpLimits,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            base_epoch: 0,
            lenient: true,
            max_line_bytes: 16 * 1024,
            batch_records: 256,
            read_timeout: None,
            http_limits: HttpLimits::default(),
        }
    }
}

/// One capped line read.
enum LineRead {
    /// A complete, newline-terminated line of this many wire bytes.
    Line(usize),
    /// EOF with leftover bytes and no final newline.
    Partial(usize),
    /// Line exceeded the cap; this many bytes were discarded.
    Oversized(usize),
    /// Clean EOF.
    Eof,
}

/// `read_until(b'\n')` with a hard length cap: an over-long line is
/// discarded (streaming, bounded memory) up to its terminating newline
/// instead of being buffered.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> io::Result<LineRead> {
    buf.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Partial(buf.len())
            });
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let take = i + 1;
                if buf.len() + take > cap {
                    let dropped = buf.len() + take;
                    reader.consume(take);
                    return Ok(LineRead::Oversized(dropped));
                }
                buf.extend_from_slice(&available[..take]);
                reader.consume(take);
                return Ok(LineRead::Line(buf.len()));
            }
            None => {
                let take = available.len();
                if buf.len() + take > cap {
                    // Discard the rest of this line without buffering it.
                    let mut dropped = buf.len() + take;
                    reader.consume(take);
                    buf.clear();
                    loop {
                        let chunk = match reader.fill_buf() {
                            Ok(b) => b,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) => return Err(e),
                        };
                        if chunk.is_empty() {
                            return Ok(LineRead::Oversized(dropped));
                        }
                        match chunk.iter().position(|&b| b == b'\n') {
                            Some(i) => {
                                dropped += i + 1;
                                reader.consume(i + 1);
                                return Ok(LineRead::Oversized(dropped));
                            }
                            None => {
                                dropped += chunk.len();
                                let n = chunk.len();
                                reader.consume(n);
                            }
                        }
                    }
                }
                buf.extend_from_slice(available);
                reader.consume(take);
            }
        }
    }
}

/// Handle one accepted connection to completion. Never panics on
/// malformed or truncated input; every anomaly is counted.
pub(crate) fn handle_connection(stream: TcpStream, hub: Arc<IngestHub>, cfg: &ConnConfig) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    if let Err(e) = stream.set_read_timeout(cfg.read_timeout) {
        webpuzzle_obs::warn(&format!("ingest: set_read_timeout failed for {peer}: {e}"));
        return;
    }
    // The reader consumes the stream; HTTP responses go through a
    // clone of the same socket.
    let write_half = stream.try_clone();
    let mut reader = BufReader::with_capacity(64 * 1024, stream);

    // Protocol sniff: enough bytes to recognize an HTTP method verb.
    let mut sniff = Vec::with_capacity(8);
    let mut byte = [0u8; 1];
    while sniff.len() < 8 {
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => sniff.push(byte[0]),
            Err(_) => break,
        }
        if byte[0] == b'\n' {
            break;
        }
    }
    if sniff.is_empty() {
        return;
    }
    let is_http = [
        b"POST ".as_slice(),
        b"GET ".as_slice(),
        b"HEAD ".as_slice(),
        b"PUT ".as_slice(),
        b"DELETE ".as_slice(),
        b"OPTIONS ".as_slice(),
        b"PATCH ".as_slice(),
    ]
    .iter()
    .any(|verb| sniff.starts_with(verb));
    let mut chained = io::Cursor::new(sniff).chain(reader);

    if is_http {
        let Ok(mut write_half) = write_half else {
            return;
        };
        // HTTP requests run under the HTTP limits, not the open-ended
        // line-protocol timeout (the socket options are shared with the
        // reader side of the clone).
        if http::apply_timeouts(&write_half, &cfg.http_limits).is_err() {
            return;
        }
        handle_http(&mut chained, &mut write_half, &hub, cfg);
    } else {
        handle_line_protocol(&mut chained, &hub, cfg);
    }
}

/// The streaming line-protocol path.
fn handle_line_protocol<R: BufRead>(reader: &mut R, hub: &Arc<IngestHub>, cfg: &ConnConfig) {
    let handle = match hub.register_source("tcp") {
        Ok(h) => h,
        Err(e) => {
            metrics::counter("ingest/sources_rejected").incr();
            webpuzzle_obs::warn(&format!("ingest: line source rejected: {e}"));
            return;
        }
    };
    let mut buf = Vec::with_capacity(512);
    let mut batch: Vec<LogRecord> = Vec::with_capacity(cfg.batch_records);
    let mut bytes_acc = 0u64;
    let mut lines_acc = 0u64;
    let flush = |handle: &SourceHandle,
                 batch: &mut Vec<LogRecord>,
                 bytes_acc: &mut u64,
                 lines_acc: &mut u64| {
        if !batch.is_empty() {
            handle.push_batch(batch);
            batch.clear();
        }
        if *bytes_acc > 0 || *lines_acc > 0 {
            handle.note_consumed(*bytes_acc, *lines_acc);
            *bytes_acc = 0;
            *lines_acc = 0;
        }
    };
    loop {
        match read_line_capped(reader, &mut buf, cfg.max_line_bytes) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized(n)) => {
                bytes_acc += n as u64;
                lines_acc += 1;
                handle.note_oversized();
            }
            Ok(read @ (LineRead::Line(_) | LineRead::Partial(_))) => {
                let (n, complete) = match read {
                    LineRead::Line(n) => (n, true),
                    LineRead::Partial(n) => (n, false),
                    _ => unreachable!(),
                };
                bytes_acc += n as u64;
                lines_acc += 1;
                if let Some(decl) = buf.strip_prefix(b"#priority ") {
                    // In-band control line, not a record; an unknown
                    // class (or one that is not UTF-8) is counted
                    // malformed rather than ignored. `Priority::parse`
                    // trims, line terminator included.
                    match std::str::from_utf8(decl).ok().and_then(Priority::parse) {
                        Some(p) => handle.set_priority(p),
                        None => handle.note_malformed(MalformedKind::Other),
                    }
                } else if let Some(parsed) = parse_raw_line(&buf, cfg.base_epoch) {
                    match parsed {
                        Ok(rec) => {
                            batch.push(rec);
                            if batch.len() >= cfg.batch_records {
                                flush(&handle, &mut batch, &mut bytes_acc, &mut lines_acc);
                            }
                        }
                        Err(WeblogError::ParseLine { reason, .. }) => {
                            if !complete {
                                // A parse failure on an unterminated
                                // final line is a torn write, not a
                                // malformed record.
                                handle.note_torn();
                            } else if cfg.lenient {
                                handle.note_malformed(MalformedKind::classify(&reason));
                            } else {
                                handle.note_malformed(MalformedKind::classify(&reason));
                                webpuzzle_obs::warn(&format!(
                                    "ingest: strict mode closing connection on malformed line: \
                                     {reason}"
                                ));
                                break;
                            }
                        }
                        Err(_) => {
                            handle.note_malformed(MalformedKind::classify("unparseable"));
                        }
                    }
                }
                if !complete {
                    break;
                }
            }
            Err(e) => {
                metrics::counter("ingest/connection_errors").incr();
                webpuzzle_obs::warn(&format!("ingest: line connection error: {e}"));
                break;
            }
        }
    }
    flush(&handle, &mut batch, &mut bytes_acc, &mut lines_acc);
    drop(handle); // closes the source
}

/// The HTTP POST path: one request per connection, `Connection: close`.
fn handle_http<R: Read>(
    reader: &mut R,
    stream: &mut TcpStream,
    hub: &Arc<IngestHub>,
    cfg: &ConnConfig,
) {
    let req = match http::read_request(reader, &cfg.http_limits) {
        Ok(req) => req,
        Err(HttpError::HeadTooLarge { .. }) => {
            let _ = http::reject(
                stream,
                "431 Request Header Fields Too Large",
                b"request head too large\n",
            );
            return;
        }
        Err(HttpError::BodyTooLarge { .. }) => {
            let _ = http::reject(stream, "413 Content Too Large", b"request body too large\n");
            return;
        }
        Err(HttpError::Malformed(_)) => {
            let _ = http::reject(stream, "400 Bad Request", b"malformed request\n");
            return;
        }
        Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/ingest") => {
            let priority = req
                .header("x-ingest-priority")
                .and_then(Priority::parse)
                .unwrap_or_default();
            let handle = match hub.register_source_with("http", priority) {
                Ok(h) => h,
                Err(e) => {
                    metrics::counter("ingest/sources_rejected").incr();
                    let _ = http::write_response(
                        stream,
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        &[],
                        format!("{e}\n").as_bytes(),
                        true,
                    );
                    return;
                }
            };
            metrics::counter("ingest/http_batches").incr();
            let (accepted, skipped) = push_body_lines(&handle, &req.body, cfg);
            drop(handle);
            let body = format!("{{\"accepted\":{accepted},\"skipped\":{skipped}}}\n");
            let _ = http::write_response(
                stream,
                "200 OK",
                "application/json; charset=utf-8",
                &[],
                body.as_bytes(),
                true,
            );
        }
        ("GET", "/healthz") => {
            let _ = http::write_response(
                stream,
                "200 OK",
                "text/plain; charset=utf-8",
                &[],
                b"ok\n",
                true,
            );
        }
        ("POST", _) | ("GET", _) | ("HEAD", _) => {
            let _ = http::write_response(
                stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                &[],
                b"not found: POST /ingest or GET /healthz\n",
                true,
            );
        }
        _ => {
            let _ = http::write_response(
                stream,
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                &[("Allow", "GET, POST")],
                b"method not allowed\n",
                true,
            );
        }
    }
}

/// Parse a POST body as CLF lines through the same capped-line
/// machinery the wire path uses; returns (accepted, skipped).
fn push_body_lines(handle: &SourceHandle, body: &[u8], cfg: &ConnConfig) -> (u64, u64) {
    let mut reader = io::Cursor::new(body);
    let mut buf = Vec::with_capacity(512);
    let mut batch: Vec<LogRecord> = Vec::with_capacity(cfg.batch_records);
    let mut accepted = 0u64;
    let mut skipped = 0u64;
    let mut bytes = 0u64;
    let mut lines = 0u64;
    loop {
        match read_line_capped(&mut reader, &mut buf, cfg.max_line_bytes) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized(n)) => {
                bytes += n as u64;
                lines += 1;
                skipped += 1;
                handle.note_oversized();
            }
            Ok(LineRead::Line(n)) | Ok(LineRead::Partial(n)) => {
                bytes += n as u64;
                lines += 1;
                let Some(parsed) = parse_raw_line(&buf, cfg.base_epoch) else {
                    continue;
                };
                match parsed {
                    Ok(rec) => {
                        accepted += 1;
                        batch.push(rec);
                        if batch.len() >= cfg.batch_records {
                            handle.push_batch(&batch);
                            batch.clear();
                        }
                    }
                    Err(WeblogError::ParseLine { reason, .. }) => {
                        skipped += 1;
                        handle.note_malformed(MalformedKind::classify(&reason));
                    }
                    Err(_) => {
                        skipped += 1;
                        handle.note_malformed(MalformedKind::classify("unparseable"));
                    }
                }
            }
            Err(_) => break, // Cursor reads cannot fail, but stay total.
        }
    }
    if !batch.is_empty() {
        handle.push_batch(&batch);
    }
    handle.note_consumed(bytes, lines);
    (accepted, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_reader_passes_normal_lines() {
        let data = b"one\ntwo\nthree";
        let mut r = io::Cursor::new(&data[..]);
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line(4)
        ));
        assert_eq!(buf, b"one\n");
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line(4)
        ));
        // Final line without newline: partial.
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Partial(5)
        ));
        assert_eq!(buf, b"three");
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn capped_reader_discards_oversized_lines_without_buffering() {
        let mut data = vec![b'x'; 1000];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut r = io::Cursor::new(data);
        let mut buf = Vec::new();
        match read_line_capped(&mut r, &mut buf, 64).unwrap() {
            LineRead::Oversized(n) => assert_eq!(n, 1001),
            _ => panic!("expected oversized"),
        }
        assert!(buf.len() <= 64, "oversized line must not be buffered");
        assert!(matches!(
            read_line_capped(&mut r, &mut buf, 64).unwrap(),
            LineRead::Line(3)
        ));
        assert_eq!(buf, b"ok\n");
    }

    #[test]
    fn capped_reader_handles_oversized_at_eof() {
        let data = vec![b'y'; 500];
        let mut r = io::Cursor::new(data);
        let mut buf = Vec::new();
        match read_line_capped(&mut r, &mut buf, 64).unwrap() {
            LineRead::Oversized(n) => assert_eq!(n, 500),
            _ => panic!("expected oversized"),
        }
    }
}
