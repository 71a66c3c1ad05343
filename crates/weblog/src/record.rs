//! The in-memory log record.

use serde::{Deserialize, Serialize};
use std::fmt;

/// HTTP method of a logged request. Only the methods that matter for
/// workload analysis are distinguished; everything else folds into
/// [`Method::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Method {
    /// HTTP GET — the overwhelming majority of 1995–2004 Web traffic.
    #[default]
    Get,
    /// HTTP POST.
    Post,
    /// HTTP HEAD.
    Head,
    /// Anything else (PUT, OPTIONS, proprietary…).
    Other,
}

impl Method {
    /// The canonical token used in request lines.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Other => "OTHER",
        }
    }

    /// Parse a request-line token (ASCII case-insensitive); unknown methods
    /// map to [`Method::Other`].
    pub fn parse(token: &str) -> Method {
        Method::parse_bytes(token.as_bytes())
    }

    /// [`Method::parse`] on raw bytes: a token that is not valid UTF-8 is
    /// never a known method, so it maps to [`Method::Other`].
    pub fn parse_bytes(token: &[u8]) -> Method {
        if token.eq_ignore_ascii_case(b"GET") {
            Method::Get
        } else if token.eq_ignore_ascii_case(b"POST") {
            Method::Post
        } else if token.eq_ignore_ascii_case(b"HEAD") {
            Method::Head
        } else {
            Method::Other
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One request in a Web server log, stored compactly (24 bytes of payload)
/// so week-scale datasets (the paper's WVU log has 15.8 M requests) stay in
/// memory.
///
/// Clients and resources are interned as integer identifiers; the CLF
/// formatter renders them as synthetic IPv4 addresses and paths. This
/// mirrors the paper's NASA-Pub2 sanitized logs, where IPs were replaced by
/// unique identifiers — client *identity*, not the dotted quad, is what
/// sessionization needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogRecord {
    /// Seconds since the start of the observation window (sub-second
    /// precision allowed; real logs round to whole seconds).
    pub timestamp: f64,
    /// Interned client (user/IP) identifier.
    pub client: u32,
    /// HTTP method.
    pub method: Method,
    /// Interned resource (URI) identifier.
    pub resource: u32,
    /// HTTP status code.
    pub status: u16,
    /// Bytes transferred in the response body.
    pub bytes: u64,
}

impl LogRecord {
    /// Create a record.
    ///
    /// # Examples
    ///
    /// ```
    /// use webpuzzle_weblog::{LogRecord, Method};
    ///
    /// let r = LogRecord::new(12.5, 42, Method::Get, 7, 200, 2048);
    /// assert_eq!(r.status, 200);
    /// assert!(r.is_success());
    /// ```
    pub fn new(
        timestamp: f64,
        client: u32,
        method: Method,
        resource: u32,
        status: u16,
        bytes: u64,
    ) -> Self {
        LogRecord {
            timestamp,
            client,
            method,
            resource,
            status,
            bytes,
        }
    }

    /// Whether the response was a success (2xx or 3xx).
    pub fn is_success(&self) -> bool {
        (200..400).contains(&self.status)
    }

    /// Whether the response was an error (4xx or 5xx) — the records that
    /// come from the *error* log in the paper's merge step.
    pub fn is_error(&self) -> bool {
        self.status >= 400
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parse_roundtrip() {
        for m in [Method::Get, Method::Post, Method::Head] {
            assert_eq!(Method::parse(m.as_str()), m);
        }
        assert_eq!(Method::parse("get"), Method::Get);
        assert_eq!(Method::parse("DELETE"), Method::Other);
        assert_eq!(Method::default(), Method::Get);
    }

    #[test]
    fn method_parse_is_ascii_case_insensitive_and_exact() {
        for (token, want) in [
            ("GeT", Method::Get),
            ("pOsT", Method::Post),
            ("head", Method::Head),
            ("HEAD", Method::Head),
            ("", Method::Other),
            ("GETS", Method::Other),
            ("GE", Method::Other),
            (" GET", Method::Other),
            ("PUT", Method::Other),
            ("OTHER", Method::Other),
            // Only ASCII letters fold: non-ASCII look-alikes stay unknown.
            ("G\u{c9}T", Method::Other),
            ("\u{ff27}ET", Method::Other),
            ("HEA\u{1e0a}", Method::Other),
            ("GET\u{0}", Method::Other),
        ] {
            assert_eq!(Method::parse(token), want, "{token:?}");
            assert_eq!(Method::parse_bytes(token.as_bytes()), want, "{token:?}");
        }
        assert_eq!(Method::parse_bytes(b"G\xFFT"), Method::Other);
        assert_eq!(Method::parse_bytes(b"pos\xC3"), Method::Other);
    }

    #[test]
    fn status_classification() {
        assert!(LogRecord::new(0.0, 1, Method::Get, 1, 200, 0).is_success());
        assert!(LogRecord::new(0.0, 1, Method::Get, 1, 304, 0).is_success());
        assert!(LogRecord::new(0.0, 1, Method::Get, 1, 404, 0).is_error());
        assert!(LogRecord::new(0.0, 1, Method::Get, 1, 500, 0).is_error());
        assert!(!LogRecord::new(0.0, 1, Method::Get, 1, 404, 0).is_success());
    }

    #[test]
    fn record_is_compact() {
        // The size budget that keeps 16M-request weeks in memory.
        assert!(std::mem::size_of::<LogRecord>() <= 40);
    }
}
