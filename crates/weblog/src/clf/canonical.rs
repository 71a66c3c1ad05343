//! The canonical-layout reader in front of the general CLF grammar.
//!
//! One forward pass over the line shape [`super::format_line`] writes and
//! Apache/NCSA servers log in their common format:
//!
//! ```text
//! a.b.c.d … [dd/Mon/yyyy:HH:MM:SS ±hhmm] "METHOD uri …" status bytes
//! ```
//!
//! It decodes each field as it meets it and gives the line up, with the
//! place it stopped, at the first byte that does not fit. Every line it
//! reads is one the general grammar ([`super::fields`]) reads to the same
//! record: each field it accepts is a subset of what the general grammar
//! accepts there, and each delimiter it requires is the one the general
//! grammar would find first. It never reports an error; only the general
//! grammar does, so error reasons have one source.

use super::{clf_epoch, find, resource_id, MONTHS};
use crate::record::{LogRecord, Method};

/// Where the canonical reader gave a line up to the general grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Bail {
    /// Not four decimal octets joined by `.` and followed by a space.
    Host,
    /// No `[`, or not `dd/Mon/yyyy:HH:MM:SS ±hhmm] "` after it, or a
    /// date or time field out of range.
    Date,
    /// Not one or more upper-case ASCII letters followed by a space.
    Method,
    /// Not one or more printable ASCII bytes other than `"`, followed by
    /// a space.
    Uri,
    /// No closing `"` after the URI.
    Request,
    /// Not a space and a `u16` in decimal digits after the closing `"`.
    Status,
    /// Not a space and a `u64` in decimal digits that end the line.
    Bytes,
}

/// `[` + `dd/Mon/yyyy:HH:MM:SS ±hhmm` + `] "`, from the byte after `[`.
const DATE_LEN: usize = 29;

/// Read one line (without its terminator) in the canonical layout.
pub(super) fn canonical(line: &[u8], base_epoch: i64) -> Result<LogRecord, Bail> {
    // The byte count ends the line: a line that does not end in a digit
    // (`-` bytes, trailing whitespace) is given up before any work.
    if !line.last().is_some_and(u8::is_ascii_digit) {
        return Err(Bail::Bytes);
    }
    let mut rest = line;
    let mut client = 0u32;
    for sep in [b'.', b'.', b'.', b' '] {
        let (octet, n) = leading_digits(rest).ok_or(Bail::Host)?;
        let octet = u8::try_from(octet).map_err(|_| Bail::Host)?;
        if rest.get(n) != Some(&sep) {
            return Err(Bail::Host);
        }
        client = client << 8 | u32::from(octet);
        rest = &rest[n + 1..];
    }

    // Ident and user run to the first `[`; the date sits at fixed offsets.
    let open = find(rest, b'[').ok_or(Bail::Date)?;
    let d = rest[open + 1..]
        .first_chunk::<DATE_LEN>()
        .ok_or(Bail::Date)?;
    if [d[2], d[6], d[11], d[14], d[17], d[20]] != *b"//::: " || d[26..] != *b"] \"" {
        return Err(Bail::Date);
    }
    let num = |at: usize, len: usize| fixed_digits(&d[at..at + len]).ok_or(Bail::Date);
    let month = MONTHS
        .iter()
        .position(|m| m.as_bytes() == &d[3..6])
        .ok_or(Bail::Date)? as i64
        + 1;
    let epoch = clf_epoch(
        num(7, 4)?,
        month,
        num(0, 2)?,
        [num(12, 2)?, num(15, 2)?, num(18, 2)?],
        Some((d[21], num(22, 4)?)),
    )
    .ok_or(Bail::Date)?;
    rest = &rest[open + 1 + DATE_LEN..];

    let m = rest
        .iter()
        .position(|b| !b.is_ascii_uppercase())
        .ok_or(Bail::Method)?;
    if m == 0 || rest[m] != b' ' {
        return Err(Bail::Method);
    }
    let method = match &rest[..m] {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        b"HEAD" => Method::Head,
        _ => Method::Other,
    };
    rest = &rest[m + 1..];

    let u = rest
        .iter()
        .position(|&b| !(b'!'..=b'~').contains(&b) || b == b'"')
        .ok_or(Bail::Uri)?;
    if u == 0 || rest[u] != b' ' {
        return Err(Bail::Uri);
    }
    let resource = resource_id(&rest[..u]);
    rest = &rest[u + 1..];

    // The protocol, up to the closing quote, is not read.
    let q = find(rest, b'"').ok_or(Bail::Request)?;
    rest = rest[q + 1..].strip_prefix(b" ").ok_or(Bail::Status)?;
    let (status, n) = leading_digits(rest).ok_or(Bail::Status)?;
    let status = u16::try_from(status).map_err(|_| Bail::Status)?;
    rest = rest[n..].strip_prefix(b" ").ok_or(Bail::Status)?;
    let (bytes, n) = leading_digits(rest).ok_or(Bail::Bytes)?;
    if n != rest.len() {
        return Err(Bail::Bytes);
    }

    Ok(LogRecord {
        timestamp: epoch.wrapping_sub(base_epoch) as f64,
        client,
        method,
        resource,
        status,
        bytes,
    })
}

/// The number spelled by the ASCII digits that start `s`, and how many
/// there are: at least one, and no overflow.
fn leading_digits(s: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    let mut n = 0;
    while let Some(&b) = s.get(n) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
        n += 1;
    }
    (n > 0).then_some((v, n))
}

/// A short field of ASCII digits only.
fn fixed_digits(s: &[u8]) -> Option<i64> {
    s.iter().try_fold(0i64, |v, &b| {
        b.is_ascii_digit().then(|| v * 10 + i64::from(b - b'0'))
    })
}
