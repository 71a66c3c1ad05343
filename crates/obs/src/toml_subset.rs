//! The TOML subset that `paper_targets.toml` and `slo.toml` are written
//! in (the workspace has no `toml` crate): `#` comments, `key = value`
//! pairs at the top level and under `[[section]]` array-of-table
//! headers of one name, with quoted-string, number and single-line
//! string-array values. That subset is all either format uses.
//!
//! [`parse`] frames the lines and parses the values; each file's own
//! module maps the keys and validates what they hold.

use std::fmt;

/// Parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Offending (or section-opening) line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A value: a quoted string, a number, or an array of quoted strings.
pub(crate) enum Value {
    Str(String),
    Num(f64),
    List(Vec<String>),
}

/// One `key = value` line.
pub(crate) struct Entry {
    pub line: usize,
    pub key: String,
    pub value: Value,
}

impl Entry {
    /// "`key` must be {what}", on this entry's line.
    pub fn type_error(&self, what: &str) -> ParseError {
        ParseError {
            line: self.line,
            message: format!("`{}` must be {what}", self.key),
        }
    }

    /// "unknown {place} key `key`", on this entry's line.
    pub fn unknown(&self, place: &str) -> ParseError {
        ParseError {
            line: self.line,
            message: format!("unknown {place} key `{}`", self.key),
        }
    }
}

/// One `[[section]]`: its header's line and its entries, in file order.
pub(crate) struct Section {
    pub line: usize,
    pub entries: Vec<Entry>,
}

/// A parsed file.
pub(crate) struct Document {
    /// Entries before the first section header.
    pub top: Vec<Entry>,
    /// The `[[section]]` tables, in file order.
    pub sections: Vec<Section>,
}

/// Parse `text`, whose only section header is `[[section]]`.
///
/// # Errors
///
/// A [`ParseError`] naming the line of any other header, a line that
/// is not `key = value`, or a value outside the subset.
pub(crate) fn parse(text: &str, section: &str) -> Result<Document, ParseError> {
    let header = format!("[[{section}]]");
    let mut doc = Document {
        top: Vec::new(),
        sections: Vec::new(),
    };
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = match raw_line.find('#') {
            // A # inside a quoted string would be cut here; both
            // formats keep their strings free of #.
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if line == header {
            doc.sections.push(Section {
                line: lineno,
                entries: Vec::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(ParseError {
                line: lineno,
                message: format!("unsupported section `{line}` (only {header})"),
            });
        }
        let Some((key, raw_value)) = line.split_once('=') else {
            return Err(ParseError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let entry = Entry {
            line: lineno,
            key: key.trim().to_string(),
            value: parse_value(raw_value, lineno)?,
        };
        match doc.sections.last_mut() {
            Some(open) => open.entries.push(entry),
            None => doc.top.push(entry),
        }
    }
    Ok(doc)
}

fn parse_value(raw: &str, line: usize) -> Result<Value, ParseError> {
    let raw = raw.trim();
    let err = |message: String| ParseError { line, message };
    if let Some(stripped) = raw.strip_prefix('[') {
        let inner = stripped
            .strip_suffix(']')
            .ok_or_else(|| err(format!("unterminated array: {raw}")))?;
        return inner
            .split(',')
            .map(str::trim)
            .filter(|piece| !piece.is_empty())
            .map(|piece| match parse_value(piece, line)? {
                Value::Str(s) => Ok(s),
                _ => Err(err("arrays may only hold quoted strings".to_string())),
            })
            .collect::<Result<_, _>>()
            .map(Value::List);
    }
    if let Some(stripped) = raw.strip_prefix('"') {
        let inner = stripped
            .strip_suffix('"')
            .ok_or_else(|| err(format!("unterminated string: {raw}")))?;
        // The formats never need escapes beyond \" — handle just that.
        return Ok(Value::Str(inner.replace("\\\"", "\"")));
    }
    raw.parse::<f64>().map(Value::Num).map_err(|_| {
        err(format!(
            "expected number, quoted string, or [array], got `{raw}`"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_top_level_entries_and_sections() {
        let doc = parse(
            "# c\nschema = 1\n\n[[t]]\nname = \"a\" # note\nxs = [\"p\", \"q\"]\n[[t]]\n",
            "t",
        )
        .unwrap();
        assert_eq!(doc.top.len(), 1);
        assert_eq!(doc.top[0].key, "schema");
        assert!(matches!(doc.top[0].value, Value::Num(n) if n == 1.0));
        assert_eq!(doc.sections.len(), 2);
        assert_eq!(doc.sections[0].line, 4);
        assert!(matches!(&doc.sections[0].entries[0].value, Value::Str(s) if s == "a"));
        assert!(matches!(&doc.sections[0].entries[1].value, Value::List(v) if v == &["p", "q"]));
        assert!(doc.sections[1].entries.is_empty());
    }

    #[test]
    fn refuses_what_the_subset_does_not_cover() {
        for (text, line, says) in [
            ("[table]\n", 1, "unsupported section"),
            ("a = 1\nnonsense\n", 2, "expected `key = value`"),
            ("a = \"open\n", 1, "unterminated string"),
            ("a = [\"x\"\n", 1, "unterminated array"),
            ("a = [1]\n", 1, "only hold quoted strings"),
            ("a = bare\n", 1, "expected number"),
        ] {
            let err = parse(text, "t").err().expect(text);
            assert_eq!(err.line, line, "{text}");
            assert!(err.message.contains(says), "{text}: {err}");
        }
    }
}
