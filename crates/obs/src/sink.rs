//! The message sink: where span closes, progress and messages go.
//!
//! Instrumented code reports through [`span_close`], [`progress`],
//! [`info`] and [`warn`]; the process-wide [`Mode`] decides how they
//! surface. The default is [`Mode::Off`] (silence), so library code can
//! report freely without polluting test output; binaries select
//! [`Mode::Human`] (human lines on stderr) or [`Mode::Json`] (one JSON
//! object per line, machine-readable) according to their flags. A
//! report reads the mode with one relaxed atomic load and takes no
//! lock.

use std::sync::atomic::{AtomicU8, Ordering};

use serde::{Number, Value};

/// How reports surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Discard everything (the default).
    Off,
    /// Human-readable lines on stderr; only the two outermost span
    /// levels are printed.
    Human,
    /// One JSON object per report on stderr, for log scrapers.
    Json,
}

/// Human mode prints spans at depth `< SPAN_DEPTH_LIMIT` only;
/// progress and messages always print.
const SPAN_DEPTH_LIMIT: usize = 2;

static MODE: AtomicU8 = AtomicU8::new(Mode::Off as u8);

/// Select the process-wide mode.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        m if m == Mode::Human as u8 => Mode::Human,
        m if m == Mode::Json as u8 => Mode::Json,
        _ => Mode::Off,
    }
}

/// One JSON line on stderr: `"type"` first, then `fields`.
fn json(kind: &str, fields: Vec<(&str, Value)>) {
    let value = Value::Object(
        std::iter::once(("type".to_string(), Value::Str(kind.into())))
            .chain(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
            .collect(),
    );
    eprintln!("{}", serde_json::to_string(&value).unwrap_or_default());
}

/// A span finished; `depth` is its nesting level at entry (0 = root).
pub fn span_close(name: &str, depth: usize, nanos: u64) {
    match mode() {
        Mode::Off => {}
        Mode::Human if depth >= SPAN_DEPTH_LIMIT => {}
        Mode::Human => eprintln!(
            "[span] {:indent$}{name} {:.1} ms",
            "",
            nanos as f64 / 1e6,
            indent = depth * 2,
        ),
        Mode::Json => json(
            "span",
            vec![
                ("name", Value::Str(name.into())),
                ("depth", Value::Num(Number::U(depth as u64))),
                ("nanos", Value::Num(Number::U(nanos))),
            ],
        ),
    }
}

/// Rate-limited progress from a long-running stage: `done` units so
/// far, of `total` when known.
pub fn progress(stage: &str, done: u64, total: Option<u64>) {
    match mode() {
        Mode::Off => {}
        Mode::Human => match total {
            Some(total) => eprintln!("[progress] {stage}: {done}/{total}"),
            None => eprintln!("[progress] {stage}: {done}"),
        },
        Mode::Json => json(
            "progress",
            vec![
                ("stage", Value::Str(stage.into())),
                ("done", Value::Num(Number::U(done))),
                (
                    "total",
                    total.map_or(Value::Null, |t| Value::Num(Number::U(t))),
                ),
            ],
        ),
    }
}

/// A free-form line at `level` (`"info"` or `"warn"`).
fn message(level: &str, text: &str) {
    match mode() {
        Mode::Off => {}
        Mode::Human => eprintln!("[{level}] {text}"),
        Mode::Json => json(
            "message",
            vec![
                ("level", Value::Str(level.into())),
                ("text", Value::Str(text.into())),
            ],
        ),
    }
}

/// Emit an informational message.
pub fn info(text: &str) {
    message("info", text);
}

/// Emit a warning message.
pub fn warn(text: &str) {
    message("warn", text);
}
