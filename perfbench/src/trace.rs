//! In-memory spans and per-layer self-time accounting for the traced
//! run.
//!
//! The benchmark times every call it makes into a layer and adds the
//! duration to that layer's exact total; it also keeps a span (name,
//! start, end, parent) for every call, except that per-record calls are
//! kept only 1 in [`Tracer::sample_every`] so the span list stays small.
//! All layer calls of a traced pass are siblings under the pass's root
//! span, so a layer's self time is its total, and the root's own self
//! time is the `unattributed` remainder: the rows of an [`Accounting`]
//! always sum to the traced wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or step name, e.g. `weblog.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the parent span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Exact per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed duration, ns.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

/// Span recorder with exact per-layer totals.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, LayerTotal>,
    root: Option<usize>,
    sample_every: u64,
}

impl Tracer {
    /// A tracer keeping 1 in `sample_every` per-record spans.
    pub fn new(sample_every: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            root: None,
            sample_every: sample_every.max(1),
        }
    }

    /// Per-record span sampling stride.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Nanoseconds since the origin at `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open the root span of a traced pass.
    pub fn open_root(&mut self, name: &'static str, at: Instant) {
        let start = self.ns(at);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: None,
        });
        self.root = Some(self.spans.len() - 1);
    }

    /// Close the root span.
    pub fn close_root(&mut self, at: Instant) {
        let end = self.ns(at);
        if let Some(r) = self.root {
            self.spans[r].end_ns = end;
        }
    }

    /// Record one call into `layer` that ran from `start` to `end`.
    /// Every call counts toward the layer total; a per-record call is
    /// kept as a span only when it is the layer's 1-in-N sample.
    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant, per_record: bool) {
        let total = self.totals.entry(layer).or_default();
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        total.ns += dur;
        total.calls += 1;
        if !per_record || (total.calls - 1).is_multiple_of(self.sample_every) {
            let span = Span {
                name: layer,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.root,
            };
            self.spans.push(span);
        }
    }

    /// Time `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start, Instant::now(), false);
        out
    }

    /// Exact total of `layer` (zero when never called).
    pub fn total(&self, layer: &str) -> LayerTotal {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Root span duration, ns (0 before the root closes).
    pub fn wall_ns(&self) -> u64 {
        self.root
            .map(|r| self.spans[r].end_ns - self.spans[r].start_ns)
            .unwrap_or(0)
    }

    /// Self-time accounting of the traced pass.
    pub fn accounting(&self) -> Accounting {
        Accounting::new(
            self.wall_ns(),
            self.totals.iter().map(|(n, t)| (*n, t.ns)).collect(),
        )
    }

    /// The spans as JSON lines, preceded by one header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-layer self times of one traced pass plus the remainder no layer
/// claims. `rows` plus `unattributed_ns` equal `wall_ns` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accounting {
    /// Traced wall time, ns.
    pub wall_ns: u64,
    /// `(layer, self ns)`, by name.
    pub rows: Vec<(&'static str, u64)>,
    /// Wall time outside every layer span (negative only if layer spans
    /// overlapped, which the benchmark's sequential calls never do).
    pub unattributed_ns: i64,
}

impl Accounting {
    /// Account `rows` against `wall_ns`.
    pub fn new(wall_ns: u64, rows: Vec<(&'static str, u64)>) -> Self {
        let attributed: u64 = rows.iter().map(|(_, ns)| ns).sum();
        Accounting {
            wall_ns,
            unattributed_ns: wall_ns as i64 - attributed as i64,
            rows,
        }
    }

    /// Sum of the rows and the remainder (always `wall_ns`).
    pub fn total_ns(&self) -> i64 {
        self.rows.iter().map(|(_, ns)| *ns as i64).sum::<i64>() + self.unattributed_ns
    }

    /// Fixed-width table: one row per layer, then `unattributed` and the
    /// wall time, each with its share of the wall.
    pub fn render(&self) -> String {
        let wall = self.wall_ns.max(1) as f64;
        let mut out = String::new();
        let mut row = |name: &str, ns: i64| {
            let _ = writeln!(
                out,
                "  {name:<32} {:>12.3} ms {:>6.1}%",
                ns as f64 / 1e6,
                100.0 * ns as f64 / wall
            );
        };
        for (name, ns) in &self.rows {
            row(name, *ns as i64);
        }
        row("unattributed", self.unattributed_ns);
        row("= traced wall", self.wall_ns as i64);
        out
    }
}
