//! Metric sets, `error_rate` accounting and the one-line JSON result.

use std::fmt::Write as _;

use crate::catalog::{self, Entry};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `records_per_s`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `1/s`.
    pub unit: &'static str,
}

/// An ordered set of metrics; setting a name twice replaces it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Every metric of `entries`, in order, set to zero.
    pub fn zeroed(entries: &[Entry]) -> Self {
        Metrics(
            entries
                .iter()
                .map(|e| Metric {
                    name: e.name,
                    value: 0.0,
                    unit: e.unit,
                })
                .collect(),
        )
    }

    /// Set `name` to `value`, in the unit the catalogue gives it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric {
                name,
                value,
                unit: catalog::unit(name),
            }),
        }
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no metric is set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Names of metrics whose value is not finite.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect()
    }

    /// Fixed-width table, one metric a line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Work attempted and work analysed. Anything attempted but not
/// analysed — hub drops, sheds, malformed lines, failed `analyze`
/// calls — is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Records (or analyses) offered to the system.
    pub attempted: u64,
    /// Records (or analyses) that reached a result.
    pub analysed: u64,
}

impl Tally {
    /// Add one pass's counts.
    pub fn add(&mut self, attempted: u64, analysed: u64) {
        self.attempted += attempted;
        self.analysed += analysed;
    }

    /// Attempted but not analysed. Analysing more than was attempted
    /// (a duplicated record) is not a negative failure count; the
    /// output checks catch it instead.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.analysed)
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

/// Render a metric value as JSON: full round-trip precision, `null`
/// for values JSON cannot carry.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The one-line result object:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// `attempted` is reported as at least 1.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}
