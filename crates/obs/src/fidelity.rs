//! Paper-fidelity scoreboard: compare a run's measured statistics
//! against checked-in targets.
//!
//! The pipeline records its headline numbers (Hurst exponents per
//! estimator, tail indices per method, Poisson rejection rates) as
//! `fidelity/...` gauges; a [`RunReport`] therefore carries them in its
//! `gauges` section. [`check`] compares those gauges against a
//! [`PaperTargets`] file (`paper_targets.toml` at the repo root, values
//! anchored to the paper's Tables 2–4 and Figures 6–10 with explicit
//! tolerance bands — see DESIGN.md for each band's provenance) and
//! produces a [`FidelityReport`] that names every out-of-tolerance
//! estimator. The `paper-check` binary turns that into a process exit
//! code, so CI can enforce paper fidelity on every change.
//!
//! The targets file is parsed by a deliberately small TOML-subset reader
//! (the container has no `toml` crate): comments, `key = value` pairs at
//! the top level, and `[[target]]` array-of-table sections with string /
//! float / integer values. That subset is all the format uses.

use std::fmt;
use std::path::Path;

use crate::metrics;
use crate::report::RunReport;

/// One expected statistic with its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityTarget {
    /// Gauge name in the run report, e.g. `fidelity/h/WVU/whittle`.
    pub metric: String,
    /// Expected value (calibrated run, anchored to the paper).
    pub value: f64,
    /// Allowed absolute deviation: `|measured - value| <= tol` passes.
    pub tol: f64,
    /// Where the expectation comes from (paper table/figure + rationale).
    pub source: String,
}

/// Parsed `paper_targets.toml`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PaperTargets {
    /// The exact command the targets are calibrated against.
    pub profile: String,
    /// All targets, in file order.
    pub targets: Vec<FidelityTarget>,
}

/// Parse error with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error was detected on.
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

/// A TOML-subset scalar.
enum TomlValue {
    Str(String),
    Num(f64),
}

fn parse_scalar(raw: &str, line: usize) -> Result<TomlValue, ParseError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(ParseError {
                line,
                message: format!("unterminated string: {raw}"),
            });
        };
        // The format never needs escapes beyond \" — handle just that.
        Ok(TomlValue::Str(inner.replace("\\\"", "\"")))
    } else {
        raw.parse::<f64>()
            .map(TomlValue::Num)
            .map_err(|_| ParseError {
                line,
                message: format!("expected number or quoted string, got `{raw}`"),
            })
    }
}

impl PaperTargets {
    /// Parse the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the offending line for syntax the
    /// subset doesn't cover, missing required keys, or non-positive
    /// tolerances.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut out = PaperTargets::default();
        // Pending `[[target]]` fields (opening line number, metric,
        // value, tol, source); flushed when a new [[target]] opens or at
        // end of input.
        type Pending = (usize, Option<String>, Option<f64>, Option<f64>, String);
        let mut current: Option<Pending> = None;

        fn flush(out: &mut PaperTargets, current: Option<Pending>) -> Result<(), ParseError> {
            let Some((line, metric, value, tol, source)) = current else {
                return Ok(());
            };
            let metric = metric.ok_or(ParseError {
                line,
                message: "[[target]] missing `metric`".to_string(),
            })?;
            let value = value.ok_or(ParseError {
                line,
                message: format!("[[target]] {metric} missing `value`"),
            })?;
            let tol = tol.ok_or(ParseError {
                line,
                message: format!("[[target]] {metric} missing `tol`"),
            })?;
            // `<=` alone would wave NaN through; a NaN band passes nothing.
            if tol.is_nan() || tol <= 0.0 {
                return Err(ParseError {
                    line,
                    message: format!("[[target]] {metric}: tol must be > 0, got {tol}"),
                });
            }
            out.targets.push(FidelityTarget {
                metric,
                value,
                tol,
                source,
            });
            Ok(())
        }

        for (i, raw_line) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw_line.find('#') {
                // A # inside a quoted string would be cut here; the
                // format keeps sources free of #.
                Some(pos) => &raw_line[..pos],
                None => raw_line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[target]]" {
                flush(&mut out, current.take())?;
                current = Some((lineno, None, None, None, String::new()));
                continue;
            }
            if line.starts_with('[') {
                return Err(ParseError {
                    line: lineno,
                    message: format!("unsupported section `{line}` (only [[target]])"),
                });
            }
            let Some((key, raw_value)) = line.split_once('=') else {
                return Err(ParseError {
                    line: lineno,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = key.trim();
            let value = parse_scalar(raw_value, lineno)?;
            match (&mut current, key) {
                (Some((_, metric, ..)), "metric") => match value {
                    TomlValue::Str(s) => *metric = Some(s),
                    TomlValue::Num(_) => {
                        return Err(ParseError {
                            line: lineno,
                            message: "`metric` must be a string".to_string(),
                        })
                    }
                },
                (Some((_, _, val, ..)), "value") => match value {
                    TomlValue::Num(n) => *val = Some(n),
                    TomlValue::Str(_) => {
                        return Err(ParseError {
                            line: lineno,
                            message: "`value` must be a number".to_string(),
                        })
                    }
                },
                (Some((_, _, _, tol, _)), "tol") => match value {
                    TomlValue::Num(n) => *tol = Some(n),
                    TomlValue::Str(_) => {
                        return Err(ParseError {
                            line: lineno,
                            message: "`tol` must be a number".to_string(),
                        })
                    }
                },
                (Some((.., source)), "source") => match value {
                    TomlValue::Str(s) => *source = s,
                    TomlValue::Num(n) => *source = format!("{n}"),
                },
                (Some(_), other) => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown [[target]] key `{other}`"),
                    })
                }
                (None, "profile") => {
                    if let TomlValue::Str(s) = value {
                        out.profile = s;
                    }
                }
                (None, "schema") => {} // reserved for future format bumps
                (None, other) => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("unknown top-level key `{other}`"),
                    })
                }
            }
        }
        flush(&mut out, current)?;
        Ok(out)
    }

    /// Read and parse a targets file.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, both as strings naming the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Outcome for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityCheck {
    /// The target compared against.
    pub target: FidelityTarget,
    /// Gauge value found in the report, `None` if absent.
    pub measured: Option<f64>,
    /// `measured - target.value` (NaN when the gauge is missing or NaN).
    pub drift: f64,
    /// Within tolerance?
    pub ok: bool,
}

/// Scoreboard over all targets.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// One check per target, in targets-file order.
    pub checks: Vec<FidelityCheck>,
}

impl FidelityReport {
    /// True when every target is within tolerance.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The failing checks.
    pub fn failures(&self) -> Vec<&FidelityCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }

    /// Fixed-width scoreboard table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>9} {:>9} {:>7} {:>8}  {}\n",
            "metric", "measured", "target", "tol", "drift", "status"
        ));
        for c in &self.checks {
            let measured = match c.measured {
                Some(v) if v.is_finite() => format!("{v:.3}"),
                Some(_) => "NaN".to_string(),
                None => "absent".to_string(),
            };
            out.push_str(&format!(
                "{:<44} {:>9} {:>9.3} {:>7.3} {:>+8.3}  {}\n",
                c.target.metric,
                measured,
                c.target.value,
                c.target.tol,
                c.drift,
                if c.ok { "ok" } else { "DRIFT" }
            ));
        }
        out
    }
}

/// Compare a run report's fidelity gauges against the targets.
///
/// Each comparison also sets a live `fidelity/drift/...` gauge (the
/// signed deviation), so a scrape of `/metrics` after a check shows
/// drift alongside the raw statistics. A missing or non-finite gauge
/// fails its check.
pub fn check(report: &RunReport, targets: &PaperTargets) -> FidelityReport {
    let checks = targets
        .targets
        .iter()
        .map(|t| {
            let measured = report
                .gauges
                .iter()
                .find(|g| g.name == t.metric)
                .map(|g| g.value);
            let drift = match measured {
                Some(v) => v - t.value,
                None => f64::NAN,
            };
            let ok = drift.is_finite() && drift.abs() <= t.tol;
            let drift_name = match t.metric.strip_prefix("fidelity/") {
                Some(rest) => format!("fidelity/drift/{rest}"),
                None => format!("fidelity/drift/{}", t.metric),
            };
            metrics::gauge(&drift_name).set(drift);
            FidelityCheck {
                target: t.clone(),
                measured,
                drift,
                ok,
            }
        })
        .collect();
    FidelityReport { checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::GaugeReport;
    use serde::Value;

    const SAMPLE: &str = r#"
# paper fidelity targets
schema = 1
profile = "repro --json --fast fig6"

[[target]]
metric = "fidelity/h/WVU/whittle"   # Figure 6
value = 0.88
tol = 0.10
source = "Fig 6, WVU stationary requests/s"

[[target]]
metric = "fidelity/alpha/WVU/duration/llcd"
value = 1.80
tol = 0.35
source = "Table 2 Week row"
"#;

    fn report_with(gauges: &[(&str, f64)]) -> RunReport {
        RunReport {
            tool: "test".to_string(),
            created_unix: 0,
            seed: None,
            args: vec![],
            config: Value::Null,
            spans: vec![],
            counters: vec![],
            gauges: gauges
                .iter()
                .map(|(n, v)| GaugeReport {
                    name: n.to_string(),
                    value: *v,
                })
                .collect(),
            histograms: vec![],
            diagnostics: None,
            slo: None,
        }
    }

    #[test]
    fn parses_targets_and_profile() {
        let t = PaperTargets::parse(SAMPLE).unwrap();
        assert_eq!(t.profile, "repro --json --fast fig6");
        assert_eq!(t.targets.len(), 2);
        assert_eq!(t.targets[0].metric, "fidelity/h/WVU/whittle");
        assert_eq!(t.targets[0].value, 0.88);
        assert_eq!(t.targets[0].tol, 0.10);
        assert!(t.targets[1].source.contains("Table 2"));
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = PaperTargets::parse("[[target]]\nvalue = 1.0\n").unwrap_err();
        assert!(err.message.contains("missing `metric`"), "{err}");
        let err = PaperTargets::parse("nonsense\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err =
            PaperTargets::parse("[[target]]\nmetric = \"m\"\nvalue = 1\ntol = 0\n").unwrap_err();
        assert!(err.message.contains("tol must be > 0"), "{err}");
    }

    #[test]
    fn in_tolerance_run_passes() {
        let targets = PaperTargets::parse(SAMPLE).unwrap();
        // A gauge without a target, such as a detected period, is not checked.
        let report = report_with(&[
            ("fidelity/h/WVU/whittle", 0.93),
            ("fidelity/alpha/WVU/duration/llcd", 1.60),
            ("fidelity/period/WVU/request", 86_400.0),
        ]);
        let result = check(&report, &targets);
        assert!(result.passed(), "{}", result.render());
        assert_eq!(result.checks.len(), 2);
    }

    #[test]
    fn drift_and_missing_gauges_fail_with_names() {
        let targets = PaperTargets::parse(SAMPLE).unwrap();
        let report = report_with(&[("fidelity/h/WVU/whittle", 0.70)]);
        let result = check(&report, &targets);
        assert!(!result.passed());
        let failures = result.failures();
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].target.metric, "fidelity/h/WVU/whittle");
        assert!((failures[0].drift - -0.18).abs() < 1e-12);
        assert_eq!(failures[1].measured, None);
        // Drift gauges went live.
        let snap = crate::metrics::snapshot();
        assert!(snap
            .gauges
            .iter()
            .any(|(n, _)| n == "fidelity/drift/h/WVU/whittle"));
    }
}
