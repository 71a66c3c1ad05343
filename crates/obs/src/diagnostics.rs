//! Estimator confidence & agreement diagnostics.
//!
//! The streaming engine's per-window estimates (Hill α over session
//! bytes, variance-time H over arrival counts, Welford means) are
//! point values; this module carries the *evidence* attached to them —
//! confidence intervals, Hill-plateau locations, regression fit
//! quality, and the cross-estimator agreement verdict against the
//! heavy-tail/LRD consistency relation `2H = 3 − α`
//! (Faÿ–Roueff–Soulier 2007).
//!
//! The producing engine fills [`WindowDiagnostics`] rows and publishes
//! a [`DiagnosticsReport`] into its run's [`crate::Telemetry`] via
//! [`crate::Telemetry::set_diagnostics`]; the telemetry server's
//! `/diagnostics` endpoint and the run report read it back from there.

use serde::{Deserialize, Serialize};

/// Version stamp written into every [`DiagnosticsReport`]. Bump when
/// the shape of the report changes incompatibly.
pub const DIAGNOSTICS_SCHEMA_VERSION: u32 = 1;

/// Gauge-name prefix for the estimator-confidence family on `/metrics`
/// (`estimator_confidence/alpha_ci_half_width`, `…/h_ci_half_width`,
/// `…/r_squared`, `…/agreement_score`).
pub const ESTIMATOR_CONFIDENCE_PREFIX: &str = "estimator_confidence/";

/// Cross-estimator agreement verdict for one window.
///
/// The relation `2H = 3 − α` ties the Hurst exponent of the arrival
/// process to the tail index of the transfer sizes when the LRD is
/// heavy-tail-induced. `gap = |2H − (3 − α)|` is compared against the
/// propagated error band `band = √((2·σ_H)² + σ_α²)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgreementVerdict {
    /// Both estimators confident and the relation holds within the band.
    Agree,
    /// Both estimators confident and the relation fails outside the band.
    Disagree,
    /// At least one estimator is too uncertain to judge (NS Hill plot,
    /// missing CI, or an error band wider than the feasible range).
    LowConfidence,
    /// One of the two estimates is absent for this window.
    NotApplicable,
}

impl AgreementVerdict {
    /// Stable lower-case token for tables, gauges, and CI assertions.
    pub fn as_str(self) -> &'static str {
        match self {
            AgreementVerdict::Agree => "agree",
            AgreementVerdict::Disagree => "disagree",
            AgreementVerdict::LowConfidence => "low_confidence",
            AgreementVerdict::NotApplicable => "n/a",
        }
    }
}

/// Confidence evidence for one closed window's estimates.
///
/// Every field mirrors a number the engine already emits, now paired
/// with its uncertainty: `None` means the underlying estimate was not
/// produced for this window (quiet window, NS plateau, degenerate
/// regression).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowDiagnostics {
    /// Window index (matches `WindowReport::index`).
    pub index: u64,
    /// Window start time (seconds, stream clock).
    pub start: f64,
    /// Hill plateau mean over session bytes, `None` = NS.
    pub alpha: Option<f64>,
    /// Asymptotic half-width `α·z/√k` at the plateau edge.
    pub alpha_ci_half_width: Option<f64>,
    /// Coefficient of variation over the Hill assessment window.
    pub plateau_cv: Option<f64>,
    /// Left edge of the plateau assessment window (k).
    pub plateau_k_lo: Option<u64>,
    /// Right edge of the plateau assessment window (k).
    pub plateau_k_hi: Option<u64>,
    /// Variance-time H over the window's arrival counts.
    pub h: Option<f64>,
    /// Half-width of the H confidence interval (t-based, inflated).
    pub h_ci_half_width: Option<f64>,
    /// R² of the variance-time regression.
    pub h_r_squared: Option<f64>,
    /// Aggregation levels used by the variance-time fit.
    pub h_points: u64,
    /// Mean response bytes over the window.
    pub bytes_mean: Option<f64>,
    /// Welford-based half-width `z·√(s²/n)` of the byte mean.
    pub bytes_mean_ci_half_width: Option<f64>,
    /// Mean request inter-arrival time over the window (seconds).
    pub interarrival_mean: Option<f64>,
    /// Welford-based half-width of the inter-arrival mean.
    pub interarrival_ci_half_width: Option<f64>,
    /// Cross-estimator verdict on `2H = 3 − α`.
    pub agreement: AgreementVerdict,
    /// `|2H − (3 − α)|` when both estimates exist.
    pub agreement_gap: Option<f64>,
    /// Propagated error band `√((2σ_H)² + σ_α²)`.
    pub agreement_band: Option<f64>,
    /// Normalized score `gap / band` (≤ 1 = agree).
    pub agreement_score: Option<f64>,
}

/// Schema-versioned diagnostics block for `RunReport` and
/// `/diagnostics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosticsReport {
    /// [`DIAGNOSTICS_SCHEMA_VERSION`] at write time.
    pub schema: u32,
    /// Whether diagnostics were enabled for the producing run. A
    /// disabled run still publishes the block (with no windows) so
    /// readers can tell "off" from "missing".
    pub enabled: bool,
    /// Two-sided confidence level of every interval in the report.
    pub confidence_level: f64,
    /// Per-window evidence, ascending by window index.
    pub windows: Vec<WindowDiagnostics>,
    /// Windows whose verdict was [`AgreementVerdict::LowConfidence`].
    pub low_confidence_windows: u64,
    /// Windows whose verdict was [`AgreementVerdict::Disagree`].
    pub disagreement_windows: u64,
    /// Verdict of the most recent window with a judgeable pair, or
    /// `NotApplicable` when no window produced both estimates.
    pub final_verdict: AgreementVerdict,
}

impl DiagnosticsReport {
    /// An empty report: what `/diagnostics` serves before any window
    /// closes (or when the producing run had diagnostics disabled).
    pub fn empty(enabled: bool, confidence_level: f64) -> Self {
        DiagnosticsReport {
            schema: DIAGNOSTICS_SCHEMA_VERSION,
            enabled,
            confidence_level,
            windows: Vec::new(),
            low_confidence_windows: 0,
            disagreement_windows: 0,
            final_verdict: AgreementVerdict::NotApplicable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(index: u64) -> WindowDiagnostics {
        WindowDiagnostics {
            index,
            start: index as f64 * 14_400.0,
            alpha: Some(1.45),
            alpha_ci_half_width: Some(0.12),
            plateau_cv: Some(0.03),
            plateau_k_lo: Some(210),
            plateau_k_hi: Some(420),
            h: Some(0.78),
            h_ci_half_width: Some(0.09),
            h_r_squared: Some(0.97),
            h_points: 7,
            bytes_mean: Some(11_432.0),
            bytes_mean_ci_half_width: Some(310.0),
            interarrival_mean: Some(0.41),
            interarrival_ci_half_width: Some(0.02),
            agreement: AgreementVerdict::Agree,
            agreement_gap: Some(0.01),
            agreement_band: Some(0.21),
            agreement_score: Some(0.05),
        }
    }

    #[test]
    fn slot_round_trips_and_resets() {
        let t = crate::Telemetry::default();
        assert!(t.diagnostics().is_none());
        let mut report = DiagnosticsReport::empty(true, 0.95);
        report.windows.push(row(0));
        report.final_verdict = AgreementVerdict::Agree;
        t.set_diagnostics(report.clone());
        assert_eq!(
            t.clone().diagnostics(),
            Some(report),
            "clones share the slot"
        );
        // A new run starts with an empty slot.
        assert!(crate::Telemetry::default().diagnostics().is_none());
    }

    #[test]
    fn report_serializes_with_schema_and_verdict_tokens() {
        let mut report = DiagnosticsReport::empty(true, 0.95);
        report.windows.push(row(3));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"schema\":1"));
        assert!(json.contains("\"Agree\""));
        let back: DiagnosticsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn verdict_tokens_are_stable() {
        assert_eq!(AgreementVerdict::Agree.as_str(), "agree");
        assert_eq!(AgreementVerdict::Disagree.as_str(), "disagree");
        assert_eq!(AgreementVerdict::LowConfidence.as_str(), "low_confidence");
        assert_eq!(AgreementVerdict::NotApplicable.as_str(), "n/a");
    }
}
