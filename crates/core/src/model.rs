//! The FULL-Web model: everything the paper measures for one server,
//! in one serializable structure.

use crate::arrival_analysis::ArrivalAnalysis;
use crate::config::AnalysisConfig;
use crate::intra_session::{IntraSessionAnalysis, SessionMetric};
use crate::poisson::{PoissonBattery, PoissonVerdict};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use webpuzzle_weblog::{WeekDataset, WorkloadLevel, SECONDS_PER_WEEK};

/// Poisson battery for one Low/Med/High interval plus intra-session
/// analysis of the sessions initiated there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelPoisson {
    /// Which workload level this interval represents.
    pub level: WorkloadLevel,
    /// Index of the 4-hour interval within the week.
    pub interval_index: usize,
    /// Requests in the interval.
    pub request_count: usize,
    /// Sessions initiated in the interval.
    pub session_count: usize,
    /// §4.2 battery on request arrivals.
    pub request_poisson: PoissonBattery,
    /// §5.1.2 battery on session arrivals.
    pub session_poisson: PoissonBattery,
    /// §5.2 heavy-tail battery on the interval's sessions.
    pub intra_session: IntraSessionAnalysis,
}

/// The complete FULL-Web characterization of one server's week.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullWebModel {
    /// Server name.
    pub server: String,
    /// Total requests (Table 1).
    pub total_requests: usize,
    /// Total sessions (Table 1).
    pub total_sessions: usize,
    /// Megabytes transferred (Table 1).
    pub megabytes: f64,
    /// §4.1: LRD analysis of the request arrival process.
    pub request_level: ArrivalAnalysis,
    /// §5.1.1: LRD analysis of the session arrival process.
    pub inter_session: ArrivalAnalysis,
    /// §4.2 / §5.1.2 / §5.2 for the Low, Med, and High intervals.
    pub levels: Vec<LevelPoisson>,
    /// §5.2 Tables 2–4 "Week" rows.
    pub intra_session_week: IntraSessionAnalysis,
}

impl FullWebModel {
    /// Run the complete pipeline on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures; datasets with at least a few thousand
    /// requests spread over the week analyze cleanly.
    pub fn analyze(server: &str, dataset: &WeekDataset, cfg: &AnalysisConfig) -> Result<Self> {
        let _span = webpuzzle_obs::span!("pipeline/analyze");
        webpuzzle_obs::metrics::counter("pipeline/analyses").incr();
        let (total_requests, total_sessions, megabytes) = dataset.summary();

        let request_times = dataset.request_times();
        let request_level = {
            let _span = webpuzzle_obs::span!("pipeline/request_arrivals");
            ArrivalAnalysis::analyze(&request_times, SECONDS_PER_WEEK, cfg)?
        };
        let session_times = dataset.session_start_times();
        let inter_session = {
            let _span = webpuzzle_obs::span!("pipeline/session_arrivals");
            ArrivalAnalysis::analyze(&session_times, SECONDS_PER_WEEK, cfg)?
        };

        let (low, med, high) = dataset.select_low_med_high();
        let mut levels = Vec::with_capacity(3);
        for (level, interval) in [
            (WorkloadLevel::Low, low),
            (WorkloadLevel::Med, med),
            (WorkloadLevel::High, high),
        ] {
            let req_times = dataset.request_times_in(&interval);
            let sess_times = dataset.session_starts_in(&interval);
            let sessions = dataset.sessions_in(&interval);
            levels.push(LevelPoisson {
                level,
                interval_index: interval.index,
                request_count: req_times.len(),
                session_count: sess_times.len(),
                request_poisson: PoissonBattery::run(
                    &req_times,
                    interval.start,
                    interval.end - interval.start,
                    cfg.min_poisson_arrivals,
                    cfg.seed,
                )?,
                session_poisson: PoissonBattery::run(
                    &sess_times,
                    interval.start,
                    interval.end - interval.start,
                    cfg.min_poisson_arrivals,
                    cfg.seed.wrapping_add(1),
                )?,
                intra_session: IntraSessionAnalysis::analyze(&sessions, cfg)?,
            });
        }

        let intra_session_week = {
            let _span = webpuzzle_obs::span!("pipeline/intra_session_week");
            IntraSessionAnalysis::analyze(dataset.sessions(), cfg)?
        };

        let model = FullWebModel {
            server: server.to_string(),
            total_requests,
            total_sessions,
            megabytes,
            request_level,
            inter_session,
            levels,
            intra_session_week,
        };
        model.record_fidelity();
        Ok(model)
    }

    /// Publish the model's headline statistics as `fidelity/...` gauges,
    /// the contract consumed by `paper-check` / `paper_targets.toml`:
    ///
    /// - `fidelity/h/<server>/<estimator>` — stationary request-level
    ///   Hurst exponents (the paper's Figure 6 cells);
    /// - `fidelity/h_session/<server>/<estimator>` — stationary
    ///   session-level Hurst exponents (Figure 10);
    /// - `fidelity/alpha/<server>/<metric>/<llcd|hill>` — week-level tail
    ///   indices (Tables 2–4 Week rows);
    /// - `fidelity/poisson/<server>/<request|session>_reject_rate` —
    ///   fraction of applicable Poisson verdicts that reject (§4.2 /
    ///   §5.1.2);
    /// - `fidelity/period/<server>/<request|session>` — the seasonal period
    ///   `decompose` detected in the arrival series, in seconds.
    ///
    /// Estimates that did not compute, and periods not detected, record no
    /// gauge (targets treat an absent gauge as drift).
    fn record_fidelity(&self) {
        use webpuzzle_obs::metrics::gauge;
        let server = &self.server;
        for (prefix, analysis) in [
            ("fidelity/h", &self.request_level),
            ("fidelity/h_session", &self.inter_session),
        ] {
            let suite = &analysis.hurst_stationary;
            for (est, e) in [
                ("variance", &suite.variance_time),
                ("rs", &suite.rescaled_range),
                ("periodogram", &suite.periodogram),
                ("whittle", &suite.whittle),
                ("abry_veitch", &suite.abry_veitch),
            ] {
                if let Some(e) = e {
                    gauge(&format!("{prefix}/{server}/{est}")).set(e.h);
                }
            }
        }
        for (kind, analysis) in [
            ("request", &self.request_level),
            ("session", &self.inter_session),
        ] {
            if let Some(p) = analysis.period_seconds {
                gauge(&format!("fidelity/period/{server}/{kind}")).set(p);
            }
        }
        for tail in self.intra_session_week.iter() {
            let metric = match tail.metric {
                SessionMetric::DurationSeconds => "duration",
                SessionMetric::RequestCount => "requests",
                SessionMetric::BytesTransferred => "bytes",
            };
            if let Some(fit) = tail.llcd {
                gauge(&format!("fidelity/alpha/{server}/{metric}/llcd")).set(fit.alpha);
            }
            if let Some(alpha) = tail.hill.as_ref().and_then(|h| h.alpha) {
                gauge(&format!("fidelity/alpha/{server}/{metric}/hill")).set(alpha);
            }
        }
        for (kind, pick) in [("request", true), ("session", false)] {
            let mut applicable = 0u32;
            let mut rejected = 0u32;
            for lvl in &self.levels {
                let battery = if pick {
                    &lvl.request_poisson
                } else {
                    &lvl.session_poisson
                };
                for verdict in [battery.hourly_verdict(), battery.ten_min_verdict()] {
                    match verdict {
                        PoissonVerdict::Rejected => {
                            applicable += 1;
                            rejected += 1;
                        }
                        PoissonVerdict::ConsistentWithPoisson => applicable += 1,
                        PoissonVerdict::NotApplicable => {}
                    }
                }
            }
            if applicable > 0 {
                gauge(&format!("fidelity/poisson/{server}/{kind}_reject_rate"))
                    .set(f64::from(rejected) / f64::from(applicable));
            }
        }
    }

    /// Serialize the model as pretty JSON.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the model contains only serializable data);
    /// any serde error is surfaced as a string.
    pub fn to_json(&self) -> std::result::Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }
}

fn verdict_str(v: PoissonVerdict) -> &'static str {
    match v {
        PoissonVerdict::ConsistentWithPoisson => "Poisson",
        PoissonVerdict::Rejected => "NOT Poisson",
        PoissonVerdict::NotApplicable => "NA",
    }
}

impl fmt::Display for FullWebModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== FULL-Web model: {} ===", self.server)?;
        writeln!(
            f,
            "requests {}  sessions {}  MB {:.0}",
            self.total_requests, self.total_sessions, self.megabytes
        )?;
        for (name, a) in [
            ("request arrivals", &self.request_level),
            ("session arrivals", &self.inter_session),
        ] {
            writeln!(f, "--- {name} ---")?;
            writeln!(
                f,
                "KPSS raw {:.3}{}  stationary {:.3}{}  trend/bin {:+.2e}  period {}",
                a.kpss_raw.statistic,
                if a.kpss_raw.nonstationary_5pct() {
                    "*"
                } else {
                    ""
                },
                a.kpss_stationary.statistic,
                if a.kpss_stationary.nonstationary_5pct() {
                    "*"
                } else {
                    ""
                },
                a.trend_slope,
                match a.period_seconds {
                    Some(p) => format!("{:.0} s", p),
                    None => "none".to_string(),
                }
            )?;
            writeln!(f, "Hurst (raw):")?;
            for e in a.hurst_raw.iter() {
                writeln!(f, "  {e}")?;
            }
            writeln!(f, "Hurst (stationary):")?;
            for e in a.hurst_stationary.iter() {
                writeln!(f, "  {e}")?;
            }
            writeln!(
                f,
                "LRD consensus: {}",
                if a.long_range_dependent() {
                    "yes"
                } else {
                    "no"
                }
            )?;
        }
        writeln!(f, "--- Poisson tests (hourly rates) ---")?;
        for lvl in &self.levels {
            writeln!(
                f,
                "{:<5} requests: {:<12} sessions: {}",
                lvl.level.to_string(),
                verdict_str(lvl.request_poisson.hourly_verdict()),
                verdict_str(lvl.session_poisson.hourly_verdict()),
            )?;
        }
        writeln!(f, "--- Intra-session (week) ---")?;
        for t in self.intra_session_week.iter() {
            let llcd = t
                .llcd
                .map(|l| format!("α_LLCD {:.3} (R² {:.3})", l.alpha, l.r_squared))
                .unwrap_or_else(|| "NA".to_string());
            let hill = match &t.hill {
                Some(h) => match h.alpha {
                    Some(a) => format!("α_Hill {a:.2}"),
                    None => "α_Hill NS".to_string(),
                },
                None => "NA".to_string(),
            };
            let gamma = t
                .moment
                .map(|m| format!("γ {:.2}", m.gamma))
                .unwrap_or_else(|| "γ NA".to_string());
            writeln!(
                f,
                "{:<22} n={:<8} {llcd}  {hill}  {gamma}",
                t.metric.to_string(),
                t.n
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpuzzle_workload::{ServerProfile, WorkloadGenerator};

    fn small_model() -> FullWebModel {
        let records = WorkloadGenerator::new(ServerProfile::clarknet().with_scale(0.03))
            .seed(11)
            .generate()
            .unwrap();
        let ds = WeekDataset::from_records(records, 1800.0).unwrap();
        FullWebModel::analyze("ClarkNet", &ds, &AnalysisConfig::fast()).unwrap()
    }

    #[test]
    fn end_to_end_pipeline() {
        let m = small_model();
        assert_eq!(m.server, "ClarkNet");
        assert!(m.total_requests > m.total_sessions);
        assert_eq!(m.levels.len(), 3);
        // Request arrivals on an fGn-Cox workload must come out LRD.
        assert!(
            m.request_level.long_range_dependent(),
            "{}",
            m.request_level.hurst_stationary
        );
    }

    #[test]
    fn display_report_complete() {
        let m = small_model();
        let report = m.to_string();
        for needle in [
            "FULL-Web model",
            "request arrivals",
            "session arrivals",
            "KPSS",
            "Whittle",
            "Abry-Veitch",
            "Poisson tests",
            "Intra-session",
            "bytes per session",
        ] {
            assert!(
                report.contains(needle),
                "missing {needle} in report:\n{report}"
            );
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = small_model();
        let json = m.to_json().unwrap();
        let back: FullWebModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn fidelity_gauges_publish_detected_periods() {
        let m = small_model();
        assert!(m.request_level.period_seconds.is_some());
        let gauges = webpuzzle_obs::metrics::snapshot().gauges;
        for (kind, a) in [("request", &m.request_level), ("session", &m.inter_session)] {
            let name = format!("fidelity/period/ClarkNet/{kind}");
            let published = gauges.iter().find(|(n, _)| *n == name).map(|g| g.1);
            assert_eq!(published, a.period_seconds, "{name}");
        }
    }

    #[test]
    fn levels_ordered_by_volume() {
        let m = small_model();
        assert!(m.levels[0].request_count <= m.levels[1].request_count);
        assert!(m.levels[1].request_count <= m.levels[2].request_count);
    }
}
