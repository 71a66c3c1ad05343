//! The FULL-Web workload characterization pipeline — the paper's primary
//! contribution, assembled from the substrate crates.
//!
//! Given a [`webpuzzle_weblog::WeekDataset`], [`FullWebModel::analyze`]
//! produces the complete statistical description the paper builds in
//! §4 and §5:
//!
//! * **Request-based analysis** (§4): requests-per-second series; KPSS
//!   stationarity test; trend + 24 h periodicity removal; ACF before/after;
//!   five Hurst estimators on raw and stationary series (Figures 4/6);
//!   Ĥ(m) aggregation sweeps with CIs (Figures 7/8); and the formal Poisson
//!   test of §4.2 on the Low/Med/High intervals.
//! * **Inter-session analysis** (§5.1): the same battery on the
//!   sessions-initiated-per-second series (Figures 9/10, §5.1.2).
//! * **Intra-session analysis** (§5.2): LLCD fits, Hill estimates (with NS
//!   detection), and Pareto/lognormal curvature tests for session length in
//!   time, requests per session, and bytes per session, for each of
//!   Low/Med/High/Week (Tables 2–4).
//!
//! # Examples
//!
//! Characterize a (tiny) synthetic workload:
//!
//! ```no_run
//! use webpuzzle_core::{AnalysisConfig, FullWebModel};
//! use webpuzzle_weblog::WeekDataset;
//! use webpuzzle_workload::{ServerProfile, WorkloadGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let records = WorkloadGenerator::new(ServerProfile::csee().with_scale(0.02))
//!     .seed(7)
//!     .generate()?;
//! let dataset = WeekDataset::from_records(records, 1800.0)?;
//! let model = FullWebModel::analyze("CSEE", &dataset, &AnalysisConfig::default())?;
//! println!("{model}");
//! # Ok(())
//! # }
//! ```

mod arrival_analysis;
mod config;
mod intra_session;
mod model;
mod poisson;

pub use arrival_analysis::{AcfComparison, ArrivalAnalysis};
pub use config::AnalysisConfig;
pub use intra_session::{IntraSessionAnalysis, SessionMetric, TailAnalysis};
pub use model::{FullWebModel, LevelPoisson};
pub use poisson::{
    poisson_arrival_test, poisson_test_spread, spread_ties, PoissonBattery, PoissonTestOutcome,
    PoissonVerdict, TieSpreading,
};

pub use webpuzzle_stats::StatsError;

/// Crate-wide result alias (errors are [`StatsError`]).
pub type Result<T> = std::result::Result<T, StatsError>;
