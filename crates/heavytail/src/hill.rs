//! Hill estimator of the tail index, with plateau (stabilization)
//! detection.

use crate::ccdf::upper_order_statistics;
use crate::Result;
use serde::{Deserialize, Serialize};
use webpuzzle_stats::StatsError;

/// Result of Hill-plot analysis — the paper's `α_Hill` cells, including the
/// **NS** ("did not stabilize") outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HillEstimate {
    /// The stabilized estimate, or `None` when the plot never settles (NS).
    pub alpha: Option<f64>,
    /// Coefficient of variation of `α_{k,n}` over the assessment window —
    /// the stability diagnostic (small = plateau).
    pub plateau_cv: f64,
    /// Number of upper-order statistics at the right edge of the plot.
    pub k_max: usize,
}

impl HillEstimate {
    /// Whether the Hill plot stabilized.
    pub fn stabilized(&self) -> bool {
        self.alpha.is_some()
    }
}

/// The Hill plot: `(k, α_{k,n})` for `k = k_min .. k_max`, where
/// `α_{k,n} = 1/H_{k,n}` and `H_{k,n} = (1/k) Σ_{i≤k} ln X_(i) − ln X_(k+1)`
/// over the descending order statistics (paper equation (5)).
///
/// `tail_fraction` bounds `k_max = ⌊tail_fraction · n⌋` (the paper uses the
/// upper 14 % for Figure 12).
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `tail_fraction` outside
/// `(0, 1]`, [`StatsError::InsufficientData`] when fewer than 25 usable
/// order statistics exist, and [`StatsError::DegenerateInput`] for
/// non-positive data.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_heavytail::hill_plot;
/// use webpuzzle_stats::dist::{Pareto, Sampler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(12);
/// let sample = Pareto::new(1.58, 1.0)?.sample_n(&mut rng, 5_000);
/// let plot = hill_plot(&sample, 0.14)?;
/// let (_, alpha_at_kmax) = *plot.last().unwrap();
/// assert!((alpha_at_kmax - 1.58).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
pub fn hill_plot(data: &[f64], tail_fraction: f64) -> Result<Vec<(usize, f64)>> {
    if !(tail_fraction > 0.0 && tail_fraction <= 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "tail_fraction",
            value: tail_fraction,
            constraint: "must be in (0, 1]",
        });
    }
    let n = data.len();
    if n < 50 {
        return Err(StatsError::InsufficientData { needed: 50, got: n });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    if data.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::DegenerateInput {
            what: "Hill estimation requires strictly positive data",
        });
    }
    // k must leave X_(k+1) available.
    let k_max = (((n as f64) * tail_fraction) as usize).min(n - 1);
    let k_min = 5usize;
    if k_max <= k_min + 20 {
        return Err(StatsError::InsufficientData {
            needed: k_min + 21,
            got: k_max,
        });
    }
    let logs: Vec<f64> = upper_order_statistics(data, k_max)
        .iter()
        .map(|&x| x.ln())
        .collect();
    let mut prefix = 0.0;
    let mut out = Vec::with_capacity(k_max - k_min + 1);
    for k in 1..=k_max {
        prefix += logs[k - 1];
        if k >= k_min {
            let h = prefix / k as f64 - logs[k];
            // Guard against round-off on (near-)tied order statistics: an
            // h of ~1e-16 would otherwise produce an absurd α ~ 1e16.
            if h > 1e-9 {
                out.push((k, 1.0 / h));
            }
        }
    }
    if out.len() < 20 {
        return Err(StatsError::DegenerateInput {
            what: "Hill plot degenerate (too many tied order statistics)",
        });
    }
    webpuzzle_obs::metrics::sharded_counter("heavytail/hill_order_stats").add(k_max as u64);
    Ok(out)
}

/// Hill estimate with automatic plateau detection over the outer half of the
/// plot: if the coefficient of variation of `α_{k,n}` across the assessment
/// window is below 7.5 %, the plot is declared stable and the window mean is
/// returned; otherwise `alpha` is `None` (**NS**, as annotated in the
/// paper's Tables 2–4).
///
/// # Errors
///
/// Same conditions as [`hill_plot`].
pub fn hill_estimate(data: &[f64], tail_fraction: f64) -> Result<HillEstimate> {
    let _span = webpuzzle_obs::span!("tail/hill");
    const CV_THRESHOLD: f64 = 0.075;
    let plot = hill_plot(data, tail_fraction)?;
    let k_max = plot.last().expect("plot non-empty").0;
    // Assessment window: the outer half of the plot (large k), where the
    // paper reads off the settled value.
    let window: Vec<f64> = plot
        .iter()
        .filter(|(k, _)| *k >= k_max / 2)
        .map(|(_, a)| *a)
        .collect();
    let mean = window.iter().sum::<f64>() / window.len() as f64;
    let var = window.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / window.len() as f64;
    let cv = if mean > 0.0 {
        var.sqrt() / mean
    } else {
        f64::INFINITY
    };
    Ok(HillEstimate {
        alpha: if cv < CV_THRESHOLD { Some(mean) } else { None },
        plateau_cv: cv,
        k_max,
    })
}

/// A Hill-plot stability scan: `α(k)` sampled on a log-spaced k grid,
/// plateau detection over the outer half, and an asymptotic confidence
/// interval at the plateau edge.
///
/// This is the diagnostics-grade companion to [`hill_estimate`]: instead
/// of a bare point estimate it reports *where* the plot settles
/// (`plateau_k_lo ..= plateau_k_hi`), *how flat* it is there
/// (`plateau_cv`), and the sampling error `α · z / √k` implied by the
/// Hill estimator's asymptotic normality (`√k (α̂/α − 1) → N(0, 1)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HillStabilityScan {
    /// `(k, α(k))` on the log-spaced grid, ascending in k.
    pub grid: Vec<(usize, f64)>,
    /// The plateau mean, or `None` when the plot never settles (NS).
    pub alpha: Option<f64>,
    /// Half-width of the asymptotic CI `α · z / √k` evaluated at the
    /// plateau's left edge (conservative for the window mean). `None`
    /// when NS.
    pub alpha_ci_half_width: Option<f64>,
    /// Smallest k in the assessment window when the plot stabilized.
    pub plateau_k_lo: Option<usize>,
    /// Largest k in the assessment window when the plot stabilized.
    pub plateau_k_hi: Option<usize>,
    /// Coefficient of variation over the assessment window.
    pub plateau_cv: f64,
    /// Right edge of the scanned k range.
    pub k_max: usize,
}

/// Number of grid points a stability scan samples across `k_min..=k_max`.
pub const STABILITY_GRID_POINTS: usize = 32;

/// Hill-plot stability scan over **descending-sorted** order statistics.
///
/// Takes the data already sorted descending (as maintained by a top-k
/// heap) so streaming callers pay no extra sort; `k_max` is clamped to
/// `descending.len() − 1` so `X_(k+1)` stays available. `α(k)` is
/// evaluated on a log-spaced grid of [`STABILITY_GRID_POINTS`] values
/// of k; the plateau test is the same CV < 7.5 % criterion as
/// [`hill_estimate`], applied to the grid points in the outer half
/// `k ≥ k_max / 2`. `level` is the two-sided confidence level for the
/// CI (e.g. `0.95`).
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `level` outside `(0, 1)`,
/// [`StatsError::InsufficientData`] when fewer than 30 order statistics
/// are available, and [`StatsError::DegenerateInput`] when the input is
/// not positive and descending or too many order statistics are tied.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use webpuzzle_heavytail::hill_stability_scan;
/// use webpuzzle_stats::dist::{Pareto, Sampler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(12);
/// let mut sample = Pareto::new(1.58, 1.0)?.sample_n(&mut rng, 5_000);
/// sample.sort_by(|a, b| b.partial_cmp(a).unwrap());
/// let scan = hill_stability_scan(&sample, 700, 0.95)?;
/// let alpha = scan.alpha.expect("pure Pareto stabilizes");
/// let half = scan.alpha_ci_half_width.unwrap();
/// assert!((alpha - 1.58).abs() < 2.0 * half);
/// # Ok(())
/// # }
/// ```
pub fn hill_stability_scan(
    descending: &[f64],
    k_max: usize,
    level: f64,
) -> Result<HillStabilityScan> {
    const CV_THRESHOLD: f64 = 0.075;
    if !(level > 0.0 && level < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "level",
            value: level,
            constraint: "must be in (0, 1)",
        });
    }
    let n = descending.len();
    if n < 30 {
        return Err(StatsError::InsufficientData { needed: 30, got: n });
    }
    let k_min = 5usize;
    let k_max = k_max.clamp(k_min + 1, n - 1);
    if k_max <= k_min + 10 {
        return Err(StatsError::InsufficientData {
            needed: k_min + 11,
            got: k_max,
        });
    }
    // Only the first k_max + 1 order statistics participate; validate
    // exactly those (positivity + descending order).
    let head = &descending[..=k_max];
    if head.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    if head.iter().any(|&x| x <= 0.0) || head.windows(2).any(|w| w[0] < w[1]) {
        return Err(StatsError::DegenerateInput {
            what: "Hill scan requires positive descending-sorted data",
        });
    }
    // Log-spaced k grid, deduplicated, always ending exactly at k_max.
    let ratio = (k_max as f64 / k_min as f64).powf(1.0 / (STABILITY_GRID_POINTS - 1) as f64);
    let mut ks = Vec::with_capacity(STABILITY_GRID_POINTS);
    let mut target = k_min as f64;
    for _ in 0..STABILITY_GRID_POINTS {
        let k = (target.round() as usize).clamp(k_min, k_max);
        if ks.last() != Some(&k) {
            ks.push(k);
        }
        target *= ratio;
    }
    if ks.last() != Some(&k_max) {
        ks.push(k_max);
    }
    // One pass of prefix sums over ln X_(i) serves every grid point.
    let mut grid = Vec::with_capacity(ks.len());
    let mut prefix = 0.0;
    let mut next = 0usize;
    for k in 1..=k_max {
        prefix += head[k - 1].ln();
        if next < ks.len() && k == ks[next] {
            let h = prefix / k as f64 - head[k].ln();
            if h > 1e-9 {
                grid.push((k, 1.0 / h));
            }
            next += 1;
        }
    }
    webpuzzle_obs::metrics::sharded_counter("heavytail/hill_order_stats").add(k_max as u64);
    // Assessment window: grid points in the outer half of the k range.
    let window: Vec<(usize, f64)> = grid
        .iter()
        .filter(|(k, _)| *k >= k_max / 2)
        .copied()
        .collect();
    if window.len() < 3 {
        return Err(StatsError::DegenerateInput {
            what: "Hill scan degenerate (too many tied order statistics)",
        });
    }
    let mean = window.iter().map(|(_, a)| a).sum::<f64>() / window.len() as f64;
    let var = window
        .iter()
        .map(|(_, a)| (a - mean) * (a - mean))
        .sum::<f64>()
        / window.len() as f64;
    let cv = if mean > 0.0 {
        var.sqrt() / mean
    } else {
        f64::INFINITY
    };
    let stable = cv < CV_THRESHOLD;
    let (k_lo, k_hi) = (window[0].0, window[window.len() - 1].0);
    let half = if stable {
        // Evaluated at the plateau's LEFT edge: the reported α is the
        // window mean, and the nested Hill estimates are so strongly
        // positively correlated that averaging buys almost no variance —
        // the mean is no better determined than its least-informed
        // member. α·z/√k_hi under-covers (92% measured at nominal 95%);
        // √k_lo restores calibrated coverage (see
        // `scan_ci_covers_planted_alpha`).
        let z = webpuzzle_stats::special::normal_quantile(0.5 + level / 2.0);
        Some(mean * z / (k_lo as f64).sqrt())
    } else {
        None
    };
    Ok(HillStabilityScan {
        grid,
        alpha: stable.then_some(mean),
        alpha_ci_half_width: half,
        plateau_k_lo: stable.then_some(k_lo),
        plateau_k_hi: stable.then_some(k_hi),
        plateau_cv: cv,
        k_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_stats::dist::{Exponential, Pareto, Sampler};

    #[test]
    fn recovers_alpha_for_pareto() {
        let mut rng = StdRng::seed_from_u64(21);
        for &alpha in &[0.9, 1.58, 2.2] {
            let sample = Pareto::new(alpha, 1.0).unwrap().sample_n(&mut rng, 20_000);
            let est = hill_estimate(&sample, 0.14).unwrap();
            let got = est.alpha.expect("pure Pareto must stabilize");
            assert!((got - alpha).abs() < 0.15, "α = {alpha}, estimated {got}");
        }
    }

    #[test]
    fn plot_k_range_respects_fraction() {
        let mut rng = StdRng::seed_from_u64(22);
        let sample = Pareto::new(1.5, 1.0).unwrap().sample_n(&mut rng, 10_000);
        let plot = hill_plot(&sample, 0.14).unwrap();
        assert!(plot.last().unwrap().0 <= 1400);
        assert!(plot.first().unwrap().0 >= 5);
    }

    #[test]
    fn exponential_data_does_not_stabilize() {
        // For light tails the Hill plot rises steadily with k — the NS case.
        let mut rng = StdRng::seed_from_u64(23);
        let sample = Exponential::new(1.0).unwrap().sample_n(&mut rng, 20_000);
        let est = hill_estimate(&sample, 0.5).unwrap();
        assert!(
            !est.stabilized(),
            "exponential should be NS, got α = {:?} (cv = {})",
            est.alpha,
            est.plateau_cv
        );
    }

    #[test]
    fn plateau_cv_small_for_pareto() {
        let mut rng = StdRng::seed_from_u64(24);
        let sample = Pareto::new(1.3, 1.0).unwrap().sample_n(&mut rng, 50_000);
        let est = hill_estimate(&sample, 0.14).unwrap();
        assert!(est.plateau_cv < 0.04, "cv = {}", est.plateau_cv);
    }

    #[test]
    fn validation() {
        assert!(hill_plot(&[1.0; 10], 0.14).is_err());
        assert!(hill_plot(&[1.0; 100], 0.0).is_err());
        let mut bad = vec![1.0; 100];
        bad[0] = -1.0;
        assert!(hill_plot(&bad, 0.5).is_err());
        // All-equal data: log spacings vanish.
        assert!(hill_plot(&[7.0; 1000], 0.5).is_err());
    }

    fn sorted_pareto(alpha: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sample = Pareto::new(alpha, 1.0).unwrap().sample_n(&mut rng, n);
        sample.sort_by(|a, b| b.partial_cmp(a).unwrap());
        sample
    }

    #[test]
    fn scan_recovers_alpha_with_a_covering_ci() {
        for &alpha in &[0.9, 1.45, 2.2] {
            let sample = sorted_pareto(alpha, 20_000, 31);
            let scan = hill_stability_scan(&sample, 2_800, 0.95).unwrap();
            let got = scan.alpha.expect("pure Pareto must stabilize");
            let half = scan.alpha_ci_half_width.unwrap();
            assert!(half > 0.0 && half < 0.5 * alpha, "half = {half}");
            assert!(
                (got - alpha).abs() < 3.0 * half,
                "α = {alpha}, got {got} ± {half}"
            );
            let (lo, hi) = (scan.plateau_k_lo.unwrap(), scan.plateau_k_hi.unwrap());
            assert!(lo >= scan.k_max / 2 && hi == scan.k_max);
        }
    }

    #[test]
    fn scan_grid_is_log_spaced_and_ascending() {
        let sample = sorted_pareto(1.5, 10_000, 32);
        let scan = hill_stability_scan(&sample, 1_400, 0.95).unwrap();
        assert!(scan.grid.len() >= 20 && scan.grid.len() <= STABILITY_GRID_POINTS + 1);
        assert!(scan.grid.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scan.grid.first().unwrap().0, 5);
        assert_eq!(scan.grid.last().unwrap().0, 1_400);
    }

    #[test]
    fn scan_matches_hill_estimate_on_the_same_window() {
        // Same data, same outer-half assessment window: the scan's
        // plateau mean must agree with hill_estimate's to within the
        // grid-sampling error.
        let mut rng = StdRng::seed_from_u64(33);
        let sample = Pareto::new(1.3, 1.0).unwrap().sample_n(&mut rng, 30_000);
        let est = hill_estimate(&sample, 0.14).unwrap();
        let mut desc = sample;
        desc.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let scan = hill_stability_scan(&desc, est.k_max, 0.95).unwrap();
        let a = est.alpha.unwrap();
        let b = scan.alpha.unwrap();
        assert!((a - b).abs() < 0.05, "estimate {a} vs scan {b}");
    }

    #[test]
    fn scan_marks_exponential_ns() {
        let mut rng = StdRng::seed_from_u64(34);
        let mut sample = Exponential::new(1.0).unwrap().sample_n(&mut rng, 20_000);
        sample.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let scan = hill_stability_scan(&sample, 10_000, 0.95).unwrap();
        assert!(scan.alpha.is_none(), "exponential should be NS");
        assert!(scan.alpha_ci_half_width.is_none());
        assert!(scan.plateau_k_lo.is_none());
    }

    #[test]
    fn scan_ci_covers_planted_alpha() {
        // DESIGN.md §13 calibration: over 200 seeded pure-Pareto runs the
        // asymptotic CI (α · z / √k at the plateau's left edge) must
        // cover the planted tail index at least 95% of the time. A run
        // that fails to stabilize counts as a miss.
        let alpha = 1.5;
        let dist = Pareto::new(alpha, 1.0).unwrap();
        let runs = 200;
        let mut covered = 0;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(10_000 + seed);
            let mut sample = dist.sample_n(&mut rng, 5_000);
            sample.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let scan = hill_stability_scan(&sample, 700, 0.95).unwrap();
            if let (Some(a), Some(half)) = (scan.alpha, scan.alpha_ci_half_width) {
                if (a - alpha).abs() <= half {
                    covered += 1;
                }
            }
        }
        assert!(covered >= 190, "coverage {covered}/{runs} < 95%");
    }

    #[test]
    fn scan_validation() {
        assert!(hill_stability_scan(&[1.0; 10], 5, 0.95).is_err());
        let sample = sorted_pareto(1.5, 1_000, 35);
        assert!(hill_stability_scan(&sample, 140, 0.0).is_err());
        assert!(hill_stability_scan(&sample, 140, 1.0).is_err());
        // Ascending (not descending) data is refused.
        let mut asc = sample.clone();
        asc.reverse();
        assert!(hill_stability_scan(&asc, 140, 0.95).is_err());
        // Ties everywhere: degenerate.
        assert!(hill_stability_scan(&[7.0; 1000], 140, 0.95).is_err());
    }
}
