//! Empirical complementary cumulative distribution function, and the
//! tail-only order statistics the estimators read.

use crate::Result;
use webpuzzle_stats::StatsError;

/// The empirical CCDF `F̄(x) = P[X > x]` of a positive sample, the object
/// LLCD plots display on log-log axes.
///
/// # Examples
///
/// ```
/// use webpuzzle_heavytail::EmpiricalCcdf;
///
/// let ccdf = EmpiricalCcdf::new(&[1.0, 2.0, 2.0, 4.0]).unwrap();
/// assert!((ccdf.eval(0.5) - 1.0).abs() < 1e-12);
/// assert!((ccdf.eval(2.0) - 0.25).abs() < 1e-12); // only 4.0 exceeds 2.0
/// assert!((ccdf.eval(5.0) - 0.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCcdf {
    sorted: Vec<f64>,
}

impl EmpiricalCcdf {
    /// Build the empirical CCDF of a sample of strictly positive values.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] for an empty sample,
    /// [`StatsError::NonFiniteData`] for non-finite values, and
    /// [`StatsError::DegenerateInput`] if any value is not strictly positive
    /// (LLCD analysis needs `log x`).
    pub fn new(data: &[f64]) -> Result<Self> {
        check_positive(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Ok(EmpiricalCcdf { sorted })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true via the constructor).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted underlying sample (ascending).
    pub fn sorted_values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluate `P[X > x]`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point gives the count of values <= x.
        let le = self.sorted.partition_point(|&v| v <= x);
        (self.sorted.len() - le) as f64 / self.sorted.len() as f64
    }

    /// The LLCD point cloud: `(log10 x_(i), log10 F̄(x_(i)))` for each order
    /// statistic with positive CCDF (the largest observation is excluded
    /// because its empirical CCDF is zero).
    pub fn llcd_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut pts = Vec::with_capacity(n.saturating_sub(1));
        for (i, &x) in self.sorted.iter().enumerate() {
            let surv = (n - i - 1) as f64 / n as f64;
            if surv > 0.0 {
                pts.push((x.log10(), surv.log10()));
            }
        }
        pts
    }

    /// The empirical quantile at probability `p ∈ [0, 1]` (by order
    /// statistic, no interpolation — adequate for tail thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        self.sorted[quantile_rank(p, self.sorted.len())]
    }
}

/// The 0-based rank of the order statistic [`EmpiricalCcdf::quantile`]
/// reads at probability `p` in a sample of `n`.
fn quantile_rank(p: f64, n: usize) -> usize {
    ((p * n as f64) as usize).min(n - 1)
}

fn check_positive(data: &[f64]) -> Result<()> {
    if data.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(StatsError::NonFiniteData);
    }
    if data.iter().any(|&x| x <= 0.0) {
        return Err(StatsError::DegenerateInput {
            what: "CCDF analysis requires strictly positive data",
        });
    }
    Ok(())
}

/// Where an LLCD tail starts: at the order statistic
/// [`EmpiricalCcdf::quantile`] reads at a probability, or at a given θ.
#[derive(Clone, Copy)]
pub(crate) enum Threshold {
    Quantile(f64),
    Value(f64),
}

/// θ and the points of `EmpiricalCcdf::new(sample)?.llcd_points()` with
/// `log10 x ≥ log10 θ`, bit for bit, without ordering the body of the
/// sample: θ by selection, then a sort and `log10` of the values at or
/// near θ and above only (DESIGN.md §6, "Heavy-tail numerics").
/// Reorders `sample`.
///
/// # Errors
///
/// The validation errors of [`EmpiricalCcdf::new`], and
/// [`StatsError::InsufficientData`] for fewer than 10 points.
pub(crate) fn llcd_tail(
    sample: &mut [f64],
    threshold: Threshold,
) -> Result<(f64, Vec<(f64, f64)>)> {
    check_positive(sample)?;
    let n = sample.len();
    // Everything from `upper` on is already known to be ≥ θ.
    let (theta, upper) = match threshold {
        Threshold::Quantile(p) => {
            let rank = quantile_rank(p, n);
            (*sample.select_nth_unstable_by(rank, f64::total_cmp).1, rank)
        }
        Threshold::Value(theta) => (theta, n),
    };
    // A value below θ is kept when its log10 rounds to log10 θ. Below
    // this floor, log10 θ − log10 x > 4e-10, far beyond log10's rounding.
    let floor = theta * (1.0 - 1e-9);
    let mut start = upper;
    for k in (0..upper).rev() {
        if sample[k] >= floor {
            start -= 1;
            sample.swap(k, start);
        }
    }
    let tail = &mut sample[start..];
    tail.sort_unstable_by(f64::total_cmp);
    let log_theta = theta.log10();
    // A value's global rank is its place in the tail plus `start`; the
    // largest has survival 0 and no point.
    let pts: Vec<(f64, f64)> = (start..n - 1)
        .zip(tail.iter().map(|x| x.log10()))
        .filter(|&(_, lx)| lx >= log_theta)
        .map(|(i, lx)| (lx, ((n - i - 1) as f64 / n as f64).log10()))
        .collect();
    if pts.len() < 10 {
        return Err(StatsError::InsufficientData {
            needed: 10,
            got: pts.len(),
        });
    }
    Ok((theta, pts))
}

/// The `k + 1` largest values of `data` in descending order, the order
/// statistics `X_(1) ≥ … ≥ X_(k+1)`, found by one selection and a sort of
/// that head alone. `data` must be finite and `k < data.len()`.
pub(crate) fn upper_order_statistics(data: &[f64], k: usize) -> Vec<f64> {
    let descending = |a: &f64, b: &f64| b.total_cmp(a);
    let mut head = data.to_vec();
    head.select_nth_unstable_by(k, descending);
    head.truncate(k + 1);
    head.sort_unstable_by(descending);
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use webpuzzle_stats::dist::{LogNormal, Pareto, Sampler};

    /// The sort-everything path [`llcd_tail`] replaced: sort all n,
    /// two `log10` per point, then keep the points at or above θ.
    fn oracle_llcd_tail(data: &[f64], threshold: Threshold) -> Result<(f64, Vec<(f64, f64)>)> {
        let ccdf = EmpiricalCcdf::new(data)?;
        let theta = match threshold {
            Threshold::Quantile(p) => ccdf.quantile(p),
            Threshold::Value(theta) => theta,
        };
        let log_theta = theta.log10();
        let pts: Vec<(f64, f64)> = ccdf
            .llcd_points()
            .into_iter()
            .filter(|(lx, _)| *lx >= log_theta)
            .collect();
        if pts.len() < 10 {
            return Err(StatsError::InsufficientData {
                needed: 10,
                got: pts.len(),
            });
        }
        Ok((theta, pts))
    }

    /// The helper's θ and points, bit for bit, or its error.
    fn helper_llcd_tail(data: &[f64], threshold: Threshold) -> Result<(f64, Vec<(f64, f64)>)> {
        llcd_tail(&mut data.to_vec(), threshold)
    }

    fn bits(
        r: &Result<(f64, Vec<(f64, f64)>)>,
    ) -> std::result::Result<(u64, Vec<(u64, u64)>), StatsError> {
        r.clone().map(|(theta, pts)| {
            let pts = pts.iter().map(|(x, y)| (x.to_bits(), y.to_bits()));
            (theta.to_bits(), pts.collect())
        })
    }

    /// A sample of one of three kinds: continuous, integer-valued with
    /// heavy ties (like requests per session), or continuous with up to a
    /// quarter of the values below θ moved to 1–8 ulps below θ. Values
    /// are scaled by 1e6 so that a few ulps do not move `log10` and the
    /// near-θ values are selected by `log10` alone.
    fn sample(kind: u64, n: usize, p: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = match kind {
            0 => LogNormal::new(0.0, 2.0).unwrap().sample_n(&mut rng, n),
            1 => {
                let sizes = Pareto::new(1.3, 1.0).unwrap().sample_n(&mut rng, n);
                sizes.iter().map(|x| x.floor().min(5_000.0)).collect()
            }
            _ => Pareto::new(1.2, 1e6).unwrap().sample_n(&mut rng, n),
        };
        if kind == 2 {
            let theta = EmpiricalCcdf::new(&data).unwrap().quantile(p);
            let below: Vec<usize> = (0..n).filter(|&i| data[i] < theta).collect();
            for &i in below.iter().take(n / 4 + 1) {
                let ulps = 1 + (data[i].to_bits() % 8);
                data[i] = f64::from_bits(theta.to_bits() - ulps);
            }
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn llcd_tail_is_bit_identical_to_the_full_sort(
            (kind, n, frac, seed) in (0u64..3, 1usize..5_001, 0.001f64..0.999, any::<u64>())
        ) {
            let p = 1.0 - frac;
            let data = sample(kind, n, p, seed);
            let got = helper_llcd_tail(&data, Threshold::Quantile(p));
            let want = oracle_llcd_tail(&data, Threshold::Quantile(p));
            prop_assert_eq!(bits(&got), bits(&want), "kind {} n {} p {}", kind, n, p);
            // An explicit θ: one of the sample's values, and one between.
            let pick = data[seed as usize % n];
            for theta in [pick, pick * 0.999_999_999_5] {
                let got = helper_llcd_tail(&data, Threshold::Value(theta));
                let want = oracle_llcd_tail(&data, Threshold::Value(theta));
                prop_assert_eq!(bits(&got), bits(&want), "kind {} n {} θ {}", kind, n, theta);
            }
        }
    }

    #[test]
    fn values_just_below_theta_count_when_their_log_is_log_theta() {
        // θ = 1e6 with 8 values 1–8 ulps below it: each has log10 = 6
        // exactly, so the full sort keeps them as LLCD points.
        let theta = 1e6;
        let mut data: Vec<f64> = (1..=40).map(|i| theta + i as f64).collect();
        data.extend((1..=8).map(|u| f64::from_bits(theta.to_bits() - u)));
        data.extend((1..=50).map(|i| i as f64));
        data.push(theta);
        assert!(data[40..48].iter().all(|x| x.log10() == theta.log10()));
        let n_above = data.iter().filter(|&&x| x >= theta).count();
        for threshold in [Threshold::Value(theta), Threshold::Quantile(58.0 / 99.0)] {
            let (t, pts) = helper_llcd_tail(&data, threshold).unwrap();
            assert_eq!(t, theta);
            // All 49 at or below-by-ulps θ and above, but the largest.
            assert_eq!(pts.len(), n_above + 8 - 1);
            assert_eq!(
                bits(&Ok((t, pts))),
                bits(&oracle_llcd_tail(&data, threshold))
            );
        }
    }

    #[test]
    fn upper_order_statistics_are_the_head_of_the_descending_sort() {
        let mut rng = StdRng::seed_from_u64(9);
        let raw = Pareto::new(1.1, 1.0).unwrap().sample_n(&mut rng, 2_000);
        let tied: Vec<f64> = raw.iter().map(|x| x.floor()).collect();
        for data in [raw, tied] {
            let mut desc = data.clone();
            desc.sort_by(|a, b| b.partial_cmp(a).unwrap());
            for k in [0, 1, 279, 1_999] {
                assert_eq!(upper_order_statistics(&data, k), desc[..=k]);
            }
        }
    }

    #[test]
    fn eval_matches_definition() {
        let c = EmpiricalCcdf::new(&[3.0, 1.0, 2.0]).unwrap();
        assert!((c.eval(0.0) - 1.0).abs() < 1e-12);
        assert!((c.eval(1.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.eval(1.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.eval(3.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_nonincreasing() {
        let data: Vec<f64> = (1..=100).map(|i| (i as f64).sqrt()).collect();
        let c = EmpiricalCcdf::new(&data).unwrap();
        let mut prev = 1.0;
        for i in 0..200 {
            let x = i as f64 * 0.06;
            let v = c.eval(x);
            assert!(v <= prev + 1e-15);
            prev = v;
        }
    }

    #[test]
    fn llcd_points_exclude_zero_survival() {
        let c = EmpiricalCcdf::new(&[1.0, 10.0, 100.0]).unwrap();
        let pts = c.llcd_points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].0 - 0.0).abs() < 1e-12); // log10(1)
        assert!((pts[0].1 - (2.0f64 / 3.0).log10()).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(EmpiricalCcdf::new(&[]).is_err());
        assert!(EmpiricalCcdf::new(&[1.0, -1.0]).is_err());
        assert!(EmpiricalCcdf::new(&[0.0]).is_err());
        assert!(EmpiricalCcdf::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn quantile_thresholds() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let c = EmpiricalCcdf::new(&data).unwrap();
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert!((c.quantile(0.86) - 87.0).abs() <= 1.0); // 86th percentile-ish
        assert_eq!(c.len(), 100);
        assert!(!c.is_empty());
    }
}
