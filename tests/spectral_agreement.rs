//! One simulated server week at the paper's 1 s bins: period detection and
//! the spectral Hurst estimators agree between the mixed-radix real FFT
//! and the reference transform.

use webpuzzle::lrd::{
    periodogram_hurst, periodogram_hurst_from_periodogram, whittle, whittle_from_periodogram,
};
use webpuzzle::timeseries::{
    dominant_period, dominant_period_from_periodogram, periodogram_reference, remove_linear_trend,
    seasonal_difference, CountSeries,
};
use webpuzzle::weblog::{WeekDataset, DEFAULT_SESSION_THRESHOLD};
use webpuzzle::workload::{ServerProfile, WorkloadGenerator};

#[test]
fn a_week_at_one_second_bins_agrees_with_the_reference_transform() {
    let records = WorkloadGenerator::new(ServerProfile::csee().with_scale(0.05))
        .seed(1)
        .generate()
        .unwrap();
    let ds = WeekDataset::from_records(records, DEFAULT_SESSION_THRESHOLD).unwrap();
    let series =
        CountSeries::from_event_times_in_window(&ds.request_times(), 1.0, 0.0, 604_800).unwrap();
    let (detrended, _, _) = remove_linear_trend(series.counts()).unwrap();

    // The period search of `decompose` on the repro's bounds.
    let (lo, hi, snr) = (3_600.0, 216_000.0, 10.0);
    let period = dominant_period(&detrended, lo, hi, snr).unwrap();
    let reference = periodogram_reference(&detrended).unwrap();
    assert_eq!(
        period,
        dominant_period_from_periodogram(&reference, lo, hi, snr).unwrap()
    );
    let stationary = match period {
        Some(p) => seasonal_difference(&detrended, p.round() as usize).unwrap(),
        None => detrended,
    };

    for x in [series.counts(), &stationary[..]] {
        let reference = periodogram_reference(x).unwrap();
        let (got, want) = (
            periodogram_hurst(x).unwrap(),
            periodogram_hurst_from_periodogram(&reference).unwrap(),
        );
        assert!((got.h - want.h).abs() <= 1e-9, "{got:?} vs {want:?}");
        let (got, want) = (
            whittle(x).unwrap(),
            whittle_from_periodogram(&reference).unwrap(),
        );
        assert!((got.h - want.h).abs() <= 1e-6, "{got:?} vs {want:?}");
        let ((lo, hi), (want_lo, want_hi)) = (got.ci95.unwrap(), want.ci95.unwrap());
        assert!((lo - want_lo).abs() <= 1e-6 && (hi - want_hi).abs() <= 1e-6);
    }
}
