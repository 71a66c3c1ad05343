//! The spectral estimators on the mixed-radix real FFT agree with the same
//! estimators on the periodogram of the reference transform.

use webpuzzle_lrd::fgn::FgnGenerator;
use webpuzzle_lrd::{
    periodogram_hurst, periodogram_hurst_from_periodogram, whittle, whittle_from_periodogram,
    HurstSuite,
};
use webpuzzle_timeseries::periodogram_reference;

#[test]
fn estimates_match_the_reference_transform_on_fgn() {
    for (seed, (h, n)) in [
        (0.6, 10_080usize),
        (0.8, 16_384),
        (0.9, 60_480),
        (0.7, 4_093),
    ]
    .into_iter()
    .enumerate()
    {
        let x = FgnGenerator::new(h)
            .unwrap()
            .seed(seed as u64)
            .generate(n)
            .unwrap();
        let reference = periodogram_reference(&x).unwrap();

        let got = periodogram_hurst(&x).unwrap();
        let want = periodogram_hurst_from_periodogram(&reference).unwrap();
        assert!(
            (got.h - want.h).abs() <= 1e-9,
            "n = {n}: {got:?} vs {want:?}"
        );

        let got = whittle(&x).unwrap();
        let want = whittle_from_periodogram(&reference).unwrap();
        assert!(
            (got.h - want.h).abs() <= 1e-6,
            "n = {n}: {got:?} vs {want:?}"
        );
        let ((lo, hi), (want_lo, want_hi)) = (got.ci95.unwrap(), want.ci95.unwrap());
        assert!((lo - want_lo).abs() <= 1e-6 && (hi - want_hi).abs() <= 1e-6);
    }
}

#[test]
fn the_suite_shares_one_periodogram_without_changing_a_bit() {
    let x = FgnGenerator::new(0.75)
        .unwrap()
        .seed(4)
        .generate(8_640)
        .unwrap();
    let suite = HurstSuite::estimate(&x).unwrap();
    assert_eq!(suite.periodogram, Some(periodogram_hurst(&x).unwrap()));
    assert_eq!(suite.whittle, Some(whittle(&x).unwrap()));
    // Too short for either: both fail with the length error, not the
    // periodogram's.
    assert_eq!(
        whittle(&x[..3]).unwrap_err(),
        periodogram_hurst(&x[..3]).unwrap_err()
    );
}
