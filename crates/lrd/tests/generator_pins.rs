//! The synthetic generators' bits, pinned.
//!
//! Every genlog trace and benchmark fixture is drawn from these
//! generators, and their bits depend on the FFT they call
//! (`fft_reference`). A change of transform, or of anything else on the
//! draw path, re-rolls every fixture; these hashes make it fail here
//! instead of silently.

use webpuzzle_lrd::arfima::FarimaGenerator;
use webpuzzle_lrd::fgn::FgnGenerator;

/// FNV-1a over the little-endian bits of each sample.
fn fnv1a(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in xs.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fgn_draw_is_pinned() {
    let x = FgnGenerator::new(0.8)
        .unwrap()
        .seed(1)
        .generate(10_080)
        .unwrap();
    assert_eq!(fnv1a(&x), 0x8f4b_513e_9e41_aaff);
}

#[test]
fn farima_draw_is_pinned() {
    let x = FarimaGenerator::new(0.3)
        .unwrap()
        .seed(7)
        .generate(4_096)
        .unwrap();
    assert_eq!(fnv1a(&x), 0x6471_9b13_e01b_419f);
}
