//! Property-based equivalence: pointwise reconstruction
//! ([`PointwiseRecon::eval`]) equals the full Hermitian-completion inverse
//! DFT ([`CompressedDft::reconstruct`]) bucket for bucket.
//!
//! This is the contract the DFTT router's membership tests rely on: it
//! reads one bucket of each peer's reconstructed window per tuple, and
//! that bucket must be what a from-scratch reconstruction of the peer's
//! current prefix holds. The cases cover arbitrary W / K regimes,
//! including K = W and K > W/2 (a prefix covering its own mirrors and the
//! Nyquist bin), and prefixes shorter than K.

use dsj_dft::{Complex64, CompressedDft, PointwiseRecon};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every bucket of a random prefix, evaluated pointwise, matches the
    /// full reconstruction of that prefix zero-padded to K.
    #[test]
    fn eval_matches_full_reconstruction(
        w in 2usize..80,
        k_seed in 0usize..4096,
        len_seed in 0usize..4096,
        values in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 80..81),
    ) {
        let k = 1 + k_seed % w;
        let len = 1 + len_seed % k;
        let plan = PointwiseRecon::new(w, k);
        let mut coeffs = vec![Complex64::ZERO; k];
        for (c, &(re, im)) in coeffs.iter_mut().zip(&values).take(len) {
            *c = Complex64::new(re, im);
        }
        let reference = CompressedDft::from_prefix(coeffs.clone(), w).reconstruct();
        for (idx, b) in reference.iter().enumerate() {
            let a = plan.eval(&coeffs[..len], idx);
            prop_assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "bucket {}: pointwise {} vs full {} (W={}, K={}, len={})",
                idx, a, b, w, k, len
            );
        }
    }
}

/// Irregular coefficients from a seed: magnitudes up to 100, both signs,
/// so no product rounds exactly.
fn coefficients(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One pass over a bin-major plane pair evaluates every column's
    /// bucket bit for bit as `eval` of that column's prefix, on every
    /// bucket of an odd, a non-power-of-two and the benchmark's W, with
    /// all-zero columns among the rest. A bucket past the signal returns
    /// `false` and leaves the accumulator as it was. K spans `1..=W`
    /// except at W = 4 096, where it stays at most 128 (the benchmark
    /// retains 16 or 64) so that a case stays cheap in a debug build.
    #[test]
    fn eval_columns_equals_eval_of_each_column_bitwise(
        w_pick in 0usize..3,
        k_seed in 0usize..4096,
        width in 1usize..21,
        zero_mask in 0u32..u32::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let w = [15, 100, 4096][w_pick];
        let k = 1 + k_seed % w.min(128);
        let plan = PointwiseRecon::new(w, k);
        let (mut re, mut im) = (coefficients(seed, k * width), coefficients(!seed, k * width));
        for (i, (r, m)) in re.iter_mut().zip(&mut im).enumerate() {
            if zero_mask >> (i % width) & 1 == 1 {
                (*r, *m) = (0.0, 0.0);
            }
        }
        let columns: Vec<Vec<Complex64>> = (0..width)
            .map(|c| (0..k).map(|b| Complex64::new(re[b * width + c], im[b * width + c])).collect())
            .collect();
        let mut acc = vec![0.0; width];
        for idx in 0..w {
            prop_assert!(plan.eval_columns(&re, &im, idx, &mut acc));
            for (c, (got, column)) in acc.iter().zip(&columns).enumerate() {
                prop_assert_eq!(
                    got.to_bits(),
                    plan.eval(column, idx).to_bits(),
                    "W={} K={} column {} bucket {}", w, k, c, idx
                );
            }
        }
        let before: Vec<u64> = acc.iter().map(|a| a.to_bits()).collect();
        for idx in [w, w + (seed % 1000) as usize] {
            prop_assert!(!plan.eval_columns(&re, &im, idx, &mut acc));
            prop_assert_eq!(acc.iter().map(|a| a.to_bits()).collect::<Vec<_>>(), before.clone());
        }
    }
}
