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
