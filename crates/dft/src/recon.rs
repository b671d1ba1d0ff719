//! Pointwise inverse-DFT reconstruction.
//!
//! [`CompressedDft::reconstruct`](crate::CompressedDft::reconstruct) turns a
//! retained coefficient prefix into a real window estimate by Hermitian
//! completion plus a full inverse FFT — *O(W log W)* per call, plus the
//! `O(W)` spectrum buffer it allocates. That is the right tool for a
//! one-shot decompression, but a router that probes one key per peer per
//! tuple reads a single bucket of a reconstruction its next summary
//! replaces. [`PointwiseRecon`] evaluates just that bucket from the prefix:
//!
//! ```text
//! recon[n] = Σ_bin f · Re(X[bin] · e^{+2πi·bin·n/W}) / W
//! ```
//!
//! where `f` is `2` when the Hermitian mirror bin `W − bin` is *implied*
//! (not part of the retained prefix) and `1` otherwise — the same rule
//! [`CompressedDft::reconstruct`](crate::CompressedDft::reconstruct)
//! applies when it completes the spectrum. A precomputed twiddle table
//! makes each bucket *O(K)* with no allocation and no trigonometry.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Evaluates single buckets of an inverse-DFT reconstruction from a
/// retained coefficient prefix: *O(K)* per bucket instead of
/// *O(W log W)* (plus allocation) for the whole signal.
///
/// One plan serves any number of prefixes that share the same signal
/// length `W` and retained-prefix length `K` — it holds only the twiddle
/// table, no per-signal state.
///
/// ```
/// use dsj_dft::{Complex64, CompressedDft, PointwiseRecon};
///
/// let (w, k) = (16, 4);
/// let plan = PointwiseRecon::new(w, k);
/// let coeffs = vec![
///     Complex64::new(8.0, 0.0),
///     Complex64::new(3.0, -1.5),
///     Complex64::ZERO,
///     Complex64::new(-1.0, 0.5),
/// ];
///
/// let full = CompressedDft::from_prefix(coeffs.clone(), w).reconstruct();
/// for (idx, b) in full.iter().enumerate() {
///     assert!((plan.eval(&coeffs, idx) - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PointwiseRecon {
    /// Signal length `W`.
    signal_len: usize,
    /// Retained prefix length `K`.
    retained: usize,
    /// `twiddle[q] = e^{+2πi·q/W}` for `q ∈ [0, W)`.
    twiddle: Vec<Complex64>,
    /// `1 / W`, folded into every bucket.
    inv_w: f64,
}

impl PointwiseRecon {
    /// Builds a plan for signals of length `signal_len` compressed to a
    /// `retained`-coefficient prefix.
    ///
    /// # Panics
    ///
    /// Panics if `retained` is zero or exceeds `signal_len` — the same
    /// domain [`CompressedDft::from_prefix`](crate::CompressedDft::from_prefix)
    /// accepts.
    pub fn new(signal_len: usize, retained: usize) -> Self {
        assert!(retained >= 1, "retained prefix must be non-empty");
        assert!(retained <= signal_len, "prefix cannot exceed signal length");
        let twiddle = (0..signal_len)
            .map(|q| Complex64::cis(2.0 * PI * q as f64 / signal_len as f64))
            .collect();
        PointwiseRecon {
            signal_len,
            retained,
            twiddle,
            inv_w: 1.0 / signal_len as f64,
        }
    }

    /// Signal length `W` this plan serves: the bucket indices `eval` accepts.
    #[inline]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Evaluates one reconstruction bucket directly from the retained
    /// prefix: *O(K)* per bucket, no buffer, no allocation, no
    /// trigonometry.
    ///
    /// `eval(coeffs, idx)` equals `reconstruct(coeffs)[idx]` (up to
    /// rounding) for every `idx < W`; a prefix shorter than `K` reads as
    /// zero-padded to `K`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= W` (twiddle lookup) — callers bound-check first;
    /// `coeffs.len() <= K` is debug-asserted.
    #[inline]
    pub fn eval(&self, coeffs: &[Complex64], idx: usize) -> f64 {
        debug_assert!(
            coeffs.len() <= self.retained,
            "prefix longer than the plan's retained length"
        );
        let w = self.signal_len;
        let mut acc = 0.0;
        // `q = (bin · idx) mod W`, maintained by wrapped addition as the
        // bin walks the prefix — no division on the per-bin path.
        let mut q = 0usize;
        for (bin, c) in coeffs.iter().enumerate() {
            let tw = self.twiddle[q];
            // The Hermitian mirror bin `W − bin` is implied by the
            // real-signal symmetry exactly when the prefix does not already
            // cover it; its contribution is the conjugate of the direct
            // term, so it doubles the real part. DC (`bin = 0`) and a
            // prefix long enough to reach the mirror keep the factor at one.
            let scale = if bin >= 1 && w - bin >= self.retained {
                2.0 * self.inv_w
            } else {
                self.inv_w
            };
            acc += scale * (c.re * tw.re - c.im * tw.im);
            q += idx;
            if q >= w {
                q -= w;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressedDft;

    fn full(coeffs: &[Complex64], w: usize) -> Vec<f64> {
        CompressedDft::from_prefix(coeffs.to_vec(), w).reconstruct()
    }

    #[test]
    fn pointwise_eval_matches_full_reconstruction() {
        // Covers K = W (every mirror explicit), K > W/2 (Nyquist inside
        // the prefix), an odd W and a DC-only prefix.
        for (w, k) in [(32, 8), (16, 16), (8, 6), (15, 4), (64, 1)] {
            let plan = PointwiseRecon::new(w, k);
            let coeffs: Vec<Complex64> = (0..k)
                .map(|b| Complex64::new(0.5 * b as f64 + 1.0, 2.0 - b as f64))
                .collect();
            let full = full(&coeffs, w);
            for (idx, &expect) in full.iter().enumerate() {
                let got = plan.eval(&coeffs, idx);
                assert!(
                    (got - expect).abs() < 1e-9,
                    "W={w} K={k} bucket {idx}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn eval_treats_a_short_prefix_as_zero_padded_to_retained() {
        let (w, k) = (32, 8);
        let plan = PointwiseRecon::new(w, k);
        let mut padded = vec![Complex64::ZERO; k];
        padded[0] = Complex64::new(4.0, 0.0);
        padded[1] = Complex64::new(1.0, -2.0);
        let full = full(&padded, w);
        for (idx, &expect) in full.iter().enumerate() {
            let got = plan.eval(&padded[..2], idx);
            assert!(
                (got - expect).abs() < 1e-9,
                "bucket {idx}: {got} vs {expect}"
            );
        }
    }
}
