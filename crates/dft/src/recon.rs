//! Incremental inverse-DFT reconstruction maintenance.
//!
//! [`CompressedDft::reconstruct`](crate::CompressedDft::reconstruct) turns a
//! retained coefficient prefix into a real window estimate by Hermitian
//! completion plus a full inverse FFT — *O(W log W)* per call, plus the
//! `O(W)` spectrum buffer it allocates. That is the right tool for a
//! one-shot decompression, but a router that keeps a per-peer window
//! estimate alive pays that price on **every** summary message, even a
//! single-coefficient piggyback: the cost scales with peer count and
//! drowns an otherwise allocation-free tuple path.
//!
//! The inverse DFT is linear, so it never has to be recomputed from
//! scratch. When one retained coefficient changes by `Δ = new − old`, the
//! reconstruction changes by exactly `Δ`'s inverse-transform contribution:
//!
//! ```text
//! recon[n] += f · Re(Δ · e^{+2πi·bin·n/W}) / W
//! ```
//!
//! where `f` is `2` when the Hermitian mirror bin `W − bin` is *implied*
//! (not part of the retained prefix) and `1` otherwise — the same rule
//! [`CompressedDft::reconstruct`](crate::CompressedDft::reconstruct)
//! applies when it completes the spectrum. [`IncrementalRecon`] packages
//! that update: a precomputed twiddle table at construction, then *O(W)*
//! per changed bin with zero allocation and no trigonometry on the hot
//! path. `cargo test -p dsj-dft` pins the equivalence against the full
//! reconstruction under arbitrary update sequences.

use crate::complex::Complex64;
use std::f64::consts::PI;

/// Maintains inverse-DFT reconstructions incrementally: *O(W)* per changed
/// coefficient instead of *O(W log W)* (plus allocation) per refresh.
///
/// One plan serves any number of reconstruction buffers that share the
/// same signal length `W` and retained-prefix length `K` — it holds only
/// the twiddle table, no per-signal state.
///
/// ```
/// use dsj_dft::{Complex64, CompressedDft, IncrementalRecon};
///
/// let (w, k) = (16, 4);
/// let plan = IncrementalRecon::new(w, k);
/// let mut coeffs = vec![Complex64::ZERO; k];
/// let mut recon = vec![0.0; w];
///
/// // Apply a coefficient change to both representations.
/// let delta = Complex64::new(3.0, -1.5);
/// coeffs[1] = coeffs[1] + delta;
/// plan.apply(&mut recon, 1, delta);
///
/// let full = CompressedDft::from_prefix(coeffs, w).reconstruct();
/// for (a, b) in recon.iter().zip(&full) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalRecon {
    /// Signal length `W`.
    signal_len: usize,
    /// Retained prefix length `K`.
    retained: usize,
    /// `twiddle[q] = e^{+2πi·q/W}` for `q ∈ [0, W)`.
    twiddle: Vec<Complex64>,
    /// `1 / W`, folded into every update.
    inv_w: f64,
}

impl IncrementalRecon {
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
        IncrementalRecon {
            signal_len,
            retained,
            twiddle,
            inv_w: 1.0 / signal_len as f64,
        }
    }

    /// Signal length `W` this plan serves.
    #[inline]
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Folds a coefficient change `delta = new − old` at prefix index
    /// `bin` into `recon`, in place.
    ///
    /// Starting from `recon = CompressedDft::from_prefix(coeffs, W)
    /// .reconstruct()`, applying the change to `coeffs[bin]` and calling
    /// this with the difference leaves `recon` equal (up to rounding) to
    /// the full reconstruction of the updated prefix. An all-zero prefix
    /// reconstructs to all zeros, so `vec![0.0; W]` is a valid starting
    /// point before any coefficient has been applied.
    ///
    /// Zero-allocation and panic-free for `bin < K` and
    /// `recon.len() == W`; both are debug-asserted.
    #[inline]
    pub fn apply(&self, recon: &mut [f64], bin: usize, delta: Complex64) {
        debug_assert!(bin < self.retained, "bin {bin} outside retained prefix");
        debug_assert_eq!(recon.len(), self.signal_len, "reconstruction length");
        // The Hermitian mirror bin `W − bin` is implied by the real-signal
        // symmetry exactly when the prefix does not already cover it; its
        // contribution is the conjugate of the direct term, so it doubles
        // the real part. DC (`bin = 0`) and a prefix long enough to reach
        // the mirror keep the factor at one — mirroring the completion
        // rule in `CompressedDft::reconstruct`.
        let scale = if bin >= 1 && self.signal_len - bin >= self.retained {
            2.0 * self.inv_w
        } else {
            self.inv_w
        };
        let re = scale * delta.re;
        let im = scale * delta.im;
        // `Re(Δ · twiddle[(bin·n) % W])` per sample; the index walks in
        // strides of `bin`, wrapped by subtraction (no division on the
        // per-sample path).
        let mut idx = 0usize;
        for slot in recon.iter_mut() {
            let tw = self.twiddle[idx];
            *slot += re * tw.re - im * tw.im;
            idx += bin;
            if idx >= self.signal_len {
                idx -= self.signal_len;
            }
        }
    }

    /// Changed-bin count at which a summary stops being *sparse*: below
    /// it, folding each bin into a live reconstruction via
    /// [`apply`](Self::apply) (one strided *O(W)* pass per bin) is worth
    /// the buffer upkeep; at or above it, the buffer is cheaper to drop and
    /// recompute bucket-by-bucket, on demand, via [`eval`](Self::eval). The
    /// crossover sits near `log₂(W) / 2`; the floor of 4 keeps tiny signals
    /// on the exact per-bin path.
    #[inline]
    pub fn dense_threshold(&self) -> usize {
        let log2_w = (usize::BITS - 1).saturating_sub(self.signal_len.leading_zeros()) as usize;
        (log2_w / 2).max(4)
    }

    /// Evaluates one reconstruction bucket directly from the retained
    /// prefix: *O(K)* per bucket, no buffer, no allocation, no
    /// trigonometry.
    ///
    /// `eval(coeffs, idx)` equals `reconstruct(coeffs)[idx]` (up to
    /// rounding) for every `idx < W`. When a consumer reads far fewer
    /// than `W` buckets between refreshes — a router probing one key per
    /// tuple — evaluating on demand beats materializing the whole signal
    /// by orders of magnitude.
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
            // Same Hermitian mirror rule as `apply`: an implied conjugate
            // bin doubles the real contribution.
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

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "sample {i}: {x} vs {y}");
        }
    }

    #[test]
    fn single_update_matches_full_reconstruction() {
        let (w, k) = (32, 8);
        let plan = IncrementalRecon::new(w, k);
        for bin in 0..k {
            let mut coeffs = vec![Complex64::ZERO; k];
            let mut recon = vec![0.0; w];
            let delta = Complex64::new(1.25 + bin as f64, -0.5 * bin as f64);
            coeffs[bin] = delta;
            plan.apply(&mut recon, bin, delta);
            assert_close(&recon, &full(&coeffs, w));
        }
    }

    #[test]
    fn repeated_updates_accumulate() {
        let (w, k) = (24, 6);
        let plan = IncrementalRecon::new(w, k);
        let mut coeffs = vec![Complex64::ZERO; k];
        let mut recon = vec![0.0; w];
        let updates = [
            (0, Complex64::new(5.0, 0.0)),
            (3, Complex64::new(-1.0, 2.0)),
            (3, Complex64::new(0.5, -0.25)),
            (5, Complex64::new(2.0, 2.0)),
            (1, Complex64::new(-3.0, 1.0)),
            (0, Complex64::new(-5.0, 0.0)),
        ];
        for (bin, delta) in updates {
            coeffs[bin] += delta;
            plan.apply(&mut recon, bin, delta);
            assert_close(&recon, &full(&coeffs, w));
        }
    }

    #[test]
    fn full_prefix_covers_every_mirror() {
        // K = W: every mirror bin is explicit, so no doubling anywhere.
        let w = 16;
        let plan = IncrementalRecon::new(w, w);
        let mut coeffs = vec![Complex64::ZERO; w];
        let mut recon = vec![0.0; w];
        for (bin, slot) in coeffs.iter_mut().enumerate() {
            let delta = Complex64::new(bin as f64 - 3.0, 1.0 - bin as f64);
            *slot = delta;
            plan.apply(&mut recon, bin, delta);
        }
        assert_close(&recon, &full(&coeffs, w));
    }

    #[test]
    fn nyquist_bin_inside_prefix_is_not_doubled() {
        // K > W/2 puts the Nyquist bin in the prefix; its mirror is
        // itself, so the completion must not double it.
        let (w, k) = (8, 6);
        let plan = IncrementalRecon::new(w, k);
        let mut coeffs = vec![Complex64::ZERO; k];
        let mut recon = vec![0.0; w];
        let delta = Complex64::new(4.0, 0.0);
        coeffs[w / 2] = delta;
        plan.apply(&mut recon, w / 2, delta);
        assert_close(&recon, &full(&coeffs, w));
    }

    #[test]
    fn pointwise_eval_matches_full_reconstruction() {
        for (w, k) in [(32, 8), (16, 16), (8, 6), (15, 4), (64, 1)] {
            let plan = IncrementalRecon::new(w, k);
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
        let plan = IncrementalRecon::new(w, k);
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

    #[test]
    fn dense_threshold_scales_with_signal_length() {
        assert_eq!(IncrementalRecon::new(16, 4).dense_threshold(), 4);
        assert_eq!(IncrementalRecon::new(4096, 16).dense_threshold(), 6);
        assert_eq!(IncrementalRecon::new(1 << 16, 32).dense_threshold(), 8);
    }

    #[test]
    fn odd_signal_length_matches() {
        let (w, k) = (15, 4);
        let plan = IncrementalRecon::new(w, k);
        let mut coeffs = vec![Complex64::ZERO; k];
        let mut recon = vec![0.0; w];
        for (bin, delta) in [
            (0, Complex64::new(7.0, 0.0)),
            (1, Complex64::new(1.0, -1.0)),
            (2, Complex64::new(-2.5, 0.75)),
            (3, Complex64::new(0.25, 3.0)),
        ] {
            coeffs[bin] += delta;
            plan.apply(&mut recon, bin, delta);
            assert_close(&recon, &full(&coeffs, w));
        }
    }
}
