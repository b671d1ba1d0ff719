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
//!
//! A caller that reads the *same* bucket of many prefixes (one key against
//! every peer's summary) fills that bucket's per-bin factors once into a
//! [`ReconRow`] ([`PointwiseRecon::fill_row`]) and reads each prefix
//! against it ([`ReconRow::eval`]), bit for bit what `eval` returns.

use crate::complex::Complex64;
use std::f64::consts::PI;
use std::sync::Arc;

/// Evaluates single buckets of an inverse-DFT reconstruction from a
/// retained coefficient prefix: *O(K)* per bucket instead of
/// *O(W log W)* (plus allocation) for the whole signal.
///
/// One plan serves any number of prefixes that share the same signal
/// length `W` and retained-prefix length `K` — it holds only the twiddle
/// table, no per-signal state, and a clone shares that table.
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
    /// [`PointwiseRecon::twiddles`]`(W)`.
    twiddle: Arc<[Complex64]>,
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
        Self::with_twiddles(Self::twiddles(signal_len), retained)
    }

    /// The inverse rotation table for signals of length `signal_len`:
    /// entry `q` holds exactly `Complex64::cis(2π·q/W)`. One table serves
    /// every plan over that length.
    ///
    /// It is not the conjugate of [`PointDft::twiddles`](crate::sliding::PointDft::twiddles):
    /// that table's angle is `(−2π/W)·q`, this one's `2π·q/W`, and the two
    /// round differently when `W` is not a power of two.
    pub fn twiddles(signal_len: usize) -> Arc<[Complex64]> {
        (0..signal_len)
            .map(|q| Complex64::cis(2.0 * PI * q as f64 / signal_len as f64))
            .collect()
    }

    /// A plan that reads the shared table `twiddles`, which must be
    /// [`PointwiseRecon::twiddles`] of the signal length (`twiddles.len()`),
    /// for prefixes of `retained` coefficients. [`PointwiseRecon::new`] is
    /// this over a table of its own.
    ///
    /// # Panics
    ///
    /// As [`PointwiseRecon::new`], with `W = twiddles.len()`.
    pub fn with_twiddles(twiddles: Arc<[Complex64]>, retained: usize) -> Self {
        let signal_len = twiddles.len();
        assert!(retained >= 1, "retained prefix must be non-empty");
        assert!(retained <= signal_len, "prefix cannot exceed signal length");
        PointwiseRecon {
            signal_len,
            retained,
            twiddle: twiddles,
            inv_w: 1.0 / signal_len as f64,
        }
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
            acc += self.scale(bin) * (c.re * tw.re - c.im * tw.im);
            q += idx;
            if q >= w {
                q -= w;
            }
        }
        acc
    }

    /// The factor bin `bin` contributes with. The Hermitian mirror bin
    /// `W − bin` is implied by the real-signal symmetry exactly when the
    /// prefix does not already cover it; its contribution is the conjugate
    /// of the direct term, so it doubles the real part. DC (`bin = 0`) and
    /// a prefix long enough to reach the mirror keep the factor at one.
    #[inline]
    fn scale(&self, bin: usize) -> f64 {
        if bin >= 1 && self.signal_len - bin >= self.retained {
            2.0 * self.inv_w
        } else {
            self.inv_w
        }
    }

    /// An empty row with room for this plan's `K` factors, so that
    /// [`PointwiseRecon::fill_row`] never allocates into it.
    pub fn row(&self) -> ReconRow {
        ReconRow {
            factors: Vec::with_capacity(self.retained),
        }
    }

    /// Writes bucket `idx`'s per-bin factors — scale and twiddle for each
    /// of the `K` bins — into `row`, replacing what it held. Returns
    /// `false`, leaving `row` untouched, when `idx >= W`: that bucket does
    /// not exist.
    ///
    /// Allocates only if `row` has room for fewer than `K` factors (a row
    /// from [`PointwiseRecon::row`] always has room).
    pub fn fill_row(&self, idx: usize, row: &mut ReconRow) -> bool {
        let w = self.signal_len;
        if idx >= w {
            return false;
        }
        row.factors.clear();
        // The same wrapped walk of `q = (bin · idx) mod W` as `eval`.
        let mut q = 0usize;
        row.factors.extend((0..self.retained).map(|bin| {
            let factor = (self.scale(bin), self.twiddle[q]);
            q += idx;
            if q >= w {
                q -= w;
            }
            factor
        }));
        true
    }
}

/// One reconstruction bucket's per-bin factors, filled by
/// [`PointwiseRecon::fill_row`] and read against any number of prefixes
/// with [`ReconRow::eval`].
///
/// ```
/// use dsj_dft::{Complex64, PointwiseRecon};
///
/// let plan = PointwiseRecon::new(16, 4);
/// let coeffs = [Complex64::new(8.0, 0.0), Complex64::new(3.0, -1.5)];
/// let mut row = plan.row();
/// assert!(plan.fill_row(5, &mut row));
/// assert_eq!(row.eval(&coeffs).to_bits(), plan.eval(&coeffs, 5).to_bits());
/// assert!(!plan.fill_row(16, &mut row), "bucket 16 does not exist");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReconRow {
    /// `(scale, twiddle)` per bin of the prefix.
    factors: Vec<(f64, Complex64)>,
}

impl ReconRow {
    /// The row's bucket of the reconstruction from `coeffs`: the same
    /// expression, in the same order, as [`PointwiseRecon::eval`], so the
    /// two agree bit for bit. A prefix shorter than the row reads as
    /// zero-padded.
    #[inline]
    pub fn eval(&self, coeffs: &[Complex64]) -> f64 {
        debug_assert!(
            coeffs.len() <= self.factors.len(),
            "prefix longer than the row"
        );
        let mut acc = 0.0;
        for (&(scale, tw), c) in self.factors.iter().zip(coeffs) {
            acc += scale * (c.re * tw.re - c.im * tw.im);
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
    fn row_reads_every_bucket_bit_for_bit_like_eval() {
        for (w, k) in [(15, 4), (16, 16), (8, 6), (32, 8), (4096, 16), (64, 1)] {
            let plan = PointwiseRecon::new(w, k);
            // Irregular magnitudes and signs, so no product rounds exactly.
            let coeffs: Vec<Complex64> = (0..k)
                .map(|b| {
                    let x = b as f64 + 1.0;
                    Complex64::new(x.sqrt() * 7.3 - 3.1, 1.0 / x - 0.37 * x)
                })
                .collect();
            let mut row = plan.row();
            for idx in 0..w {
                assert!(plan.fill_row(idx, &mut row));
                for prefix in [&coeffs[..], &coeffs[..k / 2]] {
                    assert_eq!(
                        row.eval(prefix).to_bits(),
                        plan.eval(prefix, idx).to_bits(),
                        "W={w} K={k} bucket {idx} prefix {}",
                        prefix.len()
                    );
                }
            }
            assert!(!plan.fill_row(w, &mut row), "W={w}: no bucket W");
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
