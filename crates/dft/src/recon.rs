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
//! every peer's summary) keeps them as the columns of two bin-major planes,
//! real and imaginary parts, and reads all of them in one pass
//! ([`PointwiseRecon::eval_columns`]): the key's twiddles are walked once,
//! the inner loop runs across columns, and each column's bucket is bit for
//! bit what `eval` returns for its prefix.

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

    /// Evaluates bucket `idx` of every column of a bin-major pair of
    /// coefficient planes into `acc`: with `M = acc.len()` columns,
    /// `re[bin·M + c]` and `im[bin·M + c]` hold bin `bin` of column `c`'s
    /// prefix, `K` bins deep. `acc[c]` becomes `eval` of that prefix, bit
    /// for bit: each column sums the same expression in the same bin order,
    /// starting from zero. The key's twiddles are walked once for every
    /// column, and the inner loop, one bin across all columns, vectorises.
    ///
    /// Returns `false`, leaving `acc` untouched, when `idx >= W`: that
    /// bucket does not exist.
    ///
    /// # Panics
    ///
    /// Panics if a plane does not hold exactly `K · M` entries.
    pub fn eval_columns(&self, re: &[f64], im: &[f64], idx: usize, acc: &mut [f64]) -> bool {
        let w = self.signal_len;
        if idx >= w {
            return false;
        }
        let m = acc.len();
        assert!(
            re.len() == self.retained * m && im.len() == re.len(),
            "planes must hold K bins of every column"
        );
        acc.fill(0.0);
        if m == 0 {
            return true;
        }
        // The same wrapped walk of `q = (bin · idx) mod W` as `eval`.
        let mut q = 0usize;
        for (bin, (re, im)) in re.chunks_exact(m).zip(im.chunks_exact(m)).enumerate() {
            let (scale, tw) = (self.scale(bin), self.twiddle[q]);
            for ((a, &r), &i) in acc.iter_mut().zip(re).zip(im) {
                *a += scale * (r * tw.re - i * tw.im);
            }
            q += idx;
            if q >= w {
                q -= w;
            }
        }
        true
    }

    /// Bucket `idx` of column `col` alone of the planes
    /// [`PointwiseRecon::eval_columns`] reads: bit for bit what that pass
    /// writes to `acc[col]`, the same expression summed in the same bin
    /// order from zero. `None` when `idx >= W`.
    ///
    /// # Panics
    ///
    /// Panics if a plane does not hold `K` bins of at least `col + 1`
    /// columns.
    pub fn eval_column(&self, re: &[f64], im: &[f64], col: usize, idx: usize) -> Option<f64> {
        let w = self.signal_len;
        if idx >= w {
            return None;
        }
        let m = re.len() / self.retained;
        assert!(
            col < m && re.len() == self.retained * m && im.len() == re.len(),
            "planes must hold K bins of every column"
        );
        let (mut acc, mut q) = (0.0, 0usize);
        for bin in 0..self.retained {
            let (scale, tw) = (self.scale(bin), self.twiddle[q]);
            acc += scale * (re[bin * m + col] * tw.re - im[bin * m + col] * tw.im);
            q += idx;
            if q >= w {
                q -= w;
            }
        }
        Some(acc)
    }

    /// Which blocks of `grid` the reconstruction of `coeffs` (`K` bins) can
    /// reach `threshold` in: `mark(j, reach)` for every block `j` in order.
    /// `edges` is scratch for the `G + 1` edge values.
    ///
    /// On a block between edges `a` and `b`, `f ≤ max(f(a), f(b)) +
    /// M₂·ℓ²/8`, with `ℓ` the block's width and `M₂ = Σ_b s_b·|X_b|·(2πb/W)²`
    /// a bound on `|f''|`. The edge values are summed bin by bin across all
    /// edges at once, so they may differ from [`PointwiseRecon::eval`] in
    /// the last bits; the margin `1e-9·(1 + Σ_b s_b·(|re| + |im|))` absorbs
    /// that rounding and any bucket read's, each a sum of terms no larger
    /// than `s_b·(|re| + |im|)`. Costs `K·(G + 1)` terms.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` does not hold `K` bins, `grid` was built for
    /// another plan, or `edges` is shorter than `G + 1`.
    pub fn reach(
        &self,
        grid: &BlockGrid,
        coeffs: &[Complex64],
        edges: &mut [f64],
        threshold: f64,
        mut mark: impl FnMut(usize, bool),
    ) {
        let k = self.retained;
        assert!(
            coeffs.len() == k && grid.curvature.len() == k,
            "a column of K bins over this plan's grid"
        );
        let n = grid.re.len() / k;
        let f = &mut edges[..n];
        f.fill(0.0);
        let (mut m2, mut mass) = (0.0, 0.0);
        let rows = grid.re.chunks_exact(n).zip(grid.im.chunks_exact(n));
        for (bin, ((c, w), (re, im))) in
            coeffs.iter().zip(&grid.curvature[..]).zip(rows).enumerate()
        {
            let s = self.scale(bin);
            m2 += w * c.norm_sqr().sqrt();
            mass += s * (c.re.abs() + c.im.abs());
            let (a, b) = (s * c.re, s * c.im);
            for ((v, &r), &i) in f.iter_mut().zip(re).zip(im) {
                *v += a * r - b * i;
            }
        }
        let margin = 1e-9 * (1.0 + mass);
        for (j, pair) in f.windows(2).enumerate() {
            let width = grid.block.min(self.signal_len - j * grid.block) as f64;
            mark(
                j,
                pair[0].max(pair[1]) + m2 * width * width / 8.0 + margin >= threshold,
            );
        }
    }
}

/// The block edges of a [`PointwiseRecon`]'s key range, for
/// [`PointwiseRecon::reach`]: blocks of `L` keys, the last one short when
/// `L` does not divide `W`, with the rotations `cis(2π·bin·e/W)` at each of
/// the `G + 1` edges `e = 0, L, …, W` and each bin's curvature weight. One
/// grid serves every plan over the same `W` and `K`.
#[derive(Debug)]
pub struct BlockGrid {
    /// Keys per block `L`.
    block: usize,
    /// Bin-major rotation planes: `re[b·(G + 1) + j]` and `im[…]` hold the
    /// entry of the plan's twiddle table that [`PointwiseRecon::eval`]
    /// reads for bin `b` at edge `j`'s key (the edge `W` reads as key `0`).
    re: Box<[f64]>,
    im: Box<[f64]>,
    /// `s_b·(2πb/W)²`: bin `b`'s weight in the curvature bound `M₂`.
    curvature: Box<[f64]>,
}

impl BlockGrid {
    /// The grid of blocks of `block` keys over `plan`'s signal length.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero.
    pub fn new(plan: &PointwiseRecon, block: usize) -> Self {
        assert!(block >= 1, "blocks hold at least one key");
        let (w, k) = (plan.signal_len, plan.retained);
        let blocks = w.div_ceil(block);
        let rotations: Vec<Complex64> = (0..k)
            .flat_map(|bin| (0..=blocks).map(move |j| plan.twiddle[bin * (j * block).min(w) % w]))
            .collect();
        let curvature = (0..k)
            .map(|bin| {
                let omega = 2.0 * PI * bin as f64 / w as f64;
                plan.scale(bin) * omega * omega
            })
            .collect();
        BlockGrid {
            block,
            re: rotations.iter().map(|c| c.re).collect(),
            im: rotations.iter().map(|c| c.im).collect(),
            curvature,
        }
    }

    /// Keys per block `L`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of blocks `G = ⌈W / L⌉`.
    pub fn blocks(&self) -> usize {
        self.re.len() / self.curvature.len() - 1
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
