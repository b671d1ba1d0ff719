//! Incrementally maintained DFTs.
//!
//! Two flavours are provided, both with per-update cost proportional to the
//! number of *tracked* coefficients `K` rather than the window size `W`:
//!
//! * [`SlidingDft`] — the classic sliding-window ("incremental") DFT of
//!   Section 4: when a sample enters and the oldest leaves, each tracked
//!   coefficient is updated as `X'ₖ = (Xₖ + x_new − x_old)·e^{2πik/W}`.
//! * [`PointDft`] — the DFT of a *fixed-length* vector (e.g. the frequency
//!   histogram of the join attribute over its domain) under point updates:
//!   adding `δ` at position `v` shifts each coefficient by
//!   `δ·e^{-2πikv/D}`.
//!
//! Both accumulate floating-point drift on the order of 1e-16 per
//! coefficient per update. [`SlidingDft`] bounds it by exact recomputation
//! driven by a [`ControlVector`] (Section 4, Table 1's iDFT column);
//! [`PointDft`] is never recomputed: over an experiment's updates its drift
//! stays near 1e-11 of a count, too small to move a rounded bucket.

use crate::complex::Complex64;
use crate::control::ControlVector;
use crate::fft::Fft;
use std::f64::consts::PI;
use std::sync::Arc;

/// Sliding-window incremental DFT over a real-valued signal.
///
/// Tracks the first `K` coefficients (the `β`-prefix of Eqn. 10) of the
/// length-`W` DFT of the most recent `W` samples. Until `W` samples have
/// been pushed the window is implicitly zero-padded.
///
/// ```
/// use dsj_dft::{SlidingDft, ControlVector};
///
/// let mut sdft = SlidingDft::new(8, 4, ControlVector::never());
/// for n in 0..32 {
///     sdft.push(n as f64);
/// }
/// // DC bin equals the sum of the last 8 samples: 24 + 25 + ... + 31.
/// assert!((sdft.coefficients()[0].re - 220.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingDft {
    window: Vec<f64>,
    pos: usize,
    filled: usize,
    coeffs: Vec<Complex64>,
    /// Per-coefficient rotation `e^{2πik/W}` applied after each slide.
    rotors: Vec<Complex64>,
    control: ControlVector,
    updates_since_recompute: u64,
    recomputes: u64,
}

impl SlidingDft {
    /// Creates a sliding DFT over a window of `w` samples, tracking the
    /// first `k` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `k == 0` or `k > w`.
    pub fn new(w: usize, k: usize, control: ControlVector) -> Self {
        assert!(w > 0, "window size must be positive");
        assert!(k > 0 && k <= w, "tracked coefficients must be in 1..=w");
        let rotors = (0..k)
            .map(|i| Complex64::cis(2.0 * PI * i as f64 / w as f64))
            .collect();
        SlidingDft {
            window: vec![0.0; w],
            pos: 0,
            filled: 0,
            coeffs: vec![Complex64::ZERO; k],
            rotors,
            control: control.with_window(w, k),
            updates_since_recompute: 0,
            recomputes: 0,
        }
    }

    /// `true` once `W` samples have been pushed.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.filled == self.window.len()
    }

    /// Number of exact recomputations triggered by the control vector.
    #[inline]
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// The tracked coefficient prefix `X[0..K]`.
    #[inline]
    pub fn coefficients(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// The current window contents in chronological order (oldest first).
    pub fn window_chronological(&self) -> Vec<f64> {
        let w = self.window.len();
        (0..w).map(|i| self.window[(self.pos + i) % w]).collect()
    }

    /// Pushes a sample, evicting the oldest once the window is full.
    /// Returns the evicted sample, if any.
    pub fn push(&mut self, x: f64) -> Option<f64> {
        let old = self.window[self.pos];
        let evicted = if self.is_full() { Some(old) } else { None };
        self.window[self.pos] = x;
        self.pos = (self.pos + 1) % self.window.len();
        if !self.is_full() {
            self.filled += 1;
        }
        let delta = Complex64::from_real(x - old);
        for (c, r) in self.coeffs.iter_mut().zip(self.rotors.iter()) {
            *c = (*c + delta) * *r;
        }
        self.updates_since_recompute += 1;
        if self.control.should_recompute(self.updates_since_recompute) {
            // The exact recompute allocates (FFT scratch); it is amortized
            // over the drift-control interval.
            self.recompute();
        }
        evicted
    }

    /// Recomputes the tracked coefficients exactly from the window contents,
    /// clearing accumulated floating-point drift.
    pub fn recompute(&mut self) {
        let w = self.window.len();
        let chrono = self.window_chronological();
        if self.coeffs.len() as f64 >= (w as f64).log2() {
            // A full FFT (O(w log w), any length via Bluestein) beats the
            // direct O(k·w) evaluation once k exceeds log2 w.
            let spec = Fft::new(w).forward_real(&chrono);
            let k = self.coeffs.len();
            self.coeffs.copy_from_slice(&spec[..k]);
        } else {
            let base = -2.0 * PI / w as f64;
            for (k, c) in self.coeffs.iter_mut().enumerate() {
                let mut acc = Complex64::ZERO;
                for (n, &x) in chrono.iter().enumerate() {
                    acc += Complex64::cis(base * ((k * n) % w) as f64).scale(x);
                }
                *c = acc;
            }
        }
        self.updates_since_recompute = 0;
        self.recomputes += 1;
    }
}

/// Incremental DFT of a fixed-length real vector under point updates.
///
/// Used by the join algorithms to maintain the DFT of the join attribute's
/// *frequency histogram* over its domain: when a tuple with value `v`
/// arrives (or is evicted), the histogram changes by ±1 at index `v` and
/// every tracked coefficient absorbs `±e^{-2πikv/D}`. The coefficients are
/// only ever updated incrementally, never recomputed.
///
/// ```
/// use dsj_dft::{sliding::PointDft, ControlVector};
///
/// let mut h = PointDft::new(16, 16, ControlVector::never());
/// h.add(3, 1.0);
/// h.add(3, 1.0);
/// h.add(7, 1.0);
/// // DC bin equals the histogram total.
/// assert!((h.coefficients()[0].re - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PointDft {
    coeffs: Vec<Complex64>,
    domain: usize,
    // `PointDft::twiddles(D)`: every rotation any update can need, so the
    // per-update loop does no trig. Shared by every `PointDft` built over
    // the same table; a clone shares it too.
    twiddle: Arc<[Complex64]>,
    total_updates: u64,
}

impl PointDft {
    /// Creates a point-update DFT over a vector of length `domain`,
    /// tracking the first `k` coefficients.
    ///
    /// `control` must be [`ControlVector::never`]: a `PointDft` is never
    /// recomputed. The parameter is an adapter shim for `benches/e2e`,
    /// which still spells `PointDft::new(d, k, ControlVector::never())`;
    /// ROADMAP item 5(d) retires it together with the benchmark's spelling.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0` or `k == 0` or `k > domain`, or if
    /// `control` asks for periodic recomputation
    /// (`control.recompute_interval != 0`).
    pub fn new(domain: usize, k: usize, control: ControlVector) -> Self {
        assert!(
            control.recompute_interval == 0,
            "a PointDft is never recomputed; pass ControlVector::never()"
        );
        Self::with_twiddles(Self::twiddles(domain), k)
    }

    /// The rotation table of a point-update DFT over a vector of length
    /// `domain`: entry `q` holds exactly `Complex64::cis(-2π·q/D)`, the
    /// expression the direct computation evaluates, so results are
    /// bit-identical. One table serves every `PointDft` over that domain.
    pub fn twiddles(domain: usize) -> Arc<[Complex64]> {
        let base = -2.0 * PI / domain as f64;
        (0..domain)
            .map(|q| Complex64::cis(base * q as f64))
            .collect()
    }

    /// A point-update DFT that reads the shared rotation table `twiddles`,
    /// which must be [`PointDft::twiddles`] of the vector's length
    /// (`twiddles.len()`), tracking the first `k` coefficients.
    /// [`PointDft::new`] is this over a table of its own.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or `k == 0` or `k > twiddles.len()`.
    pub fn with_twiddles(twiddles: Arc<[Complex64]>, k: usize) -> Self {
        let domain = twiddles.len();
        assert!(domain > 0, "domain must be positive");
        assert!(
            k > 0 && k <= domain,
            "tracked coefficients must be in 1..=domain"
        );
        PointDft {
            coeffs: vec![Complex64::ZERO; k],
            domain,
            twiddle: twiddles,
            total_updates: 0,
        }
    }

    /// The tracked coefficient prefix `X[0..K]`.
    #[inline]
    pub fn coefficients(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// Total point updates applied.
    #[inline]
    pub fn updates(&self) -> u64 {
        self.total_updates
    }

    /// Adds `delta` at `index`, updating all tracked coefficients in `O(K)`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= domain`.
    pub fn add(&mut self, index: usize, delta: f64) {
        assert!(index < self.domain, "index out of domain");
        // `q = (k · index) mod D`, maintained by wrapped addition as `k`
        // walks the prefix — no division on the per-bin path.
        let mut q = 0usize;
        for c in &mut self.coeffs {
            *c += self.twiddle[q].scale(delta);
            q += index;
            if q >= self.domain {
                q -= self.domain;
            }
        }
        self.total_updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_direct_real;

    #[test]
    fn sliding_matches_batch_dft() {
        let w = 16;
        let mut sdft = SlidingDft::new(w, w, ControlVector::never());
        let signal: Vec<f64> = (0..40).map(|n| ((n * 7) % 13) as f64).collect();
        for &x in &signal {
            sdft.push(x);
        }
        let window: Vec<f64> = signal[signal.len() - w..].to_vec();
        let batch = dft_direct_real(&window);
        for (a, b) in sdft.coefficients().iter().zip(&batch) {
            assert!((*a - *b).abs() < 1e-9, "sliding {a:?} vs batch {b:?}");
        }
    }

    #[test]
    fn sliding_partial_window_zero_padded() {
        let mut sdft = SlidingDft::new(8, 8, ControlVector::never());
        sdft.push(5.0);
        sdft.push(3.0);
        // Window in chronological order is [0,0,0,0,0,0,5,3] after two pushes
        // into a ring starting at 0... equivalently DFT of the ring contents.
        let batch = dft_direct_real(&sdft.window_chronological());
        for (a, b) in sdft.coefficients().iter().zip(&batch) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn sliding_eviction_reported() {
        let mut sdft = SlidingDft::new(2, 1, ControlVector::never());
        assert_eq!(sdft.push(1.0), None);
        assert_eq!(sdft.push(2.0), None);
        assert_eq!(sdft.push(3.0), Some(1.0));
        assert_eq!(sdft.push(4.0), Some(2.0));
    }

    #[test]
    fn recompute_clears_drift() {
        let mut sdft = SlidingDft::new(32, 8, ControlVector::never());
        for n in 0..10_000 {
            sdft.push(((n * 31) % 100) as f64);
        }
        sdft.recompute();
        let batch = dft_direct_real(&sdft.window_chronological());
        for (a, b) in sdft.coefficients().iter().zip(batch.iter().take(8)) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn control_vector_triggers_recompute() {
        let cv = ControlVector {
            cost_reduction: 10.0,
            recompute_interval: 50,
        };
        let mut sdft = SlidingDft::new(16, 4, ControlVector { ..cv });
        // with_window may adjust the interval; just check that recomputes happen.
        for n in 0..10_000 {
            sdft.push(n as f64);
        }
        assert!(sdft.recomputes() > 0);
    }

    #[test]
    fn long_run_drift_stays_small_with_recompute() {
        let cv = ControlVector::paper_default();
        let mut sdft = SlidingDft::new(64, 64, cv);
        let mut reference: Vec<f64> = Vec::new();
        for n in 0..5_000 {
            let x = ((n * 17) % 251) as f64;
            sdft.push(x);
            reference.push(x);
        }
        let window = &reference[reference.len() - 64..];
        let batch = dft_direct_real(window);
        for (a, b) in sdft.coefficients().iter().zip(&batch) {
            assert!((*a - *b).abs() < 1e-6, "drift too large: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn point_dft_matches_batch() {
        let d = 32;
        let mut pd = PointDft::new(d, d, ControlVector::never());
        let updates = [(3usize, 1.0), (3, 1.0), (17, 2.0), (31, -1.0), (0, 4.0)];
        let mut vec = vec![0.0; d];
        for &(i, delta) in &updates {
            pd.add(i, delta);
            vec[i] += delta;
        }
        let batch = dft_direct_real(&vec);
        for (a, b) in pd.coefficients().iter().zip(&batch) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn point_dft_prefix_tracking() {
        let mut pd = PointDft::new(64, 8, ControlVector::never());
        let vec: Vec<f64> = (0..64).map(|v| (v % 5) as f64).collect();
        for (v, &x) in vec.iter().enumerate() {
            pd.add(v, x);
        }
        let batch = dft_direct_real(&vec);
        for (a, b) in pd.coefficients().iter().zip(batch.iter().take(8)) {
            assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn point_dft_add_equals_the_modulo_oracle_bitwise() {
        // K = D on the small domain, so `q` wraps many times per update.
        for (d, k) in [(15, 15), (4096, 16)] {
            let mut pd = PointDft::new(d, k, ControlVector::never());
            let base = -2.0 * PI / d as f64;
            let mut oracle = vec![Complex64::ZERO; k];
            let mut x = 12_345usize;
            for n in 0..10_000 {
                x = (x * 1_103_515_245 + 12_345) % (1 << 31);
                let index = x % d;
                let delta = if n % 3 == 2 { -1.0 } else { 1.0 };
                pd.add(index, delta);
                for (kk, c) in oracle.iter_mut().enumerate() {
                    *c += Complex64::cis(base * ((kk * index) % d) as f64).scale(delta);
                }
            }
            for (kk, (a, b)) in pd.coefficients().iter().zip(&oracle).enumerate() {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "D={d} bin {kk}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of domain")]
    fn point_dft_bounds_checked() {
        let mut pd = PointDft::new(4, 2, ControlVector::never());
        pd.add(4, 1.0);
    }

    #[test]
    #[should_panic(expected = "a PointDft is never recomputed")]
    fn point_dft_refuses_a_recomputing_control_vector() {
        PointDft::new(16, 4, ControlVector::paper_default());
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_rejected() {
        SlidingDft::new(0, 1, ControlVector::never());
    }

    #[test]
    #[should_panic(expected = "tracked coefficients must be in 1..=w")]
    fn oversized_k_rejected() {
        SlidingDft::new(4, 5, ControlVector::never());
    }
}
