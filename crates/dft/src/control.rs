//! The recomputation control vector for incremental DFT maintenance.
//!
//! Section 4 of the paper tunes the trade-off between the arithmetic cost
//! and the approximation error of incrementally maintained DFT coefficients
//! using the probabilistic analysis of Winograd & Nawab: the control vector
//! is chosen so that arithmetic complexity drops by a factor of ~10 with a
//! completion probability above 0.95. In this implementation the control
//! vector boils down to *how often the incrementally drifting coefficients
//! are recomputed exactly* — the knob that bounds accumulated floating-point
//! drift (≈1e-16 per coefficient per update) while keeping amortized cost a
//! fixed fraction of full per-tuple recomputation.

/// Governs how often an incrementally maintained DFT is recomputed exactly.
///
/// ```
/// use dsj_dft::ControlVector;
///
/// let cv = ControlVector::paper_default();
/// assert_eq!(cv.cost_reduction, 10.0);
/// assert!(cv.should_recompute(cv.recompute_interval));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlVector {
    /// Target factor by which amortized arithmetic is reduced relative to
    /// recomputing the full DFT on every tuple.
    pub cost_reduction: f64,
    /// Number of incremental updates between exact recomputations. `0`
    /// disables periodic recomputation entirely.
    pub recompute_interval: u64,
}

impl ControlVector {
    /// The paper's setting: arithmetic reduced 10× with completion
    /// probability ≥ 0.95; the recomputation interval is derived per-window
    /// via [`ControlVector::with_window`].
    pub fn paper_default() -> Self {
        ControlVector {
            cost_reduction: 10.0,
            recompute_interval: 256,
        }
    }

    /// A control vector that never recomputes (pure incremental updates).
    pub fn never() -> Self {
        ControlVector {
            cost_reduction: f64::INFINITY,
            recompute_interval: 0,
        }
    }

    /// Derives the recomputation interval for a window of `w` samples with
    /// `k` tracked coefficients so that amortized exact recomputation adds
    /// at most a `1/cost_reduction` overhead on top of the `O(k)` per-update
    /// incremental work: `interval = ⌈recompute_cost·cost_reduction / k⌉`,
    /// where the recompute costs `min(k·w, w·log₂ w)` operations (direct
    /// per-coefficient evaluation vs a full FFT).
    ///
    /// A floor of 16 updates guards degenerate parameters.
    pub fn with_window(mut self, w: usize, k: usize) -> Self {
        if self.recompute_interval == 0 {
            return self;
        }
        let w = w.max(2) as f64;
        let k = k.max(1) as f64;
        let recompute_cost = (k * w).min(w * w.log2());
        let interval = (recompute_cost * self.cost_reduction / k).ceil() as u64;
        self.recompute_interval = interval.clamp(16, 1 << 24);
        self
    }

    /// `true` when `updates_since` incremental updates warrant an exact
    /// recomputation.
    #[inline]
    pub fn should_recompute(&self, updates_since: u64) -> bool {
        self.recompute_interval != 0 && updates_since >= self.recompute_interval
    }
}

impl Default for ControlVector {
    fn default() -> Self {
        ControlVector::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section4() {
        let cv = ControlVector::paper_default();
        assert_eq!(cv.cost_reduction, 10.0);
        assert!(cv.recompute_interval > 0);
    }

    #[test]
    fn never_disables_recompute() {
        let cv = ControlVector::never();
        assert!(!cv.should_recompute(u64::MAX));
    }

    #[test]
    fn with_window_scales_interval() {
        // Recompute must stay a small fraction of incremental work: for
        // k = 64 over 2^16 samples, one FFT costs 2^16·16 ops, so the
        // interval must exceed 10·that/64 ≈ 164k updates.
        let cv = ControlVector::paper_default().with_window(1 << 16, 64);
        assert!(cv.recompute_interval >= 100_000);
        // Tracking everything makes recomputation relatively cheap.
        let dense = ControlVector::paper_default().with_window(1 << 16, 1 << 16);
        assert!(dense.recompute_interval < cv.recompute_interval);
        assert!(dense.recompute_interval >= 16);
    }

    #[test]
    fn should_recompute_threshold() {
        let cv = ControlVector {
            cost_reduction: 10.0,
            recompute_interval: 100,
        };
        assert!(!cv.should_recompute(99));
        assert!(cv.should_recompute(100));
        assert!(cv.should_recompute(101));
    }

    #[test]
    fn with_window_respects_disabled() {
        let cv = ControlVector::never().with_window(1024, 8);
        assert_eq!(cv.recompute_interval, 0);
    }
}
