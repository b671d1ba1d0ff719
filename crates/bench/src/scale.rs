//! Experiment scale presets.
//!
//! The paper ran on a 20-workstation cluster with windows of up to 2¹⁹
//! tuples and 10 M-tuple streams. `Full` keeps the paper's *structure*
//! (node counts, κ range, skew) at sizes a laptop regenerates in minutes;
//! `Quick` shrinks further for CI runs. Neither changes who
//! wins — only absolute magnitudes.

/// How large to run each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI sizes (seconds per experiment).
    Quick,
    /// Reproduction sizes (minutes for the full suite).
    Full,
}

impl Scale {
    /// Reads `DSJOIN_SCALE=quick|full` (any case) from the environment;
    /// unset means full.
    ///
    /// # Errors
    ///
    /// Any other value: a typo must not become a minutes-long full run.
    pub fn from_env() -> Result<Self, String> {
        let Ok(value) = std::env::var("DSJOIN_SCALE") else {
            return Ok(Scale::Full);
        };
        match value.to_ascii_lowercase().as_str() {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            _ => Err(format!("DSJOIN_SCALE must be quick or full, not {value:?}")),
        }
    }

    /// Tuples per cluster experiment.
    pub fn tuples(self) -> usize {
        match self {
            Scale::Quick => 6_000,
            Scale::Full => 24_000,
        }
    }

    /// Per-node window size for cluster experiments.
    pub fn window(self) -> usize {
        match self {
            Scale::Quick => 256,
            Scale::Full => 512,
        }
    }

    /// Attribute domain for cluster experiments.
    pub fn domain(self) -> u32 {
        match self {
            Scale::Quick => 1 << 10,
            Scale::Full => 1 << 11,
        }
    }

    /// Node counts swept in the N-sweep figures (9, 10b, 11, 8).
    pub fn node_sweep(self) -> Vec<u16> {
        match self {
            Scale::Quick => vec![4, 8],
            Scale::Full => vec![2, 4, 8, 12, 16, 20],
        }
    }

    /// Compression factors swept in Figure 10a.
    pub fn kappa_sweep(self) -> Vec<u32> {
        match self {
            Scale::Quick => vec![16, 64, 256],
            Scale::Full => vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
        }
    }

    /// Compression factor for the fixed-ε experiments (Figures 9 and 11).
    ///
    /// The paper uses κ = 256 over windows of 2¹⁹; at this repository's
    /// laptop-scale windows the same *relative* summary resolution
    /// (retained coefficients per domain value) corresponds to a smaller
    /// κ. Figures 10a/b keep the paper's literal κ values — that is where
    /// the summary-size sensitivity story lives.
    pub fn figure_kappa(self) -> u32 {
        match self {
            Scale::Quick => 16,
            Scale::Full => 32,
        }
    }

    /// Stock-series length for Figures 5/6 (paper: W ≈ 80 000).
    pub fn series_len(self) -> usize {
        match self {
            Scale::Quick => 8_192,
            Scale::Full => 80_000,
        }
    }

    /// Window sizes for Table 1 (paper: 80 k / 250 k / 500 k / 1 M).
    pub fn table1_windows(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1 << 13, 1 << 14],
            Scale::Full => vec![80_000, 250_000, 500_000, 1_000_000],
        }
    }

    /// Streaming updates timed per Table 1 cell.
    pub fn table1_updates(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(Scale::Quick.tuples() < Scale::Full.tuples());
        assert!(Scale::Quick.series_len() < Scale::Full.series_len());
        assert!(Scale::Quick.node_sweep().len() <= Scale::Full.node_sweep().len());
        assert!(Scale::Quick.kappa_sweep().len() < Scale::Full.kappa_sweep().len());
    }

    #[test]
    fn quantised_coefficients_stay_far_inside_the_lossless_budget() {
        use crate::figures::PAPER_KAPPA;
        use dsj_core::msg::Quantiser;
        use dsj_dft::Complex64;
        // Every (W, D, K) a `repro` cluster runs: the figures' window and
        // Figure 11's four times it, at every κ a figure or an ablation
        // sets. A window of W tuples has |X[bin]| ≤ W, so the step that
        // fits W bounds every payload's step.
        for scale in [Scale::Quick, Scale::Full] {
            let d = scale.domain();
            let mut kappas = scale.kappa_sweep();
            kappas.extend([PAPER_KAPPA, scale.figure_kappa()]);
            for w in [scale.window(), 4 * scale.window()] {
                let q = Quantiser::fitting(&[Complex64::new(w as f64, 0.0)]);
                for &kappa in &kappas {
                    let k = (d / kappa).max(1) as usize;
                    let bound = q.mse_bound(d as usize, k);
                    assert!(bound < 1e-3 * 0.25, "W = {w}, D = {d}, K = {k}: {bound}");
                }
            }
        }
    }
}
