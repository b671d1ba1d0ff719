//! Table 1: CPU cost of maintaining window summaries.
//!
//! The paper compares, per window size `W ∈ {80 k, 250 k, 500 k, 1 M}`:
//!
//! * **DFT** — computing the window's transform from scratch on demand,
//! * **iDFT** — maintaining a `W/256`-coefficient prefix incrementally,
//!   per tuple, with control-vector-driven exact recomputation,
//! * **AGMS** — maintaining an equal-sized AGMS sketch per tuple,
//!
//! over a long update stream. Absolute seconds differ from the paper's
//! 400 MHz UltraSPARC; the *shape* to check is DFT ≫ iDFT ≈ AGMS, with
//! iDFT/AGMS scaling in the summary size rather than `W` (Section 4).

#![allow(
    clippy::disallowed_methods,
    reason = "Table 1 is wall-clock CPU seconds by definition; it is not in the recorded goldens"
)]

use dsj_dft::sliding::SlidingDft;
use dsj_dft::{ControlVector, Fft};
use dsj_sketch::AgmsSketch;
use std::time::Instant;

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Window size `W`.
    pub w: usize,
    /// Seconds for one from-scratch DFT of the full window.
    pub dft_secs: f64,
    /// Seconds to apply `updates` incremental DFT updates.
    pub idft_secs: f64,
    /// Seconds to apply `updates` AGMS sketch updates.
    pub agms_secs: f64,
    /// Updates timed for the incremental columns.
    pub updates: usize,
}

/// Regenerates Table 1 for the given window sizes, timing `updates`
/// streaming updates for the incremental columns.
///
/// # Panics
///
/// Panics if `updates == 0`.
pub fn run(windows: &[usize], updates: usize) -> Vec<Table1Row> {
    assert!(updates > 0, "need at least one update to time");
    windows
        .iter()
        .map(|&w| {
            let signal: Vec<f64> = (0..w).map(|n| ((n * 31) % 1009) as f64).collect();

            // DFT: full from-scratch transform of exactly the `W` window
            // samples (radix-2 for a power of two, Bluestein otherwise).
            let plan = Fft::new(w);
            let t0 = Instant::now();
            let spec = plan.forward_real(&signal);
            let dft_secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&spec);

            // iDFT: per-tuple maintenance of the κ=256 coefficient prefix.
            let k = (w / 256).max(1);
            let mut sdft = SlidingDft::new(w, k, ControlVector::paper_default());
            for &x in signal.iter().take(w.min(4 * k)) {
                sdft.push(x); // warm without timing
            }
            let t0 = Instant::now();
            for i in 0..updates {
                sdft.push(((i * 37) % 997) as f64);
            }
            let idft_secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(sdft.coefficients());

            // AGMS: per-tuple sketch updates at equal summary size.
            let mut sketch = AgmsSketch::with_size_bytes(k * 16, 7);
            let t0 = Instant::now();
            for i in 0..updates {
                sketch.update(((i * 37) % 997) as u64, 1);
            }
            let agms_secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(&sketch);

            Table1Row {
                w,
                dft_secs,
                idft_secs,
                agms_secs,
                updates,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_requested_windows() {
        // 3 000 is no power of two: its transform goes through Bluestein.
        let rows = run(&[1 << 10, 1 << 12, 3_000], 2_000);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].w, 1 << 10);
        assert_eq!(rows[2].w, 3_000);
        for r in &rows {
            assert!(r.dft_secs >= 0.0);
            assert!(r.idft_secs > 0.0);
            assert!(r.agms_secs > 0.0);
        }
    }

    #[test]
    fn incremental_beats_recompute_per_update() {
        // Amortized per-update: recomputing the full DFT every update would
        // cost updates × dft_secs; incremental must be far below that.
        let rows = run(&[1 << 14], 5_000);
        let r = &rows[0];
        let recompute_all = r.dft_secs * r.updates as f64;
        assert!(
            r.idft_secs < recompute_all / 5.0,
            "incremental {} vs full recompute {}",
            r.idft_secs,
            recompute_all
        );
    }
}
