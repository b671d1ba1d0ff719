//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper's own figures, these quantify *why* the system is built the way
//! it is.
//!
//! * [`selection`] — β-prefix vs top-energy coefficient selection
//!   (Section 4's "discard low-energy coefficients" admits both readings).
//! * [`sync_freshness`] — the summary-staleness / coefficient-overhead
//!   trade-off behind the piggybacking policy (Fig. 7 line 5).
//! * [`detector`] — the worst-case detector's CV threshold, swept under
//!   both uniform and skewed data (Section 5.2.2).
//! * [`loss`] — sensitivity to in-flight message loss, which the paper's
//!   lossless emulation never exercises.

use crate::figures::PAPER_ALPHA;
use crate::scale::Scale;
use crate::suite::Executor;
use dsj_core::{Algorithm, ClusterConfig, RunError};
use dsj_dft::{CompressedDft, Selection};
use dsj_simnet::LinkConfig;
use dsj_stream::gen::{price_series, WorkloadKind};

/// One signal × selection-policy cell of the selection ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRow {
    /// Signal family ("stock" or "spiky-histogram").
    pub signal: String,
    /// Compression factor.
    pub kappa: u32,
    /// MSE with the β-prefix selection.
    pub prefix_mse: f64,
    /// MSE with top-energy selection.
    pub top_energy_mse: f64,
    /// Prefix summary bytes.
    pub prefix_bytes: usize,
    /// Top-energy summary bytes (includes index overhead).
    pub top_energy_bytes: usize,
}

/// β-prefix vs top-energy coefficient selection on a smooth stock stream
/// and a spiky scattered histogram.
///
/// # Errors
///
/// Propagates [`dsj_dft::CompressionError`] from the compressor.
pub fn selection(scale: Scale) -> Result<Vec<SelectionRow>, dsj_dft::CompressionError> {
    let stock = price_series(scale.series_len().min(16_384), 77, 500.0, 0.012);
    let mut spiky = vec![0.0_f64; 4_096];
    for i in 0..64 {
        // Heavy point masses scattered over the domain.
        spiky[(i * 2_654_435_761u64 % 4_096) as usize] = 50.0 + (i % 17) as f64;
    }
    let mut rows = Vec::new();
    for (name, signal) in [("stock", &stock), ("spiky-histogram", &spiky)] {
        for kappa in [64u32, 256] {
            let prefix = CompressedDft::from_signal_selected(signal, kappa, Selection::Prefix)?;
            let top = CompressedDft::from_signal_selected(signal, kappa, Selection::TopEnergy)?;
            rows.push(SelectionRow {
                signal: name.to_string(),
                kappa,
                prefix_mse: prefix.mse(signal),
                top_energy_mse: top.mse(signal),
                prefix_bytes: prefix.size_bytes(),
                top_energy_bytes: top.size_bytes(),
            });
        }
    }
    Ok(rows)
}

/// The cluster every cluster ablation varies: `n` nodes running
/// `algorithm` over the scale's window, domain and stream, Zipf keys at the
/// paper's skew, the figures' κ and seed 2007.
fn baseline(scale: Scale, n: u16, algorithm: Algorithm) -> ClusterConfig {
    ClusterConfig::new(n, algorithm)
        .window(scale.window())
        .domain(scale.domain())
        .tuples(scale.tuples())
        .workload(WorkloadKind::Zipf { alpha: PAPER_ALPHA })
        .kappa(scale.figure_kappa())
        .seed(2007)
}

/// One sync-interval cell of the freshness ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreshnessRow {
    /// Tuple messages to a peer between summary refreshes.
    pub sent_interval: u32,
    /// Measured error.
    pub epsilon: f64,
    /// Coefficient overhead as a fraction of tuple data.
    pub overhead_ratio: f64,
}

/// Summary freshness vs overhead: the more often coefficients ship, the
/// lower the error and the higher the bandwidth tax.
///
/// Fans the sync-interval cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn sync_freshness(scale: Scale, exec: &Executor) -> Result<Vec<FreshnessRow>, RunError> {
    exec.try_map(vec![32u32, 128, 512, 2048], |_, sent| {
        // 3x the figure workload so the one-off bootstrap summaries
        // amortize and the steady-state trade-off shows.
        let r = baseline(scale, 8, Algorithm::Dftt)
            .tuples(3 * scale.tuples())
            .sync_intervals(sent, 8 * scale.window() as u32)
            .run()?;
        Ok(FreshnessRow {
            sent_interval: sent,
            epsilon: r.epsilon,
            overhead_ratio: r.overhead_ratio,
        })
    })
}

/// One threshold × workload cell of the detector ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorRow {
    /// Workload label.
    pub workload: String,
    /// CV threshold (0 disables the detector).
    pub threshold: f64,
    /// Measured error.
    pub epsilon: f64,
    /// Fraction of arrivals routed by the fallback policy.
    pub fallback_fraction: f64,
}

/// Worst-case detector threshold sweep: too low and uniform data routes by
/// noise; too high and genuinely skewed data degenerates to round-robin.
///
/// Fans the (workload, threshold) cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn detector(scale: Scale, exec: &Executor) -> Result<Vec<DetectorRow>, RunError> {
    let mut cells = Vec::new();
    for (workload, locality) in [
        (WorkloadKind::Uniform, 0.0),
        (WorkloadKind::Zipf { alpha: PAPER_ALPHA }, 0.8),
    ] {
        for threshold in [0.0, 0.02, 0.05, 0.2, 0.5] {
            cells.push((workload, locality, threshold));
        }
    }
    exec.try_map(cells, |_, (workload, locality, threshold)| {
        let r = baseline(scale, 8, Algorithm::Dft)
            .workload(workload)
            .locality(locality)
            .uniform_cv_threshold(threshold)
            .run()?;
        Ok(DetectorRow {
            workload: workload.label().to_string(),
            threshold,
            epsilon: r.epsilon,
            fallback_fraction: r.fallback_fraction,
        })
    })
}

/// One budget cell of the governor ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorRow {
    /// Per-node outbound allowance in bits/second (0 = ungoverned).
    pub budget_bps: u64,
    /// Average tuple messages per arriving tuple.
    pub msgs_per_tuple: f64,
    /// Measured error.
    pub epsilon: f64,
}

/// The AIMD throughput governor (the abstract's "automatic throughput
/// handling based on resource availability"): sweeping the per-node
/// bandwidth allowance trades messages for error automatically.
///
/// Fans the bandwidth-budget cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn governor(scale: Scale, exec: &Executor) -> Result<Vec<GovernorRow>, RunError> {
    // Allowances of 62.5, 125, 250 and 500 tuple frames a second at this
    // schedule's 7.2-byte mean frame.
    exec.try_map(vec![0u64, 3_600, 7_200, 14_400, 28_800], |_, budget| {
        let mut cfg = baseline(scale, 8, Algorithm::Dft).target(dsj_core::TargetComplexity::LogN);
        if budget > 0 {
            cfg = cfg.bandwidth_budget(budget);
        }
        let r = cfg.run()?;
        Ok(GovernorRow {
            budget_bps: budget,
            msgs_per_tuple: r.msgs_per_tuple,
            epsilon: r.epsilon,
        })
    })
}

/// One loss-probability cell of the loss ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRow {
    /// Algorithm.
    pub algorithm: Algorithm,
    /// In-flight message loss probability.
    pub loss: f64,
    /// Measured error.
    pub epsilon: f64,
}

/// Message-loss sensitivity: BASE degrades linearly in its (many) probe
/// messages, DFTT in both its (few) probes and its summary freshness.
///
/// Fans the (algorithm, loss-probability) cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn loss(scale: Scale, exec: &Executor) -> Result<Vec<LossRow>, RunError> {
    let mut cells = Vec::new();
    for algorithm in [Algorithm::Base, Algorithm::Dftt] {
        for p in [0.0, 0.02, 0.1, 0.3] {
            cells.push((algorithm, p));
        }
    }
    exec.try_map(cells, |_, (algorithm, p)| {
        let r = baseline(scale, 6, algorithm)
            .link(LinkConfig::paper_wan().with_loss(p))
            .run()?;
        Ok(LossRow {
            algorithm,
            loss: p,
            epsilon: r.epsilon,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_trade_off_holds() {
        let rows = selection(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.top_energy_bytes > r.prefix_bytes, "index overhead");
            if r.signal == "spiky-histogram" {
                assert!(
                    r.top_energy_mse < r.prefix_mse,
                    "top-energy must win on spiky data: {r:?}"
                );
            }
        }
    }

    #[test]
    fn governor_sweep_trades_messages_for_error() {
        let rows = governor(Scale::Quick, &Executor::new(1)).unwrap();
        let free = rows.iter().find(|r| r.budget_bps == 0).unwrap();
        let tight = rows.iter().find(|r| r.budget_bps == 3_600).unwrap();
        assert!(tight.msgs_per_tuple < free.msgs_per_tuple);
        assert!(tight.epsilon >= free.epsilon - 0.02);
    }

    #[test]
    fn loss_increases_error_monotonically_for_base() {
        let rows = loss(Scale::Quick, &Executor::new(1)).unwrap();
        let base: Vec<&LossRow> = rows
            .iter()
            .filter(|r| r.algorithm == Algorithm::Base)
            .collect();
        for pair in base.windows(2) {
            assert!(
                pair[1].epsilon > pair[0].epsilon,
                "error must grow with loss: {:?}",
                base
            );
        }
        assert!(base.last().unwrap().epsilon > base.first().unwrap().epsilon + 0.05);
    }

    #[test]
    fn detector_disabled_hurts_uniform() {
        let rows = detector(Scale::Quick, &Executor::new(1)).unwrap();
        let uni_off = rows
            .iter()
            .find(|r| r.workload == "UNI" && r.threshold == 0.0)
            .unwrap();
        assert!(
            uni_off.fallback_fraction < 0.1,
            "threshold 0 disables detection"
        );
        let uni_on = rows
            .iter()
            .find(|r| r.workload == "UNI" && r.threshold == 0.05)
            .unwrap();
        assert!(uni_on.fallback_fraction > 0.3, "default threshold detects");
    }
}
