//! Regenerators for every figure of the paper's evaluation.

use crate::scale::Scale;
use crate::suite::Executor;
use dsj_core::theory::{self, BoundsRow};
use dsj_core::wire::LinkBase;
use dsj_core::{Algorithm, ClusterConfig, ExperimentReport, Msg, RunError, TargetComplexity};
use dsj_dft::compress::CompressedDft;
use dsj_stream::gen::{price_series, WorkloadKind};

/// The paper's Zipf skew.
pub const PAPER_ALPHA: f64 = 0.4;
/// The error rate Figures 9 and 11 fix.
pub const PAPER_EPSILON: f64 = 0.15;
/// The canonical compression factor (κ = 256).
pub const PAPER_KAPPA: u32 = 256;

/// Figures 3 and 4: analytic ε bounds and message complexity for `T = 1`
/// and `T = log N`, clusters of 2..=`max_n` nodes. Figure 3 reads the
/// uniform-data columns, Figure 4 the Zipf(α = 0.4) ones.
pub fn bounds(max_n: u16) -> Vec<BoundsRow> {
    theory::bounds_table(max_n, PAPER_ALPHA)
}

/// One κ's reconstruction-error summary over the stock series (Figure 5
/// plots the raw per-value series; we report its distribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Compression factor.
    pub kappa: u32,
    /// Coefficients retained.
    pub retained: usize,
    /// Mean squared error.
    pub mse: f64,
    /// Median per-value squared error.
    pub p50: f64,
    /// 90th-percentile squared error.
    pub p90: f64,
    /// Largest squared error.
    pub max: f64,
    /// Fraction of values with squared error below 0.25 (losslessly
    /// recoverable by rounding).
    pub lossless_fraction: f64,
}

/// Figure 5: squared reconstruction errors of a `W ≈ 80 000`-tick stock
/// price stream from `W/1024`, `W/256` and `W/64` DFT coefficients.
///
/// # Errors
///
/// Propagates [`dsj_dft::CompressionError`] from the compressor.
pub fn fig5(scale: Scale) -> Result<Vec<Fig5Row>, dsj_dft::CompressionError> {
    let series = stock_series(scale);
    [1024u32, 256, 64]
        .into_iter()
        .map(|kappa| {
            let c = CompressedDft::from_signal(&series, kappa)?;
            let mut se = c.squared_errors(&series);
            se.sort_by(f64::total_cmp);
            let stats = c.stats(&series);
            Ok(Fig5Row {
                kappa,
                retained: c.retained(),
                mse: stats.mse,
                p50: se[se.len() / 2],
                p90: se[se.len() * 9 / 10],
                max: stats.max_squared_error,
                lossless_fraction: stats.lossless_fraction,
            })
        })
        .collect()
}

/// One κ of the Figure 6 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Compression factor.
    pub kappa: u32,
    /// Mean squared error.
    pub mse_mean: f64,
    /// Standard deviation of the per-value squared errors.
    pub mse_std: f64,
    /// Fraction recoverable by rounding.
    pub lossless_fraction: f64,
    /// Whether `E[MSE] < 0.25` (the paper's lossless-rounding criterion).
    pub below_threshold: bool,
}

/// Figure 6: mean ± σ of the reconstruction MSE versus compression factor,
/// with the `E[MSE] < 0.25` threshold line.
///
/// # Errors
///
/// Propagates [`dsj_dft::CompressionError`] from the compressor.
pub fn fig6(scale: Scale) -> Result<Vec<Fig6Row>, dsj_dft::CompressionError> {
    let series = stock_series(scale);
    let mut rows = Vec::new();
    let mut kappa = 2u32;
    while (kappa as usize) <= series.len() && kappa <= 1024 {
        let c = CompressedDft::from_signal(&series, kappa)?;
        let stats = c.stats(&series);
        rows.push(Fig6Row {
            kappa,
            mse_mean: stats.mse,
            mse_std: stats.std_dev,
            lossless_fraction: stats.lossless_fraction,
            below_threshold: stats.mse < dsj_dft::LOSSLESS_MSE_THRESHOLD,
        });
        kappa *= 2;
    }
    Ok(rows)
}

fn stock_series(scale: Scale) -> Vec<f64> {
    // Tick-level stock stream: mostly flat with occasional ±1 moves — the
    // energy-compaction regime of the paper's sample stock data, calibrated
    // so κ = 256 sits just inside the E[MSE] < 0.25 lossless criterion at
    // the paper's W ≈ 80 000 (Figures 5/6).
    price_series(scale.series_len(), 20_070_401, 500.0, 0.012)
}

/// One cluster size of the Figure 8 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Row {
    /// Cluster size.
    pub n: u16,
    /// Coefficient-update bytes as a percentage of tuple-data bytes.
    pub overhead_pct: f64,
    /// Absolute overhead bytes.
    pub overhead_bytes: u64,
    /// Absolute tuple-data bytes.
    pub data_bytes: u64,
}

/// Figure 8: DFT coefficient updates as a percentage of net data
/// transmitted, DFT algorithm, Zipf data, κ = 256.
///
/// Fans the cluster-size cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn fig8(scale: Scale, exec: &Executor) -> Result<Vec<Fig8Row>, RunError> {
    let cells: Vec<u16> = scale.node_sweep().into_iter().filter(|&n| n >= 2).collect();
    exec.try_map(cells, |_, n| {
        let r = cluster(scale, n, Algorithm::Dft)
            .target(TargetComplexity::LogN)
            .run()?;
        Ok(Fig8Row {
            n,
            overhead_pct: 100.0 * r.overhead_ratio,
            overhead_bytes: r.overhead_bytes,
            data_bytes: r.data_bytes,
        })
    })
}

/// One (workload, N, algorithm) cell of Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Workload label.
    pub workload: String,
    /// Cluster size.
    pub n: u16,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Messages per result tuple at the calibrated error.
    pub messages_per_result: f64,
    /// The error the calibrated run achieved.
    pub epsilon: f64,
    /// The calibrated message-complexity target.
    pub target: f64,
}

/// Figure 9: messages per result tuple with the error rate fixed at 15 %,
/// uniform (top) and Zipf (bottom) data, all five algorithms.
///
/// Fans the (workload, N, algorithm) cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn fig9(scale: Scale, exec: &Executor) -> Result<Vec<Fig9Row>, RunError> {
    let mut cells = Vec::new();
    for (workload, locality) in [
        (WorkloadKind::Uniform, 0.0),
        (WorkloadKind::Zipf { alpha: PAPER_ALPHA }, 0.8),
    ] {
        for n in scale.node_sweep() {
            for algorithm in Algorithm::ALL {
                cells.push((workload, locality, n, algorithm));
            }
        }
    }
    exec.try_map(cells, |_, (workload, locality, n, algorithm)| {
        let cfg = cluster(scale, n, algorithm)
            .workload(workload)
            .locality(locality)
            .kappa(scale.figure_kappa());
        let (r, target) = cfg.run_at_epsilon(PAPER_EPSILON)?;
        Ok(Fig9Row {
            workload: workload.label().to_string(),
            n,
            algorithm,
            messages_per_result: r.messages_per_result,
            epsilon: r.epsilon,
            target,
        })
    })
}

/// One (κ or N, algorithm) cell of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Row {
    /// The swept parameter (κ for 10a, N for 10b).
    pub x: u32,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Measured error rate.
    pub epsilon: f64,
    /// The memory budget `Plan::new` sizes every summary to at this
    /// setting: 16 bytes per retained coefficient. Not the bytes a summary
    /// sends: on the wire a coefficient takes 5 to 7 (`dsj_core::wire`).
    pub summary_bytes: usize,
}

/// Figure 10a: error rate versus compression factor κ (equal summary
/// sizes across algorithms), Zipf data.
///
/// Fans the (κ, algorithm) cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn fig10a(scale: Scale, exec: &Executor) -> Result<Vec<Fig10Row>, RunError> {
    let mut cells = Vec::new();
    for kappa in scale.kappa_sweep() {
        for algorithm in [
            Algorithm::Dft,
            Algorithm::Dftt,
            Algorithm::Bloom,
            Algorithm::Sketch,
        ] {
            cells.push((kappa, algorithm));
        }
    }
    exec.try_map(cells, |_, (kappa, algorithm)| {
        let cfg = cluster(scale, 8, algorithm)
            .kappa(kappa)
            .target(TargetComplexity::LogN);
        Ok(Fig10Row {
            x: kappa,
            algorithm,
            epsilon: cfg.run()?.epsilon,
            summary_bytes: cfg.retained() * 16,
        })
    })
}

/// Figure 10b: error rate versus cluster size at κ = 256, Zipf data.
///
/// Fans the (N, algorithm) cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn fig10b(scale: Scale, exec: &Executor) -> Result<Vec<Fig10Row>, RunError> {
    let mut cells = Vec::new();
    for n in scale.node_sweep() {
        for algorithm in [
            Algorithm::Dft,
            Algorithm::Dftt,
            Algorithm::Bloom,
            Algorithm::Sketch,
        ] {
            cells.push((n, algorithm));
        }
    }
    exec.try_map(cells, |_, (n, algorithm)| {
        let cfg = cluster(scale, n, algorithm).target(TargetComplexity::LogN);
        Ok(Fig10Row {
            x: u32::from(n),
            algorithm,
            epsilon: cfg.run()?.epsilon,
            summary_bytes: cfg.retained() * 16,
        })
    })
}

/// One (N, algorithm) cell of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// Cluster size.
    pub n: u16,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Result tuples reported per (virtual) second.
    pub throughput: f64,
    /// The error the calibrated run achieved.
    pub epsilon: f64,
}

/// How far past what a link carries Figure 11 drives BASE's links.
const FIG11_OVERLOAD: f64 = 2.13;

/// The per-node rate Figure 11's stream length is pinned to: at any rate,
/// its arrivals last as long as [`Scale::tuples`] arrivals do at this one.
const FIG11_SPAN_RATE: f64 = 3_340.0;

/// BASE's mean bare tuple frame on `cfg`'s schedule, in bytes: each
/// arrival sized as the next tuple on its node's links (every link of a
/// node carries the same tuples under BASE).
fn mean_base_frame(cfg: &ClusterConfig) -> f64 {
    let mut links = vec![LinkBase::new(); usize::from(cfg.n)];
    let arrivals = cfg.arrivals();
    let bytes: usize = (arrivals.iter())
        .map(|a| {
            let bare = Msg::Tuple {
                tuple: a.tuple(),
                piggyback: Vec::new(),
            };
            links[usize::from(a.node)].advance(&bare).0
        })
        .sum();
    bytes as f64 / arrivals.len().max(1) as f64
}

/// Figure 11: throughput (result tuples/second) with ε fixed at 15 %,
/// under an offered load that saturates broadcast on the 90 kbps links.
///
/// The rate comes from the codec: BASE's per-link message rate, its
/// per-node arrival rate, is 2.13 times what a link carries in BASE's mean
/// bare tuple frames on the cell's schedule, so broadcast queues and
/// filtered algorithms do not. The stream grows with the rate, so the arrivals last as long at
/// every frame size. Results still in flight 300 ms after the stream ends
/// are lost — sustained-overload semantics.
///
/// Fans the (N, algorithm) cells across `exec`.
///
/// # Errors
///
/// Propagates [`RunError`] from the cluster runs.
pub fn fig11(scale: Scale, exec: &Executor) -> Result<Vec<Fig11Row>, RunError> {
    let mut cells = Vec::new();
    for n in scale.node_sweep() {
        for algorithm in Algorithm::ALL {
            cells.push((n, algorithm));
        }
    }
    exec.try_map(cells, |_, (n, algorithm)| {
        let cfg = cluster(scale, n, algorithm)
            .kappa(scale.figure_kappa())
            // A window 4x the baseline keeps probe staleness (latency
            // relative to window turnover) negligible, so queueing is
            // what differentiates the algorithms.
            .window(scale.window() * 4);
        let link_bytes_per_s = cfg.link.bandwidth_bps as f64 / 8.0;
        let rate = FIG11_OVERLOAD * link_bytes_per_s / mean_base_frame(&cfg);
        let tuples = (scale.tuples() as f64 * rate / FIG11_SPAN_RATE).round() as usize;
        let cfg = cfg.arrival_rate(rate).tuples(tuples).cutoff_grace(300);
        let (r, _) = best_effort(&cfg)?;
        Ok(Fig11Row {
            n,
            algorithm,
            throughput: r.throughput,
            epsilon: r.epsilon,
        })
    })
}

/// Figure 11's operating point: over the message-complexity targets
/// `0.5, 1, 2, 4, N − 1`, in that order, the run with the highest
/// throughput among those reaching [`PAPER_EPSILON`], else the one with the
/// lowest error; BASE has no target to search. Returns the run and its
/// target.
///
/// Unlike [`ClusterConfig::run_at_epsilon`] this assumes no monotonicity:
/// under link saturation *more* messages can mean *worse* error (queued
/// results never arrive), which is the regime this figure measures.
fn best_effort(cfg: &ClusterConfig) -> Result<(ExperimentReport, f64), RunError> {
    let top = f64::from(cfg.n - 1);
    if cfg.algorithm == Algorithm::Base {
        return Ok((cfg.run()?, top));
    }
    let at = |t| {
        let mut cfg = cfg.clone();
        cfg.target = TargetComplexity::Constant(t);
        Ok((cfg.run()?, t))
    };
    let feasible = |r: &ExperimentReport| r.epsilon <= PAPER_EPSILON;
    let [first, rest @ ..] = [0.5, 1.0, 2.0, 4.0, top];
    let mut best = at(first)?;
    for t in rest {
        let (report, t) = at(t)?;
        let better = match (feasible(&report), feasible(&best.0)) {
            (true, true) => report.throughput > best.0.throughput,
            (true, false) => true,
            (false, true) => false,
            (false, false) => report.epsilon < best.0.epsilon,
        };
        if better {
            best = (report, t);
        }
    }
    Ok(best)
}

/// The shared cluster baseline for the simulation figures.
fn cluster(scale: Scale, n: u16, algorithm: Algorithm) -> ClusterConfig {
    ClusterConfig::new(n, algorithm)
        .window(scale.window())
        .domain(scale.domain())
        .tuples(scale.tuples())
        .kappa(PAPER_KAPPA)
        .workload(WorkloadKind::Zipf { alpha: PAPER_ALPHA })
        .locality(0.8)
        .arrival_rate(300.0)
        .seed(2007)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_effort_picks_feasible_operating_point() {
        let quick = |algorithm| {
            ClusterConfig::new(4, algorithm)
                .window(256)
                .domain(1 << 10)
                .tuples(4_000)
                .arrival_rate(500.0)
                .seed(3)
        };
        let (report, target) = best_effort(&quick(Algorithm::Dftt)).unwrap();
        assert!([0.5, 1.0, 2.0, 4.0, 3.0].contains(&target));
        // Either feasible, or the least-bad point was chosen.
        assert!((0.0..=1.0).contains(&report.epsilon));
        // BASE needs no grid.
        let (base, t) = best_effort(&quick(Algorithm::Base)).unwrap();
        assert_eq!(t, 3.0);
        assert!(base.epsilon < 0.1);
    }

    #[test]
    fn bounds_tables() {
        let rows = bounds(20);
        assert_eq!(rows.len(), 19);
        // Fig 3a: uniform bounds grow toward 1.
        assert!(rows.last().unwrap().uniform_eps_t1 > 0.89);
        // Fig 4: Zipf log-N bound shrinks with N.
        assert!(rows.last().unwrap().zipf_eps_tlog < rows[0].zipf_eps_tlog);
    }

    #[test]
    fn fig5_kappa256_mostly_lossless() {
        let rows = fig5(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 3);
        let k256 = rows.iter().find(|r| r.kappa == 256).unwrap();
        // The paper's Fig. 5 middle panel: ~80% of values below 0.25.
        assert!(
            k256.lossless_fraction > 0.6,
            "κ=256 lossless fraction {}",
            k256.lossless_fraction
        );
        let k64 = rows.iter().find(|r| r.kappa == 64).unwrap();
        assert!(k64.mse <= k256.mse, "more coefficients, less error");
    }

    #[test]
    fn fig6_monotone_and_thresholded() {
        let rows = fig6(Scale::Quick).unwrap();
        for pair in rows.windows(2) {
            assert!(
                pair[1].mse_mean >= pair[0].mse_mean - 1e-9,
                "MSE must grow with κ"
            );
        }
        // Some κ must satisfy the lossless criterion (the series is smooth).
        assert!(rows.iter().any(|r| r.below_threshold));
    }
}
