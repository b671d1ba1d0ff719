//! Cross-crate pipeline tests: workloads → windows → DFT/sketch summaries,
//! exercising the substrate crates together the way the join runtime does.

use dsjoin::dft::sliding::PointDft;
use dsjoin::dft::{
    cross_correlation_coefficient, CompressedDft, ControlVector, Fft, LOSSLESS_MSE_THRESHOLD,
};
use dsjoin::sketch::{AgmsSketch, CountingBloomFilter};
use dsjoin::stream::gen::{price_series, ArrivalGen, WorkloadKind};
use dsjoin::stream::partition::Partitioner;
use dsjoin::stream::StreamId;
use std::collections::VecDeque;

/// Builds the per-node window histograms a cluster would hold.
fn node_histograms(
    workload: WorkloadKind,
    n: u16,
    domain: u32,
    w: usize,
    locality: f64,
) -> Vec<[Vec<f64>; 2]> {
    let mut gen = ArrivalGen::new(workload, Partitioner::geographic(n, locality), domain, 5);
    let mut hists: Vec<[Vec<f64>; 2]> = (0..n)
        .map(|_| [vec![0.0; domain as usize], vec![0.0; domain as usize]])
        .collect();
    let mut windows: Vec<[VecDeque<u32>; 2]> =
        (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect();
    for a in gen.take_vec(20_000) {
        let s = a.stream.index();
        let node = a.node as usize;
        hists[node][s][a.key as usize] += 1.0;
        windows[node][s].push_back(a.key);
        if windows[node][s].len() > w {
            let old = windows[node][s].pop_front().expect("non-empty window");
            hists[node][s][old as usize] -= 1.0;
        }
    }
    hists
}

/// `ρ` (Eqn. 4) from the first `k` DFT coefficients of two window histograms.
fn rho(a: &[f64], b: &[f64], k: usize) -> f64 {
    let fft = Fft::new(a.len());
    let (sa, sb) = (fft.forward_real(a), fft.forward_real(b));
    cross_correlation_coefficient(&sa[..k], &sb[..k], a.len())
}

#[test]
fn geographic_skew_shows_up_in_correlations() {
    let domain = 1u32 << 11;
    let hists = node_histograms(WorkloadKind::Zipf { alpha: 0.4 }, 6, domain, 512, 0.8);
    // Node i's R window correlates more with its *own* S window than with
    // a random remote one, because both share the node's hot key range.
    let k = 32;
    let own = rho(&hists[2][0], &hists[2][1], k);
    let cross = rho(&hists[2][0], &hists[4][1], k);
    assert!(
        own > cross,
        "own-range correlation {own} should exceed cross-range {cross}"
    );
}

#[test]
fn uniform_data_correlations_are_flat() {
    let domain = 1u32 << 11;
    let hists = node_histograms(WorkloadKind::Uniform, 6, domain, 512, 0.0);
    // Heavily smoothed summaries (few low-frequency bins), as the routers
    // use for their worst-case detector.
    let k = 8;
    let rhos: Vec<f64> = (1..6).map(|j| rho(&hists[0][0], &hists[j][1], k)).collect();
    let mean = rhos.iter().sum::<f64>() / rhos.len() as f64;
    let std =
        (rhos.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rhos.len() as f64).sqrt();
    assert!(mean > 0.5, "flat histograms are all alike: mean {mean}");
    assert!(std / mean < 0.1, "coefficient of variation {}", std / mean);
}

#[test]
fn incremental_histogram_dft_matches_batch_over_workload() {
    let domain = 1usize << 10;
    let mut gen = ArrivalGen::new(
        WorkloadKind::Network,
        Partitioner::geographic(2, 0.0),
        domain as u32,
        9,
    );
    let mut pd = PointDft::new(domain, 64, ControlVector::never());
    let mut hist = vec![0.0; domain];
    let mut window = VecDeque::new();
    for a in gen.take_vec(5_000) {
        if a.stream != StreamId::R {
            continue;
        }
        pd.add(a.key as usize, 1.0);
        hist[a.key as usize] += 1.0;
        window.push_back(a.key);
        if window.len() > 256 {
            let old = window.pop_front().expect("non-empty");
            pd.add(old as usize, -1.0);
            hist[old as usize] -= 1.0;
        }
    }
    let batch = dsjoin::dft::Fft::new(domain).forward_real(&hist);
    for (a, b) in pd.coefficients().iter().zip(batch.iter().take(64)) {
        assert!((*a - *b).abs() < 1e-6, "incremental {a:?} vs batch {b:?}");
    }
}

#[test]
fn price_stream_compression_end_to_end() {
    let ticks = price_series(16_384, 3, 300.0, 0.012);
    let mse = |kappa| {
        let c = CompressedDft::from_signal(&ticks, kappa).expect("valid kappa");
        c.mse(&ticks)
    };
    // Fig. 6's sweep: the largest power-of-two κ whose E[MSE] stays below
    // the lossless-rounding threshold.
    let mut kappa = 1u32;
    while 2 * kappa as usize <= ticks.len() && mse(2 * kappa) < LOSSLESS_MSE_THRESHOLD {
        kappa *= 2;
    }
    assert!(kappa >= 16, "tick data should compress well: kappa {kappa}");
    let c = CompressedDft::from_signal(&ticks, kappa).expect("valid kappa");
    let lossless = c.stats(&ticks).lossless_fraction;
    assert!(
        lossless > 0.65,
        "only {lossless} of the ticks survive rounding"
    );
}

#[test]
fn equal_budget_summaries_are_comparable() {
    // The experimental methodology sizes all three summaries equally.
    let budget = 1_024; // bytes
    let sketch = AgmsSketch::with_size_bytes(budget, 1);
    let filter = CountingBloomFilter::with_size_bytes(budget, 512, 1);
    assert!(sketch.size_bytes() <= budget);
    assert!(filter.size_bytes() <= budget);
    // 64 complex coefficients = 1024 bytes.
    let series: Vec<f64> = (0..4096).map(|i| f64::from((i % 64) as u16)).collect();
    let dft = CompressedDft::from_signal(&series, 64).expect("valid kappa");
    assert_eq!(dft.size_bytes(), budget);
}

#[test]
fn sketches_estimate_cross_node_join_sizes() {
    let domain = 1u32 << 10;
    let hists = node_histograms(WorkloadKind::Zipf { alpha: 0.4 }, 4, domain, 512, 0.8);
    // Sketch node 0's R window and node 1's S window; compare the sketch
    // estimate against the exact inner product.
    let mut a = AgmsSketch::new(60, 5, 9);
    let mut b = AgmsSketch::new(60, 5, 9);
    for (v, (&r0, &s1)) in hists[0][0].iter().zip(&hists[1][1]).enumerate() {
        if r0 != 0.0 {
            a.update(v as u64, r0 as i64);
        }
        if s1 != 0.0 {
            b.update(v as u64, s1 as i64);
        }
    }
    let exact: f64 = (0..domain as usize)
        .map(|v| hists[0][0][v] * hists[1][1][v])
        .sum();
    let est = a.join_size(&b).expect("same shape and seed");
    // A 300-counter sketch of a 512-tuple window is noisy; the estimate
    // just needs to land in the right order of magnitude.
    assert!(
        (est - exact).abs() < exact.max(200.0),
        "estimate {est} vs exact {exact}"
    );
}
