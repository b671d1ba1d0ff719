//! One plan per cluster: the immutable tables every node's summaries read.
//!
//! Every site summarizes the same attribute domain with the same transform
//! and the same hash families, so those tables are a property of the
//! cluster, not of a node. A [`Plan`] derives them once from its
//! [`PlanKey`] and every node holds them by `Arc`: sixteen DFTT nodes share
//! one forward and one inverse twiddle table instead of keeping sixteen
//! copies of each, and a sketch or filter clone copies counters only.

use super::Algorithm;
use dsj_dft::sliding::PointDft;
use dsj_dft::{BlockGrid, Complex64, PointwiseRecon};
use dsj_sketch::{AgmsHashes, BloomHashes};
use std::sync::Arc;

/// Everything a [`Plan`] is derived from. [`Plan::new`] reads nothing
/// else, so two plans with equal keys hold identical tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// Which summary the tables serve.
    pub algorithm: Algorithm,
    /// Join-attribute domain size `D`: the length of both twiddle tables.
    pub domain: u32,
    /// Retained DFT coefficients `K`: sizes Bloom filters and sketches to
    /// `16·K` bytes of counter memory (their wire size is smaller: the
    /// codec ships each counter in the fewest bytes that hold it, see
    /// `crate::wire`).
    pub retained: usize,
    /// Per-stream window size `W`: the Bloom hash count is optimal for `W`
    /// items.
    pub window: usize,
    /// Cluster-wide seed of the sketch and Bloom hash families.
    pub seed: u64,
}

/// The shared tables of one cluster, exactly what its algorithm reads.
#[derive(Debug)]
pub(crate) enum Tables {
    /// BASE exchanges no summary.
    None,
    /// DFT and DFTT: the forward table both local `PointDft`s read; DFTT
    /// also the inverse table its `PointwiseRecon` reads. The two stay
    /// separate tables: their angles, `(−2π/D)·q` and `2π·q/D`, round
    /// differently when `D` is not a power of two.
    Dft {
        /// [`PointDft::twiddles`].
        forward: Arc<[Complex64]>,
        /// [`PointwiseRecon::twiddles`], DFTT only.
        inverse: Option<Arc<[Complex64]>>,
        /// DFTT's block bounds ([`block_grid`]), where they pay.
        grid: Option<Arc<BlockGrid>>,
    },
    /// BLOOM: the Bloom hash family.
    Bloom(Arc<BloomHashes>),
    /// SKCH: the AGMS hash family with its sign table over `[0, D)`
    /// ([`AgmsHashes::with_sign_table`]; only for at most 64 counters).
    Sketch(Arc<AgmsHashes>),
}

/// A cluster's tables with the key they were derived from.
#[derive(Debug)]
pub(crate) struct Plan {
    /// What the tables were derived from.
    pub key: PlanKey,
    /// The tables.
    pub tables: Tables,
}

impl Plan {
    /// Derives the tables `key` calls for, each exactly as the standalone
    /// constructor (`PointDft::new`, `PointwiseRecon::new`,
    /// `AgmsSketch::with_size_bytes`, `CountingBloomFilter::with_size_bytes`)
    /// would derive its own. The AGMS family also tabulates its signs over
    /// the domain: a cache that leaves every counter as it was.
    pub fn new(key: PlanKey) -> Self {
        let domain = key.domain as usize;
        let bytes = key.retained * 16;
        let tables = match key.algorithm {
            Algorithm::Base => Tables::None,
            Algorithm::Dft => Tables::Dft {
                forward: PointDft::twiddles(domain),
                inverse: None,
                grid: None,
            },
            Algorithm::Dftt => {
                let inverse = PointwiseRecon::twiddles(domain);
                let grid = block_grid(&inverse, key.retained).map(Arc::new);
                Tables::Dft {
                    forward: PointDft::twiddles(domain),
                    inverse: Some(inverse),
                    grid,
                }
            }
            Algorithm::Bloom => Tables::Bloom(Arc::new(BloomHashes::with_size_bytes(
                bytes.max(16),
                key.window.max(1),
                key.seed,
            ))),
            Algorithm::Sketch => Tables::Sketch(Arc::new(
                AgmsHashes::with_size_bytes(bytes.max(40), key.seed).with_sign_table(domain),
            )),
        };
        Plan { key, tables }
    }
}

/// DFTT's block grid over `W = inverse.len()` keys and `retained`
/// coefficients (clamped as `DftSummary` clamps them): blocks of
/// `L = ⌊W / 4K⌋` keys, where `2πK·L/W ≤ π/2` keeps the curvature slack
/// `M₂·L²/8` under a third of the reconstruction's mass. `None` where the
/// grid cannot pay: when `L < 1`, and when `K` exceeds
/// [`GRID_MAX_RETAINED`].
fn block_grid(inverse: &Arc<[Complex64]>, retained: usize) -> Option<BlockGrid> {
    let k = retained.min(inverse.len()).max(1);
    let block = inverse.len() / (4 * k);
    (block >= 1 && k <= GRID_MAX_RETAINED).then(|| {
        BlockGrid::new(
            &PointwiseRecon::with_twiddles(Arc::clone(inverse), k),
            block,
        )
    })
}

/// The largest prefix a block grid pays for. A landing evaluates
/// `K·(G + 1) ≈ 4K²` terms; a read saves up to `M·K`. Each peer column
/// lands every 200–500 arrivals under the sync rules, so the grid pays
/// while `4K` stays under a few hundred. Timed per arrival (membership
/// reads plus landings, grid against one pass, Zipf 0.4, `--target
/// logn`): Fig. 10a's cells (N = 8, D = 2 048) ×0.66 at K = 16, ×0.69 at
/// K = 32, ×1.04 at K = 64 and ×2.06 at K = 128; N = 16, D = 4 096 ×0.59,
/// ×0.70, ×1.29 and ×2.71. Both shapes cross between 32 and 64.
pub(crate) const GRID_MAX_RETAINED: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Msg, SummaryPayload};
    use crate::wire;
    use dsj_dft::ControlVector;
    use dsj_sketch::{AgmsSketch, CountingBloomFilter};
    use dsj_stream::StreamId;

    fn key(algorithm: Algorithm, domain: u32, retained: usize) -> PlanKey {
        PlanKey {
            algorithm,
            domain,
            retained,
            window: 16,
            seed: 42,
        }
    }

    /// A fixed sequence of `count` updates `(value in 0..domain, ±1)`.
    fn updates(domain: usize, count: usize) -> impl Iterator<Item = (usize, i64)> {
        let mut x = 12_345usize;
        (0..count).map(move |n| {
            x = (x * 1_103_515_245 + 12_345) % (1 << 31);
            (x % domain, if n % 3 == 2 { -1 } else { 1 })
        })
    }

    fn bits(coeffs: &[Complex64]) -> Vec<(u64, u64)> {
        coeffs
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    #[test]
    fn plan_built_dfts_and_reconstructions_equal_standalone_ones_bitwise() {
        for (d, k) in [(15, 15), (4096, 16)] {
            let plan = Plan::new(key(Algorithm::Dftt, d as u32, k));
            let Tables::Dft {
                forward,
                inverse: Some(inverse),
                ..
            } = &plan.tables
            else {
                panic!("DFTT plans hold both tables")
            };
            let mut shared = PointDft::with_twiddles(Arc::clone(forward), k);
            let mut own = PointDft::new(d, k, ControlVector::never());
            for (index, delta) in updates(d, 10_000) {
                shared.add(index, delta as f64);
                own.add(index, delta as f64);
            }
            assert_eq!(
                bits(shared.coefficients()),
                bits(own.coefficients()),
                "D={d}"
            );

            let coeffs = own.coefficients();
            let shared = PointwiseRecon::with_twiddles(Arc::clone(inverse), k);
            let own = PointwiseRecon::new(d, k);
            // The prefix as a one-column plane pair.
            let re: Vec<f64> = coeffs.iter().map(|c| c.re).collect();
            let im: Vec<f64> = coeffs.iter().map(|c| c.im).collect();
            let (mut shared_col, mut own_col) = ([0.0], [0.0]);
            for idx in 0..d {
                let bucket = own.eval(coeffs, idx).to_bits();
                assert_eq!(shared.eval(coeffs, idx).to_bits(), bucket, "D={d} {idx}");
                assert!(shared.eval_columns(&re, &im, idx, &mut shared_col));
                assert!(own.eval_columns(&re, &im, idx, &mut own_col));
                assert_eq!(shared_col[0].to_bits(), bucket, "D={d} {idx}");
                assert_eq!(own_col[0].to_bits(), bucket, "D={d} {idx}");
            }
        }
    }

    #[test]
    fn plan_built_sketches_equal_standalone_ones_and_join_decoded_ones() {
        let retained = 16;
        let plan = Plan::new(key(Algorithm::Sketch, 4096, retained));
        let Tables::Sketch(hashes) = &plan.tables else {
            panic!("SKCH plans hold the AGMS family")
        };
        let mut shared = [(); 2].map(|()| AgmsSketch::with_hashes(Arc::clone(hashes)));
        let mut own = [(); 2].map(|()| AgmsSketch::with_size_bytes(retained * 16, plan.key.seed));
        for (n, (v, delta)) in updates(4096, 10_000).enumerate() {
            shared[n % 2].update(v as u64, delta);
            own[n % 2].update(v as u64, delta);
        }
        assert_eq!(shared, own, "same family, counters and update counts");
        let estimate = own[0].join_size(&own[1]).unwrap().to_bits();
        assert_eq!(shared[0].join_size(&shared[1]).unwrap().to_bits(), estimate);
        // Decoding derives a family of its own (`from_parts`); it is the
        // plan's by value, so the decoded sketch joins exactly.
        let msg = Msg::Summary(vec![SummaryPayload::Sketch {
            stream: StreamId::S,
            sketch: shared[1].clone(),
        }]);
        let mut batch = wire::FrameBatch::new();
        batch.push(&msg);
        let (Msg::Summary(payloads), _) = wire::LinkBase::new().decode(batch.bytes(), 1).unwrap()
        else {
            panic!("a summary decodes as a summary")
        };
        let [SummaryPayload::Sketch { sketch, .. }] = payloads.as_slice() else {
            panic!("one sketch payload")
        };
        assert_eq!(shared[0].join_size(sketch).unwrap().to_bits(), estimate);
    }

    #[test]
    fn sketches_are_the_largest_five_to_one_grid_that_fits() {
        // `16·K` bytes of memory hold `2·K` `i64` counters; the sketch
        // keeps `s0 = 5·s1` with `s1 = ⌊√(2K/5)⌋`. At the benchmark's
        // K = 16 that is 20 counters (160 B), not 32: SKCH's goldens were
        // recorded with it.
        for (retained, shape) in [
            (16, (10, 2)),
            (8, (5, 1)),
            (64, (25, 5)),
            (1, (5, 1)),
            (2, (5, 1)),
            (39, (15, 3)),
            (40, (20, 4)),
        ] {
            let plan = Plan::new(key(Algorithm::Sketch, 4096, retained));
            let Tables::Sketch(hashes) = &plan.tables else {
                panic!("SKCH plans hold the AGMS family")
            };
            let sketch = AgmsSketch::with_hashes(Arc::clone(hashes));
            assert_eq!((sketch.s0(), sketch.s1()), shape, "K = {retained}");
        }
    }

    #[test]
    fn sketch_plans_tabulate_signs_up_to_sixty_four_counters() {
        // K = 16 is the benchmark's 10 × 2; K = 40 is the first 5:1 grid
        // over 64 counters (20 × 4), which keeps evaluating the cubics.
        for (retained, entries) in [(16, 4096), (40, 0)] {
            let plan = Plan::new(key(Algorithm::Sketch, 4096, retained));
            let Tables::Sketch(hashes) = &plan.tables else {
                panic!("SKCH plans hold the AGMS family")
            };
            assert_eq!(hashes.sign_table_len(), entries, "K = {retained}");
        }
    }

    #[test]
    fn plan_built_filters_equal_standalone_ones() {
        let retained = 16;
        let plan = Plan::new(key(Algorithm::Bloom, 4096, retained));
        let Tables::Bloom(hashes) = &plan.tables else {
            panic!("BLOOM plans hold the Bloom family")
        };
        let mut shared = CountingBloomFilter::with_hashes(Arc::clone(hashes));
        let (window, seed) = (plan.key.window, plan.key.seed);
        let mut own = CountingBloomFilter::with_size_bytes(retained * 16, window, seed);
        let values: Vec<u64> = updates(4096, 10_000).map(|(v, _)| v as u64).collect();
        for &v in &values {
            shared.insert(v);
            own.insert(v);
        }
        for &v in &values[..3_000] {
            shared.remove(v);
            own.remove(v);
        }
        assert_eq!(shared, own, "same family, counters and item counts");
        for v in 0..4096 {
            assert_eq!(shared.contains(v), own.contains(v), "{v}");
            assert_eq!(shared.count_estimate(v), own.count_estimate(v), "{v}");
        }
    }
}
