//! Property-based invariants of the sketch substrate.

use dsj_sketch::hash::MERSENNE_61;
use dsj_sketch::{AgmsHashes, AgmsSketch, CountingBloomFilter, PolyHash};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sketch's flat kernel is exact: after any updates, counter `i`
    /// holds `Σ ξᵢ(v)·δ` with `ξᵢ` the `PolyHash` sign of the hash derived
    /// for it, across the whole `u64` range and the field's edges.
    #[test]
    fn counters_equal_the_polyhash_oracle(
        s0 in 1usize..12,
        s1 in 1usize..6,
        seed in 0u64..u64::MAX,
        random in prop::collection::vec((0u64..u64::MAX, -3i64..4), 0..40),
        edge_deltas in (-3i64..4, -3i64..4, -3i64..4, -3i64..4),
    ) {
        let (d0, d1, d2, d3) = edge_deltas;
        let edges = [
            (MERSENNE_61 - 1, d0),
            (MERSENNE_61, d1),
            (MERSENNE_61 + 1, d2),
            (u64::MAX, d3),
        ];
        let updates: Vec<(u64, i64)> = random.into_iter().chain(edges).collect();
        let mut sk = AgmsSketch::new(s0, s1, seed);
        for &(v, delta) in &updates {
            sk.update(v, delta);
        }
        for (i, &counter) in sk.counter_values().iter().enumerate() {
            let xi = PolyHash::four_wise(seed.wrapping_add(0x51ED_270B ^ (i as u64) << 17));
            let expected: i64 = updates.iter().map(|&(v, delta)| xi.sign(v) * delta).sum();
            prop_assert_eq!(counter, expected, "counter {}", i);
        }
        prop_assert_eq!(sk.updates(), updates.len() as u64);
    }

    /// The sign table is an exact memo of the kernel: over a tabulated
    /// family of at most 64 counters, updates inside and outside its domain
    /// leave the counters and update count bitwise those of the untabulated
    /// family's sketch.
    #[test]
    fn tabulated_updates_equal_the_kernel(
        s0 in 1usize..17,
        s1 in 1usize..5,
        seed in 0u64..u64::MAX,
        domain in 0usize..300,
        updates in prop::collection::vec((0u64..400, -3i64..4), 0..80),
        far in prop::collection::vec((0u64..u64::MAX, -3i64..4), 0..4),
    ) {
        let hashes = AgmsHashes::new(s0, s1, seed);
        let tabulated = Arc::new(AgmsHashes::new(s0, s1, seed).with_sign_table(domain));
        prop_assert_eq!(tabulated.sign_table_len(), domain);
        prop_assert_eq!(&*tabulated, &hashes);
        let mut table = AgmsSketch::with_hashes(tabulated);
        let mut kernel = AgmsSketch::with_hashes(Arc::new(hashes));
        for &(v, delta) in updates.iter().chain(&far) {
            table.update(v, delta);
            kernel.update(v, delta);
        }
        prop_assert_eq!(table.counter_values(), kernel.counter_values());
        prop_assert_eq!(table.updates(), kernel.updates());
    }

    /// Join-size estimation is symmetric.
    #[test]
    fn join_size_symmetric(
        f_ops in prop::collection::vec(0u64..128, 1..100),
        g_ops in prop::collection::vec(0u64..128, 1..100),
        seed in 0u64..64,
    ) {
        let mut f = AgmsSketch::new(20, 5, seed);
        let mut g = AgmsSketch::new(20, 5, seed);
        for &v in &f_ops {
            f.update(v, 1);
        }
        for &v in &g_ops {
            g.update(v, 1);
        }
        let fg = f.join_size(&g).unwrap();
        let gf = g.join_size(&f).unwrap();
        prop_assert!((fg - gf).abs() < 1e-9);
    }

    /// A Bloom filter over the live multiset never reports a false
    /// negative; an emptied filter reports nothing.
    #[test]
    fn bloom_lifecycle(values in prop::collection::vec(0u64..1000, 1..120)) {
        let mut f = CountingBloomFilter::new(4096, 4, 9);
        for &v in &values {
            f.insert(v);
        }
        for &v in &values {
            prop_assert!(f.contains(v));
            prop_assert!(f.count_estimate(v) >= 1);
        }
        for &v in &values {
            f.remove(v);
        }
        prop_assert!(f.is_empty());
        // Counters are fully zeroed: no residue positives at all.
        for &v in &values {
            prop_assert!(!f.contains(v));
        }
    }

    /// Self-join estimates are never negative for the classic sketch under
    /// insert-only updates (each row mean of squares is non-negative).
    #[test]
    fn self_join_nonnegative(values in prop::collection::vec(0u64..512, 0..150)) {
        let mut sk = AgmsSketch::new(15, 3, 2);
        for &v in &values {
            sk.update(v, 1);
        }
        prop_assert!(sk.join_size(&sk).unwrap() >= 0.0);
    }
}
