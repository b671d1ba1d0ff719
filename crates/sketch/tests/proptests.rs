//! Property-based invariants of the sketch substrate.

use dsj_sketch::hash::MERSENNE_61;
use dsj_sketch::{AgmsSketch, CountingBloomFilter, PolyHash};
use proptest::prelude::*;

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
