//! Property-based invariants of the sketch substrate.

use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
