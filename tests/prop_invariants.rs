//! Property-based invariants across the public API (proptest).

use dsjoin::core::{Algorithm, ClusterConfig};
use dsjoin::dft::{CompressedDft, Fft};
use dsjoin::sketch::{AgmsSketch, CountingBloomFilter};
use dsjoin::stream::gen::WorkloadKind;
use dsjoin::stream::{SlidingWindow, StreamId, Tuple, WindowSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// FFT round-trips any real signal.
    #[test]
    fn fft_round_trip(signal in prop::collection::vec(-1000.0f64..1000.0, 1..200)) {
        let fft = Fft::new(signal.len());
        let back = fft.inverse_real(&fft.forward_real(&signal));
        for (a, b) in signal.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Parseval: energy is preserved by the transform.
    #[test]
    fn fft_parseval(signal in prop::collection::vec(-100.0f64..100.0, 2..128)) {
        let spec = Fft::new(signal.len()).forward_real(&signal);
        let time: f64 = signal.iter().map(|x| x * x).sum();
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / signal.len() as f64;
        prop_assert!((time - freq).abs() <= 1e-6 * time.max(1.0));
    }

    /// Compression at κ=1 is exact for any signal; MSE is monotone in κ.
    #[test]
    fn compression_monotone(signal in prop::collection::vec(-500.0f64..500.0, 8..256)) {
        let exact = CompressedDft::from_signal(&signal, 1).unwrap();
        prop_assert!(exact.mse(&signal) < 1e-9);
        let m2 = CompressedDft::from_signal(&signal, 2).unwrap().mse(&signal);
        let m4 = CompressedDft::from_signal(&signal, 4).unwrap().mse(&signal);
        prop_assert!(m4 >= m2 - 1e-9);
    }

    /// A sliding window never exceeds its bound and never loses recent
    /// tuples.
    #[test]
    fn window_bound_invariant(
        cap in 1usize..32,
        keys in prop::collection::vec(0u32..64, 1..200),
    ) {
        let mut w = SlidingWindow::new(WindowSpec::count(cap));
        for (seq, &key) in keys.iter().enumerate() {
            w.insert(Tuple::new(StreamId::R, key, seq as u64, 0), seq as u64);
            prop_assert!(w.len() <= cap);
        }
        let expected = keys.len().min(cap);
        prop_assert_eq!(w.len(), expected);
        // The most recent `expected` keys are all probe-able.
        let tail = &keys[keys.len() - expected..];
        for &k in tail {
            prop_assert!(w.probe(k) >= 1);
        }
    }

    /// probe equals probe_before with an infinite sequence horizon.
    #[test]
    fn probe_before_consistency(
        keys in prop::collection::vec(0u32..16, 1..100),
        query in 0u32..16,
    ) {
        let mut w = SlidingWindow::new(WindowSpec::count(50));
        for (seq, &key) in keys.iter().enumerate() {
            w.insert(Tuple::new(StreamId::S, key, seq as u64, 0), seq as u64);
        }
        let as_of = w.probe_before(query, u64::MAX);
        prop_assert_eq!((as_of.matches, as_of.late, as_of.walked), (w.probe(query), false, 0));
        // Fewer than `2·W` inserts: no slot has left the ring, so even a
        // probe older than all of them is not late.
        let as_of = w.probe_before(query, 0);
        prop_assert_eq!((as_of.matches, as_of.late), (0, false));
    }

    /// Bloom filters have no false negatives under insert/remove churn.
    #[test]
    fn bloom_no_false_negatives(
        ops in prop::collection::vec((0u64..500, prop::bool::ANY), 1..300),
    ) {
        let mut f = CountingBloomFilter::new(2048, 4, 3);
        let mut present: std::collections::HashMap<u64, u32> = Default::default();
        for (v, insert) in ops {
            if insert {
                f.insert(v);
                *present.entry(v).or_insert(0) += 1;
            } else if present.get(&v).copied().unwrap_or(0) > 0 {
                f.remove(v);
                *present.get_mut(&v).unwrap() -= 1;
            }
        }
        for (&v, &count) in &present {
            if count > 0 {
                prop_assert!(f.contains(v), "false negative for {}", v);
            }
        }
    }

    /// AGMS join-size estimation is exact-in-expectation enough to carry
    /// sign information for disjoint vs identical streams.
    #[test]
    fn agms_separates_disjoint_from_identical(seed in 0u64..32) {
        let mut a = AgmsSketch::new(40, 5, seed);
        let mut b = AgmsSketch::new(40, 5, seed);
        let mut c = AgmsSketch::new(40, 5, seed);
        for v in 0..200u64 {
            a.update(v, 1);
            b.update(v, 1);         // identical to a
            c.update(v + 1000, 1);  // disjoint from a
        }
        let same = a.join_size(&b).unwrap();
        let disj = a.join_size(&c).unwrap();
        prop_assert!(same > disj, "identical {same} must exceed disjoint {disj}");
    }
}

proptest! {
    // Cluster runs are slower; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed and algorithm, the experiment invariants hold:
    /// ε ∈ [0, 1], reported ≤ truth, and the engine's message and byte
    /// counters equal the network's.
    #[test]
    fn experiment_invariants(
        seed in 0u64..1000,
        alg_idx in 0usize..5,
    ) {
        let algorithm = Algorithm::ALL[alg_idx];
        let r = ClusterConfig::new(4, algorithm)
            .window(128)
            .domain(1 << 9)
            .tuples(1_500)
            .workload(WorkloadKind::Zipf { alpha: 0.4 })
            .seed(seed)
            .run()
            .unwrap();
        prop_assert!((0.0..=1.0).contains(&r.epsilon));
        prop_assert!(r.reported_matches <= r.truth_matches);
        // Every message the engine counts is the one simnet charges, at
        // the size simnet charges it.
        prop_assert_eq!(r.bytes, r.data_bytes + r.overhead_bytes);
        prop_assert!(r.duration_secs > 0.0);
        prop_assert_eq!(r.messages, r.tuple_msgs + r.summary_msgs);
    }
}
