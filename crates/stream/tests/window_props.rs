//! Property-based invariants of the sliding window's probe index.
//!
//! The window keeps a per-key count index (`counts`) alongside the tuple
//! buffer so `probe` is O(1), and eviction reuses internal buffers (PR
//! 3), so these properties pin the index
//! against a naive recount of the buffer under arbitrary mixed operation
//! sequences for both window kinds.

use dsj_stream::{SlidingWindow, StreamId, Tuple, WindowSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

const KEY_SPACE: u32 = 12;

/// Recounts keys by walking the buffer — the O(W) ground truth the count
/// index must always agree with.
fn naive_counts(w: &SlidingWindow) -> BTreeMap<u32, u32> {
    let mut counts = BTreeMap::new();
    for t in w.iter() {
        *counts.entry(t.key).or_insert(0) += 1;
    }
    counts
}

fn spec_for(kind: u8) -> WindowSpec {
    match kind {
        0 => WindowSpec::count(7),
        _ => WindowSpec::Time(9),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every insert, `probe` over the whole key
    /// space matches a naive recount of the buffer, the eviction batch is
    /// consistent between its tuple and key views, and the
    /// inserted/evicted/held accounting balances.
    #[test]
    fn probe_index_matches_naive_recount(
        kind in 0u8..2,
        ops in prop::collection::vec((0u32..KEY_SPACE, 0u64..5), 1..80),
    ) {
        let mut w = SlidingWindow::new(spec_for(kind));
        let mut now = 0u64;
        let mut evicted_total = 0u64;
        for (seq, &(key, dt)) in ops.iter().enumerate() {
            now += dt;
            let tuple = Tuple::new(StreamId::R, key, seq as u64, 0);
            let ev_len = w.insert(tuple, now).len();
            prop_assert_eq!(ev_len, w.evicted_keys().len());
            let keys_of_batch: Vec<u32> = w.evicted_keys().to_vec();
            evicted_total += ev_len as u64;

            let naive = naive_counts(&w);
            for k in 0..KEY_SPACE {
                prop_assert_eq!(
                    w.probe(k),
                    naive.get(&k).copied().unwrap_or(0),
                    "probe({}) disagrees with buffer recount", k
                );
            }
            prop_assert_eq!(w.inserted(), seq as u64 + 1);
            prop_assert_eq!(w.len() as u64 + evicted_total, w.inserted());
            // Evicted keys must not exceed what was ever inserted for them.
            for k in keys_of_batch {
                prop_assert!(k < KEY_SPACE);
            }
        }
    }

    /// `probe_before` equals a filtered naive recount for every cutoff.
    #[test]
    fn probe_before_matches_filtered_recount(
        kind in 0u8..2,
        ops in prop::collection::vec((0u32..KEY_SPACE, 0u64..5), 1..60),
        cutoff in 0u64..70,
    ) {
        let mut w = SlidingWindow::new(spec_for(kind));
        let mut now = 0u64;
        for (seq, &(key, dt)) in ops.iter().enumerate() {
            now += dt;
            w.insert(Tuple::new(StreamId::R, key, seq as u64, 0), now);
        }
        for k in 0..KEY_SPACE {
            let expected = w.iter().filter(|t| t.key == k && t.seq < cutoff).count() as u32;
            prop_assert_eq!(w.probe_before(k, cutoff), expected);
        }
    }
}
