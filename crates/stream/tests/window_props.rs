//! Property-based invariants of the sliding window's probe index.
//!
//! The window keeps a per-key index (count and newest slot, each slot
//! chained to the next-older slot of its key) beside its slot ring, so
//! `probe` is O(1) and `probe_before` walks only the tuples at or after
//! its cutoff, and eviction reuses internal buffers. These properties pin
//! the index against a naive recount of the buffer under arbitrary mixed
//! operation sequences for both window kinds — including runs long and
//! wide enough that slots wrap many times and keys leave and re-enter.

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

    /// After every insert of a run of at least `3·W` over a key space
    /// wider than `W` — slots wrap and keys leave and re-enter; seqs skip
    /// values and the clock now and then jumps past the whole span —
    /// `probe` and `probe_before` at every cutoff (older than the oldest
    /// held tuple through newer than the newest, plus `0` and `u64::MAX`)
    /// match a filtered recount, and `iter()` yields exactly the newest
    /// `len()` inserted tuples, oldest first.
    #[test]
    fn probes_match_a_recount_after_every_insert(
        kind in 0u8..2,
        w_len in 1usize..16,
        key_factor in 2u32..5,
        ops in prop::collection::vec((0u32..64, 0u64..12, 1u64..3), 48..160),
    ) {
        let mut w = SlidingWindow::new(match kind {
            0 => WindowSpec::count(w_len),
            _ => WindowSpec::Time(w_len as u64),
        });
        let key_space = w_len as u32 * key_factor;
        let (mut now, mut seq) = (0u64, 0u64);
        let mut inserted = Vec::new();
        for &(raw_key, dt, gap) in &ops {
            // Mostly small steps; a tenth of them jump past the span.
            now += if dt >= 10 { 3 * w_len as u64 } else { dt % 5 };
            seq += gap;
            let tuple = Tuple::new(StreamId::R, raw_key % key_space, seq, 0);
            w.insert(tuple, now);
            inserted.push(tuple);

            let held: Vec<Tuple> = w.iter().copied().collect();
            prop_assert_eq!(held.len(), w.len());
            prop_assert_eq!(&held[..], &inserted[inserted.len() - held.len()..]);
            let mut seqs_of: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
            for t in &held {
                seqs_of.entry(t.key).or_default().push(t.seq);
            }
            let oldest = held.first().map_or(0, |t| t.seq);
            let cutoffs = (oldest.saturating_sub(2)..=seq + 2).chain([0, u64::MAX]);
            for cutoff in cutoffs {
                for k in 0..key_space {
                    let seqs = seqs_of.get(&k).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(w.probe(k), seqs.len() as u32);
                    prop_assert_eq!(
                        w.probe_before(k, cutoff),
                        seqs.partition_point(|&s| s < cutoff) as u32,
                        "probe_before({}, {})", k, cutoff
                    );
                }
            }
        }
    }
}
