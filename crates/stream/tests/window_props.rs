//! Property-based invariants of the sliding window's probe index.
//!
//! The window keeps a per-key index (count and newest slot, each slot
//! chained to the next-older slot of its key) beside its slot ring, so
//! `probe` is O(1) and `probe_before` walks only the tuples at or after
//! its cutoff, and eviction reuses internal buffers. What a probe needs of
//! an expired tuple is kept for one more window, so `probe_before` can
//! answer for the window as it stood at an earlier insert. These
//! properties pin the index against a naive recount of the buffer, and
//! `probe_before` against a replay of every insert by `GroundTruth`'s
//! eviction rule, under arbitrary mixed operation sequences for both
//! window kinds — including runs long and wide enough that slots wrap many
//! times and keys leave and re-enter, and runs whose keys all share one
//! bucket of the chains `probe_before` walks over expired tuples.

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
    /// `iter()` yields exactly the newest `len()` inserted tuples, oldest
    /// first, `probe` matches their recount, and `probe_before` at every
    /// cutoff that trails the newest insert by 0 to `2·W + 2` inserts
    /// (past the grace `G = W` and past everything kept), plus `0` and
    /// `u64::MAX`, matches the window as it stood after the last insert
    /// below the cutoff. It flags exactly the probes whose window reached
    /// a tuple no longer kept: for a count window, those trailing by more
    /// than `G`. It walks exactly the kept expired tuples of the key's
    /// bucket evicted at or after the cutoff. Half the runs force every
    /// key into one bucket, so each walk passes other keys' tuples and
    /// runs into the tuples dropped off the grace.
    #[test]
    fn as_of_probes_match_a_replay_after_every_insert(
        kind in 0u8..2,
        w_len in 1usize..16,
        key_factor in 2u32..5,
        one_bucket in 0u8..2,
        ops in prop::collection::vec((0u32..64, 0u64..12, 1u64..3), 48..160),
    ) {
        let spec = match kind {
            0 => WindowSpec::count(w_len),
            _ => WindowSpec::Time(w_len as u64),
        };
        let mut w = SlidingWindow::new(spec);
        let keys: Vec<u32> = if one_bucket == 1 {
            (0..).filter(|&k| bucket(k) == 0).take(w_len * key_factor as usize).collect()
        } else {
            (0..w_len as u32 * key_factor).collect()
        };
        let (mut now, mut seq) = (0u64, 0u64);
        let mut inserted: Vec<(Tuple, u64)> = Vec::new();
        // `held_from[j]`: the oldest tuple held after insert `j`, by
        // `GroundTruth`'s rule; `kept_from`, the oldest expired tuple the
        // window keeps, no more of them than it holds; `evicted_by[i]`, the
        // seq of the insert that evicted tuple `i`.
        let mut held_from: Vec<usize> = Vec::new();
        let mut kept_from = 0;
        let mut evicted_by: Vec<u64> = Vec::new();
        for &(raw_key, dt, gap) in &ops {
            // Mostly small steps; a tenth of them jump past the span.
            now += if dt >= 10 { 3 * w_len as u64 } else { dt % 5 };
            seq += gap;
            let tuple = Tuple::new(StreamId::R, keys[raw_key as usize % keys.len()], seq, 0);
            w.insert(tuple, now);
            inserted.push((tuple, now));
            let len = inserted.len();
            let mut front = held_from.last().copied().unwrap_or(0);
            while spec.expires(len - front, inserted[front].1, now) {
                front += 1;
                evicted_by.push(seq);
            }
            held_from.push(front);
            kept_from = kept_from.max((2 * front).saturating_sub(len));

            let held: Vec<Tuple> = w.iter().copied().collect();
            prop_assert_eq!(held.len(), w.len());
            prop_assert_eq!(held.len(), len - front);
            prop_assert!(held.iter().eq(inserted[front..].iter().map(|(t, _)| t)));
            let oldest = inserted[len.saturating_sub(2 * w_len + 3)].0.seq;
            for cutoff in (oldest..=seq + 2).chain([0, u64::MAX]) {
                let before = inserted.partition_point(|(t, _)| t.seq < cutoff);
                let trail = len - before;
                let (window, late) = match before.checked_sub(1) {
                    Some(q) => (&inserted[held_from[q]..before], held_from[q] < kept_from),
                    None => (&[][..], kept_from > 0),
                };
                if kind == 0 {
                    prop_assert_eq!(late, kept_from > 0 && trail > w_len);
                }
                let mut as_of: BTreeMap<u32, u32> = BTreeMap::new();
                for (t, _) in window {
                    *as_of.entry(t.key).or_default() += 1;
                }
                // A probe at or past the newest insert reads the live count.
                let walks = seq >= cutoff;
                for &k in &keys {
                    prop_assert_eq!(
                        w.probe(k),
                        held.iter().filter(|t| t.key == k).count() as u32
                    );
                    let found = w.probe_before(k, cutoff);
                    prop_assert_eq!(found.late, late, "late({}, {})", k, cutoff);
                    let truth = as_of.get(&k).copied().unwrap_or(0);
                    if late {
                        prop_assert!(found.matches <= truth, "probe_before({}, {})", k, cutoff);
                    } else {
                        prop_assert_eq!(found.matches, truth, "probe_before({}, {})", k, cutoff);
                    }
                    let walked = (kept_from..front)
                        .filter(|&i| {
                            walks && bucket(inserted[i].0.key) == bucket(k) && evicted_by[i] >= cutoff
                        })
                        .count() as u32;
                    prop_assert_eq!(found.walked, walked, "walked({}, {})", k, cutoff);
                }
            }
        }
    }
}

/// The window's bucket of a key: the top byte of its multiplicative hash.
fn bucket(key: u32) -> u64 {
    u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56
}
