//! The SKCH summary: AGMS-sketch join-size estimates (Section 6).
//!
//! Each node sketches its two windows; peers exchange sketches and
//! estimate, for every partition pair `(R_i, S_j)`, the join size
//! `|R_i ⋈ S_j|`. The flow filter's affinities are these estimates,
//! normalized. Unlike BLOOM/DFTT there is no per-key membership test,
//! so routing is "blind" within a partition pair — the reason the paper
//! finds SKCH transmits more messages per result than the testers (Fig. 9).
//! Sketch size is bounded by the DFT summary's `16·K` bytes: the sketch is
//! the largest one with the paper's 5:1 `s0:s1` ratio whose `i64`
//! counters fit (`s1 = ⌊√(2K/5)⌋`, `s0 = 5·s1`), so at `K = 16` it holds
//! 10 × 2 = 20 counters (160 bytes), not 32. The plan's family tabulates
//! the signs of every key in `[0, D)` (`AgmsHashes::with_sign_table`), so a
//! window update reads one word per key instead of evaluating 20 cubics.

use super::{RouterConfig, RHO_REFRESH};
use crate::msg::SummaryPayload;
use dsj_sketch::{AgmsHashes, AgmsSketch};
use dsj_stream::StreamId;
use std::sync::Arc;

/// AGMS-sketch summary state.
#[derive(Debug)]
pub(super) struct SketchSummary {
    local: [AgmsSketch; 2],
    remote: Vec<[Option<AgmsSketch>; 2]>,
    /// Cached pairwise join-size estimates per peer per tuple stream,
    /// recomputed where stale: after a peer's sketch lands, and every
    /// `RHO_REFRESH` local arrivals.
    est: Vec<[Option<f64>; 2]>,
    est_stale: Vec<[bool; 2]>,
    /// Per tuple stream: whether some estimate went stale since the last
    /// `fill_affinities`, so the caller's row may be out of date.
    row_dirty: [bool; 2],
    arrivals_since_refresh: u32,
    /// `join_size_into`'s group means, reused by every estimate.
    group_means: Vec<f64>,
}

impl SketchSummary {
    /// Creates the summary over the cluster's shared hash family (sized
    /// to match the DFT summary), so every node's sketches are mutually
    /// joinable.
    pub fn new(cfg: &RouterConfig, hashes: &Arc<AgmsHashes>) -> Self {
        let n = cfg.n as usize;
        let mk = || AgmsSketch::with_hashes(Arc::clone(hashes));
        let local = [mk(), mk()];
        SketchSummary {
            group_means: Vec::with_capacity(local[0].s1()),
            local,
            remote: vec![[None, None]; n],
            est: vec![[None, None]; n],
            est_stale: vec![[true, true]; n],
            row_dirty: [true, true],
            arrivals_since_refresh: 0,
        }
    }

    /// Applies a local window change.
    pub fn local_update(&mut self, stream: StreamId, added: u32, evicted: &[u32]) {
        let s = stream.index();
        self.local[s].update(u64::from(added), 1);
        for &e in evicted {
            self.local[s].update(u64::from(e), -1);
        }
        self.arrivals_since_refresh += 1;
        if self.arrivals_since_refresh >= RHO_REFRESH {
            self.arrivals_since_refresh = 0;
            for flags in &mut self.est_stale {
                *flags = [true, true];
            }
            self.row_dirty = [true, true];
        }
    }

    /// Refills `row` with the join-size estimate against each of `peers`
    /// for a tuple of `stream`, normalized into `[0, 1]` by the largest,
    /// after recomputing the stale estimates — only when some estimate went
    /// stale since the last fill for `stream`. Returns whether it refilled
    /// `row` (`true` on the first call for a stream); when it did not, `row`
    /// is left as that fill left it.
    pub fn fill_affinities(
        &mut self,
        stream: StreamId,
        peers: &[u16],
        row: &mut Vec<Option<f64>>,
    ) -> bool {
        let s = stream.index();
        if !self.row_dirty[s] {
            return false;
        }
        self.row_dirty[s] = false;
        let opp = stream.opposite().index();
        let mut max = 0.0_f64;
        row.clear();
        for &peer in peers {
            let j = peer as usize;
            if self.est_stale[j][s] {
                // The cluster's one hash family keeps sketches compatible;
                // a mismatch (impossible by construction) reads as "no
                // estimate".
                self.est[j][s] = self.remote[j][opp]
                    .as_ref()
                    .and_then(|sk| self.local[s].join_size_into(sk, &mut self.group_means).ok());
                self.est_stale[j][s] = false;
            }
            let est = self.est[j][s];
            max = est.map_or(max, |v| max.max(v.max(0.0)));
            row.push(est);
        }
        for v in row.iter_mut().flatten() {
            *v = if max > 0.0 { v.max(0.0) / max } else { 0.0 };
        }
        true
    }

    /// Ingests a peer's sketch (replaced wholesale: nothing to drop). After
    /// the first, it lands in the held sketch's counters.
    pub fn apply_summary(&mut self, from: u16, payload: &SummaryPayload) -> u64 {
        let SummaryPayload::Sketch { stream, sketch } = payload else {
            debug_assert!(false, "SKCH summary received a non-sketch payload");
            return 0;
        };
        let j = from as usize;
        let slot = &mut self.remote[j][stream.index()];
        match slot {
            Some(held) => held.clone_from(sketch),
            None => *slot = Some(sketch.clone()),
        }
        let opp = stream.opposite().index();
        self.est_stale[j][opp] = true;
        self.row_dirty[opp] = true;
        0
    }

    /// Ships both stream sketches (full refresh).
    pub fn full_summaries(&mut self) -> Vec<SummaryPayload> {
        StreamId::BOTH
            .into_iter()
            .map(|stream| SummaryPayload::Sketch {
                stream,
                sketch: self.local[stream.index()].clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{test_config, Algorithm, Tables};
    use super::*;

    /// Node `me`'s summary in a two-node SKCH cluster.
    fn summary(me: u16) -> SketchSummary {
        let cfg = test_config(Algorithm::Sketch, me, 2);
        let Tables::Sketch(hashes) = &cfg.plan.tables else {
            panic!("SKCH plans hold the AGMS family")
        };
        SketchSummary::new(&cfg, hashes)
    }

    fn fill(r: &mut SketchSummary, stream: StreamId, keys: &[u32]) {
        for &k in keys {
            r.local_update(stream, k, &[]);
        }
    }

    /// Ships `src`'s sketch of `stream` to `dst`, as a full refresh would.
    fn ship(src: &mut SketchSummary, dst: &mut SketchSummary, stream: StreamId) {
        for p in src.full_summaries() {
            if matches!(p, SummaryPayload::Sketch { stream: s, .. } if s == stream) {
                dst.apply_summary(1, &p);
            }
        }
    }

    #[test]
    fn affinity_row_is_refilled_only_when_a_summary_goes_stale() {
        let mut n0 = summary(0);
        let mut n1 = summary(1);
        fill(&mut n0, StreamId::R, &[3; 10]);
        fill(&mut n1, StreamId::S, &[3; 20]);
        fill(&mut n1, StreamId::R, &[5; 20]);
        ship(&mut n1, &mut n0, StreamId::S);
        ship(&mut n1, &mut n0, StreamId::R);
        let (peers, sentinel) = ([1], vec![Some(-7.0)]);
        let mut rows = [Vec::new(), Vec::new()];
        // Returns whether `stream`'s row was refilled, after checking that
        // an untouched row still holds the sentinel.
        let mut refill = |n0: &mut SketchSummary, stream: StreamId| {
            let row = &mut rows[stream.index()];
            *row = sentinel.clone();
            let refilled = n0.fill_affinities(stream, &peers, row);
            assert_eq!(refilled, *row != sentinel, "{stream:?}");
            refilled
        };
        assert!(refill(&mut n0, StreamId::R), "first fill");
        assert!(refill(&mut n0, StreamId::S), "first fill");
        assert!(!refill(&mut n0, StreamId::R), "nothing went stale");
        // A peer's S sketch lands: R tuples are estimated against it, S
        // tuples are not.
        ship(&mut n1, &mut n0, StreamId::S);
        assert!(refill(&mut n0, StreamId::R));
        assert!(!refill(&mut n0, StreamId::S));
        // Local arrivals leave both rows alone until the refresh tick.
        fill(&mut n0, StreamId::S, &vec![4; RHO_REFRESH as usize - 11]);
        assert!(!refill(&mut n0, StreamId::R));
        assert!(!refill(&mut n0, StreamId::S));
        fill(&mut n0, StreamId::S, &[4]);
        assert!(refill(&mut n0, StreamId::R), "tick");
        assert!(refill(&mut n0, StreamId::S), "tick");
        assert!(!refill(&mut n0, StreamId::S));
    }
}
