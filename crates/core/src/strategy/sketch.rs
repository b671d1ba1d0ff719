//! The SKCH summary: AGMS-sketch join-size estimates (Section 6).
//!
//! Each node sketches its two windows; peers exchange sketches and
//! estimate, for every partition pair `(R_i, S_j)`, the join size
//! `|R_i ⋈ S_j|`. The flow filter's affinities are these estimates,
//! normalized. Unlike BLOOM/DFTT there is no per-key membership test,
//! so routing is "blind" within a partition pair — the reason the paper
//! finds SKCH transmits more messages per result than the testers (Fig. 9).
//! Sketch size is equalized to the DFT summary (`16·K` bytes), keeping the
//! paper's 5:1 `s0:s1` ratio.

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
        }
    }

    /// Fills `row` with the join-size estimate against each of `peers` for
    /// a tuple of `stream`, normalized into `[0, 1]` by the largest, after
    /// recomputing the stale estimates. Returns whether any estimate was
    /// recomputed — `true` on the first call for a stream.
    pub fn fill_affinities(
        &mut self,
        stream: StreamId,
        peers: &[u16],
        row: &mut Vec<Option<f64>>,
    ) -> bool {
        let s = stream.index();
        let opp = stream.opposite().index();
        let mut changed = false;
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
                changed = true;
            }
            let est = self.est[j][s];
            max = est.map_or(max, |v| max.max(v.max(0.0)));
            row.push(est);
        }
        for v in row.iter_mut().flatten() {
            *v = if max > 0.0 { v.max(0.0) / max } else { 0.0 };
        }
        changed
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
        self.est_stale[j][stream.opposite().index()] = true;
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
