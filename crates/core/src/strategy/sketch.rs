//! The SKCH summary: AGMS-sketch join-size estimates (Section 6).
//!
//! Each node sketches its two windows; peers exchange sketches and
//! estimate, for every partition pair `(R_i, S_j)`, the join size
//! `|R_i ⋈ S_j|`. The flow filter's affinities are these estimates,
//! normalized. Unlike BLOOM/DFTT there is no per-key membership test,
//! so routing is "blind" within a partition pair — the reason the paper
//! finds SKCH transmits more messages per result than the testers (Fig. 9).
//! Sketch memory is bounded by the DFT summary's `16·K` bytes: the sketch
//! is the largest one with the paper's 5:1 `s0:s1` ratio whose `i64`
//! counters fit (`s1 = ⌊√(2K/5)⌋`, `s0 = 5·s1`), so at `K = 16` it holds
//! 10 × 2 = 20 counters (160 bytes), not 32. On the wire each counter
//! takes its payload's counter width, 1 or 2 bytes in the benchmark. The plan's family tabulates
//! the signs of every key in `[0, D)` (`AgmsHashes::with_sign_table`), so a
//! window update reads one word per key instead of evaluating 20 cubics.

use crate::msg::SummaryPayload;
use dsj_sketch::{AgmsHashes, AgmsSketch};
use dsj_stream::StreamId;
use std::sync::Arc;

/// AGMS-sketch summary state.
#[derive(Debug)]
pub(super) struct SketchSummary {
    local: [AgmsSketch; 2],
    /// Each peer column's sketches, per stream.
    remote: Vec<[Option<AgmsSketch>; 2]>,
    /// Raw pairwise join-size estimates per peer column per tuple stream, kept
    /// because normalising a row reads every peer's, and recomputed only
    /// where the router flags the entry stale.
    est: Vec<[Option<f64>; 2]>,
    /// `join_size_into`'s group means, reused by every estimate.
    group_means: Vec<f64>,
}

impl SketchSummary {
    /// Creates the summary for `peers` peer columns over the cluster's
    /// shared hash family (sized to match the DFT summary), so every
    /// node's sketches are mutually joinable.
    pub fn new(peers: usize, hashes: &Arc<AgmsHashes>) -> Self {
        let mk = || AgmsSketch::with_hashes(Arc::clone(hashes));
        let local = [mk(), mk()];
        SketchSummary {
            group_means: Vec::with_capacity(local[0].s1()),
            local,
            remote: vec![[None, None]; peers],
            est: vec![[None, None]; peers],
        }
    }

    /// Applies a local window change.
    pub fn local_update(&mut self, stream: StreamId, added: u32, evicted: &[u32]) {
        let s = stream.index();
        self.local[s].update(u64::from(added), 1);
        for &e in evicted {
            self.local[s].update(u64::from(e), -1);
        }
    }

    /// Rewrites `row` with the join-size estimate against each peer
    /// column for a tuple of `stream`, normalized into `[0, 1]` by the
    /// largest, after recomputing the estimates that `stale` flags and
    /// clearing their flags.
    pub fn refresh_row(&mut self, stream: StreamId, stale: &mut [bool], row: &mut [Option<f64>]) {
        let s = stream.index();
        let opp = stream.opposite().index();
        let mut max = 0.0_f64;
        for (col, (entry, flag)) in row.iter_mut().zip(stale).enumerate() {
            if std::mem::take(flag) {
                // The router drops a sketch on another hash family, so a
                // held sketch always joins; a mismatch would read as "no
                // estimate".
                self.est[col][s] = self.remote[col][opp]
                    .as_ref()
                    .and_then(|sk| self.local[s].join_size_into(sk, &mut self.group_means).ok());
            }
            let est = self.est[col][s];
            max = est.map_or(max, |v| max.max(v.max(0.0)));
            *entry = est;
        }
        for v in row.iter_mut().flatten() {
            *v = if max > 0.0 { v.max(0.0) / max } else { 0.0 };
        }
    }

    /// Whether `sketch` is built on this node's hash family, as every
    /// sketch of a run is: only sketches on one family are joinable.
    pub fn fits(&self, sketch: &AgmsSketch) -> bool {
        sketch.shape() == self.local[0].shape()
    }

    /// Ingests column `col`'s sketch of its `stream` window (replaced
    /// wholesale). After the first, it lands in the held sketch's counters.
    pub fn apply_summary(&mut self, col: usize, stream: StreamId, sketch: &AgmsSketch) {
        let slot = &mut self.remote[col][stream.index()];
        match slot {
            Some(held) => held.clone_from(sketch),
            None => *slot = Some(sketch.clone()),
        }
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
impl SketchSummary {
    /// How many peer sketches, over both streams, are held.
    pub(super) fn landed(&self) -> usize {
        self.remote.iter().flatten().flatten().count()
    }
}
