//! The BLOOM summary: counting-Bloom-filter membership (Section 6).
//!
//! Each node maintains a counting Bloom filter per stream window and ships
//! it to peers; an arriving tuple is tested against each peer's opposite-
//! stream filter, and the sites reporting membership are the flow filter's
//! candidates. The affinities (used when membership gives no signal)
//! derive from the running positive-hit rate per peer, as the paper
//! describes. Filter size is equalized to the DFT summary: `16·K` bytes =
//! `4·K` counters.

use super::RouterConfig;
use crate::msg::SummaryPayload;
use dsj_sketch::{BloomHashes, CountingBloomFilter};
use dsj_stream::StreamId;
use std::sync::Arc;

/// EWMA smoothing for positive-hit rates.
const HIT_EWMA: f64 = 0.02;

/// Counting-Bloom-filter summary state.
#[derive(Debug)]
pub(super) struct BloomSummary {
    local: [CountingBloomFilter; 2],
    remote: Vec<[Option<CountingBloomFilter>; 2]>,
    /// Positive-hit rate per peer per tuple stream.
    hit_rate: Vec<[f64; 2]>,
}

impl BloomSummary {
    /// Creates the summary over the cluster's shared hash family (filters
    /// sized to match the DFT summary).
    pub fn new(cfg: &RouterConfig, hashes: &Arc<BloomHashes>) -> Self {
        let n = cfg.n as usize;
        let mk = || CountingBloomFilter::with_hashes(Arc::clone(hashes));
        BloomSummary {
            local: [mk(), mk()],
            remote: vec![[None, None]; n],
            hit_rate: vec![[0.0, 0.0]; n],
        }
    }

    /// Applies a local window change.
    pub fn local_update(&mut self, stream: StreamId, added: u32, evicted: &[u32]) {
        let s = stream.index();
        self.local[s].insert(u64::from(added));
        for &e in evicted {
            self.local[s].remove(u64::from(e));
        }
    }

    /// Tests `key` against every peer's opposite-stream filter, folds each
    /// outcome into that peer's hit rate, and pushes `(peer, multiplicity
    /// estimate)` for the hits. Returns whether any peer filter exists.
    pub fn push_candidates(
        &mut self,
        stream: StreamId,
        key: u32,
        peers: &[u16],
        out: &mut Vec<(u16, f64)>,
    ) -> bool {
        let s = stream.index();
        let opp = stream.opposite().index();
        let mut any = false;
        for &peer in peers {
            let j = peer as usize;
            if let Some(filter) = &self.remote[j][opp] {
                any = true;
                let est = filter.count_estimate(u64::from(key));
                let hit = if est >= 1 { 1.0 } else { 0.0 };
                let rate = &mut self.hit_rate[j][s];
                *rate = (1.0 - HIT_EWMA) * *rate + HIT_EWMA * hit;
                if est >= 1 {
                    out.push((peer, f64::from(est)));
                }
            }
        }
        any
    }

    /// Rewrites every entry of `row` with the hit rate of each of `peers`
    /// that has shipped a filter, and clears every flag in `stale`: the
    /// rates move with every tested tuple, not only where a flag is set.
    pub fn refresh_row(
        &self,
        stream: StreamId,
        peers: &[u16],
        stale: &mut [bool],
        row: &mut [Option<f64>],
    ) {
        let s = stream.index();
        let opp = stream.opposite().index();
        for (rate, &peer) in row.iter_mut().zip(peers) {
            let j = peer as usize;
            *rate = self.remote[j][opp].is_some().then(|| self.hit_rate[j][s]);
        }
        stale.fill(false);
    }

    /// Ingests peer `from`'s filter of its `stream` window (replaced
    /// wholesale). After the first, it lands in the held filter's counters.
    pub fn apply_summary(&mut self, from: u16, stream: StreamId, filter: &CountingBloomFilter) {
        let slot = &mut self.remote[from as usize][stream.index()];
        match slot {
            Some(held) => held.clone_from(filter),
            None => *slot = Some(filter.clone()),
        }
    }

    /// Ships both stream filters (full refresh; filters do not
    /// delta-encode).
    pub fn full_summaries(&mut self) -> Vec<SummaryPayload> {
        StreamId::BOTH
            .into_iter()
            .map(|stream| SummaryPayload::Bloom {
                stream,
                filter: self.local[stream.index()].clone(),
            })
            .collect()
    }
}
