//! The BLOOM summary: counting-Bloom-filter membership (Section 6).
//!
//! Each node maintains a counting Bloom filter per stream window and ships
//! it to peers; an arriving tuple is tested against each peer's opposite-
//! stream filter, and the sites reporting membership are the flow filter's
//! candidates. The affinities (used when membership gives no signal)
//! derive from the running positive-hit rate per peer, as the paper
//! describes. Filter memory is equalized to the DFT summary: `16·K` bytes =
//! `4·K` `u32` counters, each shipped at its payload's counter width.

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
    /// Each peer column's filters, per stream.
    remote: Vec<[Option<CountingBloomFilter>; 2]>,
    /// Positive-hit rate per peer column per tuple stream.
    hit_rate: Vec<[f64; 2]>,
}

impl BloomSummary {
    /// Creates the summary for `peers` peer columns over the cluster's
    /// shared hash family (filters sized to match the DFT summary).
    pub fn new(peers: usize, hashes: &Arc<BloomHashes>) -> Self {
        let mk = || CountingBloomFilter::with_hashes(Arc::clone(hashes));
        BloomSummary {
            local: [mk(), mk()],
            remote: vec![[None, None]; peers],
            hit_rate: vec![[0.0, 0.0]; peers],
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

    /// Tests `key` against every peer column's opposite-stream filter,
    /// folds each outcome into that column's hit rate, and pushes
    /// `(column, multiplicity estimate)` for the hits. Returns whether any
    /// peer filter exists.
    pub fn push_candidates(
        &mut self,
        stream: StreamId,
        key: u32,
        out: &mut Vec<(usize, f64)>,
    ) -> bool {
        let s = stream.index();
        let opp = stream.opposite().index();
        let mut any = false;
        for (col, (remote, rates)) in self.remote.iter().zip(&mut self.hit_rate).enumerate() {
            if let Some(filter) = &remote[opp] {
                any = true;
                let est = filter.count_estimate(u64::from(key));
                let hit = if est >= 1 { 1.0 } else { 0.0 };
                rates[s] = (1.0 - HIT_EWMA) * rates[s] + HIT_EWMA * hit;
                if est >= 1 {
                    out.push((col, f64::from(est)));
                }
            }
        }
        any
    }

    /// Rewrites every entry of `row` with the hit rate of each peer column
    /// that has shipped a filter, and clears every flag in `stale`: the
    /// rates move with every tested tuple, not only where a flag is set.
    pub fn refresh_row(&self, stream: StreamId, stale: &mut [bool], row: &mut [Option<f64>]) {
        let s = stream.index();
        let opp = stream.opposite().index();
        for (rate, (remote, rates)) in row.iter_mut().zip(self.remote.iter().zip(&self.hit_rate)) {
            *rate = remote[opp].is_some().then(|| rates[s]);
        }
        stale.fill(false);
    }

    /// Whether `filter` is built on this node's hash family, as every
    /// filter of a run is: a filter on another would test keys by hashes
    /// of its own choosing.
    pub fn fits(&self, filter: &CountingBloomFilter) -> bool {
        filter.shape() == self.local[0].shape()
    }

    /// Ingests column `col`'s filter of its `stream` window (replaced
    /// wholesale). After the first, it lands in the held filter's counters.
    pub fn apply_summary(&mut self, col: usize, stream: StreamId, filter: &CountingBloomFilter) {
        let slot = &mut self.remote[col][stream.index()];
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

#[cfg(test)]
impl BloomSummary {
    /// How many peer filters, over both streams, are held.
    pub(super) fn landed(&self) -> usize {
        self.remote.iter().flatten().flatten().count()
    }
}
