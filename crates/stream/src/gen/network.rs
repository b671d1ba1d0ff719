//! The NWRK workload: synthetic network packet traces.
//!
//! Substitute for the paper's 2.2 M-packet day-long trace (DESIGN.md §2):
//! packets belong to flows whose popularity is Zipf-distributed (heavy
//! hitters dominate, as in real traffic), and arrivals are bursty — a
//! packet repeats its stream's previous flow with high probability,
//! modeling back-to-back segments of one connection. The join attribute is
//! a flow identifier (think source address), scattered over the domain by
//! a fixed multiplicative permutation so hot flows are not all adjacent.

use crate::tuple::StreamId;
use rand::rngs::StdRng;
use rand::Rng;

/// Bursty, heavy-tailed packet flow identifiers.
#[derive(Debug, Clone)]
pub struct NetworkSource {
    domain: u32,
    /// Number of distinct flows (≤ domain).
    flows: u32,
    /// Cumulative Zipf weights over flow ranks.
    flow_cdf: Vec<f64>,
    /// `flow_cdf.last()`, cached at construction.
    flow_total: f64,
    /// Probability that the next packet continues the previous flow.
    burstiness: f64,
    /// Previous key per stream (R at 0, S at 1).
    last: [Option<u32>; 2],
}

impl NetworkSource {
    /// Flow-popularity skew: real traffic is strongly heavy-tailed.
    const FLOW_ALPHA: f64 = 1.1;

    /// Creates a source over `[0, domain)`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0`.
    pub fn new(domain: u32, _rng: &mut StdRng) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        let flows = domain.clamp(1, 4096);
        let mut acc = 0.0;
        let flow_cdf = (0..flows as u64)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(Self::FLOW_ALPHA);
                acc
            })
            .collect();
        NetworkSource {
            domain,
            flows,
            flow_cdf,
            flow_total: acc,
            burstiness: 0.7,
            last: [None, None],
        }
    }

    /// Scatters flow rank `i` over the domain (fixed odd-multiplier
    /// permutation when the domain is a power of two, otherwise a modular
    /// spread).
    fn scatter(&self, rank: u32) -> u32 {
        ((rank as u64).wrapping_mul(2_654_435_761) % self.domain as u64) as u32
    }

    fn fresh_flow(&self, rng: &mut StdRng) -> u32 {
        let r = rng.gen::<f64>() * self.flow_total;
        let rank = self.flow_cdf.partition_point(|&c| c < r) as u32;
        self.scatter(rank.min(self.flows - 1))
    }

    /// Draws the next key for a tuple of `stream`, in `[0, domain)`.
    pub fn next_key(&mut self, stream: StreamId, rng: &mut StdRng) -> u32 {
        let slot = stream.index();
        let key = match self.last[slot] {
            Some(prev) if rng.gen_bool(self.burstiness) => prev,
            _ => self.fresh_flow(rng),
        };
        self.last[slot] = Some(key);
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bursts_repeat_previous_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = NetworkSource::new(1 << 16, &mut rng);
        let keys: Vec<u32> = (0..10_000)
            .map(|_| src.next_key(StreamId::R, &mut rng))
            .collect();
        let repeats = keys.windows(2).filter(|p| p[0] == p[1]).count();
        let frac = repeats as f64 / (keys.len() - 1) as f64;
        assert!(
            (0.6..0.85).contains(&frac),
            "burst repetition {frac} off from 0.7"
        );
    }

    #[test]
    fn heavy_hitters_dominate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut src = NetworkSource::new(1 << 16, &mut rng);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..50_000 {
            *counts
                .entry(src.next_key(StreamId::S, &mut rng))
                .or_insert(0usize) += 1;
        }
        let mut freqs: Vec<usize> = counts.into_values().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / 50_000.0 > 0.4,
            "top-10 flows carry only {top10} of 50k packets"
        );
    }

    #[test]
    fn streams_burst_independently() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = NetworkSource::new(1 << 16, &mut rng);
        let r1 = src.next_key(StreamId::R, &mut rng);
        // A long run of S packets must not disturb R's burst state.
        for _ in 0..50 {
            src.next_key(StreamId::S, &mut rng);
        }
        assert_eq!(src.last[0], Some(r1));
    }

    #[test]
    fn keys_in_domain_small_domains_too() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut src = NetworkSource::new(10, &mut rng);
        for _ in 0..1_000 {
            assert!(src.next_key(StreamId::R, &mut rng) < 10);
        }
    }
}
