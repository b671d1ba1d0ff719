//! The FIN workload: synthetic financial trades.
//!
//! Substitute for the paper's 1.8 M-trade real data set (see DESIGN.md §2):
//! a set of symbols with Zipf-distributed trade popularity, each following
//! an integer random-walk mid price. `R` tuples are bids (at or just below
//! mid), `S` tuples are asks (at or just above mid), so matching bids and
//! asks collide on the price attribute — the arbitrage join of the paper's
//! introduction.
//!
//! [`price_series`] additionally exposes a single symbol's tick-by-tick
//! price path — the "sample stock data stream" (`W ≈ 80 000`) whose DFT
//! compressibility Figures 5 and 6 measure.

use crate::tuple::StreamId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthetic bid/ask trade stream over Zipf-popular symbols.
#[derive(Debug, Clone)]
pub struct FinancialSource {
    domain: u32,
    /// Mid price per symbol (random walk state).
    mids: Vec<f64>,
    /// Cumulative Zipf weights over symbols.
    popularity_cdf: Vec<f64>,
    /// `popularity_cdf.last()`, cached at construction.
    popularity_total: f64,
    /// Per-tick probability that a symbol's mid price moves.
    move_prob: f64,
}

impl FinancialSource {
    /// Number of traded symbols.
    pub const SYMBOLS: usize = 64;

    /// Creates a source over `[0, domain)`; initial mid prices are spread
    /// across the middle half of the domain.
    ///
    /// # Panics
    ///
    /// Panics if `domain < 8`.
    pub fn new(domain: u32, rng: &mut StdRng) -> Self {
        assert!(domain >= 8, "domain too small for a price walk");
        let lo = domain as f64 * 0.25;
        let hi = domain as f64 * 0.75;
        let mids = (0..Self::SYMBOLS).map(|_| rng.gen_range(lo..hi)).collect();
        let mut acc = 0.0;
        let popularity_cdf = (0..Self::SYMBOLS)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64);
                acc
            })
            .collect();
        FinancialSource {
            domain,
            mids,
            popularity_cdf,
            popularity_total: acc,
            move_prob: 0.2,
        }
    }

    fn pick_symbol(&self, rng: &mut StdRng) -> usize {
        let r = rng.gen::<f64>() * self.popularity_total;
        self.popularity_cdf.partition_point(|&c| c < r)
    }

    fn clamp(&self, price: f64) -> u32 {
        price.round().clamp(0.0, (self.domain - 1) as f64) as u32
    }

    /// Draws the next key for a tuple of `stream`, in `[0, domain)`.
    pub fn next_key(&mut self, stream: StreamId, rng: &mut StdRng) -> u32 {
        let sym = self.pick_symbol(rng);
        // Advance the symbol's mid price occasionally.
        if rng.gen_bool(self.move_prob) {
            let step = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let lo = self.domain as f64 * 0.05;
            let hi = self.domain as f64 * 0.95;
            self.mids[sym] = (self.mids[sym] + step).clamp(lo, hi);
        }
        let mid = self.mids[sym];
        // Bids sit at or below mid, asks at or above; half-unit offsets
        // round to colliding integers often enough for a lively join.
        let offset: f64 = rng.gen_range(0.0..1.5);
        let price = match stream {
            StreamId::R => mid - offset, // bid
            StreamId::S => mid + offset, // ask
        };
        self.clamp(price)
    }
}

/// A single symbol's tick-by-tick integer price path: a clamped ±1 random
/// walk that moves with probability `move_prob` per tick.
///
/// With the default `move_prob = 0.02` the series has the strong
/// low-frequency energy compaction that lets Figures 5/6 compress `W ≈
/// 80 000` ticks to `W/256` DFT coefficients with `E[MSE] < 0.25`.
///
/// # Panics
///
/// Panics if `n == 0` or `move_prob` is outside `[0, 1]`.
pub fn price_series(n: usize, seed: u64, start: f64, move_prob: f64) -> Vec<f64> {
    assert!(n > 0, "series must be non-empty");
    assert!(
        (0.0..=1.0).contains(&move_prob),
        "move probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut price = start;
    (0..n)
        .map(|_| {
            if rng.gen_bool(move_prob) {
                price += if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                price = price.max(1.0);
            }
            price
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bids_and_asks_straddle_mid() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut src = FinancialSource::new(1 << 12, &mut rng);
        src.move_prob = 0.0; // freeze prices to observe the straddle
        let bids: Vec<u32> = (0..200)
            .map(|_| src.next_key(StreamId::R, &mut rng))
            .collect();
        let asks: Vec<u32> = (0..200)
            .map(|_| src.next_key(StreamId::S, &mut rng))
            .collect();
        let avg = |v: &[u32]| v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        assert!(avg(&asks) > avg(&bids), "asks should price above bids");
    }

    #[test]
    fn bid_ask_streams_actually_join() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = FinancialSource::new(1 << 12, &mut rng);
        let mut bid_keys = std::collections::BTreeSet::new();
        for _ in 0..500 {
            bid_keys.insert(src.next_key(StreamId::R, &mut rng));
        }
        let hits = (0..500)
            .filter(|_| bid_keys.contains(&src.next_key(StreamId::S, &mut rng)))
            .count();
        assert!(hits > 50, "bid/ask collision rate too low: {hits}/500");
    }

    #[test]
    fn price_series_is_a_unit_walk() {
        let s = price_series(10_000, 4, 500.0, 0.5);
        for pair in s.windows(2) {
            assert!((pair[1] - pair[0]).abs() <= 1.0);
        }
        assert!(s.iter().all(|&p| p >= 1.0));
    }

    #[test]
    fn low_move_prob_changes_rarely() {
        let s = price_series(10_000, 5, 500.0, 0.02);
        let moves = s.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(
            (100..400).contains(&moves),
            "expected ~200 moves, saw {moves}"
        );
    }

    #[test]
    fn price_series_deterministic() {
        assert_eq!(
            price_series(100, 6, 500.0, 0.1),
            price_series(100, 6, 500.0, 0.1)
        );
    }

    #[test]
    #[should_panic(expected = "series must be non-empty")]
    fn empty_series_rejected() {
        price_series(0, 1, 10.0, 0.1);
    }
}
