//! Counting Bloom filters.
//!
//! The paper's BLOOM baseline (Section 6) builds a counting Bloom filter at
//! each site and ships it to remote sites, where arriving tuples are tested
//! for membership against the remote windows; flow factors derive from the
//! positive-hit rates. Counting (rather than bit) filters are required
//! because sliding windows evict tuples, which must decrement the filter.

use crate::hash::PolyHash;
use std::sync::Arc;

/// The hash family of a counting Bloom filter: `k` pairwise hashes onto
/// `m` counters, derived from `seed`. It is a pure function of
/// `(m, k, seed)` and never changes, so every filter of one cluster can
/// hold the same family by [`Arc`] ([`CountingBloomFilter::with_hashes`]).
#[derive(Debug, PartialEq, Eq)]
pub struct BloomHashes {
    m: usize,
    seed: u64,
    hashes: Vec<PolyHash>,
}

impl BloomHashes {
    /// The family of a filter with `m` counters and `k` hash functions
    /// derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        assert!(m > 0, "filter must have counters");
        assert!(k > 0, "filter must have hash functions");
        let hashes = (0..k)
            .map(|i| PolyHash::pairwise(seed.wrapping_add(0xB10F ^ (i as u64) << 23)))
            .collect();
        BloomHashes { m, seed, hashes }
    }

    /// The family of a filter whose counters take at most `bytes` of memory
    /// (4 per `u32` counter), with the optimal hash count for
    /// `expected_items`: `k = (m/n)·ln 2`. This is the budget Figure 10
    /// equalises; the wire ships each counter narrower when it can.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 4` or `expected_items == 0`.
    pub fn with_size_bytes(bytes: usize, expected_items: usize, seed: u64) -> Self {
        assert!(bytes >= 4, "budget too small for a single counter");
        assert!(expected_items > 0, "expected item count must be positive");
        let m = bytes / 4;
        let k = (((m as f64 / expected_items as f64) * std::f64::consts::LN_2).round() as usize)
            .clamp(1, 16);
        BloomHashes::new(m, k, seed)
    }
}

/// A counting Bloom filter over `u64` values. It holds its [`BloomHashes`]
/// by [`Arc`], so a clone copies the counters only.
///
/// ```
/// use dsj_sketch::CountingBloomFilter;
///
/// let mut f = CountingBloomFilter::new(1024, 4, 7);
/// f.insert(99);
/// assert!(f.contains(99));
/// f.remove(99);
/// assert!(!f.contains(99));
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct CountingBloomFilter {
    counters: Vec<u32>,
    hashes: Arc<BloomHashes>,
    items: u64,
}

impl Clone for CountingBloomFilter {
    fn clone(&self) -> Self {
        CountingBloomFilter {
            counters: self.counters.clone(),
            hashes: Arc::clone(&self.hashes),
            items: self.items,
        }
    }

    /// Overwrites the counters and item count in place when `source` has
    /// the same size, hash count and seed (and so the same hashes): no
    /// allocation.
    fn clone_from(&mut self, source: &Self) {
        if self.shape() == source.shape() {
            self.counters.copy_from_slice(&source.counters);
            self.items = source.items;
        } else {
            *self = source.clone();
        }
    }
}

impl CountingBloomFilter {
    /// Creates a filter with `m` counters and `k` hash functions derived
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        Self::with_hashes(Arc::new(BloomHashes::new(m, k, seed)))
    }

    /// Creates a filter whose counters take at most `bytes` of memory (4 per
    /// counter), choosing the optimal hash count for `expected_items`:
    /// `k = (m/n)·ln 2`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes < 4` or `expected_items == 0`.
    pub fn with_size_bytes(bytes: usize, expected_items: usize, seed: u64) -> Self {
        Self::with_hashes(Arc::new(BloomHashes::with_size_bytes(
            bytes,
            expected_items,
            seed,
        )))
    }

    /// An empty filter over the shared hash family `hashes`.
    /// [`CountingBloomFilter::new`] and
    /// [`CountingBloomFilter::with_size_bytes`] are this over a family of
    /// their own.
    pub fn with_hashes(hashes: Arc<BloomHashes>) -> Self {
        CountingBloomFilter {
            counters: vec![0; hashes.m],
            hashes,
            items: 0,
        }
    }

    /// `(m, k, seed)`: equal exactly when two filters share hashes.
    pub fn shape(&self) -> (usize, usize, u64) {
        (self.hashes.m, self.hashes.hashes.len(), self.hashes.seed)
    }

    /// Number of counters `m`.
    #[inline]
    pub fn counters(&self) -> usize {
        self.counters.len()
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn hash_count(&self) -> usize {
        self.hashes.hashes.len()
    }

    /// The derivation seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.hashes.seed
    }

    /// Number of items currently accounted (inserts minus removes).
    #[inline]
    pub fn len(&self) -> u64 {
        self.items
    }

    /// `true` when no items are accounted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Memory its counters take, in bytes (4 per counter): the summary
    /// budget, not the wire size.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.counters.len() * 4
    }

    /// Rebuilds a filter from its wire representation: the counter vector
    /// plus the `(k, seed, items)` parameters. Hash functions are not
    /// serialized — they are a pure function of `(m, k, seed)` — so they are
    /// re-derived, and a reconstructed filter is bit-identical to the one
    /// that was serialized.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is empty or `k == 0` (the same contract as
    /// [`CountingBloomFilter::new`]); wire decoders validate before calling.
    pub fn from_parts(k: usize, seed: u64, counters: Vec<u32>, items: u64) -> Self {
        CountingBloomFilter {
            hashes: Arc::new(BloomHashes::new(counters.len(), k, seed)),
            counters,
            items,
        }
    }

    /// The raw counter vector, in index order (the wire representation).
    #[inline]
    pub fn counter_values(&self) -> &[u32] {
        &self.counters
    }

    /// Inserts a value (increments its `k` counters).
    pub fn insert(&mut self, v: u64) {
        let m = self.counters.len() as u64;
        for h in &self.hashes.hashes {
            let idx = h.hash_to_range(v, m) as usize;
            self.counters[idx] = self.counters[idx].saturating_add(1);
        }
        self.items += 1;
    }

    /// Removes a previously inserted value (decrements its counters).
    ///
    /// Removing a value that was never inserted corrupts the filter's
    /// accuracy guarantees (counters may hit zero for other members); in
    /// debug builds this is caught by an assertion when a counter would
    /// underflow.
    pub fn remove(&mut self, v: u64) {
        let m = self.counters.len() as u64;
        for h in &self.hashes.hashes {
            let idx = h.hash_to_range(v, m) as usize;
            debug_assert!(self.counters[idx] > 0, "removing non-member value {v}");
            self.counters[idx] = self.counters[idx].saturating_sub(1);
        }
        self.items = self.items.saturating_sub(1);
    }

    /// Membership test — false positives possible, false negatives are not
    /// (absent counter corruption via bad `remove`s).
    pub fn contains(&self, v: u64) -> bool {
        let m = self.counters.len() as u64;
        self.hashes
            .hashes
            .iter()
            .all(|h| self.counters[h.hash_to_range(v, m) as usize] > 0)
    }

    /// Estimated multiplicity of `v`: the minimum of its counters
    /// (a Count-Min-style upper bound).
    pub fn count_estimate(&self, v: u64) -> u32 {
        let m = self.counters.len() as u64;
        self.hashes
            .hashes
            .iter()
            .map(|h| self.counters[h.hash_to_range(v, m) as usize])
            .min()
            .unwrap_or(0)
    }

    /// Expected false-positive rate at the current load:
    /// `(1 − e^{−k·n/m})^k`.
    pub fn false_positive_rate(&self) -> f64 {
        let m = self.counters.len() as f64;
        let n = self.items as f64;
        let k = self.hash_count() as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = CountingBloomFilter::new(4096, 4, 3);
        for v in 0..500 {
            f.insert(v * 7);
        }
        for v in 0..500 {
            assert!(f.contains(v * 7), "false negative for {}", v * 7);
        }
    }

    #[test]
    fn false_positive_rate_is_moderate() {
        let mut f = CountingBloomFilter::new(4096, 4, 3);
        for v in 0..500 {
            f.insert(v);
        }
        let fps = (10_000..20_000).filter(|&v| f.contains(v)).count();
        let measured = fps as f64 / 10_000.0;
        let predicted = f.false_positive_rate();
        assert!(
            measured < predicted * 3.0 + 0.01,
            "measured fpr {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn remove_restores_absence() {
        let mut f = CountingBloomFilter::new(1024, 3, 5);
        f.insert(42);
        f.insert(42);
        f.remove(42);
        assert!(f.contains(42), "one copy should remain");
        f.remove(42);
        assert!(!f.contains(42));
        assert!(f.is_empty());
    }

    #[test]
    fn count_estimate_upper_bounds_truth() {
        let mut f = CountingBloomFilter::new(2048, 4, 9);
        for _ in 0..7 {
            f.insert(1000);
        }
        for v in 0..100 {
            f.insert(v);
        }
        assert!(f.count_estimate(1000) >= 7);
    }

    #[test]
    fn sliding_window_usage_pattern() {
        // Insert a sliding window of 64 values over a stream of 1000;
        // after the run only the last 64 remain.
        let mut f = CountingBloomFilter::new(4096, 4, 1);
        let mut window = std::collections::VecDeque::new();
        for v in 0..1000u64 {
            f.insert(v);
            window.push_back(v);
            if window.len() > 64 {
                f.remove(window.pop_front().unwrap());
            }
        }
        assert_eq!(f.len(), 64);
        for &v in &window {
            assert!(f.contains(v));
        }
        let stale = (0..900).filter(|&v| f.contains(v)).count();
        assert!(stale < 45, "too many stale positives: {stale}");
    }

    #[test]
    fn with_size_bytes_budget() {
        let f = CountingBloomFilter::with_size_bytes(8192, 1000, 2);
        assert!(f.size_bytes() <= 8192);
        assert!(f.hash_count() >= 1);
    }

    #[test]
    fn fpr_grows_with_load() {
        let mut f = CountingBloomFilter::new(1024, 4, 6);
        let light = {
            for v in 0..50 {
                f.insert(v);
            }
            f.false_positive_rate()
        };
        for v in 50..2000 {
            f.insert(v);
        }
        assert!(f.false_positive_rate() > light);
    }

    #[test]
    fn clone_from_overwrites_in_place() {
        let mut held = CountingBloomFilter::new(64, 3, 5);
        let mut fresh = CountingBloomFilter::new(64, 3, 5);
        fresh.insert(11);
        let buffer = held.counter_values().as_ptr();
        held.clone_from(&fresh);
        assert_eq!(held, fresh);
        assert_eq!(held.counter_values().as_ptr(), buffer, "counters reused");
        let other = CountingBloomFilter::new(32, 2, 5);
        held.clone_from(&other);
        assert_eq!(held, other, "a different shape is replaced wholesale");
    }

    #[test]
    #[should_panic(expected = "filter must have counters")]
    fn zero_counters_rejected() {
        CountingBloomFilter::new(0, 3, 1);
    }
}
