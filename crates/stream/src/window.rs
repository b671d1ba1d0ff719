//! Sliding windows over tuple streams.
//!
//! The paper's windows hold the last `W` tuples; it notes the algorithms
//! are agnostic to how a window is bounded (Section 1). Count and time
//! windows are implemented; the experiments use count windows like the
//! paper's, and one end-to-end test runs time windows.

use crate::tuple::Tuple;
use std::collections::{BTreeMap, VecDeque};

/// How a window bounds the tuples it retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep the most recent `n` tuples.
    Count(usize),
    /// Keep tuples whose timestamp is within `span` of the newest arrival's
    /// timestamp. Timestamps are supplied at insertion.
    Time(u64),
}

impl WindowSpec {
    /// A count window of `n` tuples.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn count(n: usize) -> Self {
        assert!(n > 0, "count window must hold at least one tuple");
        WindowSpec::Count(n)
    }
}

/// A sliding window holding tuples of a single stream, with O(1) key-count
/// probing for join evaluation.
///
/// ```
/// use dsj_stream::{SlidingWindow, WindowSpec, Tuple, StreamId};
///
/// let mut w = SlidingWindow::new(WindowSpec::count(2));
/// w.insert(Tuple::new(StreamId::R, 5, 0, 0), 0);
/// w.insert(Tuple::new(StreamId::R, 5, 1, 0), 1);
/// assert_eq!(w.probe(5), 2);
/// // Third insert evicts the first.
/// let evicted = w.insert(Tuple::new(StreamId::R, 9, 2, 0), 2);
/// assert_eq!(evicted.len(), 1);
/// assert_eq!(w.probe(5), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    spec: WindowSpec,
    buf: VecDeque<(Tuple, u64)>,
    /// Per-key ascending sequence numbers of held tuples (tuples are
    /// inserted in seq order, so each deque stays sorted). A `BTreeMap`
    /// keeps iteration order independent of hasher seeding.
    counts: BTreeMap<u32, VecDeque<u64>>,
    inserted: u64,
    evicted: u64,
    /// Tuples evicted by the most recent `insert`, reused across calls:
    /// eviction itself allocates nothing. (The per-key deques of `counts`
    /// do: a key entering the window allocates one, its last tuple leaving
    /// frees it — 0.26 allocations per insert on the paper-default
    /// schedule, pinned in `tests/alloc_budget.rs`.)
    evict_buf: Vec<Tuple>,
    /// Join keys of `evict_buf`, in the same (oldest-first) order — what
    /// the routing layer's summary maintenance consumes.
    evict_keys: Vec<u32>,
}

impl SlidingWindow {
    /// Creates an empty window with the given bounding policy.
    pub fn new(spec: WindowSpec) -> Self {
        SlidingWindow {
            spec,
            buf: VecDeque::new(),
            counts: BTreeMap::new(),
            inserted: 0,
            evicted: 0,
            evict_buf: Vec::new(),
            evict_keys: Vec::new(),
        }
    }

    /// Number of tuples currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no tuples are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total tuples ever inserted.
    #[inline]
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Total tuples ever evicted.
    #[inline]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of held tuples whose join attribute equals `key` — the probe
    /// operation of the symmetric hash join.
    #[inline]
    pub fn probe(&self, key: u32) -> u32 {
        self.counts.get(&key).map_or(0, |seqs| seqs.len() as u32)
    }

    /// Number of held tuples with attribute `key` and sequence number
    /// strictly below `seq` — the deduplicating probe for distributed match
    /// counting (only pairs where the prober is the *later* tuple count).
    /// `O(log m)` in the number of key-matching tuples.
    pub fn probe_before(&self, key: u32, seq: u64) -> u32 {
        let Some(seqs) = self.counts.get(&key) else {
            return 0;
        };
        // The deque is sorted ascending; count entries < seq.
        let (a, b) = seqs.as_slices();
        if let Some(&first_b) = b.first() {
            if first_b < seq {
                return (a.len() + b.partition_point(|&s| s < seq)) as u32;
            }
        }
        a.partition_point(|&s| s < seq) as u32
    }

    /// Iterates over held tuples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.buf.iter().map(|(t, _)| t)
    }

    /// Inserts a tuple observed at `now` (a timestamp for time windows;
    /// ignored by count windows) and returns any evicted
    /// tuples, oldest first.
    ///
    /// The returned slice borrows an internal buffer that is overwritten
    /// by the next `insert`; [`SlidingWindow::evicted_keys`] exposes the
    /// same eviction batch as bare join keys.
    pub fn insert(&mut self, tuple: Tuple, now: u64) -> &[Tuple] {
        if let Some(last) = self.buf.back() {
            debug_assert!(
                last.0.seq < tuple.seq,
                "tuples must be inserted in ascending seq order"
            );
        }
        self.buf.push_back((tuple, now));
        self.counts
            .entry(tuple.key)
            .or_default()
            .push_back(tuple.seq);
        self.inserted += 1;
        self.evict_buf.clear();
        self.evict_keys.clear();
        match self.spec {
            WindowSpec::Count(n) => {
                while self.buf.len() > n {
                    let Some(t) = self.pop_oldest() else { break };
                    self.evict_buf.push(t);
                    self.evict_keys.push(t.key);
                }
            }
            WindowSpec::Time(span) => {
                while self
                    .buf
                    .front()
                    .is_some_and(|&(_, ts)| now.saturating_sub(ts) > span)
                {
                    let Some(t) = self.pop_oldest() else { break };
                    self.evict_buf.push(t);
                    self.evict_keys.push(t.key);
                }
            }
        }
        &self.evict_buf
    }

    /// Join keys of the tuples evicted by the most recent
    /// [`SlidingWindow::insert`], oldest first.
    #[inline]
    pub fn evicted_keys(&self) -> &[u32] {
        &self.evict_keys
    }

    /// Evicts the oldest held tuple, if any, keeping the per-key counts in
    /// sync with the buffer.
    fn pop_oldest(&mut self) -> Option<Tuple> {
        let (t, _) = self.buf.pop_front()?;
        if let Some(seqs) = self.counts.get_mut(&t.key) {
            // The globally oldest tuple is also the oldest for its key.
            let popped = seqs.pop_front();
            debug_assert_eq!(popped, Some(t.seq));
            if seqs.is_empty() {
                self.counts.remove(&t.key);
            }
        }
        self.evicted += 1;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::StreamId;

    fn t(key: u32, seq: u64) -> Tuple {
        Tuple::new(StreamId::R, key, seq, 0)
    }

    #[test]
    fn count_window_evicts_fifo() {
        let mut w = SlidingWindow::new(WindowSpec::count(3));
        for i in 0..5 {
            let ev = w.insert(t(i, i as u64), i as u64);
            if i < 3 {
                assert!(ev.is_empty());
            } else {
                assert_eq!(ev.len(), 1);
                assert_eq!(ev[0].key, i - 3);
            }
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.inserted(), 5);
        assert_eq!(w.evicted(), 2);
    }

    #[test]
    fn probe_counts_duplicates() {
        let mut w = SlidingWindow::new(WindowSpec::count(10));
        for seq in 0..4 {
            w.insert(t(7, seq), seq);
        }
        w.insert(t(9, 4), 4);
        assert_eq!(w.probe(7), 4);
        assert_eq!(w.probe(9), 1);
        assert_eq!(w.probe(1), 0);
    }

    #[test]
    fn probe_before_filters_by_seq() {
        let mut w = SlidingWindow::new(WindowSpec::count(10));
        for seq in [2u64, 5, 9] {
            w.insert(t(7, seq), seq);
        }
        assert_eq!(w.probe_before(7, 6), 2);
        assert_eq!(w.probe_before(7, 2), 0);
        assert_eq!(w.probe_before(7, 100), 3);
    }

    #[test]
    fn counts_stay_consistent_under_eviction() {
        let mut w = SlidingWindow::new(WindowSpec::count(2));
        w.insert(t(1, 0), 0);
        w.insert(t(1, 1), 1);
        w.insert(t(1, 2), 2); // evicts seq 0
        assert_eq!(w.probe(1), 2);
        w.insert(t(2, 3), 3); // evicts seq 1
        assert_eq!(w.probe(1), 1);
        w.insert(t(2, 4), 4); // evicts seq 2
        assert_eq!(w.probe(1), 0);
    }

    #[test]
    fn time_window_evicts_by_span() {
        let mut w = SlidingWindow::new(WindowSpec::Time(10));
        w.insert(t(1, 0), 100);
        w.insert(t(2, 1), 105);
        let ev = w.insert(t(3, 2), 115);
        assert_eq!(ev.len(), 1, "tuple at ts=100 falls out of span 10");
        assert_eq!(ev[0].key, 1);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn iter_is_chronological() {
        let mut w = SlidingWindow::new(WindowSpec::count(3));
        for i in 0..5u64 {
            w.insert(t(i as u32, i), i);
        }
        let seqs: Vec<u64> = w.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "count window must hold at least one tuple")]
    fn zero_count_rejected() {
        WindowSpec::count(0);
    }
}
