//! The exact symmetric hash window join — both the per-node local join
//! operator and the global ground truth (`|Ψ|`) that the approximation
//! error `ε = (|Ψ| − |Ψ̂|)/|Ψ|` (Eqn. 1) is measured against.

use crate::tuple::{StreamId, Tuple};
use crate::window::{SlidingWindow, WindowSpec};

/// A symmetric hash join over one `R` window and one `S` window.
///
/// Every inserted tuple first probes the opposite stream's window (emitting
/// one match per equal-key tuple already present) and is then inserted into
/// its own stream's window. This "probe then insert" order means a pair is
/// counted exactly once — at the arrival of its later tuple.
///
/// ```
/// use dsj_stream::{SymmetricHashJoin, WindowSpec, Tuple, StreamId};
///
/// let mut j = SymmetricHashJoin::new(WindowSpec::count(4));
/// assert_eq!(j.push(Tuple::new(StreamId::R, 1, 0, 0), 0), 0);
/// assert_eq!(j.push(Tuple::new(StreamId::S, 1, 1, 0), 1), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricHashJoin {
    r: SlidingWindow,
    s: SlidingWindow,
}

impl SymmetricHashJoin {
    /// Creates a join whose two windows share one bounding policy.
    pub fn new(spec: WindowSpec) -> Self {
        SymmetricHashJoin {
            r: SlidingWindow::new(spec),
            s: SlidingWindow::new(spec),
        }
    }

    /// Window of the given stream.
    #[inline]
    pub fn window(&self, stream: StreamId) -> &SlidingWindow {
        match stream {
            StreamId::R => &self.r,
            StreamId::S => &self.s,
        }
    }

    /// Probes the opposite window without inserting (used for tuples
    /// forwarded from remote nodes, which are matched but not stored).
    #[inline]
    pub fn probe(&self, tuple: &Tuple) -> u32 {
        self.window(tuple.stream.opposite()).probe(tuple.key)
    }

    /// Inserts a tuple at timestamp `now`, returning the number of matches
    /// it produced against the opposite window.
    pub fn push(&mut self, tuple: Tuple, now: u64) -> u32 {
        let matches = self.probe(&tuple);
        match tuple.stream {
            StreamId::R => self.r.insert(tuple, now),
            StreamId::S => self.s.insert(tuple, now),
        };
        matches
    }
}

/// Ground-truth accounting for the *distributed* window join: a logically
/// centralized observer that sees every node's windows instantaneously.
///
/// Node `i` holds segments `R_i`/`S_i` of window size `W` each; the
/// effective global window is `N·W` (Section 2). A pair `(a, b)` with
/// `a.seq < b.seq` is counted exactly once, at `b`'s arrival, if `a` is
/// still held in its origin node's window — the same dedup convention the
/// distributed runtime uses, so `ε` compares like with like.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    per_node: Vec<SymmetricHashJoin>,
}

/// Per-arrival ground-truth outcome, split by where the matches were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TruthMatches {
    /// Matches against the arrival node's own windows.
    pub local: u64,
    /// Matches against every other node's windows.
    pub remote: u64,
}

impl TruthMatches {
    /// Local plus remote matches.
    #[inline]
    pub fn total(&self) -> u64 {
        self.local + self.remote
    }
}

impl GroundTruth {
    /// Creates ground truth for `n` nodes with per-node window policy `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, spec: WindowSpec) -> Self {
        assert!(n > 0, "need at least one node");
        GroundTruth {
            per_node: (0..n).map(|_| SymmetricHashJoin::new(spec)).collect(),
        }
    }

    /// Records the arrival of `tuple` at its origin node, returning how
    /// many exact-join matches the arrival produces and where they were.
    ///
    /// # Panics
    ///
    /// Panics if `tuple.origin` is out of range.
    pub fn observe(&mut self, tuple: Tuple, now: u64) -> TruthMatches {
        let home = tuple.origin as usize;
        assert!(home < self.per_node.len(), "origin node out of range");
        let mut m = TruthMatches::default();
        for (i, join) in self.per_node.iter().enumerate() {
            if i != home {
                m.remote += u64::from(join.probe(&tuple));
            }
        }
        // Home probe + insert; probe-then-insert counts each co-located
        // pair once.
        m.local = u64::from(self.per_node[home].push(tuple, now));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(stream: StreamId, key: u32, seq: u64, origin: u16) -> Tuple {
        Tuple::new(stream, key, seq, origin)
    }

    #[test]
    fn simple_match_counting() {
        let mut j = SymmetricHashJoin::new(WindowSpec::count(10));
        j.push(t(StreamId::R, 1, 0, 0), 0);
        j.push(t(StreamId::R, 1, 1, 0), 1);
        let m = j.push(t(StreamId::S, 1, 2, 0), 2);
        assert_eq!(m, 2, "S tuple joins both R tuples");
    }

    #[test]
    fn same_stream_never_joins() {
        let mut j = SymmetricHashJoin::new(WindowSpec::count(10));
        j.push(t(StreamId::R, 1, 0, 0), 0);
        let m = j.push(t(StreamId::R, 1, 1, 0), 1);
        assert_eq!(m, 0);
    }

    #[test]
    fn eviction_removes_match_candidates() {
        let mut j = SymmetricHashJoin::new(WindowSpec::count(1));
        j.push(t(StreamId::R, 1, 0, 0), 0);
        j.push(t(StreamId::R, 2, 1, 0), 1); // evicts key 1
        let m = j.push(t(StreamId::S, 1, 2, 0), 2);
        assert_eq!(m, 0, "evicted tuple must not match");
    }

    #[test]
    fn matches_symmetric_in_arrival_order() {
        // R-then-S and S-then-R produce the same total.
        let mut a = SymmetricHashJoin::new(WindowSpec::count(10));
        let a_total = a.push(t(StreamId::R, 5, 0, 0), 0) + a.push(t(StreamId::S, 5, 1, 0), 1);
        let mut b = SymmetricHashJoin::new(WindowSpec::count(10));
        let b_total = b.push(t(StreamId::S, 5, 0, 0), 0) + b.push(t(StreamId::R, 5, 1, 0), 1);
        assert_eq!(a_total, b_total);
    }

    #[test]
    fn cross_product_cardinality() {
        // 3 R-tuples and 4 S-tuples with one shared key ⇒ 12 matches.
        let mut j = SymmetricHashJoin::new(WindowSpec::count(100));
        let mut total = 0;
        for seq in 0..3 {
            total += j.push(t(StreamId::R, 9, seq, 0), seq);
        }
        for seq in 3..7 {
            total += j.push(t(StreamId::S, 9, seq, 0), seq);
        }
        assert_eq!(total, 12);
    }

    #[test]
    fn ground_truth_counts_cross_node_pairs() {
        let mut gt = GroundTruth::new(2, WindowSpec::count(10));
        gt.observe(t(StreamId::R, 1, 0, 0), 0);
        let m = gt.observe(t(StreamId::S, 1, 1, 1), 1);
        assert_eq!(m.local, 0);
        assert_eq!(m.remote, 1);
    }

    #[test]
    fn ground_truth_counts_local_pairs_once() {
        let mut gt = GroundTruth::new(3, WindowSpec::count(10));
        gt.observe(t(StreamId::R, 1, 0, 2), 0);
        let m = gt.observe(t(StreamId::S, 1, 1, 2), 1);
        assert_eq!(m.local, 1);
        assert_eq!(m.remote, 0);
    }

    #[test]
    fn ground_truth_equals_centralized_when_single_node() {
        let mut gt = GroundTruth::new(1, WindowSpec::count(50));
        let mut central = SymmetricHashJoin::new(WindowSpec::count(50));
        for seq in 0..500u64 {
            let stream = if seq % 2 == 0 {
                StreamId::R
            } else {
                StreamId::S
            };
            let key = (seq % 17) as u32;
            let tup = t(stream, key, seq, 0);
            let exact = u64::from(central.push(tup, seq));
            assert_eq!(gt.observe(tup, seq).total(), exact);
        }
    }

    #[test]
    fn ground_truth_window_eviction_respected() {
        let mut gt = GroundTruth::new(2, WindowSpec::count(1));
        gt.observe(t(StreamId::R, 1, 0, 0), 0);
        gt.observe(t(StreamId::R, 2, 1, 0), 1); // evicts key 1 at node 0
        let m = gt.observe(t(StreamId::S, 1, 2, 1), 2);
        assert_eq!(m.total(), 0);
    }

    #[test]
    #[should_panic(expected = "origin node out of range")]
    fn ground_truth_bounds_checked() {
        let mut gt = GroundTruth::new(2, WindowSpec::count(1));
        gt.observe(t(StreamId::R, 1, 0, 9), 0);
    }
}
