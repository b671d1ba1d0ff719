//! The exact distributed window join's result-set size — the ground truth
//! `|Ψ|` that the approximation error `ε = (|Ψ| − |Ψ̂|)/|Ψ|` (Eqn. 1) is
//! measured against.

use crate::tuple::Tuple;
use crate::window::{KeyMap, WindowSpec};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Ground-truth accounting for the *distributed* window join: a logically
/// centralized observer that sees every node's windows instantaneously.
///
/// Node `i` holds segments `R_i`/`S_i` of window size `W` each; the
/// effective global window is `N·W` (Section 2). A pair `(a, b)` with
/// `a.seq < b.seq` is counted exactly once, at `b`'s arrival, if `a` is
/// still held in its origin node's window — the same dedup convention the
/// distributed runtime uses, so `ε` compares like with like.
///
/// An arrival matches every held tuple of the opposite stream with its key,
/// whichever node holds it. So the observer keeps one count per key and
/// stream for the whole cluster, always the sum of the `N` windows' counts,
/// and answers an arrival with one lookup instead of `N` probes. Per node it
/// keeps only what eviction reads: each window's keys and timestamps,
/// oldest first.
///
/// ```
/// use dsj_stream::join::GroundTruth;
/// use dsj_stream::{StreamId, Tuple, WindowSpec};
///
/// let mut truth = GroundTruth::new(2, WindowSpec::count(4));
/// assert_eq!(truth.observe(Tuple::new(StreamId::R, 1, 0, 0), 0), 0);
/// // An S tuple at node 1 joins the R tuple node 0 holds.
/// assert_eq!(truth.observe(Tuple::new(StreamId::S, 1, 1, 1), 1), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GroundTruth {
    spec: WindowSpec,
    /// Held tuples per key across every node, `[R, S]` by
    /// [`StreamId::index`](crate::StreamId::index); a key leaves once
    /// neither stream holds it.
    held: KeyMap<[u32; 2]>,
    /// Per node and stream, `(key, timestamp)` of every held tuple, oldest
    /// first.
    windows: Vec<[VecDeque<(u32, u64)>; 2]>,
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
            spec,
            held: KeyMap::default(),
            windows: (0..n).map(|_| Default::default()).collect(),
        }
    }

    /// Records the arrival of `tuple` at its origin node at timestamp `now`
    /// and returns how many exact-join matches it produces: the held tuples
    /// of the opposite stream with its key, on every node. The tuple is then
    /// held at its origin, whose window evicts by the same rule as a
    /// [`SlidingWindow`](crate::SlidingWindow) with the same spec
    /// ([`WindowSpec::expires`]) — only on its own inserts, so a time window
    /// that receives nothing keeps what it holds.
    ///
    /// # Panics
    ///
    /// Panics if `tuple.origin` is out of range.
    pub fn observe(&mut self, tuple: Tuple, now: u64) -> u64 {
        let home = tuple.origin as usize;
        assert!(home < self.windows.len(), "origin node out of range");
        let own = tuple.stream.index();
        let counts = self.held.entry(tuple.key).or_insert([0; 2]);
        let matches = counts[1 - own];
        counts[own] += 1;
        let window = &mut self.windows[home][own];
        window.push_back((tuple.key, now));
        while let Some(&(key, ts)) = window.front() {
            if !self.spec.expires(window.len(), ts, now) {
                break;
            }
            window.pop_front();
            if let Entry::Occupied(mut e) = self.held.entry(key) {
                e.get_mut()[own] -= 1;
                if *e.get() == [0; 2] {
                    e.remove();
                }
            }
        }
        u64::from(matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::StreamId;
    use crate::window::SlidingWindow;

    fn t(stream: StreamId, key: u32, seq: u64, origin: u16) -> Tuple {
        Tuple::new(stream, key, seq, origin)
    }

    /// The definition, probe by probe: every node keeps a real window pair,
    /// and an arrival probes the opposite window of all `N` before it is
    /// inserted at home.
    struct PerNodeProbes(Vec<[SlidingWindow; 2]>);

    impl PerNodeProbes {
        fn new(n: usize, spec: WindowSpec) -> Self {
            PerNodeProbes(
                (0..n)
                    .map(|_| [SlidingWindow::new(spec), SlidingWindow::new(spec)])
                    .collect(),
            )
        }

        fn observe(&mut self, tuple: Tuple, now: u64) -> u64 {
            let opposite = tuple.stream.opposite().index();
            let matches = self
                .0
                .iter()
                .map(|node| u64::from(node[opposite].probe(tuple.key)))
                .sum();
            self.0[tuple.origin as usize][tuple.stream.index()].insert(tuple, now);
            matches
        }
    }

    /// A deterministic xorshift stream of `(tuple, timestamp)`: random
    /// stream, key below `keys` and node below `n`.
    fn schedule(len: u64, n: u16, keys: u32, salt: u64) -> Vec<(Tuple, u64)> {
        let mut x = salt | 1;
        let mut now = 0;
        (0..len)
            .map(|seq| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let stream = if x & 1 == 0 { StreamId::R } else { StreamId::S };
                let key = (x >> 8) as u32 % keys;
                let origin = ((x >> 40) % u64::from(n)) as u16;
                // Steps of 0–3: equal stamps let a time window evict
                // several tuples at one insert.
                now += (x >> 50) % 4;
                (t(stream, key, seq, origin), now)
            })
            .collect()
    }

    #[test]
    fn one_count_per_key_equals_probing_every_node() {
        for spec in [
            WindowSpec::count(1),
            WindowSpec::count(7),
            WindowSpec::count(64),
            WindowSpec::Time(0),
            WindowSpec::Time(5),
            WindowSpec::Time(40),
        ] {
            for (n, keys) in [(1, 5), (2, 3), (5, 40), (16, 200)] {
                let mut truth = GroundTruth::new(n, spec);
                let mut probes = PerNodeProbes::new(n, spec);
                let arrivals = schedule(4_000, n as u16, keys, 7 + n as u64);
                for (seq, &(tuple, now)) in arrivals.iter().enumerate() {
                    assert_eq!(
                        truth.observe(tuple, now),
                        probes.observe(tuple, now),
                        "{spec:?}, N = {n}, {keys} keys, arrival {seq}"
                    );
                }
            }
        }
    }

    #[test]
    fn held_keys_leave_the_count_with_their_last_tuple() {
        let mut truth = GroundTruth::new(3, WindowSpec::count(2));
        for (seq, key) in [1u32, 2, 3, 4, 5, 6].into_iter().enumerate() {
            truth.observe(t(StreamId::R, key, seq as u64, 0), seq as u64);
        }
        // Node 0 holds keys 5 and 6 of R; everything older has left.
        assert_eq!(truth.held.len(), 2);
        assert_eq!(truth.observe(t(StreamId::S, 1, 6, 2), 6), 0);
        assert_eq!(truth.observe(t(StreamId::S, 6, 7, 1), 7), 1);
    }

    #[test]
    fn ground_truth_counts_cross_node_pairs() {
        let mut gt = GroundTruth::new(2, WindowSpec::count(10));
        gt.observe(t(StreamId::R, 1, 0, 0), 0);
        assert_eq!(gt.observe(t(StreamId::S, 1, 1, 1), 1), 1);
    }

    #[test]
    fn ground_truth_counts_local_pairs_once() {
        let mut gt = GroundTruth::new(3, WindowSpec::count(10));
        gt.observe(t(StreamId::R, 1, 0, 2), 0);
        assert_eq!(gt.observe(t(StreamId::S, 1, 1, 2), 1), 1);
    }

    #[test]
    fn ground_truth_window_eviction_respected() {
        let mut gt = GroundTruth::new(2, WindowSpec::count(1));
        gt.observe(t(StreamId::R, 1, 0, 0), 0);
        gt.observe(t(StreamId::R, 2, 1, 0), 1); // evicts key 1 at node 0
        assert_eq!(gt.observe(t(StreamId::S, 1, 2, 1), 2), 0);
    }

    #[test]
    fn an_idle_time_window_keeps_what_it_holds() {
        // Node 0's R tuple is long past the span, but node 0 has inserted
        // nothing since, so it is still held — as its `SlidingWindow` would.
        let mut gt = GroundTruth::new(2, WindowSpec::Time(10));
        gt.observe(t(StreamId::R, 1, 0, 0), 0);
        assert_eq!(gt.observe(t(StreamId::S, 1, 1, 1), 1_000), 1);
        // A later insert at node 0 evicts it.
        gt.observe(t(StreamId::R, 2, 2, 0), 1_000);
        assert_eq!(gt.observe(t(StreamId::S, 1, 3, 1), 1_000), 0);
    }

    #[test]
    #[should_panic(expected = "origin node out of range")]
    fn ground_truth_bounds_checked() {
        let mut gt = GroundTruth::new(2, WindowSpec::count(1));
        gt.observe(t(StreamId::R, 1, 0, 9), 0);
    }
}
