//! Sliding windows over tuple streams.
//!
//! The paper's windows hold the last `W` tuples; it notes the algorithms
//! are agnostic to how a window is bounded (Section 1). Count and time
//! windows are implemented; the experiments use count windows like the
//! paper's, and one end-to-end test runs time windows.

use crate::tuple::Tuple;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

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

    /// Whether a window holding `held` tuples must evict its oldest, stamped
    /// `oldest_ts`, after an insert at `now`: a count window holds more
    /// than `n`, or a time window's oldest is more than `span` older than
    /// `now`. The one eviction rule of [`SlidingWindow`] and of
    /// [`GroundTruth`](crate::join::GroundTruth).
    #[inline]
    pub fn expires(&self, held: usize, oldest_ts: u64, now: u64) -> bool {
        match *self {
            WindowSpec::Count(n) => held > n,
            WindowSpec::Time(span) => now.saturating_sub(oldest_ts) > span,
        }
    }
}

/// One held tuple. Slots are addressed by insertion number: the slot of
/// the `i`-th tuple ever inserted sits at `live[i − evicted]`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tuple: Tuple,
    ts: u64,
    /// Insertion number of the next-older held tuple with the same key;
    /// followed only while the key's `Run::count` says one exists.
    prev: u64,
}

/// What a probe still needs of an expired tuple. Records are numbered by
/// their tuple's insertion number (tuples expire in insertion order), and
/// each is chained to the previous record of its key's bucket.
#[derive(Debug, Clone, Copy)]
struct Gone {
    seq: u64,
    /// Sequence number of the insert that evicted it.
    by: u64,
    key: u32,
    /// How many records back the previous record of its bucket is: 0 when
    /// none was kept as it expired, [`FAR`] when the distance does not fit.
    back: u32,
}

const _: () = assert!(std::mem::size_of::<Gone>() == 24);

/// A [`Gone::back`] too long to store: a walk that needs to go past its
/// record ends there, and its probe is flagged late.
const FAR: u32 = u32::MAX;

/// A key's held tuples: how many, and the insertion number of the newest.
#[derive(Debug, Clone, Copy)]
struct Run {
    tail: u64,
    count: u32,
}

/// Buckets of [`SlidingWindow`]'s chains of expired tuples.
const EVICTED_BUCKETS: usize = 256;

/// Multiplicative hashing of a `u32` join key; the high half of the
/// product lands in the low bits the table indexes by, so keys that share
/// their low bits still spread.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

const KEY_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u32` keys are hashed (`write_u32`); this keeps the trait total.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(KEY_MUL);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(KEY_MUL).rotate_left(32);
    }
}

/// A table keyed by join key under [`KeyHasher`].
#[allow(
    clippy::disallowed_types,
    reason = "never iterated, and `KeyHasher` is the same in every process: hash order cannot reach a result"
)]
pub(crate) type KeyMap<V> = std::collections::HashMap<u32, V, BuildHasherDefault<KeyHasher>>;

/// What [`SlidingWindow::probe_before`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsOf {
    /// Tuples of the key the window held as it stood.
    pub matches: u32,
    /// That window reached past the oldest expired tuple still kept, so
    /// `matches` may be short.
    pub late: bool,
    /// Expired tuples the probe walked over.
    pub walked: u32,
}

/// A sliding window holding tuples of a single stream, with O(1) key-count
/// probing for join evaluation.
///
/// A tuple that expires leaves the key index and is reported by
/// [`SlidingWindow::evicted_keys`] at once, but what a probe needs of it
/// is kept for a grace of one more window (`G = W`: as many expired tuples
/// as held ones), so that a probe from a peer can still read the window as
/// it stood when that peer's tuple arrived ([`SlidingWindow::probe_before`]).
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
/// // A probe by a tuple that arrived between the second and third inserts
/// // still sees both 5s, walking back over the one expired 5.
/// let as_of = w.probe_before(5, 2);
/// assert_eq!((as_of.matches, as_of.late, as_of.walked), (2, false, 1));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    spec: WindowSpec,
    /// Held tuples, oldest first, each chained to the next-older tuple of
    /// its key. A count window's ring is sized for `W + 1` slots at
    /// construction (an insert lands before its eviction) and never grows.
    live: VecDeque<Slot>,
    /// Expired tuples, oldest first, kept while there are no more of them
    /// than tuples held: a grace of one window. Sized like `live`.
    gone: VecDeque<Gone>,
    /// `Gone::by` of the newest expired tuple let go of, if any was.
    dropped_by: Option<u64>,
    /// Per-key count and newest slot of every key held. A count window
    /// reserves room for `2·(W + 1)` keys at construction: the table then
    /// stays under half full, where it rehashes its tombstones in place
    /// instead of reallocating, so inserts never allocate.
    index: KeyMap<Run>,
    /// Per bucket of keys, the number of the newest expired record of one
    /// (`u64::MAX` before any): the head of the bucket's chain, which a
    /// probe walks back over the records evicted since its prober arrived.
    last_evicted: [u64; EVICTED_BUCKETS],
    inserted: u64,
    evicted: u64,
    /// Tuples evicted by the most recent `insert`, reused across calls.
    evict_buf: Vec<Tuple>,
    /// Join keys of `evict_buf`, in the same (oldest-first) order — what
    /// the routing layer's summary maintenance consumes.
    evict_keys: Vec<u32>,
}

impl SlidingWindow {
    /// Creates an empty window with the given bounding policy.
    pub fn new(spec: WindowSpec) -> Self {
        let mut w = SlidingWindow {
            spec,
            live: VecDeque::new(),
            gone: VecDeque::new(),
            dropped_by: None,
            index: Default::default(),
            last_evicted: [u64::MAX; EVICTED_BUCKETS],
            inserted: 0,
            evicted: 0,
            evict_buf: Vec::new(),
            evict_keys: Vec::new(),
        };
        if let WindowSpec::Count(n) = spec {
            w.live.reserve(n + 1);
            w.gone.reserve(n + 1);
            w.index.reserve(2 * (n + 1));
            w.evict_buf.reserve(1);
            w.evict_keys.reserve(1);
        }
        w
    }

    /// Number of tuples currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// `true` when no tuples are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
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
        self.index.get(&key).map_or(0, |run| run.count)
    }

    /// The deduplicating probe for distributed match counting (only pairs
    /// where the prober is the *later* tuple count): how many tuples with
    /// attribute `key` the window held as it stood after its last insert
    /// with sequence number below `seq` — the instant
    /// [`GroundTruth`](crate::join::GroundTruth) counts the prober at.
    ///
    /// With no insert at or after `seq` this is the key's live count.
    /// Otherwise the key's chain is walked past its tuples at or after
    /// `seq`, and its bucket's chain of expired tuples back over those
    /// evicted since `seq`: the cost is the evictions in one bucket since
    /// the prober arrived, not all of them.
    pub fn probe_before(&self, key: u32, seq: u64) -> AsOf {
        let run = self.index.get(&key).copied();
        let live = run.map_or(0, |run| run.count);
        if self.live.back().is_none_or(|slot| slot.tuple.seq < seq) {
            return AsOf {
                matches: live,
                late: false,
                walked: 0,
            };
        }
        // Held tuples of the key at or after `seq`, newest first.
        let mut newer = 0;
        if let Some(run) = run {
            let mut at = run.tail;
            while newer < run.count {
                let slot = &self.live[(at - self.evicted) as usize];
                if slot.tuple.seq < seq {
                    break;
                }
                newer += 1;
                at = slot.prev;
            }
        }
        let mut found = AsOf {
            matches: live - newer,
            late: self.dropped_by.is_some_and(|by| by >= seq),
            walked: 0,
        };
        // Expired tuples of the bucket evicted at or after `seq`, newest
        // first; a record's `by` only grows with its number.
        let first = self.evicted - self.gone.len() as u64;
        let mut at = self.last_evicted[bucket(key)];
        while let Some(gone) = at
            .checked_sub(first)
            .and_then(|i| self.gone.get(i as usize))
        {
            if gone.by < seq {
                break;
            }
            found.walked += 1;
            found.matches += u32::from(gone.key == key && gone.seq < seq);
            match gone.back {
                0 => break,
                FAR => {
                    found.late = true;
                    break;
                }
                back => at -= u64::from(back),
            }
        }
        found
    }

    /// Iterates over held tuples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.live.iter().map(|slot| &slot.tuple)
    }

    /// Inserts a tuple observed at `now` (a timestamp for time windows;
    /// ignored by count windows) and returns any evicted
    /// tuples, oldest first.
    ///
    /// The returned slice borrows an internal buffer that is overwritten
    /// by the next `insert`; [`SlidingWindow::evicted_keys`] exposes the
    /// same eviction batch as bare join keys.
    pub fn insert(&mut self, tuple: Tuple, now: u64) -> &[Tuple] {
        if let Some(last) = self.live.back() {
            debug_assert!(
                last.tuple.seq < tuple.seq,
                "tuples must be inserted in ascending seq order"
            );
        }
        let at = self.inserted;
        let run = self
            .index
            .entry(tuple.key)
            .or_insert(Run { tail: at, count: 0 });
        let prev = std::mem::replace(&mut run.tail, at);
        run.count += 1;
        self.live.push_back(Slot {
            tuple,
            ts: now,
            prev,
        });
        self.inserted += 1;
        self.evict_buf.clear();
        self.evict_keys.clear();
        while self
            .live
            .front()
            .is_some_and(|slot| self.spec.expires(self.live.len(), slot.ts, now))
        {
            let Some(t) = self.pop_oldest() else { break };
            let at = self.evicted - 1;
            let head = std::mem::replace(&mut self.last_evicted[bucket(t.key)], at);
            let kept = at - self.gone.len() as u64..at;
            self.gone.push_back(Gone {
                seq: t.seq,
                by: tuple.seq,
                key: t.key,
                back: if kept.contains(&head) {
                    back_distance(at - head)
                } else {
                    0
                },
            });
            self.evict_buf.push(t);
            self.evict_keys.push(t.key);
        }
        while self.gone.len() > self.live.len() {
            self.dropped_by = self.gone.pop_front().map(|gone| gone.by);
        }
        &self.evict_buf
    }

    /// Join keys of the tuples evicted by the most recent
    /// [`SlidingWindow::insert`], oldest first.
    #[inline]
    pub fn evicted_keys(&self) -> &[u32] {
        &self.evict_keys
    }

    /// Evicts the oldest held tuple, if any. It is also the oldest of its
    /// key, so the key's run just shrinks by one from the old end.
    fn pop_oldest(&mut self) -> Option<Tuple> {
        let t = self.live.pop_front()?.tuple;
        if let Some(run) = self.index.get_mut(&t.key) {
            run.count -= 1;
            if run.count == 0 {
                self.index.remove(&t.key);
            }
        }
        self.evicted += 1;
        Some(t)
    }
}

/// `key`'s bucket of [`SlidingWindow`]'s chains of expired tuples.
#[inline]
fn bucket(key: u32) -> usize {
    (u64::from(key).wrapping_mul(KEY_MUL) >> 56) as usize
}

/// A [`Gone::back`] for a previous record `d > 0` records back.
#[inline]
fn back_distance(d: u64) -> u32 {
    u32::try_from(d).unwrap_or(FAR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::StreamId;

    fn t(key: u32, seq: u64) -> Tuple {
        Tuple::new(StreamId::R, key, seq, 0)
    }

    fn before(w: &SlidingWindow, key: u32, seq: u64) -> (u32, bool) {
        let as_of = w.probe_before(key, seq);
        (as_of.matches, as_of.late)
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
        // Evicted, but kept within grace: a probe that trails the
        // insert that evicted key 1 still finds it, and key 0 before that.
        assert_eq!(w.probe(1), 0);
        assert_eq!(before(&w, 1, 4), (1, false));
        assert_eq!(before(&w, 0, 3), (1, false));
        assert_eq!(before(&w, 0, 4), (0, false));
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
        assert_eq!(before(&w, 7, 6), (2, false));
        assert_eq!(before(&w, 7, 2), (0, false));
        assert_eq!(before(&w, 7, 100), (3, false));
    }

    #[test]
    fn probe_before_stops_at_the_oldest_held_tuple_of_its_key() {
        // Key 7's chain runs back into slots that were evicted and reused
        // by other keys; the walk must end at the count, not follow them.
        let mut w = SlidingWindow::new(WindowSpec::count(3));
        for (seq, key) in [7, 7, 7, 1, 7, 2, 7].into_iter().enumerate() {
            w.insert(t(key, seq as u64), seq as u64);
        }
        // Held: (7, 4), (2, 5), (7, 6); kept: (7, 1), (7, 2), (1, 3);
        // (7, 0) is out of grace.
        assert_eq!(w.probe(7), 2);
        assert_eq!(before(&w, 7, 7), (2, false));
        assert_eq!(before(&w, 1, 7), (0, false), "key 1 left the window");
        // As of seq 4 the window held (7, 2), (1, 3), (7, 4).
        assert_eq!(before(&w, 7, 5), (2, false));
        assert_eq!(before(&w, 1, 5), (1, false));
        // As of seq 2 it held (7, 0) too, which is gone: the count is
        // short, and says so.
        assert_eq!(before(&w, 7, 3), (2, true));
        assert_eq!(before(&w, 7, 0), (0, true));
    }

    #[test]
    fn a_probe_walks_only_its_buckets_evictions_since_its_seq() {
        let (a, b) = (1, (2..).find(|&k| bucket(k) != bucket(1)).unwrap());
        let mut w = SlidingWindow::new(WindowSpec::count(8));
        for seq in 0..14 {
            w.insert(t(if seq < 2 { a } else { b }, seq), seq);
        }
        // Inserts 8 and 9 evicted a's two tuples, 10..=13 four b's; all
        // six are kept. From seq 10 on, a's bucket lost nothing.
        assert_eq!(
            w.probe_before(a, 10),
            AsOf {
                matches: 0,
                late: false,
                walked: 0
            }
        );
        // From seq 8 a probe walks both a's back and counts them.
        assert_eq!(
            w.probe_before(a, 8),
            AsOf {
                matches: 2,
                late: false,
                walked: 2
            }
        );
        assert_eq!(w.probe_before(a, 9).walked, 1);
        // b's probes walk b's four records, never a's.
        assert_eq!(w.probe_before(b, 5).walked, 4);
        assert_eq!(before(&w, b, 5), (3, false));
    }

    #[test]
    fn a_back_distance_too_long_to_store_ends_the_walk_late() {
        assert_eq!(back_distance(1), 1);
        assert_eq!(back_distance(u64::from(u32::MAX) - 1), u32::MAX - 1);
        assert_eq!(back_distance(u64::from(u32::MAX)), FAR);
        assert_eq!(back_distance(1 << 40), FAR);
        let mut w = SlidingWindow::new(WindowSpec::count(4));
        for seq in 0..8 {
            w.insert(t(3, seq), seq);
        }
        // Kept: 0..=3, each chained to the one before it.
        assert_eq!(before(&w, 3, 4), (4, false));
        assert_eq!(w.probe_before(3, 4).walked, 4);
        // Were record 0 too far behind record 1 to store, a walk that
        // must pass record 1 stops there and says the count may be short.
        w.gone[1].back = FAR;
        let as_of = w.probe_before(3, 4);
        assert_eq!((as_of.matches, as_of.late, as_of.walked), (3, true, 3));
        // One that stops before record 1 is not late.
        let as_of = w.probe_before(3, 6);
        assert_eq!((as_of.matches, as_of.late, as_of.walked), (4, false, 2));
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
    fn time_window_burst_evicts_in_one_insert() {
        let mut w = SlidingWindow::new(WindowSpec::Time(10));
        for seq in 0..50u64 {
            w.insert(t(seq as u32 % 5, seq), 100 + seq / 10);
        }
        assert_eq!(w.probe(3), 10);
        let ev = w.insert(t(3, 50), 1_000);
        assert_eq!(ev.len(), 50, "the whole burst leaves at once");
        let keys: Vec<u32> = (0..50).map(|i| i % 5).collect();
        assert_eq!(w.evicted_keys(), &keys[..]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.probe(3), 1);
        // As of the burst key 3 had ten tuples, but they are past the grace
        // as well (one tuple is held, so one expired one is kept): the
        // count is short, and says so.
        assert_eq!(before(&w, 3, 50), (0, true));
        assert_eq!(before(&w, 3, 51), (1, false));
        assert_eq!(w.probe(0), 0);
        // Keys that left re-enter with fresh runs.
        w.insert(t(0, 51), 1_001);
        assert_eq!(w.probe(0), 1);
        assert_eq!(before(&w, 0, 52), (1, false));
    }

    #[test]
    fn iter_is_chronological() {
        let mut w = SlidingWindow::new(WindowSpec::count(3));
        for i in 0..5u64 {
            w.insert(t(i as u32, i), i);
        }
        let seqs: Vec<u64> = w.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        // Still oldest first once the ring has wrapped many times over.
        for i in 5..40u64 {
            w.insert(t(i as u32 % 2, i), i);
        }
        let seqs: Vec<u64> = w.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![37, 38, 39]);
    }

    #[test]
    #[should_panic(expected = "count window must hold at least one tuple")]
    fn zero_count_rejected() {
        WindowSpec::count(0);
    }
}
