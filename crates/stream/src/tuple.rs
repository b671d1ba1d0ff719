//! Stream tuples and stream identities.

use std::fmt;

/// Which of the two joined streams a tuple belongs to.
///
/// The window join is `R ⋈ S`: an `R` tuple matches `S` tuples with the
/// same join-attribute value and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamId {
    /// The left stream.
    R,
    /// The right stream.
    S,
}

impl StreamId {
    /// The stream this one joins against.
    #[inline]
    pub fn opposite(self) -> StreamId {
        match self {
            StreamId::R => StreamId::S,
            StreamId::S => StreamId::R,
        }
    }

    /// Both stream identities, in `[R, S]` order.
    pub const BOTH: [StreamId; 2] = [StreamId::R, StreamId::S];

    /// Dense index (`R → 0`, `S → 1`) for array-backed per-stream state.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            StreamId::R => 0,
            StreamId::S => 1,
        }
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamId::R => write!(f, "R"),
            StreamId::S => write!(f, "S"),
        }
    }
}

/// A stream tuple: the join attribute plus provenance.
///
/// The join attribute (`key`) is an integer in a configured domain
/// `[0, D)` — the paper's synthetic workloads draw from `[1, 2¹⁹]`.
/// `seq` is the global arrival sequence number and doubles as the
/// deduplication tiebreak for distributed match counting: a match between
/// two tuples is attributed to the *later* (higher-`seq`) tuple probing the
/// earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Stream this tuple belongs to.
    pub stream: StreamId,
    /// Join attribute value in `[0, domain)`.
    pub key: u32,
    /// Global arrival sequence number.
    pub seq: u64,
    /// Index of the node where the tuple originally arrived.
    pub origin: u16,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(stream: StreamId, key: u32, seq: u64, origin: u16) -> Self {
        Tuple {
            stream,
            key,
            seq,
            origin,
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}[key={} @node{}]",
            self.stream, self.seq, self.key, self.origin
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposite_is_involution() {
        assert_eq!(StreamId::R.opposite(), StreamId::S);
        assert_eq!(StreamId::S.opposite(), StreamId::R);
        for s in StreamId::BOTH {
            assert_eq!(s.opposite().opposite(), s);
        }
    }

    #[test]
    fn indices_are_dense() {
        assert_eq!(StreamId::R.index(), 0);
        assert_eq!(StreamId::S.index(), 1);
    }

    #[test]
    fn display_formats() {
        let t = Tuple::new(StreamId::R, 17, 42, 3);
        assert_eq!(t.to_string(), "R#42[key=17 @node3]");
    }

    #[test]
    fn tuple_ordering_by_seq_is_available() {
        let a = Tuple::new(StreamId::R, 1, 1, 0);
        let b = Tuple::new(StreamId::S, 1, 2, 0);
        assert!(a.seq < b.seq);
    }
}
