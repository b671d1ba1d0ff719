//! Wire messages and their byte-size model.
//!
//! The simulator charges every message its modeled wire size against the
//! 90 kbps links, so the byte model below *is* the bandwidth cost the
//! algorithms pay. Summary content (DFT coefficient updates, Bloom filters,
//! AGMS sketches) is accounted separately from tuple payload so that
//! Figure 8's overhead-vs-net-data ratio can be reported.

use dsj_dft::Complex64;
use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use dsj_stream::{StreamId, Tuple};

/// One DFT coefficient update: bin index plus new value.
///
/// Wire size: 2 (index) + 16 (complex) = [`CoeffUpdate::WIRE_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoeffUpdate {
    /// Coefficient (frequency bin) index.
    pub index: u16,
    /// New coefficient value.
    pub value: Complex64,
}

impl CoeffUpdate {
    /// Bytes per update on the wire.
    pub const WIRE_BYTES: usize = 18;
}

/// Algorithm-specific summary content exchanged between nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryPayload {
    /// Changed DFT coefficients of one stream's window histogram.
    Dft {
        /// Which stream's window the coefficients summarize.
        stream: StreamId,
        /// Length of the summarized signal (the attribute domain).
        signal_len: u32,
        /// The changed coefficients.
        updates: Vec<CoeffUpdate>,
    },
    /// A full counting Bloom filter of one stream's window.
    Bloom {
        /// Which stream's window the filter summarizes.
        stream: StreamId,
        /// The filter.
        filter: CountingBloomFilter,
    },
    /// A full AGMS sketch of one stream's window.
    Sketch {
        /// Which stream's window the sketch summarizes.
        stream: StreamId,
        /// The sketch.
        sketch: AgmsSketch,
    },
}

impl SummaryPayload {
    /// Wire size in bytes — by invariant (pinned in `crate::wire`'s tests)
    /// exactly the bytes `wire::encode` produces for this payload.
    ///
    /// Each variant pays a 1-byte kind/stream tag plus its parameters:
    /// DFT ships `signal_len` and a coefficient count (4 + 4), Bloom ships
    /// `(m, k, seed, items)` (4 + 4 + 8 + 8), sketches `(s0, s1, seed,
    /// updates)` (4 + 4 + 8 + 8) — then the content itself. Earlier
    /// revisions modeled a flat 4-byte header for all three, undercounting
    /// every summary on the wire; the codec made the drift visible and
    /// this model now matches it byte-for-byte.
    pub fn wire_bytes(&self) -> usize {
        match self {
            SummaryPayload::Dft { updates, .. } => 9 + updates.len() * CoeffUpdate::WIRE_BYTES,
            SummaryPayload::Bloom { filter, .. } => 25 + filter.size_bytes(),
            SummaryPayload::Sketch { sketch, .. } => 25 + sketch.size_bytes(),
        }
    }
}

/// A message on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// A forwarded tuple, optionally carrying piggy-backed summary updates
    /// (Fig. 7 line 5: coefficient changes ride on tuple messages).
    Tuple {
        /// The forwarded tuple (probe-only at the receiver; never stored).
        tuple: Tuple,
        /// Piggy-backed summary content (empty when none).
        piggyback: Vec<SummaryPayload>,
    },
    /// A standalone summary batch (sent when no tuple message has carried
    /// pending updates to a peer for too long).
    Summary(Vec<SummaryPayload>),
}

impl Msg {
    /// Wire size in bytes — by invariant (pinned in `crate::wire`'s tests)
    /// exactly `wire::encode(self).len()`.
    ///
    /// A tuple message is one [`Tuple::WIRE_BYTES`] frame (length prefix,
    /// version/kind byte and tuple body) plus its self-delimiting piggyback
    /// payloads. A standalone summary pays the same 5 framing bytes
    /// (`wire::FRAME_OVERHEAD`) plus its payloads; earlier revisions
    /// modeled summaries as frameless, undercounting each by 5.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Msg::Tuple { piggyback, .. } => {
                Tuple::WIRE_BYTES
                    + piggyback
                        .iter()
                        .map(SummaryPayload::wire_bytes)
                        .sum::<usize>()
            }
            Msg::Summary(ps) => 5 + ps.iter().map(SummaryPayload::wire_bytes).sum::<usize>(),
        }
    }

    /// Bytes attributable to *tuple data* (the "net data" of Figure 8).
    pub fn data_bytes(&self) -> usize {
        match self {
            Msg::Tuple { .. } => Tuple::WIRE_BYTES,
            Msg::Summary(_) => 0,
        }
    }

    /// Bytes attributable to *summary overhead* (Figure 8's numerator).
    pub fn overhead_bytes(&self) -> usize {
        self.wire_bytes() - self.data_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsj_stream::StreamId;

    fn coeffs(n: usize) -> Vec<CoeffUpdate> {
        (0..n)
            .map(|i| CoeffUpdate {
                index: i as u16,
                value: Complex64::new(i as f64, -(i as f64)),
            })
            .collect()
    }

    #[test]
    fn tuple_msg_size() {
        let bare = Msg::Tuple {
            tuple: Tuple::new(StreamId::R, 1, 2, 3),
            piggyback: Vec::new(),
        };
        assert_eq!(bare.wire_bytes(), Tuple::WIRE_BYTES);
        assert_eq!(bare.data_bytes(), Tuple::WIRE_BYTES);
        assert_eq!(bare.overhead_bytes(), 0);
    }

    #[test]
    fn piggyback_adds_overhead_only() {
        let m = Msg::Tuple {
            tuple: Tuple::new(StreamId::R, 1, 2, 3),
            piggyback: vec![SummaryPayload::Dft {
                stream: StreamId::R,
                signal_len: 1024,
                updates: coeffs(3),
            }],
        };
        assert_eq!(m.data_bytes(), Tuple::WIRE_BYTES);
        assert_eq!(m.overhead_bytes(), 9 + 3 * CoeffUpdate::WIRE_BYTES);
        assert_eq!(m.wire_bytes(), m.data_bytes() + m.overhead_bytes());
    }

    #[test]
    fn summary_sizes_match_content() {
        let dft = Msg::Summary(vec![SummaryPayload::Dft {
            stream: StreamId::S,
            signal_len: 64,
            updates: coeffs(10),
        }]);
        // 5 frame bytes + the payload's 9-byte header + 10 coefficients.
        assert_eq!(dft.wire_bytes(), 5 + 9 + 180);
        assert_eq!(dft.data_bytes(), 0);

        let filter = CountingBloomFilter::new(256, 4, 1);
        let bloom = Msg::Summary(vec![SummaryPayload::Bloom {
            stream: StreamId::R,
            filter: filter.clone(),
        }]);
        assert_eq!(bloom.wire_bytes(), 5 + 25 + filter.size_bytes());

        let sketch = AgmsSketch::new(25, 5, 1);
        let skch = Msg::Summary(vec![SummaryPayload::Sketch {
            stream: StreamId::R,
            sketch: sketch.clone(),
        }]);
        assert_eq!(skch.wire_bytes(), 5 + 25 + sketch.size_bytes());
    }
}
