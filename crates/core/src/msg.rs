//! Wire messages and their byte-size model.
//!
//! The simulator charges every message its modeled wire size against the
//! 90 kbps links, so the byte model below *is* the bandwidth cost the
//! algorithms pay. Summary content (DFT coefficient updates, Bloom filters,
//! AGMS sketches) is accounted separately from tuple payload so that
//! Figure 8's overhead-vs-net-data ratio can be reported.

use crate::wire::{key_stream, varint_len};
use dsj_dft::Complex64;
use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use dsj_stream::{StreamId, Tuple};

/// One DFT coefficient update as the wire carries it: a bin index and a
/// mantissa pair whose value is `(re, im) · 2^exponent`, the exponent being
/// its payload's ([`SummaryPayload::Dft`]); [`Quantiser`] owns the format.
///
/// Wire size: the index's varint (1 byte below 128, 2 below 16 384,
/// else 3) + 2 + 2 (mantissas) = [`CoeffUpdate::wire_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoeffUpdate {
    /// Coefficient (frequency bin) index.
    pub index: u16,
    /// Mantissa of the real part.
    pub re: i16,
    /// Mantissa of the imaginary part.
    pub im: i16,
}

impl CoeffUpdate {
    /// Bytes this update takes on the wire.
    pub fn wire_bytes(self) -> usize {
        varint_len(u64::from(self.index)) + 4
    }
}

/// The block-floating-point format of a DFT payload: every mantissa of one
/// payload shares one exponent, and a coefficient is worth
/// `mantissa · 2^exponent`, component by component.
///
/// The exponent is derived, never configured: [`Quantiser::fitting`] picks
/// the smallest at which every component it is given rounds into
/// `±32 767` (`i16::MIN` is left out, so the format is symmetric), and the
/// step `2^exponent` is as fine as 16 bits allow.
/// Scaling by a power of two is exact, so quantising, dequantising and
/// re-quantising are exact too: a dequantised value re-quantises to its
/// own mantissa, and every node that dequantises one payload holds the
/// same bits.
///
/// Rounding moves each component by at most `step / 2`. With those errors
/// modelled as independent and uniform on `±step/2` (variance
/// `step²/12`), a bucket of the Eqn. 10 reconstruction from a `K`-bin
/// prefix over a domain of `D`, `(1/D)·Σ_bin f·Re(X[bin]·e^{2πi·bin·n/D})`
/// with `f ≤ 2` (1 at DC), gains an expected squared error of at most
/// `(1 + 4(K−1))·step²/(12·D²) ≤ K·step²/(3·D²)`
/// ([`Quantiser::mse_bound`]). A window of `W` tuples has `|X[bin]| ≤ W`,
/// so the step is below `W / 16 383`: at `W = 1 024`, `D = 4 096`,
/// `K = 16` that is `1/16` and the bound about `1.2e-9`, against the
/// `E[MSE] < 0.25` under which rounding reconstructs the window exactly
/// (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiser {
    exponent: i8,
}

impl Quantiser {
    /// The largest mantissa magnitude a quantiser produces.
    const MAX_MANTISSA: i16 = i16::MAX;

    /// The finest quantiser at which every component of `values` rounds
    /// into `±32 767`: one step finer, the largest would not. All zeros fit
    /// any exponent and get the smallest, `i8::MIN`; components too small
    /// for it round to zero. Magnitudes beyond `32 767 · 2^127` (no window
    /// comes near) saturate.
    pub fn fitting(values: &[Complex64]) -> Self {
        let max = (values.iter()).fold(0.0f64, |m, c| m.max(c.re.abs()).max(c.im.abs()));
        if max == 0.0 {
            return Quantiser { exponent: i8::MIN };
        }
        // `max < 2^p` with `p` its binary exponent plus one, so every
        // component scales below `2^15` at `p − 15`, while at `p − 16` the
        // largest scales to at least `2^15`, past `MAX_MANTISSA`. Only
        // rounding up to `2^15` can push `p − 15` one further.
        let p = ((max.to_bits() >> 52) & 0x7ff) as i32 - 1022;
        let exponent = (p - 15).clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i8;
        let q = Quantiser { exponent };
        if exponent < i8::MAX && (max / q.step()).round() > f64::from(Self::MAX_MANTISSA) {
            return Quantiser {
                exponent: exponent + 1,
            };
        }
        q
    }

    /// The quantiser of a received payload's exponent.
    pub fn at(exponent: i8) -> Self {
        Quantiser { exponent }
    }

    /// The shared exponent.
    pub fn exponent(self) -> i8 {
        self.exponent
    }

    /// The value of one mantissa unit, `2^exponent`: a normal `f64` for
    /// every `i8` exponent.
    pub fn step(self) -> f64 {
        f64::from_bits(((1023 + i64::from(self.exponent)) as u64) << 52)
    }

    /// `value`'s bin `index` as the wire carries it: each component
    /// rounded to the nearest step (ties away from zero), clamped to
    /// `±32 767`.
    pub fn quantise(self, index: u16, value: Complex64) -> CoeffUpdate {
        let max = f64::from(Self::MAX_MANTISSA);
        let mantissa = |x: f64| (x / self.step()).round().clamp(-max, max) as i16;
        CoeffUpdate {
            index,
            re: mantissa(value.re),
            im: mantissa(value.im),
        }
    }

    /// The value `update` carries: finite for every mantissa and exponent.
    pub fn value(self, update: CoeffUpdate) -> Complex64 {
        let step = self.step();
        Complex64::new(f64::from(update.re) * step, f64::from(update.im) * step)
    }

    /// The documented bound on the expected squared error this step adds
    /// to one bucket of a `retained`-bin reconstruction over `domain`:
    /// `K·step²/(3·D²)`.
    pub fn mse_bound(self, domain: usize, retained: usize) -> f64 {
        let step = self.step();
        retained as f64 * step * step / (3.0 * (domain as f64).powi(2))
    }
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
        /// The exponent every update's mantissas share
        /// ([`Quantiser::at`]).
        exponent: i8,
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
    /// DFT ships `signal_len` and a coefficient count as varints and the
    /// shared exponent in one byte, Bloom ships `(m, k, seed, items)` and
    /// sketches `(s0, s1, seed, updates)`, each a varint but the 8-byte
    /// seed — then the content itself: per DFT coefficient
    /// [`CoeffUpdate::wire_bytes`], and per Bloom or sketch counter the
    /// payload's [`counter_width`](SummaryPayload::counter_width).
    pub fn wire_bytes(&self) -> usize {
        let vl = |v: usize| varint_len(v as u64);
        match self {
            SummaryPayload::Dft {
                signal_len,
                updates,
                ..
            } => {
                2 + varint_len(u64::from(*signal_len))
                    + vl(updates.len())
                    + updates.iter().map(|u| u.wire_bytes()).sum::<usize>()
            }
            SummaryPayload::Bloom { filter, .. } => {
                9 + vl(filter.counters())
                    + vl(filter.hash_count())
                    + varint_len(filter.len())
                    + filter.counters() * self.counter_width()
            }
            SummaryPayload::Sketch { sketch, .. } => {
                9 + vl(sketch.s0())
                    + vl(sketch.s1())
                    + varint_len(sketch.updates())
                    + sketch.counter_values().len() * self.counter_width()
            }
        }
    }

    /// The bytes each counter of a Bloom or sketch payload travels in: the
    /// fewest of 1, 2, 4 or 8 that hold every counter of this payload,
    /// Bloom counters unsigned and sketch counters two's complement
    /// (1 for DFT, which has none). Derived, never configured: a window of
    /// `W` tuples bounds every counter by `W` in magnitude, so the
    /// benchmark's sketches ship 1 or 2 bytes a counter where memory holds
    /// 8. The codec carries `log2` of it in the payload's `ptype` byte.
    pub fn counter_width(&self) -> usize {
        // The OR of every counter's significant bits, a sketch counter's
        // shifted up one for its sign.
        let bits = match self {
            SummaryPayload::Dft { .. } => 0,
            SummaryPayload::Bloom { filter, .. } => {
                (filter.counter_values().iter()).fold(0, |acc, &c| acc | u64::from(c))
            }
            SummaryPayload::Sketch { sketch, .. } => (sketch.counter_values().iter())
                .fold(0, |acc, &c| acc | (((c ^ (c >> 63)) as u64) << 1)),
        };
        match u64::BITS - bits.leading_zeros() {
            0..=8 => 1,
            9..=16 => 2,
            17..=32 => 4,
            _ => 8,
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
    /// Sizes in bytes, `(data, total)`, computed once: `total` is
    /// [`Msg::wire_bytes`], `data` is [`Msg::data_bytes`], and the rest is
    /// [`Msg::overhead_bytes`].
    ///
    /// A frame is its body behind a varint length prefix; a body is the
    /// version/kind byte, for a tuple message the tuple's three varints,
    /// then the self-delimiting payloads. The data of a tuple message is
    /// its bare tuple frame, so a piggyback pays its payloads and any byte
    /// it adds to the length prefix as overhead. A standalone summary is
    /// all overhead.
    pub fn wire_sizes(&self) -> (usize, usize) {
        let framed = |body: usize| varint_len(body as u64) + body;
        let payloads =
            |ps: &[SummaryPayload]| ps.iter().map(SummaryPayload::wire_bytes).sum::<usize>();
        match self {
            Msg::Tuple { tuple, piggyback } => {
                // A bare tuple body is at most 19 bytes: a 1-byte prefix.
                let data = 2
                    + varint_len(key_stream(tuple))
                    + varint_len(tuple.seq)
                    + varint_len(u64::from(tuple.origin));
                match payloads(piggyback) {
                    0 => (data, data),
                    p => (data, framed(data - 1 + p)),
                }
            }
            Msg::Summary(ps) => (0, framed(1 + payloads(ps))),
        }
    }

    /// Wire size in bytes — by invariant (pinned in `crate::wire`'s tests)
    /// exactly `wire::encode(self).len()`.
    pub fn wire_bytes(&self) -> usize {
        self.wire_sizes().1
    }

    /// Bytes attributable to *tuple data* (the "net data" of Figure 8):
    /// a tuple message's bare tuple frame.
    pub fn data_bytes(&self) -> usize {
        self.wire_sizes().0
    }

    /// Bytes attributable to *summary overhead* (Figure 8's numerator).
    pub fn overhead_bytes(&self) -> usize {
        let (data, total) = self.wire_sizes();
        total - data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsj_stream::StreamId;
    use proptest::prelude::*;

    fn coeffs(n: usize) -> Vec<CoeffUpdate> {
        (0..n)
            .map(|i| CoeffUpdate {
                index: i as u16,
                re: i as i16,
                im: -(i as i16),
            })
            .collect()
    }

    fn dft(stream: StreamId, signal_len: u32, updates: Vec<CoeffUpdate>) -> SummaryPayload {
        SummaryPayload::Dft {
            stream,
            signal_len,
            exponent: -4,
            updates,
        }
    }

    #[test]
    fn tuple_msg_size() {
        // 1 prefix + 1 ver/kind + one byte each for key·2 + stream (3),
        // seq (2) and origin (3).
        let bare = Msg::Tuple {
            tuple: Tuple::new(StreamId::S, 1, 2, 3),
            piggyback: Vec::new(),
        };
        assert_eq!(bare.wire_bytes(), 5);
        assert_eq!(bare.data_bytes(), 5);
        assert_eq!(bare.overhead_bytes(), 0);
    }

    #[test]
    fn piggyback_adds_overhead_only() {
        let m = Msg::Tuple {
            tuple: Tuple::new(StreamId::R, 1, 2, 3),
            piggyback: vec![dft(StreamId::R, 1024, coeffs(3))],
        };
        assert_eq!(m.data_bytes(), 5);
        // 1 ptype + 2 (signal_len) + 1 (count) + 1 exponent + 3 × 5.
        assert_eq!(m.overhead_bytes(), 5 + 3 * 5);
        assert_eq!(m.wire_bytes(), m.data_bytes() + m.overhead_bytes());
    }

    #[test]
    fn summary_sizes_match_content() {
        let dft = Msg::Summary(vec![dft(StreamId::S, 64, coeffs(10))]);
        // 2 frame bytes + the payload's 4-byte header + 10 coefficients.
        assert_eq!(dft.wire_bytes(), 2 + 4 + 50);
        assert_eq!(dft.data_bytes(), 0);

        // 3 frame bytes + the 13-byte header + 256 counters of one byte
        // (1 KB in memory).
        let mut filter = CountingBloomFilter::new(256, 4, 1);
        let bloom = |filter: &CountingBloomFilter| {
            Msg::Summary(vec![SummaryPayload::Bloom {
                stream: StreamId::R,
                filter: filter.clone(),
            }])
        };
        assert_eq!(bloom(&filter).wire_bytes(), 3 + 13 + 256);
        for _ in 0..256 {
            filter.insert(7);
        }
        // 256 items take 2 bytes.
        assert_eq!(bloom(&filter).wire_bytes(), 3 + 14 + 256 * 2);

        // 3 + 12 + 125 counters of one byte (1 000 B in memory), then two.
        let mut sketch = AgmsSketch::new(25, 5, 1);
        let skch = |sketch: &AgmsSketch| {
            Msg::Summary(vec![SummaryPayload::Sketch {
                stream: StreamId::R,
                sketch: sketch.clone(),
            }])
        };
        assert_eq!(skch(&sketch).wire_bytes(), 3 + 12 + 125);
        sketch.update(3, 128);
        assert_eq!(skch(&sketch).wire_bytes(), 3 + 12 + 125 * 2);
        assert_eq!(sketch.size_bytes(), 125 * 8);
    }

    #[test]
    fn steps_are_the_powers_of_two_of_every_exponent() {
        for e in i8::MIN..=i8::MAX {
            assert_eq!(Quantiser::at(e).step(), 2f64.powi(i32::from(e)), "{e}");
        }
    }

    #[test]
    fn an_all_zero_prefix_takes_the_smallest_exponent_and_ships_zeros() {
        let q = Quantiser::fitting(&[Complex64::ZERO; 8]);
        assert_eq!(q, Quantiser::fitting(&[]));
        assert_eq!(q.exponent(), i8::MIN);
        let u = q.quantise(3, Complex64::ZERO);
        assert_eq!((u.re, u.im), (0, 0));
        assert_eq!(q.value(u).re.to_bits(), 0.0f64.to_bits(), "never -0.0");
    }

    #[test]
    fn a_full_windows_dc_sets_the_step() {
        // |X| ≤ W: W = 1 024 scales to 16 384 at 2^-4, to 32 768 at 2^-5.
        for (w, exponent) in [(16.0, -10), (1_024.0, -4), (65_536.0, 2)] {
            let q = Quantiser::fitting(&[Complex64::new(w, 0.0)]);
            assert_eq!(q.exponent(), exponent, "W = {w}");
        }
        // The benchmark's W = 1 024, D = 4 096, K = 16: step 1/16.
        let bound = Quantiser::fitting(&[Complex64::new(1_024.0, 0.0)]).mse_bound(4_096, 16);
        assert!((1.2e-9..1.3e-9).contains(&bound), "{bound}");
        // One past the top of the mantissa range rounds over it.
        assert_eq!(
            Quantiser::fitting(&[Complex64::new(32_767.5, 0.0)]).exponent(),
            1
        );
        assert_eq!(
            Quantiser::fitting(&[Complex64::new(0.0, -32_767.4)]).exponent(),
            0
        );
    }

    #[test]
    fn values_are_finite_at_every_extreme() {
        for e in [i8::MIN, i8::MAX] {
            for m in [i16::MIN, i16::MAX] {
                let v = Quantiser::at(e).value(CoeffUpdate {
                    index: 0,
                    re: m,
                    im: m,
                });
                assert!(v.re.is_finite() && v.im.is_finite(), "{m} at {e}");
            }
        }
    }

    /// A prefix of a window of at most `w` tuples: `|X[bin]| ≤ w`.
    fn prefix(w: f64, parts: &[(f64, f64)]) -> Vec<Complex64> {
        let scale = w / std::f64::consts::SQRT_2;
        (parts.iter())
            .map(|&(a, b)| Complex64::new(a * scale, b * scale))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_fitting_exponent_is_minimal_and_rounds_within_half_a_step(
            w in 0usize..3,
            parts in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..64),
        ) {
            let values = prefix([16.0, 1_024.0, 65_536.0][w], &parts);
            let q = Quantiser::fitting(&values);
            let max = f64::from(Quantiser::MAX_MANTISSA);
            let largest = |q: Quantiser| (values.iter())
                .map(|c| (c.re / q.step()).round().abs().max((c.im / q.step()).round().abs()))
                .fold(0.0, f64::max);
            prop_assert!(largest(q) <= max);
            if largest(q) > 0.0 {
                let finer = Quantiser::at(q.exponent() - 1);
                prop_assert!(largest(finer) > max, "one step finer still fits");
            }
            for (i, c) in values.iter().enumerate() {
                let u = q.quantise(i as u16, *c);
                let v = q.value(u);
                prop_assert!((v.re - c.re).abs() <= q.step() / 2.0);
                prop_assert!((v.im - c.im).abs() <= q.step() / 2.0);
                // A dequantised value re-quantises to its own mantissas.
                prop_assert_eq!(q.quantise(u.index, v), u);
            }
        }
    }
}
