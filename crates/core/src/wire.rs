//! The wire codec: deterministic, link-scoped, length-prefixed binary
//! frames for [`Msg`].
//!
//! This module is the only code that knows the frame layout, and the block
//! below is its reference. The encoder is written once, over a private byte
//! sink: a `Vec<u8>` keeps the bytes, a counter only adds them up. The
//! counting pass is [`LinkBase::advance`], so the simnet bandwidth model,
//! the throughput governor and Figure 8's overhead accounting all charge
//! exactly the bytes a socket carries; the writing pass is
//! [`FrameBatch::push`], which the TCP backend in `dsj-runtime` sends.
//!
//! # Frame layout (version 5)
//!
//! ```text
//! frame      := head:var | body                 (head = len·2 + kind, len = body length in bytes ≤ 2²⁴)
//! kind 0     := tuple | payload*                (Msg::Tuple)
//! kind 1     := payload*                        (Msg::Summary)
//! tuple      := key_stream:var | dseq:var       (key_stream = key·2 + stream, dseq = zigzag(seq − base))
//! payload    := ptype:u8 | params               (ptype = w << 3 | pkind << 1 | stream)
//! pkind 0    := signal_len:var | count:var | exponent:i8 | (index:var, re:i16, im:i16)*count
//! pkind 1    := m:var | k:var | seed:u64 | items:var | counter:u(8·2^w) * m
//! pkind 2    := s0:var | s1:var | seed:u64 | updates:var | counter:i(8·2^w) * s0·s1
//! ```
//!
//! A `var` is an unsigned LEB128 varint ([`put_varint`]): seven bits a
//! byte, low bits first, the high bit set on every byte but the last, and
//! always the shortest such encoding. Every other integer is fixed width
//! and little-endian: the seeds, the exponent, the mantissas and the
//! counters. The head takes at most 4 bytes under the 2²⁴ cap.
//!
//! # Link scope
//!
//! A frame carries only what its link does not already know. Every frame
//! travels over one directed link, whose two ends each hold a
//! [`LinkBase`]: the seq of the last tuple frame on the link, 0 before the
//! first. A tuple frame's `dseq` is the zigzag of the *wrapping*
//! difference `seq − base` (`d` as an `i64`, sent as `(d << 1) ^ (d >> 63)`),
//! so any seq, a repeat, a decrease or a jump past `u64::MAX` included,
//! is one varint, and a node's stream of arrivals, a few seqs apart, takes
//! one byte a frame where an absolute seq takes three or four. A tuple's
//! `origin` is not on the wire: every tuple message is sent by its origin,
//! so the decoder stamps the link's sender. The engine holds one base per
//! peer (its byte model), and so do a [`FrameBatch`] and a
//! [`FrameDecoder`]; each frame moves all of them the same way.
//!
//! That state is safe because a link never skips a frame: TCP delivers the
//! bytes in order or not at all, and a dead link is abandoned, never
//! resumed, so the two bases cannot drift apart. Anything that drops,
//! duplicates or reorders messages (a fault injector) must therefore act
//! on `Msg` values above the encoder, never on a link's bytes: a lost frame
//! would shift every later seq on its link.
//!
//! Payload items are self-delimiting and parsed until the frame body is
//! exhausted, so piggyback summaries only pay their own encoded size. A
//! bare tuple frame is 1 byte of head plus the varints of its key·2 +
//! stream and `dseq`: 3 to 16 bytes, about 4 on the benchmark's
//! schedules. A DFT coefficient is its index's varint plus two `i16`
//! mantissas under the payload's one `i8` exponent
//! ([`Quantiser`](crate::msg::Quantiser)), quantised by the sender: 5 bytes
//! for an index below 128. Every field is an integer and every varint
//! minimal, so encoding is a bijection on each link (any frame that decodes
//! re-encodes to identical bytes at the same base) and a decoded
//! coefficient is always finite.
//!
//! A Bloom or sketch payload ships its counters at one width, `2^w` bytes,
//! the narrowest that holds every counter it carries (`counter_width`);
//! DFT payloads have `w = 0`, and `ptype`'s bits 5–7 are zero. Decoding
//! widens the counters back to their `u32` / `i64` and refuses any other
//! width, so the bijection holds.
//!
//! # Version policy
//!
//! The codec version, currently [`VERSION`] = 5, travels once per link, in
//! the preface the TCP backend's dialer and acceptor exchange before any
//! frame (`dsj-runtime`'s `tcp.rs`), not in every frame. A peer that names
//! another version is refused there, with both versions named, so a mixed
//! cluster fails loudly before a single frame is misread. Versions 1 to 4
//! carried the version in each frame's first body byte (4 also sent
//! `origin` and an absolute `seq`); no second decoder is kept, since every
//! node of a cluster runs one build.
//!
//! Decoding is total: corrupted, truncated or oversized input returns a
//! typed [`WireError`] — never a panic — which the property suite in
//! `crates/core/tests/wire_props.rs` hammers with arbitrary mutations.

use crate::msg::{CoeffUpdate, Msg, SummaryPayload};
use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use dsj_stream::{StreamId, Tuple};
use std::fmt;

/// Current codec version, named once per link by the TCP preface.
pub const VERSION: u8 = 5;

/// Upper bound on a frame body's length (16 MiB). Far above any summary
/// this system produces; a head beyond it is treated as corruption rather
/// than an allocation request.
pub const MAX_FRAME_BODY: usize = 1 << 24;

/// The longest head: 4 varint bytes carry 28 bits, past twice the cap.
const MAX_PREFIX: usize = 4;

/// The least body length a head longer than [`MAX_PREFIX`] announces.
const LONG_PREFIX_LEN: usize = 1 << (7 * MAX_PREFIX - 1);

/// The fewest bytes a DFT coefficient takes: a 1-byte index varint and two
/// `i16` mantissas.
const MIN_COEFF_BYTES: usize = 5;

const KIND_TUPLE: u64 = 0;
const KIND_SUMMARY: u64 = 1;
const PKIND_DFT: u8 = 0;
const PKIND_BLOOM: u8 = 1;
const PKIND_SKETCH: u8 = 2;
/// Decode-side sanity bound on a Bloom filter's hash count (encoders derive
/// at most 16; see `CountingBloomFilter::with_size_bytes`).
const MAX_BLOOM_HASHES: usize = 256;

/// Typed decode failure. Every variant is a *diagnosis*, not a crash:
/// decoding arbitrary bytes can return any of these but can never panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the frame its head announces: "need more
    /// bytes".
    Truncated,
    /// The head announces more than [`MAX_FRAME_BODY`] bytes: the length
    /// it announces or, for a head longer than 4 bytes, 2²⁷, the least such
    /// a head can announce.
    FrameTooLarge(usize),
    /// A payload item's kind bits name no known summary kind.
    BadPayloadKind(u8),
    /// A structurally invalid field (zero-sized filter, empty body,
    /// non-minimal varint, ...).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::FrameTooLarge(len) => {
                write!(f, "frame body of {len} bytes exceeds {MAX_FRAME_BODY}")
            }
            WireError::BadPayloadKind(k) => write!(f, "unknown summary payload kind {k}"),
            WireError::Invalid(what) => write!(f, "invalid frame field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What both ends of one directed link know between frames: the seq of the
/// last tuple frame on it, 0 before the first. A tuple frame's seq travels
/// as its difference from the base, and every frame, encoded, sized or
/// decoded, moves the base past it (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkBase {
    seq: u64,
}

impl LinkBase {
    /// The base of a link that has carried no tuple frame.
    pub fn new() -> Self {
        LinkBase::default()
    }

    /// `msg`'s sizes in bytes as this link's next frame, `(data, total)`,
    /// and the base moved past it: `total` is its whole frame, `data` the
    /// frame its tuple would take alone (0 for a summary). The rest is
    /// summary overhead, a piggyback's share of the head included.
    pub fn advance(&mut self, msg: &Msg) -> (usize, usize) {
        let framed = |body: usize| varint_len((body as u64) << 1) + body;
        let mut body = Len(0);
        let payloads = put_head(msg, *self, &mut body);
        let data = match msg {
            Msg::Tuple { .. } => framed(body.0),
            Msg::Summary(_) => 0,
        };
        for p in payloads {
            put_payload(p, &mut body);
        }
        self.pass(msg);
        (data, framed(body.0))
    }

    /// Decodes one frame from the front of `bytes` as this link's next,
    /// its tuple stamped with the link's `sender`. Returns the message and
    /// the number of bytes consumed (the full frame, head included); the
    /// base moves past the frame only when it decodes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when `bytes` holds less than one whole
    /// frame; any other [`WireError`] for structurally invalid content,
    /// including a whole frame whose body ends mid-field. A head over
    /// [`MAX_FRAME_BODY`] is refused from the head alone.
    pub fn decode(&mut self, bytes: &[u8], sender: u16) -> Result<(Msg, usize), WireError> {
        let (prefix, len, kind) = frame_header(bytes)?;
        let body = bytes
            .get(prefix..prefix + len)
            .ok_or(WireError::Truncated)?;
        let mut r = Reader::new(body);
        let msg = if kind == KIND_TUPLE {
            let key_stream = r.varint()?;
            let key = u32::try_from(key_stream >> 1)
                .map_err(|_| WireError::Invalid("tuple key over u32::MAX"))?;
            let stream = decode_stream((key_stream & 1) as u8)?;
            let seq = self.seq.wrapping_add(unzigzag(r.varint()?));
            let mut piggyback = Vec::new();
            while !r.is_empty() {
                piggyback.push(decode_payload(&mut r)?);
            }
            Msg::Tuple {
                tuple: Tuple::new(stream, key, seq, sender),
                piggyback,
            }
        } else {
            let mut payloads = Vec::new();
            while !r.is_empty() {
                payloads.push(decode_payload(&mut r)?);
            }
            Msg::Summary(payloads)
        };
        self.pass(&msg);
        Ok((msg, prefix + len))
    }

    /// Moves the base past `msg`'s frame: a tuple's seq becomes the base.
    fn pass(&mut self, msg: &Msg) {
        if let Msg::Tuple { tuple, .. } = msg {
            self.seq = tuple.seq;
        }
    }
}

/// The head of `msg`'s frame around a body of `len` bytes: `len·2 + kind`.
fn head(msg: &Msg, len: usize) -> u64 {
    let kind = match msg {
        Msg::Tuple { .. } => KIND_TUPLE,
        Msg::Summary(_) => KIND_SUMMARY,
    };
    ((len as u64) << 1) | kind
}

/// Where the encoder puts a frame's bytes: a `Vec<u8>` keeps them, [`Len`]
/// only counts them. The encoder is written once, over this trait, so the
/// byte model and the bytes cannot drift apart.
trait Sink {
    fn byte(&mut self, b: u8);
    fn bytes(&mut self, b: &[u8]);
    fn varint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }
    fn varint(&mut self, v: u64) {
        put_varint(self, v);
    }
}

/// A [`Sink`] that adds up the bytes it is given.
struct Len(usize);

impl Sink for Len {
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }
    fn varint(&mut self, v: u64) {
        self.0 += varint_len(v);
    }
}

/// Writes `msg`'s body at `base`: its head fields, then its payloads.
fn put_body(msg: &Msg, base: LinkBase, s: &mut impl Sink) {
    for p in put_head(msg, base, s) {
        put_payload(p, s);
    }
}

/// Writes a tuple message's tuple, its seq relative to `base`; returns the
/// payloads that follow.
fn put_head<'m>(msg: &'m Msg, base: LinkBase, s: &mut impl Sink) -> &'m [SummaryPayload] {
    match msg {
        Msg::Tuple { tuple, piggyback } => {
            s.varint(key_stream(tuple));
            s.varint(zigzag(tuple.seq.wrapping_sub(base.seq)));
            piggyback
        }
        Msg::Summary(payloads) => payloads,
    }
}

/// A wrapping difference as an unsigned varint value: small magnitudes of
/// either sign stay small (0, −1, 1, −2, … → 0, 1, 2, 3, …).
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// The bytes [`put_varint`] writes for `v`: one per started 7 bits, at
/// least one.
#[inline]
pub fn varint_len(v: u64) -> usize {
    ((v | 1).ilog2() / 7 + 1) as usize
}

/// Appends `v` as an unsigned LEB128 varint, the shortest: seven bits a
/// byte, low bits first, the high bit set on every byte but the last.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads one varint from the front of `bytes`: its value and the bytes it
/// took.
///
/// # Errors
///
/// [`WireError::Truncated`] when `bytes` end inside it;
/// [`WireError::Invalid`] when it is not the shortest encoding of its
/// value (a last byte of zero after the first) or holds more than 64 bits.
#[inline]
pub fn get_varint(bytes: &[u8]) -> Result<(u64, usize), WireError> {
    // Most varints on the wire are one byte, and a one-byte varint is
    // always minimal.
    if let Some(&b) = bytes.first().filter(|&&b| b < 0x80) {
        return Ok((u64::from(b), 1));
    }
    let mut v = 0;
    for (i, &b) in bytes.iter().enumerate() {
        // The tenth byte holds bit 63 alone, and ends every varint.
        if i == 9 && b > 1 {
            return Err(WireError::Invalid("varint over 64 bits"));
        }
        v |= u64::from(b & 0x7F) << (7 * i);
        if b < 0x80 {
            if b == 0 && i > 0 {
                return Err(WireError::Invalid("varint is not minimal"));
            }
            return Ok((v, i + 1));
        }
    }
    Err(WireError::Truncated)
}

/// A tuple's key and stream as one varint: `key·2 + stream`.
fn key_stream(tuple: &Tuple) -> u64 {
    (u64::from(tuple.key) << 1) | u64::from(stream_bit(tuple.stream))
}

fn stream_bit(stream: StreamId) -> u8 {
    match stream {
        StreamId::R => 0,
        StreamId::S => 1,
    }
}

/// A counter payload's `ptype`: its kind, its stream and `log2` of its
/// counter width in bits 3–4.
fn width_tag(pkind: u8, stream: StreamId, width: usize) -> u8 {
    ((width.trailing_zeros() as u8) << 3) | (pkind << 1) | stream_bit(stream)
}

/// The bytes each counter of a Bloom or sketch payload travels in: the
/// fewest of 1, 2, 4 or 8 that hold every counter it carries, Bloom
/// counters unsigned and sketch counters two's complement (1 for DFT, which
/// has none). Derived, never configured: a window of `W` tuples bounds
/// every counter by `W` in magnitude, so the benchmark's sketches ship 1 or
/// 2 bytes a counter where memory holds 8.
fn counter_width(p: &SummaryPayload) -> usize {
    // The OR of every counter's significant bits, a sketch counter's
    // shifted up one for its sign.
    let bits = match p {
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

fn put_payload(p: &SummaryPayload, s: &mut impl Sink) {
    match p {
        SummaryPayload::Dft {
            stream,
            signal_len,
            exponent,
            updates,
        } => {
            s.byte((PKIND_DFT << 1) | stream_bit(*stream));
            s.varint(u64::from(*signal_len));
            s.varint(updates.len() as u64);
            s.bytes(&exponent.to_le_bytes());
            for u in updates {
                s.varint(u64::from(u.index));
                let ([r0, r1], [m0, m1]) = (u.re.to_le_bytes(), u.im.to_le_bytes());
                s.bytes(&[r0, r1, m0, m1]);
            }
        }
        SummaryPayload::Bloom { stream, filter } => {
            let width = counter_width(p);
            s.byte(width_tag(PKIND_BLOOM, *stream, width));
            s.varint(filter.counters() as u64);
            s.varint(filter.hash_count() as u64);
            s.bytes(&filter.seed().to_le_bytes());
            s.varint(filter.len());
            for &c in filter.counter_values() {
                s.bytes(&c.to_le_bytes()[..width]);
            }
        }
        SummaryPayload::Sketch { stream, sketch } => {
            let width = counter_width(p);
            s.byte(width_tag(PKIND_SKETCH, *stream, width));
            s.varint(sketch.s0() as u64);
            s.varint(sketch.s1() as u64);
            s.bytes(&sketch.seed().to_le_bytes());
            s.varint(sketch.updates());
            for &c in sketch.counter_values() {
                s.bytes(&c.to_le_bytes()[..width]);
            }
        }
    }
}

/// The head at the front of `bytes`: its own length, and the body length
/// and kind it announces.
///
/// # Errors
///
/// [`WireError::Truncated`] while the head is incomplete;
/// [`WireError::FrameTooLarge`] as soon as it announces more than
/// [`MAX_FRAME_BODY`], or runs past [`MAX_PREFIX`] bytes;
/// [`WireError::Invalid`] when it is not minimal.
fn frame_header(bytes: &[u8]) -> Result<(usize, usize, u64), WireError> {
    match get_varint(bytes.get(..MAX_PREFIX).unwrap_or(bytes)) {
        Ok((head, prefix)) if head >> 1 <= MAX_FRAME_BODY as u64 => {
            Ok((prefix, (head >> 1) as usize, head & 1))
        }
        Ok((head, _)) => Err(WireError::FrameTooLarge((head >> 1) as usize)),
        Err(WireError::Truncated) if bytes.len() >= MAX_PREFIX => {
            Err(WireError::FrameTooLarge(LONG_PREFIX_LEN))
        }
        Err(e) => Err(e),
    }
}

/// A whole frame's body ran out before its content did: corruption, not a
/// request for more bytes — the frame's head has been honoured.
const BODY_ENDS: WireError = WireError::Invalid("frame body ends mid-field");

/// Bounds-checked little-endian cursor over a whole frame body. Every
/// getter returns [`BODY_ENDS`] past the end — no indexing, no panics.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(BODY_ENDS)?;
        let slice = self.bytes.get(self.pos..end).ok_or(BODY_ENDS)?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, WireError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let (v, len) = get_varint(rest).map_err(|e| match e {
            WireError::Truncated => BODY_ENDS,
            e => e,
        })?;
        self.pos += len;
        Ok(v)
    }

    /// A varint that must not exceed `max`, or is `Invalid(what)`.
    fn varint_to(&mut self, max: u64, what: &'static str) -> Result<u64, WireError> {
        match self.varint()? {
            v if v <= max => Ok(v),
            _ => Err(WireError::Invalid(what)),
        }
    }

    /// A count or dimension: a varint of at most `u32::MAX`.
    fn count(&mut self, what: &'static str) -> Result<usize, WireError> {
        Ok(self.varint_to(u32::MAX.into(), what)? as usize)
    }

    fn i8(&mut self) -> Result<i8, WireError> {
        Ok(i8::from_le_bytes([self.u8()?]))
    }

    fn i16(&mut self) -> Result<i16, WireError> {
        let b = self.take(2)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// `count` little-endian counters of `width` bytes each, zero-extended.
    fn counters(
        &mut self,
        count: usize,
        width: usize,
    ) -> Result<impl Iterator<Item = u64> + 'a, WireError> {
        let need =
            (count.checked_mul(width)).ok_or(WireError::Invalid("counter count overflows"))?;
        Ok(self.take(need)?.chunks_exact(width).map(|c| {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(b)
        }))
    }
}

fn decode_stream(bit: u8) -> Result<StreamId, WireError> {
    match bit {
        0 => Ok(StreamId::R),
        1 => Ok(StreamId::S),
        _ => Err(WireError::Invalid("stream tag out of range")),
    }
}

fn decode_payload(r: &mut Reader<'_>) -> Result<SummaryPayload, WireError> {
    let ptype = r.u8()?;
    if ptype >> 5 != 0 {
        return Err(WireError::Invalid("payload tag bits 5-7 set"));
    }
    let stream = decode_stream(ptype & 1)?;
    let width = 1 << (ptype >> 3);
    let payload = match (ptype >> 1) & 3 {
        PKIND_DFT => {
            let signal_len = r.count("signal length over u32::MAX")? as u32;
            let count = r.count("coefficient count over u32::MAX")?;
            let exponent = r.i8()?;
            // Allocation stays bounded by the bytes received.
            if r.remaining() / MIN_COEFF_BYTES < count {
                return Err(BODY_ENDS);
            }
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                updates.push(CoeffUpdate {
                    index: r.varint_to(u16::MAX.into(), "coefficient index over u16::MAX")? as u16,
                    re: r.i16()?,
                    im: r.i16()?,
                });
            }
            SummaryPayload::Dft {
                stream,
                signal_len,
                exponent,
                updates,
            }
        }
        PKIND_BLOOM => {
            let m = r.count("bloom counter count over u32::MAX")?;
            let k = r.count("bloom hash count over u32::MAX")?;
            let seed = r.u64()?;
            let items = r.varint()?;
            if m == 0 {
                return Err(WireError::Invalid("bloom filter without counters"));
            }
            if k == 0 || k > MAX_BLOOM_HASHES {
                return Err(WireError::Invalid("bloom hash count out of range"));
            }
            // An 8-byte width is never a `u32`'s narrowest, so the width
            // check below refuses whatever this cast cuts off.
            let counters = r.counters(m, width)?.map(|c| c as u32).collect();
            SummaryPayload::Bloom {
                stream,
                filter: CountingBloomFilter::from_parts(k, seed, counters, items),
            }
        }
        PKIND_SKETCH => {
            let s0 = r.count("sketch dimension over u32::MAX")?;
            let s1 = r.count("sketch dimension over u32::MAX")?;
            let seed = r.u64()?;
            let total_updates = r.varint()?;
            if s0 == 0 || s1 == 0 {
                return Err(WireError::Invalid("sketch dimensions must be positive"));
            }
            let cells = s0
                .checked_mul(s1)
                .ok_or(WireError::Invalid("sketch dimensions overflow"))?;
            // Sign-extends each counter from its `width` bytes.
            let shift = 64 - 8 * width as u32;
            let counters = (r.counters(cells, width)?)
                .map(|c| ((c << shift) as i64) >> shift)
                .collect();
            SummaryPayload::Sketch {
                stream,
                sketch: AgmsSketch::from_parts(s0, s1, seed, counters, total_updates),
            }
        }
        pkind => return Err(WireError::BadPayloadKind(pkind)),
    };
    // One width per payload, the narrowest (none on DFT), keeps decode the
    // inverse of encode.
    if counter_width(&payload) != width {
        return Err(NOT_MINIMAL);
    }
    Ok(payload)
}

/// A payload's width code is not the one its content calls for.
const NOT_MINIMAL: WireError = WireError::Invalid("counter width is not the narrowest");

/// A batch of encoded frames headed for one peer: the append-side wire
/// API used by coalescing transports.
///
/// [`FrameBatch::push`] appends one frame as the link's next and records
/// where it ends, so a vectored writer that stops mid-batch (a partial
/// write, `WouldBlock`) can tell exactly which messages are fully on the
/// wire and which are still owed — the accounting the live harness's
/// in-flight counter needs. The batch holds its link's [`LinkBase`], which
/// [`FrameBatch::clear`] keeps: a batch is one link's encoder, emptied
/// after every flush. The buffers are reused across clears, so
/// steady-state batching allocates nothing.
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: Vec<u8>,
    ends: Vec<usize>,
    link: LinkBase,
}

impl FrameBatch {
    /// Creates an empty batch for a link that has carried no frame.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Appends `msg` as the link's next frame. The body is written once,
    /// behind the one-byte head of any body under 64 bytes; a longer body
    /// moves up in place to make room for its longer head.
    pub fn push(&mut self, msg: &Msg) {
        let start = self.buf.len();
        self.buf.push(0);
        put_body(msg, self.link, &mut self.buf);
        let end = self.buf.len();
        let mut head = head(msg, end - start - 1);
        if head < 0x80 {
            self.buf[start] = head as u8;
        } else {
            let len = varint_len(head);
            self.buf.resize(end + len - 1, 0);
            self.buf.copy_within(start + 1..end, start + len);
            // `put_varint`'s bytes, written in place.
            for b in &mut self.buf[start..start + len] {
                *b = head as u8 | 0x80;
                head >>= 7;
            }
            self.buf[start + len - 1] &= 0x7F;
        }
        self.link.pass(msg);
        self.ends.push(self.buf.len());
    }

    /// The concatenated frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Byte offset (into [`FrameBatch::bytes`]) where each frame ends,
    /// in push order.
    pub fn frame_ends(&self) -> &[usize] {
        &self.ends
    }

    /// How many frames the batch holds.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Empties the batch, keeping both allocations and the link's base.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }
}

/// Incremental frame reassembly over one link's byte stream, delivered in
/// arbitrary chunks (the read side of a TCP connection).
///
/// [`FrameDecoder::feed_decode`] decodes every frame wholly inside a chunk
/// straight out of the caller's bytes. Only a frame split across chunks is
/// staged, and only the bytes it still lacks are copied. The decoder holds
/// the link's [`LinkBase`] and stamps decoded tuples with its sender.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// The bytes received so far of a frame split across chunks; empty
    /// between frames.
    staged: Vec<u8>,
    link: LinkBase,
    sender: u16,
}

impl FrameDecoder {
    /// A decoder that is not told its link's sender: decoded tuples carry
    /// origin 0. For a reader that knows each frame's sender itself, as one
    /// that multiplexes several links through one batch and one decoder
    /// does.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// A decoder for the link from node `sender`, whose id it stamps on
    /// every decoded tuple.
    pub fn for_sender(sender: u16) -> Self {
        FrameDecoder {
            sender,
            ..FrameDecoder::default()
        }
    }

    /// The staged frame's total length, head included, as far as the
    /// staged bytes tell: one byte more than staged until its head is
    /// whole.
    ///
    /// # Errors
    ///
    /// Any of [`frame_header`]'s but [`WireError::Truncated`]: an oversized
    /// or non-minimal head is corruption, not a request for more bytes.
    fn staged_frame_len(&self) -> Result<usize, WireError> {
        match frame_header(&self.staged) {
            Ok((prefix, len, _)) => Ok(prefix + len),
            Err(WireError::Truncated) => Ok(self.staged.len() + 1),
            Err(e) => Err(e),
        }
    }

    /// Streams `bytes` through the decoder, handing every complete message
    /// to `sink` in order. A frame staged by an earlier call is completed
    /// first; a trailing partial frame is staged for the next call.
    ///
    /// `sink` returns `false` to stop consuming (the receiving side is
    /// gone); the decoder then returns `Ok(false)` and drops the rest of
    /// the chunk — the connection is being torn down, so resuming has no
    /// meaning. `Ok(true)` means the whole chunk was consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] but [`WireError::Truncated`] (which only means
    /// "need more bytes") for corrupt content, including a head over
    /// [`MAX_FRAME_BODY`], refused before anything is staged for it.
    /// Errors are fatal: a framed stream has no recovery point, so the
    /// decoder does not resynchronize and callers should drop the
    /// connection.
    pub fn feed_decode(
        &mut self,
        bytes: &[u8],
        sink: &mut dyn FnMut(Msg) -> bool,
    ) -> Result<bool, WireError> {
        let mut rest = bytes;
        while !self.staged.is_empty() {
            let need = self.staged_frame_len()?;
            if self.staged.len() < need {
                if rest.is_empty() {
                    return Ok(true); // chunk exhausted mid-frame
                }
                let take = (need - self.staged.len()).min(rest.len());
                self.staged.extend_from_slice(&rest[..take]);
                rest = &rest[take..];
                continue;
            }
            let (msg, _) = self.link.decode(&self.staged, self.sender)?;
            self.staged.clear();
            if !sink(msg) {
                return Ok(false);
            }
        }
        while !rest.is_empty() {
            match self.link.decode(rest, self.sender) {
                Ok((msg, consumed)) => {
                    rest = &rest[consumed..];
                    if !sink(msg) {
                        return Ok(false);
                    }
                }
                Err(WireError::Truncated) => {
                    self.staged.extend_from_slice(rest);
                    return Ok(true);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sender every sample tuple comes from.
    const SENDER: u16 = 3;

    /// `msg` as the first frame of a link.
    fn encode(msg: &Msg) -> Vec<u8> {
        link_stream(std::slice::from_ref(msg))
    }

    /// `msgs` as one link's byte stream.
    fn link_stream(msgs: &[Msg]) -> Vec<u8> {
        let mut batch = FrameBatch::new();
        for m in msgs {
            batch.push(m);
        }
        batch.bytes().to_vec()
    }

    /// `msg` as `batch`'s link's next frame, alone in the batch.
    fn next_frame<'a>(batch: &'a mut FrameBatch, msg: &Msg) -> &'a [u8] {
        batch.clear();
        batch.push(msg);
        batch.bytes()
    }

    /// The first frame of a link from [`SENDER`].
    fn decode(bytes: &[u8]) -> Result<(Msg, usize), WireError> {
        LinkBase::new().decode(bytes, SENDER)
    }

    /// `msg`'s sizes as the first frame of a link.
    fn sizes_of(msg: &Msg) -> (usize, usize) {
        LinkBase::new().advance(msg)
    }

    fn coeffs(n: usize) -> Vec<CoeffUpdate> {
        (0..n)
            .map(|i| CoeffUpdate {
                index: i as u16,
                re: 2 * i as i16 + 1,
                im: i16::MIN + i as i16,
            })
            .collect()
    }

    fn sample_msgs() -> Vec<Msg> {
        let mut filter = CountingBloomFilter::new(64, 4, 9);
        filter.insert(17);
        filter.insert(99);
        let mut sketch = AgmsSketch::new(10, 2, 5);
        sketch.update(3, 1);
        sketch.update(8, -2);
        vec![
            Msg::Tuple {
                tuple: Tuple::new(StreamId::R, 7, 42, SENDER),
                piggyback: Vec::new(),
            },
            Msg::Tuple {
                tuple: Tuple::new(StreamId::S, u32::MAX, u64::MAX, SENDER),
                piggyback: vec![SummaryPayload::Dft {
                    stream: StreamId::S,
                    signal_len: 1024,
                    exponent: -4,
                    updates: coeffs(3),
                }],
            },
            Msg::Summary(vec![
                SummaryPayload::Dft {
                    stream: StreamId::R,
                    signal_len: 64,
                    exponent: i8::MIN,
                    updates: coeffs(10),
                },
                SummaryPayload::Bloom {
                    stream: StreamId::S,
                    filter: filter.clone(),
                },
                SummaryPayload::Sketch {
                    stream: StreamId::R,
                    sketch: sketch.clone(),
                },
            ]),
            Msg::Summary(Vec::new()),
            Msg::Tuple {
                tuple: Tuple::new(StreamId::R, 7, 40, SENDER),
                piggyback: Vec::new(),
            },
        ]
    }

    /// The tentpole invariant: on a link, the codec writes exactly the
    /// bytes the model charges, for every message class.
    #[test]
    fn encoded_len_matches_the_link_model() {
        let (mut model, mut encoder) = (LinkBase::new(), FrameBatch::new());
        for msg in sample_msgs() {
            let bytes = next_frame(&mut encoder, &msg);
            assert_eq!(bytes.len(), model.advance(&msg).1, "{msg:?}");
        }
    }

    /// A payload's bytes, as the counting sink adds them up.
    fn payload_len(p: &SummaryPayload) -> usize {
        let mut len = Len(0);
        put_payload(p, &mut len);
        len.0
    }

    /// Per-variant size regressions, pinned to arithmetic.
    #[test]
    fn per_variant_sizes() {
        // Bare tuple on a fresh link: 1 head byte + the varints of
        // key·2 + stream and of the zigzagged seq — one byte each below 64,
        // two below 8 192. It is all data.
        for (key, seq, len) in [
            (1, 2, 3),
            (63, 63, 3),
            (64, 64, 5),
            (4_095, 49_999, 6),
            (u32::MAX, u64::MAX, 7),
            (u32::MAX, 1 << 63, 16),
        ] {
            let bare = Msg::Tuple {
                tuple: Tuple::new(StreamId::S, key, seq, SENDER),
                piggyback: Vec::new(),
            };
            assert_eq!(encode(&bare).len(), len, "{bare:?}");
            assert_eq!(sizes_of(&bare), (len, len));
        }
        // On a link, the seq is a difference from the last tuple's: a
        // node's arrivals a few seqs apart, either way, take one byte.
        let mut link = LinkBase::new();
        for (seq, len) in [(1_000_000, 5), (1_000_004, 3), (999_996, 3), (999_996, 3)] {
            let bare = Msg::Tuple {
                tuple: Tuple::new(StreamId::R, 9, seq, SENDER),
                piggyback: Vec::new(),
            };
            assert_eq!(link.advance(&bare), (len, len), "{seq}");
        }

        let dft = |stream, signal_len, updates| SummaryPayload::Dft {
            stream,
            signal_len,
            exponent: 3,
            updates,
        };
        // A coefficient: its index's varint + two i16 mantissas.
        for (index, len) in [(0, 5), (127, 5), (128, 6), (16_383, 6), (16_384, 7)] {
            let u = CoeffUpdate {
                index,
                re: 1,
                im: -1,
            };
            let with = payload_len(&dft(StreamId::R, 8, vec![u]));
            assert_eq!(with - payload_len(&dft(StreamId::R, 8, Vec::new())), len);
        }
        // Dft payload: 1 ptype + 2 (signal_len 512) + 1 (count 7) + 1
        // exponent + 5 per update.
        let dft7 = dft(StreamId::R, 512, coeffs(7));
        assert_eq!(payload_len(&dft7), 5 + 7 * 5);

        // Bloom payload: 1 ptype + 2 (m 256) + 1 (k 4) + 8 seed + 1 (items
        // 9) + 1, 2 or 4 per counter, the narrowest that holds the largest.
        // Its frame has a 2-byte head.
        let bloom = |top: u32| SummaryPayload::Bloom {
            stream: StreamId::S,
            filter: CountingBloomFilter::from_parts(4, 1, [vec![0; 255], vec![top]].concat(), 9),
        };
        for (top, width) in [(0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4)] {
            assert_eq!(payload_len(&bloom(top)), 13 + 256 * width, "{top}");
            assert_eq!(
                encode(&Msg::Summary(vec![bloom(top)])).len(),
                2 + 13 + 256 * width
            );
        }
        let bloom = bloom(300);
        // A fresh 256-counter filter frames in 2 + 13 + 256 one-byte
        // counters (1 KB in memory); 256 items take 2 bytes.
        let mut filter = CountingBloomFilter::new(256, 4, 1);
        let framed = |filter: &CountingBloomFilter| {
            sizes_of(&Msg::Summary(vec![SummaryPayload::Bloom {
                stream: StreamId::R,
                filter: filter.clone(),
            }]))
            .1
        };
        assert_eq!(framed(&filter), 2 + 13 + 256);
        for _ in 0..256 {
            filter.insert(7);
        }
        assert_eq!(framed(&filter), 2 + 14 + 256 * 2);

        // Sketch payload: 1 ptype + 1 (s0) + 1 (s1) + 8 seed + 1 (updates
        // 9) + 1, 2, 4 or 8 per counter, two's complement. The benchmark's
        // 10 × 2 sketch is 12 + 20 = 32 bytes at 1 byte a counter, 52 at 2.
        let sketch = |c: i64| SummaryPayload::Sketch {
            stream: StreamId::R,
            sketch: AgmsSketch::from_parts(10, 2, 1, [vec![0; 19], vec![c]].concat(), 9),
        };
        for (c, width) in [(-128, 1), (127, 1), (128, 2), (-32_769, 4), (1 << 31, 8)] {
            assert_eq!(payload_len(&sketch(c)), 12 + 20 * width, "{c}");
        }
        assert_eq!(payload_len(&sketch(0)), 32);
        assert_eq!(payload_len(&sketch(-129)), 52);
        assert_eq!(encode(&Msg::Summary(vec![sketch(0)])).len(), 33);
        let skch = sketch(i64::MIN);
        assert_eq!(payload_len(&skch), 12 + 20 * 8);
        // A fresh 25 × 5 sketch frames in 2 + 12 + 125 one-byte counters
        // (1 000 B in memory), then two bytes a counter.
        let mut agms = AgmsSketch::new(25, 5, 1);
        let framed = |sketch: &AgmsSketch| {
            sizes_of(&Msg::Summary(vec![SummaryPayload::Sketch {
                stream: StreamId::R,
                sketch: sketch.clone(),
            }]))
            .1
        };
        assert_eq!(framed(&agms), 2 + 12 + 125);
        agms.update(3, 128);
        assert_eq!(framed(&agms), 2 + 12 + 125 * 2);
        assert_eq!(agms.size_bytes(), 125 * 8);

        // Standalone summary: head + payload sum, all overhead.
        let msg = Msg::Summary(vec![dft7.clone(), bloom.clone(), skch.clone()]);
        let body = payload_len(&dft7) + payload_len(&bloom) + payload_len(&skch);
        assert_eq!(sizes_of(&msg), (0, 2 + body));
        assert_eq!(encode(&msg).len(), sizes_of(&msg).1);
        // 1 head byte + the payload's 4-byte header + 10 coefficients.
        let msg = Msg::Summary(vec![dft(StreamId::S, 64, coeffs(10))]);
        assert_eq!(sizes_of(&msg), (0, 1 + 4 + 50));

        // Piggybacked tuple: the bare tuple frame is data, the payloads are
        // overhead, and so is the head byte a long piggyback adds.
        let pig = |stream, signal_len, updates| Msg::Tuple {
            tuple: Tuple::new(stream, 9, 10, SENDER),
            piggyback: vec![dft(stream, signal_len, updates)],
        };
        assert_eq!(
            sizes_of(&pig(StreamId::S, 64, coeffs(7))),
            (3, 3 + 4 + 7 * 5)
        );
        assert_eq!(
            sizes_of(&pig(StreamId::S, 64, coeffs(11))),
            (3, 3 + 4 + 11 * 5)
        );
        assert_eq!(
            sizes_of(&pig(StreamId::S, 64, coeffs(12))),
            (3, 3 + 4 + 12 * 5 + 1)
        );
        // 1 ptype + 2 (signal_len 1 024) + 1 (count) + 1 exponent + 3 × 5.
        assert_eq!(
            sizes_of(&pig(StreamId::R, 1_024, coeffs(3))),
            (3, 3 + 5 + 3 * 5)
        );
        for n in [7, 11, 12] {
            let m = pig(StreamId::S, 64, coeffs(n));
            assert_eq!(encode(&m).len(), sizes_of(&m).1);
        }
    }

    #[test]
    fn round_trip_identity() {
        // Wildcard-free on purpose: a new `Msg` or `SummaryPayload` variant
        // is a compile error here until it has an arm, and a failed
        // assertion below until `sample_msgs` carries one — so no variant
        // ships without going through encode, decode and the link model.
        let mut seen = [false; 5];
        let (mut model, mut decoder) = (LinkBase::new(), LinkBase::new());
        let (mut encoder, mut re_encoder) = (FrameBatch::new(), FrameBatch::new());
        for msg in sample_msgs() {
            let payloads = match &msg {
                Msg::Tuple { piggyback, .. } => {
                    seen[0] = true;
                    piggyback
                }
                Msg::Summary(payloads) => {
                    seen[1] = true;
                    payloads
                }
            };
            for payload in payloads {
                match payload {
                    SummaryPayload::Dft { .. } => seen[2] = true,
                    SummaryPayload::Bloom { .. } => seen[3] = true,
                    SummaryPayload::Sketch { .. } => seen[4] = true,
                }
            }
            let bytes = next_frame(&mut encoder, &msg);
            assert_eq!(bytes.len(), model.advance(&msg).1, "{msg:?}");
            let (back, consumed) = decoder.decode(bytes, SENDER).unwrap();
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, msg);
            // Rehydrated summaries must behave identically, not just
            // compare equal: re-encoding reproduces the exact bytes.
            assert_eq!(next_frame(&mut re_encoder, &back), bytes);
        }
        assert_eq!(seen, [true; 5], "sample_msgs misses a variant");
    }

    #[test]
    fn frames_concatenate() {
        let msgs = sample_msgs();
        let stream = link_stream(&msgs);
        let (mut offset, mut decoder) = (0, LinkBase::new());
        for m in &msgs {
            let (back, consumed) = decoder.decode(&stream[offset..], SENDER).unwrap();
            assert_eq!(&back, m);
            offset += consumed;
        }
        assert_eq!(offset, stream.len());
    }

    #[test]
    fn a_link_sends_seq_deltas_and_stamps_its_sender() {
        // Seqs that repeat, fall, start at 0 and wrap past u64::MAX, each
        // from another origin: the decoder restores every seq and stamps
        // the link's sender.
        let seqs = [0, 0, 5, 3, u64::MAX, 1, 1 << 63, 7];
        let tuple = |seq, origin| Msg::Tuple {
            tuple: Tuple::new(StreamId::S, 11, seq, origin),
            piggyback: Vec::new(),
        };
        let mut batch = FrameBatch::new();
        let mut decoder = FrameDecoder::for_sender(9);
        let mut got = Vec::new();
        for (i, &seq) in seqs.iter().enumerate() {
            batch.push(&tuple(seq, i as u16));
            batch.push(&Msg::Summary(Vec::new()));
            decoder
                .feed_decode(batch.bytes(), &mut |m| {
                    got.push(m);
                    true
                })
                .unwrap();
            batch.clear();
        }
        let want: Vec<Msg> = (seqs.iter())
            .flat_map(|&seq| [tuple(seq, 9), Msg::Summary(Vec::new())])
            .collect();
        assert_eq!(got, want);
        // A fresh link sizes the next tuple from seq 0; this one from 7.
        let next = tuple(8, 0);
        assert_eq!(sizes_of(&next).1, 3);
        let mut fresh = FrameBatch::new();
        fresh.push(&next);
        batch.push(&next);
        assert_ne!(batch.bytes(), fresh.bytes(), "clear kept the base");
        assert_eq!(batch.bytes(), [4, 23, 2]);
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let bytes = encode(&sample_msgs()[2]);
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]).unwrap_err(), WireError::Truncated);
        }
        // The body follows a 2-byte head naming a summary.
        assert_eq!(frame_header(&bytes), Ok((2, bytes.len() - 2, KIND_SUMMARY)));
        // Absurd heads: one past the cap, and one longer than 4 bytes,
        // refused at its fourth byte.
        let mut bad = Vec::new();
        put_varint(&mut bad, (MAX_FRAME_BODY as u64 + 1) << 1);
        assert_eq!(
            decode(&bad).unwrap_err(),
            WireError::FrameTooLarge(MAX_FRAME_BODY + 1)
        );
        assert_eq!(
            decode(&[0xFF; 4]).unwrap_err(),
            WireError::FrameTooLarge(1 << 27)
        );
        // The cap itself is a length, which then wants its body.
        let mut cap = Vec::new();
        put_varint(&mut cap, (MAX_FRAME_BODY as u64) << 1 | 1);
        assert_eq!(frame_header(&cap), Ok((4, MAX_FRAME_BODY, KIND_SUMMARY)));
        assert_eq!(decode(&cap).unwrap_err(), WireError::Truncated);
        // Unknown payload kind inside a summary frame.
        let msg = Msg::Summary(vec![SummaryPayload::Dft {
            stream: StreamId::R,
            signal_len: 8,
            exponent: 0,
            updates: Vec::new(),
        }]);
        let mut bad = encode(&msg);
        bad[1] = 3 << 1;
        assert_eq!(decode(&bad).unwrap_err(), WireError::BadPayloadKind(3));
        // A frame that fails leaves the base where it was.
        let mut link = LinkBase::new();
        assert!(link.decode(&bad, SENDER).is_err());
        assert_eq!(link, LinkBase::new());
    }

    #[test]
    fn feed_decode_reassembles_every_chunking() {
        let msgs = sample_msgs();
        let stream = link_stream(&msgs);
        for chunk_len in [1usize, 2, 3, 5, 7, 16, 64, stream.len()] {
            let mut dec = FrameDecoder::for_sender(SENDER);
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_len) {
                let complete = dec
                    .feed_decode(chunk, &mut |m| {
                        got.push(m);
                        true
                    })
                    .unwrap();
                assert!(complete);
            }
            assert_eq!(got, msgs, "chunk_len {chunk_len}");
            assert!(dec.staged.is_empty());
        }
    }

    #[test]
    fn feed_decode_buffers_only_partial_frames() {
        // A chunk holding two complete frames plus a partial third: the
        // complete ones decode in place, only the tail is staged.
        let msgs = sample_msgs();
        let stream = link_stream(&msgs[..3]);
        let cut = stream.len() - 5;
        let mut dec = FrameDecoder::for_sender(SENDER);
        let mut got = Vec::new();
        assert!(dec
            .feed_decode(&stream[..cut], &mut |m| {
                got.push(m);
                true
            })
            .unwrap());
        assert_eq!(got.len(), 2);
        assert!(!dec.staged.is_empty() && dec.staged.len() < sizes_of(&msgs[2]).1);
        assert!(dec
            .feed_decode(&stream[cut..], &mut |m| {
                got.push(m);
                true
            })
            .unwrap());
        assert_eq!(got, msgs[..3]);
        assert!(dec.staged.is_empty());
    }

    #[test]
    fn feed_decode_sink_abort_stops_consuming() {
        let stream = link_stream(&sample_msgs());
        let mut dec = FrameDecoder::new();
        let mut seen = 0;
        let complete = dec
            .feed_decode(&stream, &mut |_| {
                seen += 1;
                seen < 2
            })
            .unwrap();
        assert!(!complete);
        assert_eq!(seen, 2);
    }

    #[test]
    fn feed_decode_corruption_is_typed_even_mid_stream() {
        let good = encode(&sample_msgs()[0]);
        let mut stream = good.clone();
        // A 1-byte summary body whose payload kind 3 names no summary.
        stream.extend_from_slice(&[3, 3 << 1]);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        // Byte-at-a-time so the corrupt frame completes via the staged path.
        let mut result = Ok(true);
        for b in &stream {
            result = dec.feed_decode(std::slice::from_ref(b), &mut |m| {
                got.push(m);
                true
            });
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err(), WireError::BadPayloadKind(3));
        assert_eq!(got.len(), 1);
        // Oversized staged head is corruption, not a byte request.
        let mut dec = FrameDecoder::new();
        let mut huge = Vec::new();
        put_varint(&mut huge, (MAX_FRAME_BODY as u64 + 1) << 1);
        assert!(dec.feed_decode(&huge[..2], &mut |_| true).unwrap());
        assert_eq!(
            dec.feed_decode(&huge[2..], &mut |_| true).unwrap_err(),
            WireError::FrameTooLarge(MAX_FRAME_BODY + 1)
        );
        assert_eq!(dec.staged.len(), 4);
    }

    #[test]
    fn a_whole_frame_that_ends_mid_field_is_corrupt_not_truncated() {
        // A tuple body holding its key but no seq, and an empty tuple
        // body: the head is honoured, so more bytes cannot help. Both
        // used to read as `Truncated`, and the decoder staged the rest of
        // the stream behind them.
        let good = encode(&sample_msgs()[0]);
        for short in [vec![2, 5], vec![0]] {
            assert_eq!(decode(&short).unwrap_err(), BODY_ENDS);
            let mut stream = short.clone();
            stream.extend_from_slice(&good);
            for chunk_len in [1, stream.len()] {
                let mut dec = FrameDecoder::new();
                let err = stream
                    .chunks(chunk_len)
                    .find_map(|c| dec.feed_decode(c, &mut |_| true).err());
                assert_eq!(err, Some(BODY_ENDS), "{short:?} by {chunk_len}");
            }
        }
    }

    #[test]
    fn frame_batch_tracks_boundaries_and_reuses_buffers() {
        let msgs = sample_msgs();
        let mut batch = FrameBatch::new();
        assert!(batch.is_empty());
        for m in &msgs {
            batch.push(m);
        }
        assert_eq!(batch.len(), msgs.len());
        // Boundaries slice the concatenation back into the exact frames.
        let (mut start, mut model) = (0, LinkBase::new());
        let stream = link_stream(&msgs);
        for (m, &end) in msgs.iter().zip(batch.frame_ends()) {
            assert_eq!(end - start, model.advance(m).1);
            start = end;
        }
        assert_eq!(batch.bytes(), stream);
        let alloc = batch.bytes().as_ptr();
        batch.clear();
        assert!(batch.is_empty() && batch.bytes().is_empty());
        batch.push(&msgs[0]);
        assert_eq!(
            batch.bytes().as_ptr(),
            alloc,
            "clear must keep the allocation"
        );
        // A push's head frames its body exactly, for bodies on both sides
        // of the one- to two-byte head.
        for signal_len in [64, 128, 1 << 14, 1 << 21] {
            for n in 0..40 {
                let m = Msg::Summary(vec![SummaryPayload::Dft {
                    stream: StreamId::R,
                    signal_len,
                    exponent: 0,
                    updates: coeffs(n),
                }]);
                batch.clear();
                batch.push(&m);
                let (back, consumed) = decode(batch.bytes()).unwrap();
                assert_eq!(
                    (back, consumed),
                    (m, batch.bytes().len()),
                    "{signal_len}, {n}"
                );
            }
        }
    }

    #[test]
    fn a_push_moves_a_long_body_up_behind_its_head() {
        // Bloom summaries of one-byte counters whose bodies straddle the
        // one-, two- and three-byte heads, each behind a bare tuple frame:
        // a body of 11 + varint(m) + m bytes for m counters.
        let bloom = |body: usize| {
            let m = (0..body)
                .find(|&m| 11 + varint_len(m as u64) + m == body)
                .unwrap();
            SummaryPayload::Bloom {
                stream: StreamId::S,
                filter: CountingBloomFilter::from_parts(4, 9, vec![1; m], 0),
            }
        };
        let mut msgs = Vec::new();
        let mut want_ends = Vec::new();
        let mut end = 0;
        for (seq, (body, head)) in [(63, 1), (64, 2), (8_191, 2), (8_192, 3)]
            .into_iter()
            .enumerate()
        {
            let payload = bloom(body);
            assert_eq!(payload_len(&payload), body);
            msgs.push(Msg::Tuple {
                tuple: Tuple::new(StreamId::R, 5, seq as u64, SENDER),
                piggyback: Vec::new(),
            });
            end += 3;
            want_ends.push(end);
            msgs.push(Msg::Summary(vec![payload]));
            end += head + body;
            want_ends.push(end);
        }
        let mut batch = FrameBatch::new();
        for m in &msgs {
            batch.push(m);
        }
        assert_eq!(batch.frame_ends(), want_ends);
        assert_eq!(batch.bytes().len(), end);
        for chunk_len in [1, end] {
            let mut dec = FrameDecoder::for_sender(SENDER);
            let mut got = Vec::new();
            for chunk in batch.bytes().chunks(chunk_len) {
                assert!(dec
                    .feed_decode(chunk, &mut |m| {
                        got.push(m);
                        true
                    })
                    .unwrap());
            }
            assert_eq!(got, msgs, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn bloom_filter_survives_the_wire_functionally() {
        let mut filter = CountingBloomFilter::new(128, 3, 42);
        for v in 0..40u64 {
            filter.insert(v * 3);
        }
        let msg = Msg::Summary(vec![SummaryPayload::Bloom {
            stream: StreamId::R,
            filter: filter.clone(),
        }]);
        let (back, _) = decode(&encode(&msg)).unwrap();
        let Msg::Summary(ps) = back else {
            panic!("kind changed in flight")
        };
        let SummaryPayload::Bloom {
            filter: rebuilt, ..
        } = &ps[0]
        else {
            panic!("payload kind changed in flight")
        };
        for v in 0..40u64 {
            assert!(rebuilt.contains(v * 3), "membership lost for {v}");
        }
        assert_eq!(rebuilt.len(), filter.len());
    }

    #[test]
    fn sketch_survives_the_wire_functionally() {
        let mut a = AgmsSketch::new(20, 4, 7);
        let mut b = AgmsSketch::new(20, 4, 7);
        for v in 0..64u64 {
            a.update(v, 1);
            b.update(v, 1);
        }
        let msg = Msg::Summary(vec![SummaryPayload::Sketch {
            stream: StreamId::S,
            sketch: a.clone(),
        }]);
        let (back, _) = decode(&encode(&msg)).unwrap();
        let Msg::Summary(ps) = back else {
            panic!("kind changed in flight")
        };
        let SummaryPayload::Sketch {
            sketch: rebuilt, ..
        } = &ps[0]
        else {
            panic!("payload kind changed in flight")
        };
        // The rebuilt sketch joins against a never-serialized peer exactly
        // as the original does (hash family re-derived from the seed).
        assert_eq!(
            rebuilt.join_size(&b).unwrap(),
            a.join_size(&b).unwrap(),
            "wire transit changed the estimator"
        );
    }
}
