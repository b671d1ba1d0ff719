//! Property tests for the wire codec: round-trip identity on a link,
//! framing under arbitrary chunking, and typed (never panicking) rejection
//! of corrupt or truncated bytes.
//!
//! Messages are built from generated scalars rather than a bespoke `Msg`
//! strategy, so every case renders its raw inputs on failure. Hand-built
//! frames use the codec's own `put_varint` for their heads.

use dsj_core::msg::{CoeffUpdate, Quantiser};
use dsj_core::wire::{self, FrameBatch, FrameDecoder, LinkBase, WireError};
use dsj_core::{Msg, SummaryPayload};
use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use dsj_stream::{StreamId, Tuple};
use proptest::prelude::*;

fn sid(s: bool) -> StreamId {
    if s {
        StreamId::S
    } else {
        StreamId::R
    }
}

/// Deterministically assembles one message from generated scalars.
///
/// `selector` picks the shape; the remaining arguments parameterize it.
/// A DFT payload is what the wire holds, an `i8` exponent and `i16`
/// mantissas, each drawn from its whole range (as `i32`s, since ranges are
/// half-open) and narrowed here.
#[allow(clippy::too_many_arguments)]
fn build_msg(
    selector: u8,
    stream: bool,
    key: u32,
    seq: u64,
    origin: u16,
    (signal_len, exponent): (u32, i32),
    seed: u64,
    k: u32,
    dims: (usize, usize),
    coeffs: &[(u16, i32, i32)],
    counters: &[u32],
) -> Msg {
    let dft = || SummaryPayload::Dft {
        stream: sid(stream),
        signal_len,
        exponent: exponent as i8,
        updates: coeffs
            .iter()
            .map(|&(index, re, im)| CoeffUpdate {
                index,
                re: re as i16,
                im: im as i16,
            })
            .collect(),
    };
    let bloom = || SummaryPayload::Bloom {
        stream: sid(!stream),
        filter: CountingBloomFilter::from_parts(
            k as usize,
            seed,
            counters.to_vec(),
            u64::from(key),
        ),
    };
    let sketch = || {
        let (s0, s1) = dims;
        SummaryPayload::Sketch {
            stream: sid(stream),
            sketch: AgmsSketch::from_parts(
                s0,
                s1,
                seed,
                counters[..s0 * s1]
                    .iter()
                    .map(|&c| i64::from(c as i32))
                    .collect(),
                seq,
            ),
        }
    };
    let tuple = Tuple::new(sid(stream), key, seq, origin);
    match selector % 6 {
        0 => Msg::Tuple {
            tuple,
            piggyback: Vec::new(),
        },
        1 => Msg::Tuple {
            tuple,
            piggyback: vec![dft()],
        },
        2 => Msg::Tuple {
            tuple,
            piggyback: vec![dft(), bloom()],
        },
        3 => Msg::Summary(vec![dft()]),
        4 => Msg::Summary(vec![bloom(), sketch()]),
        _ => Msg::Summary(vec![sketch(), dft(), bloom()]),
    }
}

/// `msg` as the first frame of a link.
fn encode(msg: &Msg) -> Vec<u8> {
    next_frame(&mut FrameBatch::new(), msg).to_vec()
}

/// `msgs` as one link's byte stream, in a batch that holds their frames.
fn link_batch<'a>(msgs: impl IntoIterator<Item = &'a Msg>) -> FrameBatch {
    let mut batch = FrameBatch::new();
    for m in msgs {
        batch.push(m);
    }
    batch
}

/// `msg` as `batch`'s link's next frame, alone in the batch.
fn next_frame<'a>(batch: &'a mut FrameBatch, msg: &Msg) -> &'a [u8] {
    batch.clear();
    batch.push(msg);
    batch.bytes()
}

/// The first frame of a link from node `sender`.
fn decode(bytes: &[u8], sender: u16) -> Result<(Msg, usize), WireError> {
    LinkBase::new().decode(bytes, sender)
}

/// `msg`'s whole frame size as the first frame of a link.
fn frame_len(msg: &Msg) -> usize {
    LinkBase::new().advance(msg).1
}

/// `msg` as it arrives over a link from `sender`: its tuple stamped with
/// the sender, since `origin` does not travel.
fn as_received(msg: &Msg, sender: u16) -> Msg {
    match msg {
        Msg::Tuple { tuple, piggyback } => Msg::Tuple {
            tuple: Tuple::new(tuple.stream, tuple.key, tuple.seq, sender),
            piggyback: piggyback.clone(),
        },
        Msg::Summary(_) => msg.clone(),
    }
}

/// Where a frame's body starts: after its head.
fn body_at(frame: &[u8]) -> usize {
    wire::get_varint(frame).expect("a whole head").1
}

const TUPLE: u64 = 0;
const SUMMARY: u64 = 1;

/// `body` behind the varint head of a frame of `kind`.
fn framed(kind: u64, body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::put_varint(&mut frame, (body.len() as u64) << 1 | kind);
    frame.extend_from_slice(body);
    frame
}

/// The seq a link carries next, from the last one: 0, `u64::MAX`, a
/// repeat, a step of `step` either way (wrapping), or anywhere.
fn next_seq(prev: u64, (how, anywhere, step): (u8, u64, i32)) -> u64 {
    match how % 5 {
        0 => 0,
        1 => u64::MAX,
        2 => prev,
        3 => prev.wrapping_add(i64::from(step) as u64),
        _ => anywhere,
    }
}

/// Whether every DFT coefficient `msg` carries dequantises to a finite
/// value.
fn dft_values_are_finite(msg: &Msg) -> bool {
    let payloads = match msg {
        Msg::Tuple { piggyback, .. } => piggyback,
        Msg::Summary(payloads) => payloads,
    };
    payloads.iter().all(|p| match p {
        SummaryPayload::Dft {
            exponent, updates, ..
        } => updates.iter().all(|&u| {
            let v = Quantiser::at(*exponent).value(u);
            v.re.is_finite() && v.im.is_finite()
        }),
        SummaryPayload::Bloom { .. } | SummaryPayload::Sketch { .. } => true,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn round_trip_is_identity_and_sizes_agree(
        selector in 0u8..6,
        stream in prop::bool::ANY,
        key in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
        origin in 0u16..u16::MAX,
        signal_len in 1u32..(1 << 20),
        exponent in -128i32..128,
        seed in 0u64..u64::MAX,
        k in 1u32..9,
        s0 in 1usize..5,
        s1 in 1usize..7,
        coeffs in prop::collection::vec((0u16..u16::MAX, -32_768i32..32_768, -32_768i32..32_768), 0..9),
        counters in prop::collection::vec(0u32..1 << 30, 24..25),
    ) {
        let msg = build_msg(
            selector, stream, key, seq, origin, (signal_len, exponent), seed, k, (s0, s1),
            &coeffs, &counters,
        );
        let bytes = encode(&msg);
        // Tentpole invariant: the byte model is the codec, exactly.
        prop_assert_eq!(bytes.len(), frame_len(&msg));
        let (decoded, consumed) = decode(&bytes, origin).expect("valid frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &msg);
        // Encoding is canonical: re-encoding the decoded value is
        // byte-identical.
        prop_assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn a_link_round_trips_any_seqs_and_stamps_its_sender(
        steps in prop::collection::vec((0u8..6, (0u8..5, 0u64..u64::MAX, -8i32..9)), 1..24),
        stream in prop::bool::ANY,
        key in 0u32..u32::MAX,
        origin in 0u16..u16::MAX,
        sender in 0u16..u16::MAX,
        signal_len in 1u32..(1 << 20),
        exponent in -128i32..128,
        seed in 0u64..u64::MAX,
        k in 1u32..9,
        s0 in 1usize..5,
        s1 in 1usize..7,
        coeffs in prop::collection::vec((0u16..u16::MAX, -32_768i32..32_768, -32_768i32..32_768), 0..9),
        counters in prop::collection::vec(0u32..1 << 30, 24..25),
        chunk_sizes in prop::collection::vec(1usize..13, 8..64),
    ) {
        // One link's messages, tuples and summaries mixed, whose seqs
        // repeat, fall, hit 0 and u64::MAX and wrap, all from an `origin`
        // the decoder never sees.
        let mut seq = 0;
        let msgs: Vec<Msg> = (steps.iter().enumerate())
            .map(|(i, &(sel, how))| {
                seq = next_seq(seq, how);
                build_msg(
                    sel, stream, key ^ i as u32, seq, origin, (signal_len, exponent), seed, k,
                    (s0, s1), &coeffs, &counters,
                )
            })
            .collect();
        // The sizer, the encoder and a re-encoder each keep their own base.
        let (mut sizer, mut re_encoder) = (LinkBase::new(), FrameBatch::new());
        let encoder = link_batch(&msgs);
        let (link, mut frames, mut start) = (encoder.bytes(), Vec::new(), 0);
        for (m, &end) in msgs.iter().zip(encoder.frame_ends()) {
            prop_assert_eq!(end - start, sizer.advance(m).1);
            frames.push(start..end);
            start = end;
        }
        // Delivered in arbitrary chunks to the link's decoder: every
        // message comes back, stamped with the sender.
        let sizes: Vec<usize> = [1, 2, 3].into_iter().chain(chunk_sizes).collect();
        let mut decoder = FrameDecoder::for_sender(sender);
        let mut decoded = Vec::new();
        let (mut pos, mut i) = (0, 0);
        while pos < link.len() {
            let take = sizes[i % sizes.len()].min(link.len() - pos);
            i += 1;
            let whole = decoder
                .feed_decode(&link[pos..pos + take], &mut |msg| {
                    decoded.push(msg);
                    true
                })
                .expect("uncorrupted link");
            prop_assert!(whole);
            pos += take;
        }
        let want: Vec<Msg> = msgs.iter().map(|m| as_received(m, sender)).collect();
        prop_assert_eq!(&decoded, &want);
        // Every frame re-encodes byte-identical at its own base.
        for (m, frame) in decoded.iter().zip(frames) {
            prop_assert_eq!(next_frame(&mut re_encoder, m), &link[frame]);
        }
    }

    #[test]
    fn one_batch_cleared_after_every_push_and_one_decoder_restore_exact_seqs(
        steps in prop::collection::vec((0u8..6, (0u8..5, 0u64..u64::MAX, -8i32..9)), 1..32),
        key in 0u32..u32::MAX,
        origin in 0u16..u16::MAX,
        signal_len in 1u32..(1 << 20),
        exponent in -128i32..128,
        seed in 0u64..u64::MAX,
        coeffs in prop::collection::vec((0u16..u16::MAX, -32_768i32..32_768, -32_768i32..32_768), 0..9),
        counters in prop::collection::vec(0u32..1 << 30, 24..25),
    ) {
        // How a reader that multiplexes several links through one batch
        // and one decoder sees them: each frame flushed on its own, the
        // batch cleared behind it, every seq restored exactly.
        let mut seq = 0;
        let mut batch = FrameBatch::new();
        let mut decoder = FrameDecoder::new();
        for (i, &(sel, how)) in steps.iter().enumerate() {
            seq = next_seq(seq, how);
            let msg = build_msg(
                sel, i % 2 == 0, key ^ i as u32, seq, origin, (signal_len, exponent), seed, 3,
                (2, 3), &coeffs, &counters,
            );
            batch.push(&msg);
            let mut decoded = Vec::new();
            decoder
                .feed_decode(batch.bytes(), &mut |m| {
                    decoded.push(m);
                    true
                })
                .expect("uncorrupted frame");
            prop_assert_eq!(decoded, vec![as_received(&msg, 0)]);
            batch.clear();
        }
    }

    #[test]
    fn framing_survives_arbitrary_chunked_delivery(
        selectors in prop::collection::vec(0u8..6, 1..5),
        stream in prop::bool::ANY,
        key in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
        origin in 0u16..u16::MAX,
        signal_len in 1u32..(1 << 20),
        exponent in -128i32..128,
        seed in 0u64..u64::MAX,
        k in 1u32..9,
        s0 in 1usize..5,
        s1 in 1usize..7,
        coeffs in prop::collection::vec((0u16..u16::MAX, -32_768i32..32_768, -32_768i32..32_768), 0..9),
        counters in prop::collection::vec(0u32..1 << 30, 24..25),
        chunk_sizes in prop::collection::vec(1usize..13, 8..64),
        tail_selector in 0u8..6,
    ) {
        let msgs: Vec<Msg> = selectors
            .iter()
            .enumerate()
            .map(|(i, &sel)| build_msg(
                sel, stream, key ^ i as u32, seq, origin, (signal_len, exponent), seed, k,
                (s0, s1), &coeffs, &counters,
            ))
            .collect();
        let mut encoder = link_batch(&msgs);
        let stream_bytes = encoder.bytes().to_vec();
        // Split the byte stream at arbitrary boundaries (cycling through
        // 1, 2, 3 — splits inside a length prefix — and the generated chunk
        // sizes) and feed the pieces one at a time.
        let sizes: Vec<usize> = [1, 2, 3].into_iter().chain(chunk_sizes).collect();
        let mut decoder = FrameDecoder::for_sender(origin);
        let mut decoded = Vec::new();
        let mut pos = 0;
        let mut i = 0;
        while pos < stream_bytes.len() {
            let take = sizes[i % sizes.len()].min(stream_bytes.len() - pos);
            i += 1;
            let whole = decoder
                .feed_decode(&stream_bytes[pos..pos + take], &mut |msg| {
                    decoded.push(msg);
                    true
                })
                .expect("uncorrupted stream");
            prop_assert!(whole);
            pos += take;
        }
        prop_assert_eq!(&decoded, &msgs);
        // Nothing stayed staged: one more frame comes out alone.
        let tail = build_msg(
            tail_selector, stream, key, seq, origin, (signal_len, exponent), seed, k, (s0, s1),
            &coeffs, &counters,
        );
        decoded.clear();
        decoder
            .feed_decode(next_frame(&mut encoder, &tail), &mut |msg| {
                decoded.push(msg);
                true
            })
            .expect("uncorrupted frame");
        prop_assert_eq!(decoded, vec![tail]);
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        selector in 0u8..6,
        stream in prop::bool::ANY,
        key in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
        origin in 0u16..u16::MAX,
        signal_len in 1u32..(1 << 20),
        exponent in -128i32..128,
        seed in 0u64..u64::MAX,
        k in 1u32..9,
        s0 in 1usize..5,
        s1 in 1usize..7,
        coeffs in prop::collection::vec((0u16..u16::MAX, -32_768i32..32_768, -32_768i32..32_768), 0..9),
        counters in prop::collection::vec(0u32..1 << 30, 24..25),
        cut_at in 0usize..4096,
    ) {
        let msg = build_msg(
            selector, stream, key, seq, origin, (signal_len, exponent), seed, k, (s0, s1),
            &coeffs, &counters,
        );
        let bytes = encode(&msg);
        let cut = cut_at % bytes.len();
        // Any strict prefix decodes to Truncated — never to a wrong
        // message, never to a panic.
        prop_assert_eq!(decode(&bytes[..cut], origin).unwrap_err(), WireError::Truncated);
        // A FrameDecoder fed the prefix reports "need more bytes", and the
        // rest of the frame completes it.
        let mut decoder = FrameDecoder::for_sender(origin);
        let mut decoded = Vec::new();
        let mut sink = |m: Msg| {
            decoded.push(m);
            true
        };
        let whole = decoder.feed_decode(&bytes[..cut], &mut sink);
        prop_assert!(whole.expect("truncation is not fatal"));
        prop_assert!(decoder.feed_decode(&bytes[cut..], &mut sink).expect("valid frame"));
        prop_assert_eq!(decoded, vec![msg]);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_successes_are_canonical(
        noise in prop::collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        // Whatever the bytes, decoding returns — typed error or message.
        if let Ok((msg, consumed)) = decode(&bytes, 0) {
            // Decode is the inverse of a canonical encoding: any accepted
            // frame re-encodes to exactly the consumed bytes.
            prop_assert_eq!(encode(&msg), &bytes[..consumed]);
            prop_assert!(dft_values_are_finite(&msg));
        }
        // Through the incremental decoder, fed a byte at a time (every
        // frame staged) and all at once (every frame decoded in place): the
        // same messages, then the same verdict.
        let feed = |chunk_len: usize| {
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            let mut verdict = Ok(true);
            for chunk in bytes.chunks(chunk_len.max(1)) {
                verdict = decoder.feed_decode(chunk, &mut |m| {
                    decoded.push(m);
                    true
                });
                if verdict.is_err() {
                    break; // fatal corruption ends the stream, not a panic
                }
            }
            (decoded, verdict)
        };
        let (one_at_a_time, verdict) = feed(1);
        prop_assert_ne!(verdict, Err(WireError::Truncated));
        // What a link accepts re-encodes, frame by frame at the link's
        // base, to exactly the bytes it consumed.
        let again = link_batch(&one_at_a_time);
        let again = again.bytes();
        prop_assert_eq!(again, &bytes[..again.len()]);
        prop_assert_eq!((one_at_a_time, verdict), feed(bytes.len()));
    }

    #[test]
    fn a_corrupted_link_stream_is_typed_never_a_panic(
        steps in prop::collection::vec((0u8..6, (0u8..5, 0u64..u64::MAX, -8i32..9)), 1..8),
        key in 0u32..u32::MAX,
        coeffs in prop::collection::vec((0u16..u16::MAX, -32_768i32..32_768, -32_768i32..32_768), 0..9),
        counters in prop::collection::vec(0u32..1 << 30, 24..25),
        at in 0usize..4096,
        flip in 1u16..256,
    ) {
        let mut seq = 0;
        let mut encoder = FrameBatch::new();
        for (i, &(sel, how)) in steps.iter().enumerate() {
            seq = next_seq(seq, how);
            let msg = build_msg(
                sel, i % 2 == 1, key, seq, 1, (64, 0), 7, 2, (2, 2), &coeffs, &counters,
            );
            encoder.push(&msg);
        }
        let mut link = encoder.bytes().to_vec();
        let at = at % link.len();
        link[at] ^= flip as u8;
        // Byte at a time and all at once: the same messages, then the same
        // verdict, and never a request for bytes the stream will not send.
        let feed = |chunk_len: usize| {
            let mut decoder = FrameDecoder::for_sender(1);
            let mut decoded = Vec::new();
            let mut verdict = Ok(true);
            for chunk in link.chunks(chunk_len) {
                verdict = decoder.feed_decode(chunk, &mut |m| {
                    decoded.push(m);
                    true
                });
                if verdict.is_err() {
                    break;
                }
            }
            (decoded, verdict)
        };
        let (one_at_a_time, verdict) = feed(1);
        prop_assert!(one_at_a_time.iter().all(dft_values_are_finite));
        prop_assert_eq!((one_at_a_time, verdict), feed(link.len()));
    }

    #[test]
    fn every_coefficient_byte_pattern_decodes_to_finite_values(
        stream in prop::bool::ANY,
        signal_len in 1u32..(1 << 20),
        noise in prop::collection::vec(0u16..256, 1..98),
    ) {
        // A DFT summary whose exponent and mantissa bytes are noise: every
        // pattern is a payload, and its values are finite. Each coefficient
        // is a 1-byte index varint (0) and 4 mantissa bytes.
        let count = (noise.len() - 1) / 4;
        let msg = Msg::Summary(vec![SummaryPayload::Dft {
            stream: sid(stream),
            signal_len,
            exponent: 0,
            updates: vec![CoeffUpdate { index: 0, re: 0, im: 0 }; count],
        }]);
        let mut bytes = encode(&msg);
        let exponent_at = bytes.len() - (1 + 5 * count);
        let noisy = (exponent_at..bytes.len()).filter(|i| (i - exponent_at) % 5 != 1);
        for (i, &n) in noisy.zip(&noise) {
            bytes[i] = n as u8;
        }
        let (decoded, _) = decode(&bytes, 0).expect("any exponent and mantissas decode");
        prop_assert!(dft_values_are_finite(&decoded), "{:?}", decoded);
        prop_assert_eq!(encode(&decoded), bytes);
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation(
        claimed in ((1u64 << 24) + 1)..(u64::MAX >> 1),
        kind in 0u64..2,
    ) {
        // A head announcing a body over MAX_FRAME_BODY is rejected from the
        // head alone — decode never trusts it enough to allocate. A head of
        // 5 bytes or more announces at least 2^27 and is refused at its
        // fourth.
        let mut bytes = Vec::new();
        wire::put_varint(&mut bytes, claimed << 1 | kind);
        bytes.extend_from_slice(&[0u8; 8]);
        let refused = WireError::FrameTooLarge(claimed.min(1 << 27) as usize);
        prop_assert_eq!(decode(&bytes, 0).unwrap_err(), refused);
        // The decoder refuses it as soon as the prefix tells it so, at its
        // fourth byte, whether the prefix arrives at once or split across
        // reads.
        for chunk_len in [1, 2, 3, bytes.len()] {
            let mut decoder = FrameDecoder::new();
            let err = bytes
                .chunks(chunk_len)
                .find_map(|c| decoder.feed_decode(c, &mut |_| true).err());
            prop_assert_eq!(err, Some(refused));
        }
        let mut decoder = FrameDecoder::new();
        prop_assert_eq!(decoder.feed_decode(&bytes[..3], &mut |_| true), Ok(true));
        prop_assert_eq!(decoder.feed_decode(&bytes[3..4], &mut |_| true), Err(refused));
    }
}

/// Edge values of every counter width: each signed width's extremes and
/// one past them, and every unsigned width's maximum and one past it.
const SKETCH_EDGES: [i64; 15] = [
    0,
    127,
    -128,
    128,
    -129,
    32_767,
    -32_768,
    32_768,
    -32_769,
    i32::MAX as i64,
    i32::MIN as i64,
    i32::MAX as i64 + 1,
    i32::MIN as i64 - 1,
    i64::MIN,
    i64::MAX,
];
const BLOOM_EDGES: [u32; 6] = [0, 255, 256, 65_535, 65_536, u32::MAX];

/// The narrowest of 1, 2, 4 and 8 bytes whose two's complement range
/// holds every one of `counters`, found by trying each.
fn narrowest_signed(counters: &[i64]) -> usize {
    let fits = |w: usize, c: i64| {
        let half = 1i128 << (8 * w - 1);
        (-half..half).contains(&i128::from(c))
    };
    [1, 2, 4, 8]
        .into_iter()
        .find(|&w| counters.iter().all(|&c| fits(w, c)))
        .unwrap()
}

/// The narrowest of 1, 2 and 4 bytes that holds every one of `counters`.
fn narrowest_unsigned(counters: &[u32]) -> usize {
    [1, 2, 4]
        .into_iter()
        .find(|&w| counters.iter().all(|&c| u64::from(c) < 1 << (8 * w)))
        .unwrap()
}

/// One summary frame around hand-built `payload` bytes.
fn summary_frame(payload: &[u8]) -> Vec<u8> {
    framed(SUMMARY, payload)
}

/// A payload of kind `pkind` (2 sketch, 1 Bloom; stream R) holding
/// `counters` as `s0 × 1` or `m` counters with `k = 1`, each written in its
/// low `width` bytes under width code `code`.
fn counter_payload(pkind: u8, code: u8, width: usize, counters: &[i64]) -> Vec<u8> {
    let mut p = vec![(code << 3) | (pkind << 1)];
    wire::put_varint(&mut p, counters.len() as u64);
    wire::put_varint(&mut p, 1);
    p.extend_from_slice(&[0u8; 8]); // seed
    wire::put_varint(&mut p, 0); // updates or items
    for &c in counters {
        p.extend_from_slice(&c.to_le_bytes()[..width]);
    }
    p
}

/// Checks that `payload` encodes alone at `width` bytes a counter: the
/// body is `12 + count · width` bytes (`ptype`, a 1-byte varint for each
/// of its dimensions and its item or update count, and the 8-byte seed),
/// the link model says so,
/// `ptype` carries `log2(width)` in bits 3–4, and the frame decodes back to
/// it.
fn assert_encoded_width(payload: SummaryPayload, count: usize, width: usize) {
    let msg = Msg::Summary(vec![payload]);
    let bytes = encode(&msg);
    let body = 12 + count * width;
    assert_eq!(
        bytes.len(),
        wire::varint_len((body as u64) << 1) + body,
        "{msg:?}"
    );
    assert_eq!(bytes.len(), frame_len(&msg));
    let ptype = bytes[body_at(&bytes)];
    assert_eq!(usize::from(ptype >> 3), width.trailing_zeros() as usize);
    assert_eq!(decode(&bytes, 0), Ok((msg, bytes.len())));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counters_travel_at_the_narrowest_width(
        sketch_picks in prop::collection::vec((0usize..15, -3i64..4), 1..25),
        bloom_picks in prop::collection::vec((0usize..6, 0u32..4), 1..25),
    ) {
        // Each counter an edge value nudged by a few either way (saturating
        // at the type's ends), so every width and both sides of every edge
        // turn up.
        let counters: Vec<i64> = (sketch_picks.iter())
            .map(|&(i, d)| SKETCH_EDGES[i].saturating_add(d))
            .collect();
        let sketch = SummaryPayload::Sketch {
            stream: StreamId::S,
            sketch: AgmsSketch::from_parts(counters.len(), 1, 11, counters.clone(), 5),
        };
        assert_encoded_width(sketch, counters.len(), narrowest_signed(&counters));

        let counters: Vec<u32> = (bloom_picks.iter())
            .map(|&(i, d)| BLOOM_EDGES[i].saturating_sub(d))
            .collect();
        let bloom = SummaryPayload::Bloom {
            stream: StreamId::R,
            filter: CountingBloomFilter::from_parts(3, 11, counters.clone(), 5),
        };
        assert_encoded_width(bloom, counters.len(), narrowest_unsigned(&counters));
    }

}

#[test]
fn every_width_edge_round_trips_alone() {
    for &c in &SKETCH_EDGES {
        let sketch = SummaryPayload::Sketch {
            stream: StreamId::R,
            sketch: AgmsSketch::from_parts(1, 1, 3, vec![c], 1),
        };
        assert_encoded_width(sketch, 1, narrowest_signed(&[c]));
    }
    for &c in &BLOOM_EDGES {
        let bloom = SummaryPayload::Bloom {
            stream: StreamId::S,
            filter: CountingBloomFilter::from_parts(2, 3, vec![c], 1),
        };
        assert_encoded_width(bloom, 1, narrowest_unsigned(&[c]));
    }
}

#[test]
fn a_wider_than_minimal_width_is_invalid() {
    let decode = |pkind, code, width, counters: &[i64]| {
        decode(
            &summary_frame(&counter_payload(pkind, code, width, counters)),
            0,
        )
    };
    // Each written at its own width decodes; one width wider does not. A
    // Bloom counter is a `u32`, so 8 bytes is never its narrowest.
    for (pkind, counters, code) in [
        (2, vec![0i64, -128, 127], 0u8),
        (2, vec![128, 5], 1),
        (2, vec![1 << 20], 2),
        (1, vec![0, 255], 0),
        (1, vec![256], 1),
        (1, vec![i64::from(u32::MAX)], 2),
    ] {
        let width = 1 << code;
        assert!(
            decode(pkind, code, width, &counters).is_ok(),
            "{counters:?}"
        );
        assert!(
            matches!(
                decode(pkind, code + 1, 2 * width, &counters),
                Err(WireError::Invalid(_))
            ),
            "{counters:?}"
        );
    }
}

#[test]
fn width_codes_on_dft_and_high_tag_bits_are_invalid() {
    let dft = |count: usize| SummaryPayload::Dft {
        stream: StreamId::S,
        signal_len: 64,
        exponent: -2,
        updates: vec![
            CoeffUpdate {
                index: 1,
                re: 3,
                im: -4
            };
            count
        ],
    };
    let sketch = SummaryPayload::Sketch {
        stream: StreamId::R,
        sketch: AgmsSketch::from_parts(2, 1, 3, vec![1, -1], 2),
    };
    let bloom = SummaryPayload::Bloom {
        stream: StreamId::R,
        filter: CountingBloomFilter::from_parts(2, 3, vec![0, 4], 2),
    };
    // A DFT payload carries no width, so codes 1–3 in bits 3–4 are invalid
    // on it; bits 5–7 of `ptype` are zero on every payload. Each payload is
    // followed by 4 KB of another, so a width read from high bits would
    // find the bytes it asks for.
    for (first, codes) in [(dft(1), 1u8..4), (sketch, 0..0), (bloom, 0..0)] {
        let msg = Msg::Summary(vec![first, dft(700)]);
        for set in codes.map(|c| c << 3).chain([1 << 5, 1 << 6, 1 << 7]) {
            let mut bytes = encode(&msg);
            let ptype = body_at(&bytes);
            bytes[ptype] |= set;
            assert!(
                matches!(decode(&bytes, 0), Err(WireError::Invalid(_))),
                "{set:#b} on {msg:?}"
            );
        }
    }
}

/// The varint edges: the largest and smallest value of each length, and
/// the widest values the codec writes.
const VARINT_EDGES: [(u64, usize); 8] = [
    (0, 1),
    (127, 1),
    (128, 2),
    (16_383, 2),
    (16_384, 3),
    (1 << 21, 4),
    (u32::MAX as u64, 5),
    (u64::MAX, 10),
];

#[test]
fn varint_edges_round_trip_and_every_cut_is_truncated() {
    for (v, len) in VARINT_EDGES {
        let mut bytes = Vec::new();
        wire::put_varint(&mut bytes, v);
        assert_eq!((bytes.len(), wire::varint_len(v)), (len, len), "{v}");
        assert_eq!(wire::get_varint(&bytes), Ok((v, len)));
        // Trailing bytes are the next field's.
        bytes.push(0x7F);
        assert_eq!(wire::get_varint(&bytes), Ok((v, len)));
        for cut in 0..len {
            assert_eq!(wire::get_varint(&bytes[..cut]), Err(WireError::Truncated));
        }
    }
    // Past 64 bits: a tenth byte above 1, or an eleventh byte.
    let mut over = vec![0xFF; 9];
    over.push(0x02);
    assert!(matches!(
        wire::get_varint(&over),
        Err(WireError::Invalid(_))
    ));
    assert!(matches!(
        wire::get_varint(&[0x80; 11]),
        Err(WireError::Invalid(_))
    ));
}

#[test]
fn varint_edges_round_trip_in_every_field() {
    let coeff = |index| CoeffUpdate {
        index,
        re: -3,
        im: 7,
    };
    for (v, _) in VARINT_EDGES {
        let u16_edge = v.min(u16::MAX.into()) as u16;
        // Every seq edge also as a difference from the link's last one:
        // an encoder, a sizer and a decoder, each past one tuple.
        let last = Msg::Tuple {
            tuple: Tuple::new(StreamId::R, 1, v / 2, u16_edge),
            piggyback: Vec::new(),
        };
        let [mut sizer, mut decoder] = [LinkBase::new(); 2];
        for base in [&mut sizer, &mut decoder] {
            base.advance(&last);
        }
        let mut encoder = link_batch([&last]);
        let u32_edge = v.min(u32::MAX.into()) as u32;
        let count = v.min(16_384) as usize;
        let msgs = [
            Msg::Tuple {
                tuple: Tuple::new(sid(v & 1 == 1), (v >> 1) as u32, v, u16_edge),
                piggyback: vec![SummaryPayload::Dft {
                    stream: StreamId::S,
                    signal_len: u32_edge,
                    exponent: 1,
                    updates: (0..count).map(|_| coeff(u16_edge)).collect(),
                }],
            },
            Msg::Summary(vec![
                SummaryPayload::Bloom {
                    stream: StreamId::R,
                    filter: CountingBloomFilter::from_parts(3, v, vec![1; count.max(1)], v),
                },
                SummaryPayload::Sketch {
                    stream: StreamId::S,
                    sketch: AgmsSketch::from_parts(count.max(1), 1, v, vec![-1; count.max(1)], v),
                },
            ]),
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), frame_len(&msg), "{v}");
            assert_eq!(
                decode(&bytes, u16_edge),
                Ok((msg.clone(), bytes.len())),
                "{v}"
            );
            let on_link = next_frame(&mut encoder, &msg);
            assert_eq!(on_link.len(), sizer.advance(&msg).1, "{v}");
            assert_eq!(
                decoder.decode(on_link, u16_edge),
                Ok((msg, on_link.len())),
                "{v}"
            );
        }
    }
}

/// One field of a hand-built frame body.
enum Field {
    Var(u64),
    Raw(Vec<u8>),
}

/// `fields` as a frame body, every varint minimal but the `pad`-th, which
/// is written one byte longer (its last byte continued into a zero byte).
fn body_of(fields: &[Field], pad: Option<usize>) -> Vec<u8> {
    let mut body = Vec::new();
    let mut var_i = 0;
    for f in fields {
        match f {
            Field::Raw(raw) => body.extend_from_slice(raw),
            Field::Var(v) => {
                wire::put_varint(&mut body, *v);
                if pad == Some(var_i) {
                    *body.last_mut().unwrap() |= 0x80;
                    body.push(0);
                }
                var_i += 1;
            }
        }
    }
    body
}

/// A tuple with a DFT piggyback, and a Bloom and a sketch summary, field by
/// field in the version-5 layout as a link's first frames, beside the
/// messages they encode and their kinds.
fn field_frames() -> Vec<(Msg, u64, Vec<Field>)> {
    use Field::{Raw, Var};
    let tuple = Msg::Tuple {
        tuple: Tuple::new(StreamId::S, 300, 70_000, 9),
        piggyback: vec![SummaryPayload::Dft {
            stream: StreamId::R,
            signal_len: 4_096,
            exponent: -3,
            updates: vec![CoeffUpdate {
                index: 200,
                re: 1,
                im: -2,
            }],
        }],
    };
    let tuple_fields = vec![
        Var(601),
        Var(140_000),
        Raw(vec![0]),
        Var(4_096),
        Var(1),
        Raw(vec![0xFD]),
        Var(200),
        Raw(vec![1, 0, 0xFE, 0xFF]),
    ];
    let summary = Msg::Summary(vec![
        SummaryPayload::Bloom {
            stream: StreamId::S,
            filter: CountingBloomFilter::from_parts(3, 5, vec![2, 0, 1], 130),
        },
        SummaryPayload::Sketch {
            stream: StreamId::R,
            sketch: AgmsSketch::from_parts(2, 1, 6, vec![-1, 1], 200),
        },
    ]);
    let summary_fields = vec![
        Raw(vec![(1 << 1) | 1]),
        Var(3),
        Var(3),
        Raw(5u64.to_le_bytes().to_vec()),
        Var(130),
        Raw(vec![2, 0, 1, 2 << 1]),
        Var(2),
        Var(1),
        Raw(6u64.to_le_bytes().to_vec()),
        Var(200),
        Raw(vec![0xFF, 1]),
    ];
    vec![
        (tuple, TUPLE, tuple_fields),
        (summary, SUMMARY, summary_fields),
    ]
}

#[test]
fn a_non_minimal_varint_is_invalid_in_every_field() {
    for (msg, kind, fields) in field_frames() {
        // The hand-built layout is the codec's.
        let minimal = framed(kind, &body_of(&fields, None));
        assert_eq!(minimal, encode(&msg));
        let vars = fields.iter().filter(|f| matches!(f, Field::Var(_))).count();
        for pad in 0..vars {
            let frame = framed(kind, &body_of(&fields, Some(pad)));
            assert!(
                matches!(decode(&frame, 9), Err(WireError::Invalid(_))),
                "varint {pad} of {msg:?}"
            );
            let mut decoder = FrameDecoder::new();
            assert!(matches!(
                decoder.feed_decode(&frame, &mut |_| true),
                Err(WireError::Invalid(_))
            ));
        }
        // The head too, one byte longer.
        let body = body_of(&fields, None);
        let mut prefix = Vec::new();
        wire::put_varint(&mut prefix, (body.len() as u64) << 1 | kind);
        *prefix.last_mut().unwrap() |= 0x80;
        prefix.push(0);
        let frame = [prefix, body].concat();
        assert!(matches!(decode(&frame, 9), Err(WireError::Invalid(_))));
        for chunk_len in [1, frame.len()] {
            let mut decoder = FrameDecoder::new();
            let err =
                (frame.chunks(chunk_len)).find_map(|c| decoder.feed_decode(c, &mut |_| true).err());
            assert!(matches!(err, Some(WireError::Invalid(_))), "{chunk_len}");
        }
    }
}

#[test]
fn a_field_over_its_type_is_invalid() {
    use Field::{Raw, Var};
    let tuple = |key_stream, seq| (TUPLE, vec![Var(key_stream), seq]);
    let dft = |signal_len, index| {
        (
            SUMMARY,
            vec![
                Raw(vec![0]),
                Var(signal_len),
                Var(1),
                Raw(vec![0]),
                Var(index),
                Raw(vec![0; 4]),
            ],
        )
    };
    let over_64_bits = Raw([vec![0xFF; 9], vec![0x02]].concat());
    for (kind, fields) in [
        // A key above u32::MAX, on either stream.
        tuple(1 << 33, Var(1)),
        tuple((1 << 33) | 1, Var(1)),
        tuple(2, over_64_bits),
        dft(1 << 32, 0),
        dft(64, 1 << 16),
    ] {
        let frame = framed(kind, &body_of(&fields, None));
        assert!(
            matches!(decode(&frame, 0), Err(WireError::Invalid(_))),
            "{frame:?}"
        );
    }
    // One below each bound decodes.
    for (kind, fields) in [
        tuple((u64::from(u32::MAX) << 1) | 1, Var(u64::MAX)),
        dft(u32::MAX.into(), u16::MAX.into()),
    ] {
        assert!(decode(&framed(kind, &body_of(&fields, None)), 0).is_ok());
    }
}
