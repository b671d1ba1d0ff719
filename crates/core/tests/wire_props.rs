//! Property tests for the wire codec: round-trip identity, framing under
//! arbitrary chunking, and typed (never panicking) rejection of corrupt
//! or truncated bytes.
//!
//! Messages are built from generated scalars rather than a bespoke `Msg`
//! strategy, so every case renders its raw inputs on failure. Hand-built
//! frames use the codec's own `put_varint` for their length prefixes.

use dsj_core::msg::{CoeffUpdate, Quantiser};
use dsj_core::wire::{self, FrameDecoder, WireError, VERSION};
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

/// Where a frame's version/kind byte sits: after its length prefix.
fn tag_at(frame: &[u8]) -> usize {
    wire::get_varint(frame).expect("a whole prefix").1
}

/// `body` behind its varint length prefix.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    wire::put_varint(&mut frame, body.len() as u64);
    frame.extend_from_slice(body);
    frame
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
        let bytes = wire::encode(&msg);
        // Tentpole invariant: the byte model is the codec, exactly.
        prop_assert_eq!(bytes.len(), msg.wire_bytes());
        let (decoded, consumed) = wire::decode(&bytes).expect("valid frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &msg);
        // Encoding is canonical: re-encoding the decoded value is
        // byte-identical.
        prop_assert_eq!(wire::encode(&decoded), bytes);
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
        let mut stream_bytes = Vec::new();
        for m in &msgs {
            wire::encode_into(m, &mut stream_bytes);
        }
        // Split the byte stream at arbitrary boundaries (cycling through
        // 1, 2, 3 — splits inside a length prefix — and the generated chunk
        // sizes) and feed the pieces one at a time.
        let sizes: Vec<usize> = [1, 2, 3].into_iter().chain(chunk_sizes).collect();
        let mut decoder = FrameDecoder::new();
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
            .feed_decode(&wire::encode(&tail), &mut |msg| {
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
        let bytes = wire::encode(&msg);
        let cut = cut_at % bytes.len();
        // Any strict prefix decodes to Truncated — never to a wrong
        // message, never to a panic.
        prop_assert_eq!(wire::decode(&bytes[..cut]).unwrap_err(), WireError::Truncated);
        // A FrameDecoder fed the prefix reports "need more bytes", and the
        // rest of the frame completes it.
        let mut decoder = FrameDecoder::new();
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
    fn corrupted_version_or_kind_is_rejected(
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
        bad_version in 0u8..16,
        bad_kind in 2u8..16,
    ) {
        prop_assume!(bad_version != VERSION);
        let msg = build_msg(
            selector, stream, key, seq, origin, (signal_len, exponent), seed, k, (s0, s1),
            &coeffs, &counters,
        );
        let mut bytes = wire::encode(&msg);
        let at = tag_at(&bytes);
        let original_tag = bytes[at];
        // Wrong version nibble: typed BadVersion carrying the stranger.
        bytes[at] = (bad_version << 4) | (original_tag & 0x0F);
        prop_assert_eq!(
            wire::decode(&bytes).unwrap_err(),
            WireError::BadVersion(bad_version)
        );
        // Right version, unknown kind nibble: typed BadKind.
        bytes[at] = (VERSION << 4) | bad_kind;
        prop_assert_eq!(wire::decode(&bytes).unwrap_err(), WireError::BadKind(bad_kind));
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_successes_are_canonical(
        noise in prop::collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        // Whatever the bytes, decoding returns — typed error or message.
        if let Ok((msg, consumed)) = wire::decode(&bytes) {
            // Decode is the inverse of a canonical encoding: any accepted
            // frame re-encodes to exactly the consumed bytes.
            prop_assert_eq!(wire::encode(&msg), &bytes[..consumed]);
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
        prop_assert_eq!((one_at_a_time, verdict), feed(bytes.len()));
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
        let mut bytes = wire::encode(&msg);
        let exponent_at = bytes.len() - (1 + 5 * count);
        let noisy = (exponent_at..bytes.len()).filter(|i| (i - exponent_at) % 5 != 1);
        for (i, &n) in noisy.zip(&noise) {
            bytes[i] = n as u8;
        }
        let (decoded, _) = wire::decode(&bytes).expect("any exponent and mantissas decode");
        prop_assert!(dft_values_are_finite(&decoded), "{:?}", decoded);
        prop_assert_eq!(wire::encode(&decoded), bytes);
    }

    #[test]
    fn a_version_1_frame_is_refused_not_misread(
        stream in prop::bool::ANY,
        signal_len in 1u32..(1 << 20),
        coeffs in prop::collection::vec((0u16..1024, -64i32..64, -64i32..64), 0..9),
    ) {
        // A summary in the version-1 layout: per coefficient an index and
        // two `f64` bit patterns, and no exponent.
        let mut body = vec![(1 << 4) | 1, u8::from(stream)];
        body.extend_from_slice(&signal_len.to_le_bytes());
        body.extend_from_slice(&(coeffs.len() as u32).to_le_bytes());
        for &(index, re, im) in &coeffs {
            body.extend_from_slice(&index.to_le_bytes());
            body.extend_from_slice(&(f64::from(re) / 8.0).to_bits().to_le_bytes());
            body.extend_from_slice(&(f64::from(im) / 4.0).to_bits().to_le_bytes());
        }
        let frame = framed(&body);
        prop_assert_eq!(wire::decode(&frame).unwrap_err(), WireError::BadVersion(1));
        let mut decoder = FrameDecoder::new();
        prop_assert_eq!(
            decoder.feed_decode(&frame, &mut |_| true),
            Err(WireError::BadVersion(1))
        );
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation(
        claimed in ((1u64 << 24) + 1)..u64::MAX,
    ) {
        // A length prefix over MAX_FRAME_BODY is rejected from the prefix
        // alone — decode never trusts it enough to allocate. A prefix of 5
        // bytes or more announces at least 2^28 and is refused at its
        // fourth.
        let mut bytes = Vec::new();
        wire::put_varint(&mut bytes, claimed);
        bytes.extend_from_slice(&[0u8; 8]);
        let refused = WireError::FrameTooLarge(claimed.min(1 << 28) as usize);
        prop_assert_eq!(wire::decode(&bytes).unwrap_err(), refused);
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

/// One summary frame of `version` around hand-built `payload` bytes.
fn summary_frame(version: u8, payload: &[u8]) -> Vec<u8> {
    framed(&[&[(version << 4) | 1], payload].concat())
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
/// body is `1 + 12 + count · width` bytes (a 1-byte varint for each of its
/// dimensions and its item or update count), `wire_bytes` says so, `ptype`
/// carries `log2(width)` in bits 3–4, and the frame decodes back to it.
fn assert_encoded_width(payload: SummaryPayload, count: usize, width: usize) {
    let msg = Msg::Summary(vec![payload]);
    let bytes = wire::encode(&msg);
    let body = 1 + 12 + count * width;
    assert_eq!(bytes.len(), wire::varint_len(body as u64) + body, "{msg:?}");
    assert_eq!(bytes.len(), msg.wire_bytes());
    let ptype = bytes[tag_at(&bytes) + 1];
    assert_eq!(usize::from(ptype >> 3), width.trailing_zeros() as usize);
    assert_eq!(wire::decode(&bytes), Ok((msg, bytes.len())));
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

    #[test]
    fn a_version_2_frame_is_refused_not_misread(
        counters in prop::collection::vec(-300i64..300, 1..21),
    ) {
        // A sketch summary in the version-2 layout: `u32` dimensions, `u64`
        // seed and update count, every counter 8 bytes, no width code.
        let mut payload = vec![2 << 1];
        payload.extend_from_slice(&(counters.len() as u32).to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]);
        for &c in &counters {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        let frame = summary_frame(2, &payload);
        prop_assert_eq!(wire::decode(&frame).unwrap_err(), WireError::BadVersion(2));
        let mut decoder = FrameDecoder::new();
        prop_assert_eq!(
            decoder.feed_decode(&frame, &mut |_| true),
            Err(WireError::BadVersion(2))
        );
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
        wire::decode(&summary_frame(
            VERSION,
            &counter_payload(pkind, code, width, counters),
        ))
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
            let mut bytes = wire::encode(&msg);
            let ptype = tag_at(&bytes) + 1;
            bytes[ptype] |= set;
            assert!(
                matches!(wire::decode(&bytes), Err(WireError::Invalid(_))),
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
            let bytes = wire::encode(&msg);
            assert_eq!(bytes.len(), msg.wire_bytes(), "{v}");
            assert_eq!(wire::decode(&bytes), Ok((msg, bytes.len())), "{v}");
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
/// field in the version-4 layout, beside the messages they encode.
fn field_frames() -> Vec<(Msg, Vec<Field>)> {
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
        Raw(vec![VERSION << 4]),
        Var(601),
        Var(70_000),
        Var(9),
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
        Raw(vec![(VERSION << 4) | 1, (1 << 1) | 1]),
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
    vec![(tuple, tuple_fields), (summary, summary_fields)]
}

#[test]
fn a_non_minimal_varint_is_invalid_in_every_field() {
    for (msg, fields) in field_frames() {
        // The hand-built layout is the codec's.
        let minimal = framed(&body_of(&fields, None));
        assert_eq!(minimal, wire::encode(&msg));
        let vars = fields.iter().filter(|f| matches!(f, Field::Var(_))).count();
        for pad in 0..vars {
            let frame = framed(&body_of(&fields, Some(pad)));
            assert!(
                matches!(wire::decode(&frame), Err(WireError::Invalid(_))),
                "varint {pad} of {msg:?}"
            );
            let mut decoder = FrameDecoder::new();
            assert!(matches!(
                decoder.feed_decode(&frame, &mut |_| true),
                Err(WireError::Invalid(_))
            ));
        }
        // The length prefix too, one byte longer.
        let body = body_of(&fields, None);
        let mut prefix = Vec::new();
        wire::put_varint(&mut prefix, body.len() as u64);
        *prefix.last_mut().unwrap() |= 0x80;
        prefix.push(0);
        let frame = [prefix, body].concat();
        assert!(matches!(wire::decode(&frame), Err(WireError::Invalid(_))));
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
    let tuple =
        |key_stream, seq, origin| vec![Raw(vec![VERSION << 4]), Var(key_stream), seq, Var(origin)];
    let dft = |signal_len, index| {
        vec![
            Raw(vec![(VERSION << 4) | 1, 0]),
            Var(signal_len),
            Var(1),
            Raw(vec![0]),
            Var(index),
            Raw(vec![0; 4]),
        ]
    };
    let over_64_bits = Raw([vec![0xFF; 9], vec![0x02]].concat());
    for fields in [
        // A key above u32::MAX, on either stream.
        tuple(1 << 33, Var(1), 0),
        tuple((1 << 33) | 1, Var(1), 0),
        tuple(2, over_64_bits, 0),
        tuple(2, Var(1), 1 << 16),
        dft(1 << 32, 0),
        dft(64, 1 << 16),
    ] {
        let frame = framed(&body_of(&fields, None));
        assert!(
            matches!(wire::decode(&frame), Err(WireError::Invalid(_))),
            "{frame:?}"
        );
    }
    // One below each bound decodes.
    for fields in [
        tuple(
            (u64::from(u32::MAX) << 1) | 1,
            Var(u64::MAX),
            u16::MAX.into(),
        ),
        dft(u32::MAX.into(), u16::MAX.into()),
    ] {
        assert!(wire::decode(&framed(&body_of(&fields, None))).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_version_3_frame_is_refused_not_misread(
        stream in prop::bool::ANY,
        key in 0u32..u32::MAX,
        seq in 0u64..u64::MAX,
        origin in 0u16..u16::MAX,
        count in 0usize..680,
    ) {
        // Version 3 framed every message behind a `u32` length: a bare
        // tuple in 20 bytes, and here DFT summaries of up to 4 KB. Its
        // second length byte, below 16, lands where a version-4 decoder
        // looks for its version, or a zero byte ends a non-minimal prefix.
        let mut tuple = vec![0x30, u8::from(stream)];
        tuple.extend_from_slice(&key.to_le_bytes());
        tuple.extend_from_slice(&seq.to_le_bytes());
        tuple.extend_from_slice(&origin.to_le_bytes());
        let mut summary = vec![0x31, 0];
        summary.extend_from_slice(&4_096u32.to_le_bytes());
        summary.extend_from_slice(&(count as u32).to_le_bytes());
        summary.push(0);
        summary.extend(std::iter::repeat_n([7, 0, 1, 0, 0xFF, 0xFF], count).flatten());
        for body in [tuple, summary] {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            let err = wire::decode(&frame).unwrap_err();
            prop_assert!(
                matches!(err, WireError::BadVersion(0) | WireError::Invalid(_)),
                "{:?}", err
            );
            let mut decoder = FrameDecoder::new();
            prop_assert_eq!(decoder.feed_decode(&frame, &mut |_| true), Err(err));
        }
    }
}
