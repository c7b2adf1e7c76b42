//! Wire-codec hardening: round-trips over arbitrary MACs, payloads
//! and fragmentation, plus a malformed corpus — truncated frames,
//! lying length prefixes, flipped bits, absurd sizes — asserting the
//! decoder never panics and always poisons cleanly. The corruption
//! properties also recompute the CRC after the edit, so the checks
//! behind the CRC (kind, status, flags, length, the drain-reply
//! payload) are exercised on their own.

use deepcsi_cluster::codec::{
    decode_drain_reply, encode_drain_reply, encode_request, encode_response, CodecError,
    DrainReply, FrameKind, RequestDecoder, RequestFrame, ResponseDecoder, ResponseFrame,
    ResponseStatus, WireDecision, WireStats,
};
use deepcsi_frame::{crc32, MacAddr};
use deepcsi_serve::Verdict;
use proptest::prelude::*;

fn any_mac() -> impl Strategy<Value = MacAddr> {
    proptest::collection::vec(0u8..=255, 6)
        .prop_map(|v| MacAddr::new(v.try_into().expect("6 octets")))
}

fn any_request() -> impl Strategy<Value = RequestFrame> {
    (
        0u8..3,
        0u32..u32::MAX,
        any_mac(),
        proptest::collection::vec(0u8..=255, 0..600),
    )
        .prop_map(|(kind, seq, mac, payload)| RequestFrame {
            kind: match kind {
                0 => FrameKind::Report,
                1 => FrameKind::Drain,
                _ => FrameKind::Shutdown,
            },
            seq,
            mac,
            payload,
        })
}

fn any_drain_reply() -> impl Strategy<Value = DrainReply> {
    let decision = (
        any_mac(),
        0u8..3,
        (0u8..2, any::<u64>()),
        (
            0u8..2,
            any::<u32>(),
            -1.0f64..2.0,
            0.0f64..1.0,
            any::<u64>(),
        ),
    )
        .prop_map(
            |(mac, verdict, (decided, at), (some, module, vote, ema, obs))| WireDecision {
                mac,
                verdict: [Verdict::Accept, Verdict::Reject, Verdict::Unknown][verdict as usize],
                decided_at: (decided == 1).then_some(at),
                decision: (some == 1).then_some((module, vote, ema, obs)),
            },
        );
    (
        proptest::collection::vec(any::<u64>(), 10),
        proptest::collection::vec(decision, 0..5),
    )
        .prop_map(|(c, decisions)| DrainReply {
            stats: WireStats {
                ingested: c[0],
                enqueued: c[1],
                dropped: c[2],
                decode_errors: c[3],
                rejected: c[4],
                classified: c[5],
                device_states: c[6],
                devices_evicted: c[7],
                devices_rewarmed: c[8],
                busy: c[9],
            },
            decisions,
        })
}

/// A response as a node or router sends it: a report answered on
/// failure with an empty payload, or a drain/shutdown acked with an
/// encoded drain reply.
fn any_response() -> impl Strategy<Value = ResponseFrame> {
    (0u8..5, any::<u32>(), any_drain_reply()).prop_map(|(what, seq, reply)| {
        let (kind, status) = match what {
            0 => (FrameKind::Report, ResponseStatus::Busy),
            1 => (FrameKind::Report, ResponseStatus::Drop),
            2 => (FrameKind::Report, ResponseStatus::Reject),
            3 => (FrameKind::Drain, ResponseStatus::Ack),
            _ => (FrameKind::Shutdown, ResponseStatus::Ack),
        };
        let payload = if status == ResponseStatus::Ack {
            encode_drain_reply(&reply)
        } else {
            Vec::new()
        };
        ResponseFrame {
            kind,
            status,
            seq,
            payload,
        }
    })
}

/// One single-byte edit: `(op, position, byte)` flips (`op` 0, by a
/// non-zero mask), deletes (1) or inserts (2) one byte; positions wrap.
type Edit = (u8, usize, u8);

fn any_edit() -> impl Strategy<Value = Edit> {
    (0u8..3, 0usize..1 << 20, any::<u8>())
}

fn apply(edit: Edit, bytes: &mut Vec<u8>) {
    let (op, pos, byte) = edit;
    match op {
        0 => {
            let i = pos % bytes.len();
            bytes[i] ^= byte.max(1);
        }
        1 => drop(bytes.remove(pos % bytes.len())),
        _ => bytes.insert(pos % (bytes.len() + 1), byte),
    }
}

/// Edits a frame's body (everything before its CRC trailer) and
/// re-seals it with the CRC of the edited body.
fn corrupt_behind_crc(frame: &[u8], edit: Edit) -> Vec<u8> {
    let mut body = frame[..frame.len() - 4].to_vec();
    apply(edit, &mut body);
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Whether `b` is a valid kind byte.
fn valid_kind(b: u8) -> bool {
    (1..=3).contains(&b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_stream_round_trips_under_fragmentation(
        (frames, chunk) in (proptest::collection::vec(any_request(), 1..8), 1usize..64)
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_request(f));
        }
        let mut dec = RequestDecoder::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.push(piece);
            while let Some(f) = dec.try_next().expect("clean stream decodes") {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn truncation_never_yields_a_frame(
        (frame, cut) in (any_request(), 0.0f64..1.0)
    ) {
        let wire = encode_request(&frame);
        let keep = ((wire.len() - 1) as f64 * cut) as usize;
        let mut dec = RequestDecoder::new();
        dec.push(&wire[..keep]);
        // A strict prefix is either "need more bytes" or a clean
        // error — never a decoded frame, never a panic.
        if let Ok(Some(got)) = dec.try_next() {
            prop_assert!(false, "decoded {got:?} from a truncated stream");
        }
    }

    #[test]
    fn single_bit_flips_never_panic_or_forge(
        (frame, bit) in (any_request(), 0usize..1_000_000)
    ) {
        let mut wire = encode_request(&frame);
        let nbits = wire.len() * 8;
        let bit = bit % nbits;
        wire[bit / 8] ^= 1 << (bit % 8);
        let mut dec = RequestDecoder::new();
        dec.push(&wire);
        match dec.try_next() {
            // CRC (or an earlier header check) catches the flip…
            Err(_) | Ok(None) => {}
            // …except a flip inside seq/mac/payload bytes *plus* the
            // matching CRC would be two flips; a single flip that
            // still decodes can only be the CRC-protected fields
            // disagreeing — impossible. So a decoded frame here means
            // the flip landed nowhere (can't happen) — fail loudly.
            Ok(Some(got)) => prop_assert!(
                false,
                "single bit flip at {bit} still decoded: {got:?}"
            ),
        }
    }

    #[test]
    fn garbage_streams_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let mut req = RequestDecoder::new();
        req.push(&bytes);
        while let Ok(Some(_)) = req.try_next() {}
        let mut resp = ResponseDecoder::new();
        resp.push(&bytes);
        while let Ok(Some(_)) = resp.try_next() {}
    }

    #[test]
    fn drain_reply_decode_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..400)) {
        let _ = decode_drain_reply(&bytes);
    }

    #[test]
    fn request_edits_behind_a_valid_crc_are_refused_or_exact(
        (frame, edit) in (any_request(), any_edit())
    ) {
        let wire = corrupt_behind_crc(&encode_request(&frame), edit);
        let mut dec = RequestDecoder::new();
        dec.push(&wire);
        let got = dec.try_next();
        if wire[0] == 0xC5 && wire[1] == 0x01 && !valid_kind(wire[2]) {
            prop_assert!(matches!(got, Err(CodecError::BadKind(k)) if k == wire[2]), "{got:?}");
        }
        if let Ok(Some(accepted)) = got {
            // Accepted bytes are exactly the encoding of what was
            // accepted: no field is silently normalized.
            prop_assert!(wire.starts_with(&encode_request(&accepted)), "{accepted:?}");
            prop_assert_eq!(wire[3], 0, "non-zero flags were accepted");
        }
    }

    #[test]
    fn response_edits_behind_a_valid_crc_are_refused_or_exact(
        (frame, edit) in (any_response(), any_edit())
    ) {
        let wire = corrupt_behind_crc(&encode_response(&frame), edit);
        let mut dec = ResponseDecoder::new();
        dec.push(&wire);
        let got = dec.try_next();
        let header_ok = wire[0] == 0xC6 && wire[1] == 0x01;
        if header_ok && !valid_kind(wire[2]) {
            prop_assert!(matches!(got, Err(CodecError::BadKind(k)) if k == wire[2]), "{got:?}");
        }
        // A same-length edit keeps the length prefix honest, so only the
        // status check stands between a bad status byte and the caller.
        if header_ok && valid_kind(wire[2]) && edit.0 == 0 && wire[3] > 3 {
            prop_assert!(matches!(got, Err(CodecError::BadStatus(s)) if s == wire[3]), "{got:?}");
        }
        if let Ok(Some(accepted)) = got {
            prop_assert!(wire.starts_with(&encode_response(&accepted)), "{accepted:?}");
            if let Ok(reply) = decode_drain_reply(&accepted.payload) {
                prop_assert_eq!(encode_drain_reply(&reply), accepted.payload);
            }
        }
    }

    #[test]
    fn drain_reply_edits_are_refused_or_exact(
        (reply, edit) in (any_drain_reply(), any_edit())
    ) {
        let mut payload = encode_drain_reply(&reply);
        apply(edit, &mut payload);
        // Re-framed whole, so the response decoder hands the edited
        // payload up and the drain-reply decoder alone judges it.
        let frame = ResponseFrame {
            kind: FrameKind::Drain,
            status: ResponseStatus::Ack,
            seq: 1,
            payload,
        };
        let mut dec = ResponseDecoder::new();
        dec.push(&encode_response(&frame));
        let accepted = dec.try_next().expect("a sealed frame decodes").expect("one frame");
        prop_assert_eq!(&accepted, &frame);
        if let Ok(decoded) = decode_drain_reply(&accepted.payload) {
            prop_assert_eq!(encode_drain_reply(&decoded), accepted.payload);
        }
    }
}

#[test]
fn absurd_length_prefix_is_rejected_before_allocation() {
    // Hand-build a header whose length prefix claims 4 GiB.
    let mut frame = encode_request(&RequestFrame {
        kind: FrameKind::Report,
        seq: 1,
        mac: MacAddr::station(1),
        payload: vec![0; 8],
    });
    frame[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut dec = RequestDecoder::new();
    dec.push(&frame);
    match dec.try_next() {
        Err(CodecError::Oversize(n)) => assert_eq!(n, u32::MAX as usize),
        other => panic!("expected Oversize, got {other:?}"),
    }
    // Poisoned from here on: valid frames no longer parse.
    dec.push(&encode_request(&RequestFrame {
        kind: FrameKind::Report,
        seq: 2,
        mac: MacAddr::station(2),
        payload: Vec::new(),
    }));
    assert!(dec
        .try_next()
        .expect("poisoned decoder is silent")
        .is_none());
}

#[test]
fn every_response_header_byte_is_validated() {
    let good = encode_response(&ResponseFrame {
        kind: FrameKind::Report,
        status: ResponseStatus::Ack,
        seq: 3,
        payload: Vec::new(),
    });
    // The CRC is recomputed after the corruption, so each byte must be
    // refused by its own check rather than by the CRC.
    for offset in 0..4 {
        let wire = corrupt_behind_crc(&good, (0, offset, good[offset] ^ 0xEE));
        let mut dec = ResponseDecoder::new();
        dec.push(&wire);
        let got = dec.try_next();
        let refused = match offset {
            0 => matches!(got, Err(CodecError::BadMagic(0xEE))),
            1 => matches!(got, Err(CodecError::BadVersion(0xEE))),
            2 => matches!(got, Err(CodecError::BadKind(0xEE))),
            _ => matches!(got, Err(CodecError::BadStatus(0xEE))),
        };
        assert!(refused, "byte {offset}: {got:?}");
    }
}

#[test]
fn drain_reply_round_trips_with_full_surface() {
    let reply = DrainReply {
        stats: WireStats {
            ingested: u64::MAX,
            enqueued: 1,
            dropped: 2,
            decode_errors: 9,
            rejected: 3,
            classified: 4,
            device_states: 5,
            devices_evicted: 6,
            devices_rewarmed: 7,
            busy: 8,
        },
        decisions: vec![WireDecision {
            mac: MacAddr::new([0xFF; 6]),
            verdict: deepcsi_serve::Verdict::Reject,
            decided_at: Some(u64::MAX),
            decision: Some((u32::MAX, f64::MIN_POSITIVE, 1.0, u64::MAX)),
        }],
    };
    let bytes = encode_drain_reply(&reply);
    assert_eq!(decode_drain_reply(&bytes).expect("round trip"), reply);
}
