//! The cluster wire protocol: compact length-prefixed frames with a
//! CRC-32 trailer and a strict, never-panicking incremental decoder.
//!
//! ## Request frame (client → node / router)
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 1 | magic `0xC5` |
//! | 1 | 1 | version (`0x01`) |
//! | 2 | 1 | kind: `1` report, `2` drain, `3` shutdown |
//! | 3 | 1 | flags (must be `0`) |
//! | 4 | 4 | sequence number, u32 LE |
//! | 8 | 6 | source MAC |
//! | 14 | 4 | payload length, u32 LE (≤ [`MAX_PAYLOAD`]) |
//! | 18 | n | payload (raw 802.11 MPDU bytes for reports) |
//! | 18+n | 4 | CRC-32 (IEEE) over bytes `0..18+n`, u32 LE |
//!
//! ## Response frame (node / router → client)
//!
//! Same shape without the MAC: magic `0xC6`, version, echoed kind,
//! a status byte (`0` ack, `1` busy, `2` drop, `3` reject), echoed
//! sequence number, payload length, payload, CRC. Reports are only
//! answered on failure (`BUSY`/`DROP`/`REJECT`) — the happy path is
//! silent. `DRAIN`/`SHUTDOWN` are acked with an encoded
//! [`DrainReply`] payload.
//!
//! The decoders validate magic, version, kind, flags and the length
//! prefix *before* trusting the length, and check the CRC before
//! handing a frame up. Any error poisons the decoder — the transport
//! must tear the connection down, which is exactly what the node and
//! router do.
//!
//! ## Copies per hop
//!
//! A report's payload is copied once per hop. The client encodes
//! straight from the caller's borrowed MPDU. A decoder verifies a frame
//! where it lies in its receive buffer and copies the payload once,
//! into the decoded frame's `payload`. The router re-encodes each
//! decoded report for its node link ([`encode_request`]), so the bytes
//! pass the CRC four times between client and node: client encode,
//! router decode, router encode, node decode.

use deepcsi_frame::{crc32, ByteReader, ByteWriter, DecodeError, MacAddr};
use std::fmt;

/// Hard cap on a frame's payload, bytes. A VHT compressed beamforming
/// MPDU is a few KiB; anything near this cap is hostile.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Request magic byte.
const REQ_MAGIC: u8 = 0xC5;
/// Response magic byte.
const RESP_MAGIC: u8 = 0xC6;
/// Protocol version.
const VERSION: u8 = 0x01;
/// Request header length (everything before the payload).
const REQ_HEADER: usize = 18;
/// Response header length (everything before the payload).
const RESP_HEADER: usize = 12;
/// CRC trailer length.
const TRAILER: usize = 4;

/// What a request frame asks the receiver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Ingest one beamforming report (payload = raw MPDU bytes).
    Report,
    /// Flush every queued report, reply with stats + decisions.
    Drain,
    /// Drain, reply, then stop serving.
    Shutdown,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Report => 1,
            FrameKind::Drain => 2,
            FrameKind::Shutdown => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, CodecError> {
        match b {
            1 => Ok(FrameKind::Report),
            2 => Ok(FrameKind::Drain),
            3 => Ok(FrameKind::Shutdown),
            other => Err(CodecError::BadKind(other)),
        }
    }
}

/// A response frame's status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// The request succeeded (drain/shutdown replies carry a payload).
    Ack,
    /// A router-side per-node queue was full under `DropNewest`; the
    /// report was not forwarded.
    Busy,
    /// The node's engine dropped the report under `DropNewest`
    /// backpressure.
    Drop,
    /// The payload did not decode as a beamforming report (or the
    /// request itself was malformed).
    Reject,
}

impl ResponseStatus {
    fn to_u8(self) -> u8 {
        match self {
            ResponseStatus::Ack => 0,
            ResponseStatus::Busy => 1,
            ResponseStatus::Drop => 2,
            ResponseStatus::Reject => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(ResponseStatus::Ack),
            1 => Ok(ResponseStatus::Busy),
            2 => Ok(ResponseStatus::Drop),
            3 => Ok(ResponseStatus::Reject),
            other => Err(CodecError::BadStatus(other)),
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// What the sender asks for.
    pub kind: FrameKind,
    /// Sender-assigned sequence number, echoed in responses.
    pub seq: u32,
    /// The report's source MAC — the router's shard key. Zero for
    /// drain/shutdown.
    pub mac: MacAddr,
    /// Raw MPDU bytes for reports; empty otherwise.
    pub payload: Vec<u8>,
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request kind this answers.
    pub kind: FrameKind,
    /// The outcome.
    pub status: ResponseStatus,
    /// The request's sequence number.
    pub seq: u32,
    /// Encoded [`DrainReply`] for acked drains/shutdowns; empty
    /// otherwise.
    pub payload: Vec<u8>,
}

/// Why a frame failed to decode. Every error is terminal for the
/// connection that produced it.
#[derive(Debug)]
pub enum CodecError {
    /// The first byte was not the expected magic.
    BadMagic(u8),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Unknown response status.
    BadStatus(u8),
    /// Non-zero flags (reserved).
    BadFlags(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversize(usize),
    /// The CRC trailer does not match the frame bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried in the trailer.
        found: u32,
    },
    /// A structured payload (drain reply) was malformed.
    Malformed(DecodeError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadStatus(s) => write!(f, "unknown response status {s}"),
            CodecError::BadFlags(x) => write!(f, "reserved flags set: 0x{x:02x}"),
            CodecError::Oversize(n) => write!(f, "payload length {n} exceeds {MAX_PAYLOAD}"),
            CodecError::BadCrc { expected, found } => {
                write!(
                    f,
                    "CRC mismatch: computed {expected:#010x}, frame says {found:#010x}"
                )
            }
            CodecError::Malformed(e) => write!(f, "malformed drain reply: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> Self {
        CodecError::Malformed(e)
    }
}

/// Encodes a request frame (header + payload + CRC trailer).
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    encode_request_parts(frame.kind, frame.seq, frame.mac, &frame.payload)
}

/// [`encode_request`] from a borrowed payload: the client encodes a
/// report straight from the caller's MPDU, with no owned copy first.
pub(crate) fn encode_request_parts(
    kind: FrameKind,
    seq: u32,
    mac: MacAddr,
    payload: &[u8],
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(REQ_HEADER + payload.len() + TRAILER);
    w.bytes(&[REQ_MAGIC, VERSION, kind.to_u8(), 0]); // flags 0
    w.u32(seq);
    w.bytes(&mac.octets());
    w.len_prefix(payload.len());
    w.bytes(payload);
    w.finish()
}

/// Encodes a response frame (header + payload + CRC trailer).
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(RESP_HEADER + frame.payload.len() + TRAILER);
    w.bytes(&[
        RESP_MAGIC,
        VERSION,
        frame.kind.to_u8(),
        frame.status.to_u8(),
    ]);
    w.u32(frame.seq);
    w.len_prefix(frame.payload.len());
    w.bytes(&frame.payload);
    w.finish()
}

/// Shared incremental framing: buffers bytes, validates the fixed
/// header fields *before* trusting the length prefix and checks the
/// CRC. A verified frame stays at the front of [`Framer::pending`]
/// until its typed decoder has read it and called [`Framer::consume`],
/// so the payload is copied once, straight into the decoded frame.
struct Framer {
    buf: Vec<u8>,
    /// Bytes already consumed from the front of `buf` (compacted
    /// lazily so steady streaming is amortized O(1) per byte).
    consumed: usize,
    poisoned: bool,
}

impl Framer {
    fn new() -> Self {
        Framer {
            buf: Vec::new(),
            consumed: 0,
            poisoned: false,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        if self.poisoned {
            return;
        }
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.consumed..]
    }

    fn poison<T>(&mut self, e: CodecError) -> Result<T, CodecError> {
        self.poisoned = true;
        Err(e)
    }

    /// Drops a frame of `len` bytes (as [`Framer::next_frame`]
    /// returned it) and its CRC trailer off the front of the buffer.
    fn consume(&mut self, len: usize) {
        self.consumed += len + TRAILER;
    }

    /// Tries to verify one complete frame at the front of
    /// [`Framer::pending`]. Returns its length without the CRC trailer
    /// (header + payload, CRC verified); the bytes stay in place until
    /// [`Framer::consume`].
    fn next_frame(
        &mut self,
        magic: u8,
        header_len: usize,
        len_offset: usize,
    ) -> Result<Option<usize>, CodecError> {
        if self.poisoned {
            return Ok(None);
        }
        let pending = self.pending();
        if pending.is_empty() {
            return Ok(None);
        }
        // Validate every fixed byte we *have* so garbage fails fast,
        // before a lying length prefix can make us wait forever.
        if pending[0] != magic {
            let b = pending[0];
            return self.poison(CodecError::BadMagic(b));
        }
        if pending.len() >= 2 && pending[1] != VERSION {
            let v = pending[1];
            return self.poison(CodecError::BadVersion(v));
        }
        if pending.len() >= 3 {
            if let Err(e) = FrameKind::from_u8(pending[2]) {
                return self.poison(e);
            }
        }
        if pending.len() < header_len {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            pending[len_offset..len_offset + 4]
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        if len > MAX_PAYLOAD {
            return self.poison(CodecError::Oversize(len));
        }
        let total = header_len + len + TRAILER;
        if pending.len() < total {
            return Ok(None);
        }
        let expected = crc32(&pending[..total - TRAILER]);
        let found = u32::from_le_bytes(
            pending[total - TRAILER..total]
                .try_into()
                .expect("4-byte slice"),
        );
        if expected != found {
            return self.poison(CodecError::BadCrc { expected, found });
        }
        Ok(Some(total - TRAILER))
    }
}

/// Incremental decoder for request frames (the node/router side).
///
/// Push raw socket bytes in with [`RequestDecoder::push`], pull
/// complete frames out with [`RequestDecoder::try_next`]. The first error
/// poisons the decoder: every later call returns `Ok(None)`, and the
/// owning connection must be torn down.
pub struct RequestDecoder {
    framer: Framer,
}

impl Default for RequestDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        RequestDecoder {
            framer: Framer::new(),
        }
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.framer.push(bytes);
    }

    /// Decodes the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] is terminal: the decoder is poisoned and the
    /// connection must close.
    pub fn try_next(&mut self) -> Result<Option<RequestFrame>, CodecError> {
        let Some(len) = self.framer.next_frame(REQ_MAGIC, REQ_HEADER, 14)? else {
            return Ok(None);
        };
        let frame = &self.framer.pending()[..len];
        let kind = FrameKind::from_u8(frame[2])?;
        let flags = frame[3];
        if flags != 0 {
            return self.framer.poison(CodecError::BadFlags(flags));
        }
        let decoded = RequestFrame {
            kind,
            seq: u32::from_le_bytes(frame[4..8].try_into().expect("seq")),
            mac: MacAddr::new(frame[8..14].try_into().expect("mac")),
            payload: frame[REQ_HEADER..].to_vec(),
        };
        self.framer.consume(len);
        Ok(Some(decoded))
    }
}

/// Incremental decoder for response frames (the client side). Same
/// contract as [`RequestDecoder`].
pub struct ResponseDecoder {
    framer: Framer,
}

impl Default for ResponseDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        ResponseDecoder {
            framer: Framer::new(),
        }
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.framer.push(bytes);
    }

    /// Decodes the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] is terminal: the decoder is poisoned and the
    /// connection must close.
    pub fn try_next(&mut self) -> Result<Option<ResponseFrame>, CodecError> {
        let Some(len) = self.framer.next_frame(RESP_MAGIC, RESP_HEADER, 8)? else {
            return Ok(None);
        };
        let frame = &self.framer.pending()[..len];
        let kind = FrameKind::from_u8(frame[2])?;
        let status = match ResponseStatus::from_u8(frame[3]) {
            Ok(s) => s,
            Err(e) => return self.framer.poison(e),
        };
        let decoded = ResponseFrame {
            kind,
            status,
            seq: u32::from_le_bytes(frame[4..8].try_into().expect("seq")),
            payload: frame[RESP_HEADER..].to_vec(),
        };
        self.framer.consume(len);
        Ok(Some(decoded))
    }
}

// ---------------------------------------------------------------------
// Drain-reply payload
// ---------------------------------------------------------------------

/// The engine counters a drain reply carries — the cross-process
/// subset of [`deepcsi_serve::EngineStats`], plus the tier's own
/// `busy` count. Merging replies sums field-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Frames handed to the engine(s).
    pub ingested: u64,
    /// Reports enqueued to shard queues.
    pub enqueued: u64,
    /// Reports dropped by engine backpressure.
    pub dropped: u64,
    /// Frames that failed to decode as beamforming reports.
    pub decode_errors: u64,
    /// Reports rejected before inference (incompatible dimensions).
    pub rejected: u64,
    /// Reports classified end to end.
    pub classified: u64,
    /// Live per-device policy states.
    pub device_states: u64,
    /// Device states evicted by the per-shard capacity cap.
    pub devices_evicted: u64,
    /// Evicted streams that returned and re-warmed.
    pub devices_rewarmed: u64,
    /// Reports refused with `BUSY` by a router queue.
    pub busy: u64,
}

impl WireStats {
    /// Field-wise sum, for merging per-node replies.
    pub fn merge(&mut self, other: &WireStats) {
        self.ingested += other.ingested;
        self.enqueued += other.enqueued;
        self.dropped += other.dropped;
        self.decode_errors += other.decode_errors;
        self.rejected += other.rejected;
        self.classified += other.classified;
        self.device_states += other.device_states;
        self.devices_evicted += other.devices_evicted;
        self.devices_rewarmed += other.devices_rewarmed;
        self.busy += other.busy;
    }

    /// The cross-process subset of an [`deepcsi_serve::EngineStats`].
    pub fn from_engine(stats: &deepcsi_serve::EngineStats) -> WireStats {
        WireStats {
            ingested: stats.ingested,
            enqueued: stats.enqueued,
            dropped: stats.dropped,
            decode_errors: stats.decode_errors,
            rejected: stats.rejected,
            classified: stats.classified,
            device_states: stats.device_states,
            devices_evicted: stats.devices_evicted,
            devices_rewarmed: stats.devices_rewarmed,
            busy: 0,
        }
    }
}

/// One device's verdict as carried in a drain reply — the wire image
/// of a [`deepcsi_serve::DeviceDecision`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireDecision {
    /// The stream's source MAC.
    pub mac: MacAddr,
    /// `"accept"` / `"reject"` / `"unknown"` — the registry verdict.
    pub verdict: deepcsi_serve::Verdict,
    /// Classified reports before the verdict first left `Unknown`.
    pub decided_at: Option<u64>,
    /// The windowed decision, if ≥ 1 report classified:
    /// `(module, vote_fraction, confidence_ema, observations)`.
    pub decision: Option<(u32, f64, f64, u64)>,
}

impl WireDecision {
    /// Converts an engine decision to its wire image.
    pub fn from_engine(d: &deepcsi_serve::DeviceDecision) -> WireDecision {
        WireDecision {
            mac: d.source,
            verdict: d.verdict,
            decided_at: d.decided_at,
            decision: d.decision.as_ref().map(|w| {
                (
                    w.module as u32,
                    w.vote_fraction,
                    w.confidence_ema,
                    w.observations,
                )
            }),
        }
    }
}

/// Everything a drain (or shutdown) reply carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrainReply {
    /// Merged engine + tier counters.
    pub stats: WireStats,
    /// Per-device verdicts, sorted by MAC.
    pub decisions: Vec<WireDecision>,
}

impl DrainReply {
    /// Merges another node's reply into this one: counters sum,
    /// decision lists concatenate and re-sort by MAC.
    ///
    /// Sharding partitions the *streams*, but every node also reports
    /// a placeholder row (`Unknown`, no decision) for registered
    /// devices it never saw; duplicates collapse to the row that
    /// carries evidence, so the merged list is exactly what one
    /// process would report.
    pub fn merge(&mut self, other: DrainReply) {
        self.stats.merge(&other.stats);
        self.decisions.extend(other.decisions);
        self.decisions.sort_by_key(|d| d.mac.octets());
        self.decisions.dedup_by(|later, kept| {
            if later.mac != kept.mac {
                return false;
            }
            if kept.decision.is_none() && later.decision.is_some() {
                std::mem::swap(kept, later);
            }
            true
        });
    }
}

fn verdict_to_u8(v: deepcsi_serve::Verdict) -> u8 {
    match v {
        deepcsi_serve::Verdict::Accept => 0,
        deepcsi_serve::Verdict::Reject => 1,
        deepcsi_serve::Verdict::Unknown => 2,
    }
}

fn verdict_from_u8(b: u8) -> Result<deepcsi_serve::Verdict, DecodeError> {
    match b {
        0 => Ok(deepcsi_serve::Verdict::Accept),
        1 => Ok(deepcsi_serve::Verdict::Reject),
        2 => Ok(deepcsi_serve::Verdict::Unknown),
        t => Err(DecodeError::BadTag(t)),
    }
}

/// Encodes a [`DrainReply`] as a response payload.
pub fn encode_drain_reply(reply: &DrainReply) -> Vec<u8> {
    let mut w = ByteWriter::default();
    for v in [
        reply.stats.ingested,
        reply.stats.enqueued,
        reply.stats.dropped,
        reply.stats.decode_errors,
        reply.stats.rejected,
        reply.stats.classified,
        reply.stats.device_states,
        reply.stats.devices_evicted,
        reply.stats.devices_rewarmed,
        reply.stats.busy,
    ] {
        w.u64(v);
    }
    w.list(&reply.decisions, |w, d| {
        w.bytes(&d.mac.octets());
        w.u8(verdict_to_u8(d.verdict));
        w.opt(d.decided_at, ByteWriter::u64);
        w.opt(d.decision, |w, (module, vote, ema, obs)| {
            w.u32(module);
            w.f64(vote);
            w.f64(ema);
            w.u64(obs);
        });
    });
    w.into_bytes()
}

/// Decodes a [`DrainReply`] payload.
///
/// # Errors
///
/// [`CodecError::Malformed`] on truncation, bad tags, a lying count,
/// or trailing bytes.
pub fn decode_drain_reply(payload: &[u8]) -> Result<DrainReply, CodecError> {
    let mut r = ByteReader::new(payload);
    let stats = WireStats {
        ingested: r.u64()?,
        enqueued: r.u64()?,
        dropped: r.u64()?,
        decode_errors: r.u64()?,
        rejected: r.u64()?,
        classified: r.u64()?,
        device_states: r.u64()?,
        devices_evicted: r.u64()?,
        devices_rewarmed: r.u64()?,
        busy: r.u64()?,
    };
    // 9 bytes (MAC + verdict + two None tags) is the smallest
    // possible per-device record; a count that cannot fit in the
    // remaining bytes is lying.
    let decisions = r.list(9, |r| {
        Ok(WireDecision {
            mac: MacAddr::new(r.array()?),
            verdict: verdict_from_u8(r.u8()?)?,
            decided_at: r.opt(ByteReader::u64)?,
            decision: r.opt(|r| Ok((r.u32()?, r.f64()?, r.f64()?, r.u64()?)))?,
        })
    })?;
    r.finish()?;
    Ok(DrainReply { stats, decisions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seq: u32) -> RequestFrame {
        RequestFrame {
            kind: FrameKind::Report,
            seq,
            mac: MacAddr::station(seq as u64),
            payload: vec![seq as u8; 37],
        }
    }

    #[test]
    fn request_round_trip_and_pipelining() {
        let frames: Vec<RequestFrame> = (0..5).map(report).collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_request(f));
        }
        // Feed one byte at a time: the decoder must reassemble across
        // arbitrary fragmentation.
        let mut dec = RequestDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.push(&[*b]);
            while let Some(f) = dec.try_next().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn response_round_trip() {
        let frame = ResponseFrame {
            kind: FrameKind::Drain,
            status: ResponseStatus::Ack,
            seq: 7,
            payload: encode_drain_reply(&DrainReply::default()),
        };
        let mut dec = ResponseDecoder::new();
        dec.push(&encode_response(&frame));
        assert_eq!(dec.try_next().expect("clean").expect("one frame"), frame);
        assert!(dec.try_next().expect("clean").is_none());
    }

    #[test]
    fn bad_magic_poisons() {
        let mut dec = RequestDecoder::new();
        dec.push(&[0x00]);
        assert!(matches!(dec.try_next(), Err(CodecError::BadMagic(0))));
        // Poisoned: even valid bytes now yield nothing.
        dec.push(&encode_request(&report(1)));
        assert!(dec.try_next().expect("poisoned is quiet").is_none());
    }

    #[test]
    fn lying_length_prefix_is_oversize_not_a_hang() {
        let mut bytes = encode_request(&report(1));
        bytes[14..18].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut dec = RequestDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.try_next(), Err(CodecError::Oversize(_))));
    }

    #[test]
    fn crc_flip_detected() {
        let mut bytes = encode_request(&report(1));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut dec = RequestDecoder::new();
        dec.push(&bytes);
        match dec.try_next() {
            Err(CodecError::BadCrc { .. })
            | Err(CodecError::BadMagic(_))
            | Err(CodecError::BadVersion(_))
            | Err(CodecError::BadKind(_))
            | Err(CodecError::BadFlags(_))
            | Err(CodecError::Oversize(_)) => {}
            other => panic!("corruption must error, got {other:?}"),
        }
    }

    fn sample_reply() -> DrainReply {
        DrainReply {
            stats: WireStats {
                ingested: 10,
                enqueued: 9,
                dropped: 1,
                decode_errors: 0,
                rejected: 2,
                classified: 9,
                device_states: 3,
                devices_evicted: 1,
                devices_rewarmed: 1,
                busy: 4,
            },
            decisions: vec![
                WireDecision {
                    mac: MacAddr::station(1),
                    verdict: deepcsi_serve::Verdict::Accept,
                    decided_at: Some(12),
                    decision: Some((0, 0.875, 0.93, 40)),
                },
                WireDecision {
                    mac: MacAddr::station(2),
                    verdict: deepcsi_serve::Verdict::Unknown,
                    decided_at: None,
                    decision: None,
                },
            ],
        }
    }

    /// Request, response and drain-reply bytes of fixed frames, pinned
    /// by a 64-bit FNV-1a over each encoding's length (u64 LE) and
    /// bytes: a codec change that moves a single bit fails here.
    #[test]
    fn encodings_are_pinned() {
        let reply = encode_drain_reply(&sample_reply());
        let mut encodings = vec![
            encode_request(&report(1)),
            encode_request(&report(300)),
            encode_request(&RequestFrame {
                kind: FrameKind::Drain,
                seq: 9,
                mac: MacAddr::new([0; 6]),
                payload: Vec::new(),
            }),
            encode_drain_reply(&DrainReply::default()),
            reply.clone(),
        ];
        for (kind, status, payload) in [
            (FrameKind::Report, ResponseStatus::Busy, Vec::new()),
            (FrameKind::Report, ResponseStatus::Drop, Vec::new()),
            (FrameKind::Report, ResponseStatus::Reject, Vec::new()),
            (FrameKind::Shutdown, ResponseStatus::Ack, reply),
        ] {
            encodings.push(encode_response(&ResponseFrame {
                kind,
                status,
                seq: 0xDEAD_BEEF,
                payload,
            }));
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for bytes in &encodings {
            for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(h, 0x82da_d465_7f66_4d79);
    }

    #[test]
    fn drain_reply_round_trip() {
        let reply = sample_reply();
        let bytes = encode_drain_reply(&reply);
        assert_eq!(decode_drain_reply(&bytes).expect("round trip"), reply);
        // Every truncation of the payload errors, never panics.
        for n in 0..bytes.len() {
            assert!(decode_drain_reply(&bytes[..n]).is_err());
        }
        // Trailing garbage errors too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_drain_reply(&long).is_err());
    }

    #[test]
    fn merge_sums_and_sorts() {
        let mut a = DrainReply {
            stats: WireStats {
                ingested: 1,
                ..WireStats::default()
            },
            decisions: vec![WireDecision {
                mac: MacAddr::station(9),
                verdict: deepcsi_serve::Verdict::Accept,
                decided_at: None,
                decision: None,
            }],
        };
        let b = DrainReply {
            stats: WireStats {
                ingested: 2,
                busy: 5,
                ..WireStats::default()
            },
            decisions: vec![WireDecision {
                mac: MacAddr::station(3),
                verdict: deepcsi_serve::Verdict::Reject,
                decided_at: Some(4),
                decision: None,
            }],
        };
        a.merge(b);
        assert_eq!(a.stats.ingested, 3);
        assert_eq!(a.stats.busy, 5);
        assert_eq!(
            a.decisions.iter().map(|d| d.mac).collect::<Vec<_>>(),
            vec![MacAddr::station(3), MacAddr::station(9)]
        );
    }

    #[test]
    fn merge_collapses_placeholder_rows() {
        let seen = WireDecision {
            mac: MacAddr::station(1),
            verdict: deepcsi_serve::Verdict::Accept,
            decided_at: Some(5),
            decision: Some((0, 1.0, 0.9, 12)),
        };
        let placeholder = WireDecision {
            mac: MacAddr::station(1),
            verdict: deepcsi_serve::Verdict::Unknown,
            decided_at: None,
            decision: None,
        };
        // Evidence wins regardless of merge order.
        for (first, second) in [
            (seen.clone(), placeholder.clone()),
            (placeholder.clone(), seen.clone()),
        ] {
            let mut a = DrainReply {
                stats: WireStats::default(),
                decisions: vec![first],
            };
            a.merge(DrainReply {
                stats: WireStats::default(),
                decisions: vec![second],
            });
            assert_eq!(a.decisions, vec![seen.clone()]);
        }
    }
}
