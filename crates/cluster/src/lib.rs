//! # deepcsi-cluster — the distributed serving tier
//!
//! One [`deepcsi_serve::Engine`] saturates one process. A passive
//! monitoring deployment has many sniffers and many cores spread over
//! many processes, so this crate lifts the engine's MAC-hash sharding
//! one level up: the exact [`deepcsi_serve::shard_of`] function that
//! routes reports to worker threads *inside* an engine here routes them
//! across engine *processes*, preserving per-stream ordering end to
//! end.
//!
//! The tier has four pieces:
//!
//! * **Wire codec** ([`codec`]) — a compact length-prefixed frame
//!   format (version byte, sequence number, source MAC, raw 802.11
//!   MPDU payload, CRC-32 trailer) with a strict incremental decoder
//!   that never panics on hostile bytes: truncated frames, lying
//!   length prefixes, and bad CRCs all surface as typed
//!   [`CodecError`]s and tear the connection down cleanly.
//! * **Engine node** ([`EngineNode`]) — a TCP listener multiplexing
//!   many client connections into one engine. Backpressure semantics
//!   extend across the wire: with [`deepcsi_serve::Backpressure::Block`]
//!   a full shard queue blocks the reader, which stalls the socket and
//!   eventually the sender (lossless); with `DropNewest` the node
//!   answers an explicit `DROP` response and counts it.
//! * **Shard router** ([`ShardRouter`]) — a listener that fans each
//!   client connection out across N engine nodes by
//!   `shard_of(source MAC, N)`, with a bounded per-node queue per
//!   connection. A full queue under `DropNewest` answers an explicit
//!   `BUSY` response; `DRAIN`/`SHUTDOWN` requests fan out to every
//!   node and the per-node replies merge into one.
//! * **Client** ([`ClusterClient`]) — the sender side: streams
//!   reports, tracks `BUSY`/`DROP`/`REJECT` responses, and collects
//!   the merged [`DrainReply`].
//!
//! Because training is deterministic (fixed seed, fixed recipe —
//! [`demo`] reproduces the `deepcsi-served` recipe bit-for-bit),
//! separate node processes independently train identical models, and
//! the merged per-device verdicts from a sharded cluster are
//! **byte-identical** to a single-process engine over the same replay
//! — the loopback tests and `deepcsi-clusterd send --compare-local`
//! prove it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accept;
mod client;
pub mod codec;
pub mod demo;
mod node;
mod router;
mod stats;

pub use client::{ClientCounters, ClusterClient};
pub use codec::{
    decode_drain_reply, encode_drain_reply, CodecError, DrainReply, FrameKind, RequestDecoder,
    RequestFrame, ResponseDecoder, ResponseFrame, ResponseStatus, WireDecision, WireStats,
    MAX_PAYLOAD,
};
pub use node::EngineNode;
pub use router::{RouterConfig, ShardRouter};
pub use stats::{ClusterStats, ConnTrack};
