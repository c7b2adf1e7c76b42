//! # deepcsi-serve — the streaming authentication engine
//!
//! DeepCSI's deployment story (§III-C, §IV-A) is a passive monitor that
//! continuously sniffs VHT compressed beamforming frames and fingerprints
//! the transmitter. This crate turns the one-shot
//! [`deepcsi_core::Authenticator`] into that online system: a byte
//! stream of captured frames goes in, per-device identity verdicts come
//! out, at line rate.
//!
//! The engine ([`Engine`]) is built from four pieces:
//!
//! * **Sharded ingest** — frames are parsed and routed to a worker ring
//!   by a hash of the source MAC (the paper's "filter on the packets
//!   source address"), over bounded queues with explicit
//!   backpressure/drop accounting ([`Backpressure`]).
//! * **Micro-batched inference over one shared frozen model** — every
//!   worker holds the same `Arc<deepcsi_core::FrozenAuthenticator>`
//!   (immutable weights, no per-worker clone) plus its own scratch
//!   [`deepcsi_nn::InferCtx`]; each worker takes up to
//!   [`EngineConfig::max_batch`] already-queued reports (it never waits
//!   for stragglers) and classifies them with one
//!   [`deepcsi_nn::FrozenModel::infer_batch`] call on its own thread, so
//!   one pass of every weight matrix serves the whole batch. The
//!   workers ([`EngineConfig::workers`]) are the only serving threads.
//! * **Decision policies** — per-report predictions feed one
//!   [`PolicyState`] per device, created by the [`DecisionPolicy`] that
//!   [`DecisionPolicyConfig::build`] makes from a [`PolicyKind`]:
//!   [`PolicyKind::FixedMajority`] (sliding-window majority + confidence
//!   EMA, the default), [`PolicyKind::ConfidenceWeighted`]
//!   (confidence-weighted votes with posterior-mass early exit) or
//!   [`PolicyKind::AdaptiveThreshold`] (per-device accept floors learned
//!   from each stream's own confidence distribution).
//! * **Registry + telemetry** — [`DeviceRegistry`] holds each stream's
//!   expected identity and the policy yields [`Verdict::Accept`] /
//!   [`Verdict::Reject`] / [`Verdict::Unknown`]; [`Telemetry`] tracks
//!   ingest/decode/drop counts, micro-batch latency (p50/p99) and the
//!   policy's reports-to-verdict distribution.
//!
//! Frames can come from memory ([`ReplaySource`]) or from capture files
//! via `deepcsi_capture`: [`Engine::ingest_available`] pulls from any
//! [`deepcsi_capture::FrameSource`] (finite pcap/pcapng files, or a
//! `tail -f` follow source), mirroring the capture layer's
//! bytes/packets/skips/errors counters into the engine telemetry so
//! `enqueued` reconciles against what the monitor actually saw.
//! [`ReplaySource::write_pcap`] closes the loop by exporting any
//! synthetic dataset as a valid radiotap capture.
//!
//! An optional **live observability plane** ([`ObsPlane`]) attaches to
//! a running engine as a pure observer: an embedded HTTP scrape surface
//! (`/metrics`, `/stats.json`, `/healthz`, `/readyz`, `/profile`,
//! `/audit/tail`), an online SLO monitor driving
//! ok → degraded → failing health transitions, and — when
//! [`EngineConfig::audit`] is set — a structured per-verdict audit
//! trail. [`MetricsEmitter`] covers periodic file-based export and
//! flushes the final partial interval on stop. Verdicts are
//! bit-identical with the plane on or dark.
//!
//! ## Quickstart
//!
//! ```no_run
//! use deepcsi_serve::{Engine, EngineConfig, ReplaySource};
//! # fn auth() -> deepcsi_core::Authenticator { unimplemented!() }
//! # let dataset = deepcsi_data::Dataset::default();
//! let replay = ReplaySource::from_dataset(&dataset);
//! let engine = Engine::start_frozen(
//!     EngineConfig::default(),
//!     auth().freeze(),
//!     ReplaySource::registry(&dataset),
//! );
//! for frame in replay.frames() {
//!     engine.ingest_frame(frame);
//! }
//! let report = engine.shutdown();
//! println!("{}", report.stats);
//! for d in &report.decisions {
//!     println!("{}: {:?}", d.source, d.verdict);
//! }
//! ```
//!
//! The `deepcsi-served` binary wraps exactly this loop around a
//! synthesized [`deepcsi_data::Dataset`] or a capture file;
//! `examples/streaming_auth.rs`
//! in the workspace root is the narrated version.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod engine;
mod plane;
mod policy;
mod registry;
mod replay;
mod snapshot;
mod telemetry;
mod window;

pub use deepcsi_core::Precision;
pub use emit::{emit_metrics, MetricsEmitter};
pub use engine::{
    shard_of, AuditConfig, Backpressure, DeviceDecision, Engine, EngineConfig, EngineReport,
    IngestOutcome, LayerProfile, SourceStatus,
};
pub use plane::{ExtraMetrics, ObsPlane, ObsPlaneConfig};
pub use policy::{
    DecisionPolicy, DecisionPolicyConfig, PolicyKind, PolicySnapshot, PolicyState, Welford,
};
pub use registry::{DeviceRegistry, Verdict, VerdictPolicy};
pub use replay::ReplaySource;
pub use snapshot::{DeviceSnapshot, EngineSnapshot, SnapshotError};
pub use telemetry::{
    EngineStats, LatencyHistogram, ReportCountHistogram, Stage, StageSnapshot, Telemetry,
};
pub use window::{DecisionWindow, WindowConfig, WindowSnapshot, WindowedDecision};
