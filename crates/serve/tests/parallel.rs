//! Worker-count and batch-size invariance: the number of shard workers
//! and `max_batch` may change throughput, never a verdict.
//!
//! Workers are the engine's only serving threads. Reports are sharded by
//! source MAC, every worker runs `FrozenModel::infer_batch` on its own
//! context, and that call is bit-exact at any batch size (pinned at the
//! nn layer), so an engine run at any worker count must produce
//! *identical* per-device decisions — same verdicts, same windowed
//! evidence, same reports-to-verdict latency. These tests pin that end
//! to end through the engine, including the crafted policy scenario
//! from the decision-policy test suite.

mod common;

use std::sync::Arc;

use common::{calib, config, dataset, frames, serve, takeover, trained_authenticator, Takeover};
use deepcsi_core::FrozenAuthenticator;
use deepcsi_serve::{
    DeviceRegistry, Engine, EngineConfig, EngineReport, PolicyKind, Precision, ReplaySource,
    Verdict,
};

/// The core invariance: one frozen snapshot served at
/// `workers ∈ {1, 2, 4}` yields byte-for-byte identical decisions —
/// verdicts, windowed evidence and decision latency all match the
/// single-worker run, while every report still classifies.
#[test]
fn worker_count_never_changes_a_decision() {
    let ds = dataset(3, 40);
    // One Arc shared by all three engines — no weight copy anywhere.
    let frozen = Arc::new(trained_authenticator(&ds).freeze());
    let frames = frames(&ds);
    let registry = ReplaySource::registry(&ds);

    let baseline = serve(
        PolicyKind::FixedMajority,
        1,
        &frozen,
        registry.clone(),
        &frames,
    );
    assert_eq!(baseline.stats.classified as usize, frames.len());
    assert!(
        baseline
            .decisions
            .iter()
            .all(|d| d.verdict == Verdict::Accept),
        "clean capture must accept every registered stream"
    );

    for workers in [2usize, 4] {
        let report = serve(
            PolicyKind::FixedMajority,
            workers,
            &frozen,
            registry.clone(),
            &frames,
        );
        assert_eq!(report.stats.classified as usize, frames.len());
        assert_eq!(report.stats.rejected, 0);
        assert_eq!(
            baseline.decisions, report.decisions,
            "decisions diverged at workers={workers}"
        );
    }
}

/// The decision-policy suite's takeover scenario at one and four
/// workers: an impostor presents the *right* module at collapsed
/// confidence. The verdicts must match the policy tests exactly —
/// `FixedMajority` accepts, `AdaptiveThreshold` flags — whichever shard
/// the stream lands on.
#[test]
fn policy_verdicts_are_identical_at_any_worker_count() {
    let Takeover {
        auth,
        registry,
        frames,
        ..
    } = takeover();
    let frozen = Arc::new(auth.freeze());

    for workers in [1usize, 4] {
        let fixed = serve(
            PolicyKind::FixedMajority,
            workers,
            &frozen,
            registry.clone(),
            &frames,
        );
        let adaptive = serve(
            PolicyKind::AdaptiveThreshold,
            workers,
            &frozen,
            registry.clone(),
            &frames,
        );
        for r in [&fixed, &adaptive] {
            assert_eq!(r.stats.classified, frames.len() as u64);
            assert_eq!(r.decisions.len(), 1);
            let d = r.decisions[0].decision.expect("stream has evidence");
            assert_eq!(d.module, 0, "impostor must present the right module");
            assert_eq!(d.observations, frames.len() as u64);
        }
        // Same outcome the policy tests pin: the fixed majority passes
        // the impostor, the adaptive floor flags it.
        assert_eq!(fixed.decisions[0].verdict, Verdict::Accept);
        assert_eq!(adaptive.decisions[0].verdict, Verdict::Reject);
        let decided_at = adaptive.decisions[0].decided_at.expect("decided");
        assert!(decided_at <= 40, "decided during the genuine phase");
    }
}

/// Replays `frames` through a two-worker engine with an explicit batch
/// cap.
fn serve_batched(
    max_batch: usize,
    frozen: &Arc<FrozenAuthenticator>,
    registry: DeviceRegistry,
    frames: &[Vec<u8>],
) -> EngineReport {
    let engine = Engine::start_frozen(
        EngineConfig {
            max_batch,
            ..config(PolicyKind::FixedMajority, 2)
        },
        Arc::clone(frozen),
        registry,
    );
    for frame in frames {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

/// Batch composition changes departure timing, never a decision: the
/// same capture served at `max_batch` 1 (every report alone), 7 (ragged
/// lane blocks) and 32 (full lane blocks) produces identical decision
/// vectors — at f32 AND int8, on each worker's single context.
#[test]
fn batch_size_never_changes_a_decision() {
    let ds = dataset(2, 24);
    let auth = trained_authenticator(&ds);
    let int8 =
        FrozenAuthenticator::quantized(&auth, &calib(&auth, &ds)).expect("int8 quantization");
    let snapshots = [
        (Precision::F32, Arc::new(auth.freeze())),
        (Precision::Int8, Arc::new(int8)),
    ];
    let frames = frames(&ds);
    let registry = ReplaySource::registry(&ds);

    for (precision, frozen) in &snapshots {
        let single = serve_batched(1, frozen, registry.clone(), &frames);
        assert_eq!(single.stats.classified as usize, frames.len());
        for max_batch in [7, 32] {
            let report = serve_batched(max_batch, frozen, registry.clone(), &frames);
            assert_eq!(report.stats.classified as usize, frames.len());
            assert_eq!(
                single.decisions, report.decisions,
                "decisions diverged at max_batch={max_batch}, {precision:?}"
            );
        }
    }
}
