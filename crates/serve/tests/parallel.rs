//! Thread-parallel inference integration tests: `infer_threads` and
//! `max_batch` may change throughput, never a verdict.
//!
//! The frozen model's lane split is bit-exact (pinned at the nn layer by
//! proptests), so an engine run at any `infer_threads` must produce
//! *identical* per-device decisions — same verdicts, same windowed
//! evidence, same reports-to-verdict latency. These tests pin that end
//! to end through the engine, including the crafted policy scenarios
//! from the decision-policy test suite re-run at `infer_threads > 1`.

use std::sync::Arc;

use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
use deepcsi_core::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
use deepcsi_data::{d1_split, generate_d1, D1Set, Dataset, GenConfig, InputSpec};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_impair::DeviceId;
use deepcsi_nn::{Dense, Flatten, Network, Tensor, TrainConfig};
use deepcsi_phy::{Codebook, MimoConfig};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig, EngineReport,
    PolicyKind, Precision, ReplaySource, Verdict,
};

fn spec() -> InputSpec {
    InputSpec {
        stride: 4,
        ..InputSpec::default()
    }
}

fn trained_authenticator(ds: &Dataset, modules: usize) -> Authenticator {
    let spec = spec();
    let split = d1_split(ds, D1Set::S1, &[1, 2], &spec);
    let cfg = ExperimentConfig {
        model: ModelConfig::demo(modules),
        train: TrainConfig {
            epochs: 6,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 5,
            ..TrainConfig::default()
        },
    };
    let result = run_experiment(&cfg, &split);
    assert!(result.accuracy > 0.8, "model too weak for verdict tests");
    Authenticator::new(result.network, spec)
}

fn config(kind: PolicyKind, infer_threads: usize) -> EngineConfig {
    EngineConfig {
        workers: 2,
        infer_threads,
        backpressure: Backpressure::Block,
        decision: DecisionPolicyConfig {
            kind,
            ..DecisionPolicyConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Replays `frames` through one engine sharing `frozen`, returning the
/// final report.
fn serve_frozen(
    kind: PolicyKind,
    infer_threads: usize,
    frozen: &Arc<deepcsi_core::FrozenAuthenticator>,
    registry: DeviceRegistry,
    frames: &[Vec<u8>],
) -> EngineReport {
    let engine = Engine::start_frozen(config(kind, infer_threads), Arc::clone(frozen), registry);
    for frame in frames {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

/// The core invariance: one frozen snapshot served at
/// `infer_threads ∈ {1, 2, 4}` yields byte-for-byte identical decisions
/// — verdicts, windowed evidence and decision latency all match the
/// single-threaded run, while every report still classifies.
#[test]
fn infer_threads_never_change_a_decision() {
    let ds = generate_d1(&GenConfig {
        num_modules: 3,
        snapshots_per_trace: 40,
        ..GenConfig::default()
    });
    let auth = trained_authenticator(&ds, 3);
    // One Arc shared by all three engines — no weight copy anywhere.
    let frozen = Arc::new(auth.freeze());
    let frames: Vec<Vec<u8>> = ReplaySource::from_dataset(&ds)
        .frames()
        .map(<[u8]>::to_vec)
        .collect();
    let registry = ReplaySource::registry(&ds);

    let baseline = serve_frozen(
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

    for threads in [2usize, 4] {
        let report = serve_frozen(
            PolicyKind::FixedMajority,
            threads,
            &frozen,
            registry.clone(),
            &frames,
        );
        assert_eq!(report.stats.classified as usize, frames.len());
        assert_eq!(report.stats.rejected, 0);
        assert_eq!(
            baseline.decisions, report.decisions,
            "decisions diverged at infer_threads={threads}"
        );
    }
}

/// A hand-built 3×2 feedback whose six quantized angles are set per
/// "device", over 16 subcarriers (mirrors the decision-policy suite).
fn crafted_feedback(q_phi: [u16; 3], q_psi: [u16; 3]) -> BeamformingFeedback {
    let subcarriers: Vec<i32> = (0..16).collect();
    let angles = vec![
        QuantizedAngles {
            m: 3,
            n_ss: 2,
            q_phi: q_phi.to_vec(),
            q_psi: q_psi.to_vec(),
        };
        subcarriers.len()
    ];
    BeamformingFeedback::from_angles(
        MimoConfig::new(3, 2, 2).expect("valid"),
        Codebook::MU_HIGH,
        subcarriers,
        &angles,
    )
}

fn frame_for(source: MacAddr, seq: u16, fb: BeamformingFeedback) -> Vec<u8> {
    let monitor = MacAddr::station(0xAC_CE55);
    BeamformingReportFrame::new(monitor, source, monitor, seq, fb).encode()
}

/// A Flatten+Dense classifier with hand-set weights giving exact logits
/// per stream phase (same construction as the decision-policy suite):
/// class 0 hits `logit_genuine` on the genuine tensor and
/// `logit_impostor` on the impostor tensor, classes 1–2 stay at 0.
fn crafted_authenticator(
    spec: &InputSpec,
    genuine: &BeamformingFeedback,
    impostor: &BeamformingFeedback,
    logit_genuine: f64,
    logit_impostor: f64,
) -> Authenticator {
    let t_a: Tensor = spec.tensor(genuine);
    let t_b: Tensor = spec.tensor(impostor);
    let (a, b) = (t_a.as_slice(), t_b.as_slice());
    assert_eq!(a.len(), b.len());
    let dot = |x: &[f32], y: &[f32]| -> f64 {
        x.iter()
            .zip(y)
            .map(|(&p, &q)| f64::from(p) * f64::from(q))
            .sum()
    };
    let (gaa, gab, gbb) = (dot(a, a), dot(a, b), dot(b, b));
    let det = gaa * gbb - gab * gab;
    assert!(det.abs() > 1e-9, "crafted tensors are linearly dependent");
    let alpha = (logit_genuine * gbb - logit_impostor * gab) / det;
    let beta = (logit_impostor * gaa - logit_genuine * gab) / det;

    let mut net = Network::new();
    net.push(Flatten::new());
    net.push(Dense::new(a.len(), 3, 1));
    for view in net.params() {
        for w in view.w.iter_mut() {
            *w = 0.0;
        }
        if view.w.len() == a.len() * 3 {
            for (j, w) in view.w[..a.len()].iter_mut().enumerate() {
                *w = (alpha * f64::from(a[j]) + beta * f64::from(b[j])) as f32;
            }
        }
    }
    Authenticator::new(net, spec.clone())
}

/// The decision-policy suite's takeover scenario, re-run with
/// `infer_threads = 2`: an impostor presents the *right* module at
/// collapsed confidence. The verdicts must match the policy tests
/// exactly — `FixedMajority` accepts, `AdaptiveThreshold` flags — no
/// matter how the micro-batches were split across inference threads.
#[test]
fn policy_verdicts_are_identical_at_two_infer_threads() {
    let spec = InputSpec::default();
    let genuine_fb = crafted_feedback([100, 200, 300], [40, 60, 80]);
    let impostor_fb = crafted_feedback([350, 50, 120], [20, 90, 35]);
    // softmax(6, 0, 0) ≈ 0.995 confidence genuine, softmax(1.5, 0, 0)
    // ≈ 0.69 impostor — same winning class.
    let auth = crafted_authenticator(&spec, &genuine_fb, &impostor_fb, 6.0, 1.5);
    let frozen = Arc::new(auth.freeze());

    let victim = MacAddr::station(0x715);
    let mut registry = DeviceRegistry::new();
    registry.register(victim, DeviceId(0));

    let mut frames: Vec<Vec<u8>> = Vec::new();
    for k in 0..40u16 {
        frames.push(frame_for(victim, k, genuine_fb.clone()));
    }
    for k in 40..80u16 {
        frames.push(frame_for(victim, k, impostor_fb.clone()));
    }

    for threads in [2usize, 4] {
        let fixed = serve_frozen(
            PolicyKind::FixedMajority,
            threads,
            &frozen,
            registry.clone(),
            &frames,
        );
        let adaptive = serve_frozen(
            PolicyKind::AdaptiveThreshold,
            threads,
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
        // Same outcome the single-threaded policy tests pin: the fixed
        // majority passes the impostor, the adaptive floor flags it.
        assert_eq!(fixed.decisions[0].verdict, Verdict::Accept);
        assert_eq!(adaptive.decisions[0].verdict, Verdict::Reject);
        let decided_at = adaptive.decisions[0].decided_at.expect("decided");
        assert!(decided_at <= 40, "decided during the genuine phase");
    }
}

/// Replays `frames` through the 2-lane pool with an explicit batch cap.
fn serve_batched(
    max_batch: usize,
    frozen: &Arc<deepcsi_core::FrozenAuthenticator>,
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
/// vectors — at f32 AND int8, through the pooled multi-lane path.
#[test]
fn batch_size_never_changes_a_decision() {
    let ds = generate_d1(&GenConfig {
        num_modules: 2,
        snapshots_per_trace: 24,
        ..GenConfig::default()
    });
    let auth = trained_authenticator(&ds, 2);
    let calib: Vec<Tensor> = ds
        .traces
        .iter()
        .flat_map(|t| t.snapshots.iter())
        .map(|fb| auth.tensorize(fb))
        .collect();
    let snapshots = [
        (Precision::F32, Arc::new(auth.freeze())),
        (
            Precision::Int8,
            Arc::new(
                deepcsi_core::FrozenAuthenticator::quantized(&auth, &calib)
                    .expect("int8 quantization"),
            ),
        ),
    ];
    let frames: Vec<Vec<u8>> = ReplaySource::from_dataset(&ds)
        .frames()
        .map(<[u8]>::to_vec)
        .collect();
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
