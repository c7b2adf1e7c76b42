//! Engine precision equivalence: the same capture served at
//! `--precision f32` and `--precision int8` must reach the same
//! verdicts.
//!
//! Quantization is allowed to perturb logits (the nn-level parity suite
//! bounds by how much), but on the clean-capture fixtures and the
//! crafted impostor scenario the *decisions* — per-device verdict and
//! decided module — must be identical, at any `infer_threads` split.

use std::sync::Arc;

use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
use deepcsi_core::{
    run_experiment, Authenticator, ExperimentConfig, FrozenAuthenticator, ModelConfig,
};
use deepcsi_data::{d1_split, generate_d1, D1Set, Dataset, GenConfig, InputSpec};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_impair::DeviceId;
use deepcsi_nn::{Dense, Flatten, Network, Tensor, TrainConfig};
use deepcsi_phy::{Codebook, MimoConfig};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig, EngineReport,
    PolicyKind, ReplaySource, Verdict,
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

/// Calibration batch: every tensorized snapshot of the dataset.
fn calib_tensors(auth: &Authenticator, ds: &Dataset) -> Vec<Tensor> {
    ds.traces
        .iter()
        .flat_map(|t| t.snapshots.iter())
        .map(|fb| auth.tensorize(fb))
        .collect()
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

fn serve(
    kind: PolicyKind,
    infer_threads: usize,
    frozen: &Arc<FrozenAuthenticator>,
    registry: DeviceRegistry,
    frames: &[Vec<u8>],
) -> EngineReport {
    let engine = Engine::start_frozen(config(kind, infer_threads), Arc::clone(frozen), registry);
    for frame in frames {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

/// The comparable decision surface: per-device (source, verdict,
/// decided module). Confidence EMAs may differ in the last ulps between
/// precisions; the decisions must not.
fn verdict_vector(report: &EngineReport) -> Vec<(MacAddr, Verdict, Option<usize>)> {
    report
        .decisions
        .iter()
        .map(|d| (d.source, d.verdict, d.decision.map(|w| w.module)))
        .collect()
}

/// Clean-capture equivalence: a trained model serving its own synthetic
/// capture decides identically at f32 and int8, across policies and
/// `infer_threads` — and the int8 run classifies every report (no
/// rejects, no drops).
#[test]
fn precision_never_changes_a_clean_capture_verdict() {
    let ds = generate_d1(&GenConfig {
        num_modules: 3,
        snapshots_per_trace: 40,
        ..GenConfig::default()
    });
    let auth = trained_authenticator(&ds, 3);
    let f32_snap = Arc::new(auth.freeze());
    let int8_snap =
        Arc::new(FrozenAuthenticator::quantized(&auth, &calib_tensors(&auth, &ds)).unwrap());
    let frames: Vec<Vec<u8>> = ReplaySource::from_dataset(&ds)
        .frames()
        .map(<[u8]>::to_vec)
        .collect();
    let registry = ReplaySource::registry(&ds);

    for kind in [PolicyKind::FixedMajority, PolicyKind::ConfidenceWeighted] {
        let baseline = serve(kind, 1, &f32_snap, registry.clone(), &frames);
        assert!(
            baseline
                .decisions
                .iter()
                .all(|d| d.verdict == Verdict::Accept),
            "clean capture must accept every registered stream ({kind:?})"
        );
        for threads in [1usize, 2] {
            let quantized = serve(kind, threads, &int8_snap, registry.clone(), &frames);
            assert_eq!(quantized.stats.classified as usize, frames.len());
            assert_eq!(quantized.stats.rejected, 0);
            assert_eq!(quantized.stats.precision, "int8");
            assert_eq!(
                verdict_vector(&baseline),
                verdict_vector(&quantized),
                "verdicts diverged at int8 (policy {kind:?}, threads {threads})"
            );
        }
    }
}

/// A hand-built 3×2 feedback whose six quantized angles are set per
/// "device" (mirrors the decision-policy suite).
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
/// per stream phase (same construction as the decision-policy suite).
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

/// PR 3's takeover scenario at int8: an impostor presenting the right
/// module at collapsed confidence must still pass the fixed majority
/// and still be flagged by the adaptive floor — quantization does not
/// blunt the adaptive policy's confidence discrimination.
#[test]
fn impostor_scenario_verdicts_survive_quantization() {
    let spec = InputSpec::default();
    let genuine_fb = crafted_feedback([100, 200, 300], [40, 60, 80]);
    let impostor_fb = crafted_feedback([350, 50, 120], [20, 90, 35]);
    // softmax(6, 0, 0) ≈ 0.995 confidence genuine, softmax(1.5, 0, 0)
    // ≈ 0.69 impostor — same winning class.
    let auth = crafted_authenticator(&spec, &genuine_fb, &impostor_fb, 6.0, 1.5);
    let calib = vec![spec.tensor(&genuine_fb), spec.tensor(&impostor_fb)];
    let int8_snap = Arc::new(FrozenAuthenticator::quantized(&auth, &calib).unwrap());

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

    for threads in [1usize, 2] {
        let fixed = serve(
            PolicyKind::FixedMajority,
            threads,
            &int8_snap,
            registry.clone(),
            &frames,
        );
        let adaptive = serve(
            PolicyKind::AdaptiveThreshold,
            threads,
            &int8_snap,
            registry.clone(),
            &frames,
        );
        for r in [&fixed, &adaptive] {
            assert_eq!(r.stats.classified, frames.len() as u64);
            assert_eq!(r.decisions.len(), 1);
            let d = r.decisions[0].decision.expect("stream has evidence");
            assert_eq!(d.module, 0, "impostor must present the right module");
        }
        // Same outcome the f32 policy tests pin: the fixed majority
        // passes the impostor, the adaptive floor flags it.
        assert_eq!(fixed.decisions[0].verdict, Verdict::Accept);
        assert_eq!(adaptive.decisions[0].verdict, Verdict::Reject);
    }
}
