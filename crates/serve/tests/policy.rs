//! Decision-policy integration tests: the three policies over real
//! engine runs — the confidence policy's early exit at equal accuracy,
//! and the adaptive policy flagging a low-confidence impersonation the
//! fixed policy happily accepts.

use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
use deepcsi_core::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
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

fn gen_config(snapshots: usize) -> GenConfig {
    GenConfig {
        num_modules: 3,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
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
    assert!(result.accuracy > 0.8, "model too weak for policy tests");
    Authenticator::new(result.network, spec)
}

fn engine_config(kind: PolicyKind) -> EngineConfig {
    EngineConfig {
        workers: 2,
        backpressure: Backpressure::Block,
        decision: DecisionPolicyConfig {
            kind,
            ..DecisionPolicyConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Replays `frames` through one engine under `kind` and returns the
/// final report.
fn serve(
    kind: PolicyKind,
    auth: Authenticator,
    registry: DeviceRegistry,
    frames: &[Vec<u8>],
) -> EngineReport {
    let engine = Engine::start_frozen(engine_config(kind), auth.freeze(), registry);
    for frame in frames {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

/// The acceptance criterion: on a clean capture, `ConfidenceWeighted`
/// must reach the same (all-Accept) verdicts as `FixedMajority`, never
/// later than it, and at the median in at most half the reports.
#[test]
fn confidence_weighted_matches_fixed_accuracy_in_half_the_reports() {
    let ds = generate_d1(&gen_config(40));
    let auth = trained_authenticator(&ds, 3);
    let replay = ReplaySource::from_dataset(&ds);
    let frames: Vec<Vec<u8>> = replay.frames().map(<[u8]>::to_vec).collect();
    let registry = ReplaySource::registry(&ds);

    let fixed = serve(
        PolicyKind::FixedMajority,
        auth.clone(),
        registry.clone(),
        &frames,
    );
    let confidence = serve(PolicyKind::ConfidenceWeighted, auth, registry, &frames);

    assert_eq!(fixed.stats.policy, "fixed");
    assert_eq!(confidence.stats.policy, "confidence");
    assert_eq!(fixed.decisions.len(), confidence.decisions.len());

    // Equal accuracy: every registered stream earns the same Accept —
    // and per stream the confidence policy is never slower than the
    // fixed window.
    for (f, c) in fixed.decisions.iter().zip(confidence.decisions.iter()) {
        assert_eq!(f.source, c.source);
        assert_eq!(f.verdict, Verdict::Accept, "{} under fixed", f.source);
        assert_eq!(c.verdict, Verdict::Accept, "{} under confidence", c.source);

        let f_at = f.decided_at.expect("fixed stream decided");
        let c_at = c.decided_at.expect("confidence stream decided");
        assert!(
            c_at <= f_at,
            "{}: confidence decided at {c_at}, after fixed at {f_at}",
            f.source
        );
    }

    // At the median the early exit is a ≥ 2x cut in reports-to-verdict.
    let f_p50 = fixed.stats.reports_to_verdict_p50.expect("fixed p50");
    let c_p50 = confidence.stats.reports_to_verdict_p50.expect("conf p50");
    assert!(
        c_p50 * 2 <= f_p50,
        "reports-to-verdict p50: confidence {c_p50} vs fixed {f_p50} — not an early exit"
    );
    assert_eq!(fixed.stats.verdicts_decided, fixed.decisions.len() as u64);
}

/// A hand-built 3×2 feedback whose six quantized angles are set per
/// "device", over 16 subcarriers.
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

/// Encodes `fb` as a report frame from `source`.
fn frame_for(source: MacAddr, seq: u16, fb: BeamformingFeedback) -> Vec<u8> {
    let monitor = MacAddr::station(0xAC_CE55);
    BeamformingReportFrame::new(monitor, source, monitor, seq, fb).encode()
}

/// A Flatten+Dense classifier with hand-set weights: class 0's logit is
/// an exact linear functional hitting `logit_genuine` on the genuine
/// tensor and `logit_impostor` on the impostor tensor; classes 1 and 2
/// stay at logit 0. Confidence is thereby controlled exactly while the
/// predicted module stays 0 for both streams.
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
    // Solve w = α·t_a + β·t_b with ⟨w, t_a⟩ = logit_genuine and
    // ⟨w, t_b⟩ = logit_impostor (2×2 Gram system).
    let (gaa, gab, gbb) = (dot(a, a), dot(a, b), dot(b, b));
    let det = gaa * gbb - gab * gab;
    assert!(
        det.abs() > 1e-9,
        "crafted tensors are linearly dependent (det {det})"
    );
    let alpha = (logit_genuine * gbb - logit_impostor * gab) / det;
    let beta = (logit_impostor * gaa - logit_genuine * gab) / det;

    let mut net = Network::new();
    net.push(Flatten::new());
    net.push(Dense::new(a.len(), 3, 1));
    // Overwrite the random init: row 0 = α·t_a + β·t_b, rows 1–2 and
    // the bias all zero.
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

/// The adaptive-threshold flagging scenario the fixed policy cannot see,
/// pinned deterministically end to end through the engine: an impostor
/// takes over a registered stream presenting the *right* module — the
/// majority vote stays clean, so `FixedMajority` keeps accepting — but
/// at a confidence far below the stream's own calibrated profile.
/// `AdaptiveThreshold` flags the takeover.
#[test]
fn adaptive_flags_right_module_wrong_confidence_impostor_fixed_accepts() {
    let spec = InputSpec::default(); // stride 1, stream 0, antennas 0–2
    let genuine_fb = crafted_feedback([100, 200, 300], [40, 60, 80]);
    let impostor_fb = crafted_feedback([350, 50, 120], [20, 90, 35]);
    // softmax(6, 0, 0) ≈ 0.995 confidence for the genuine device;
    // softmax(1.5, 0, 0) ≈ 0.69 for the impostor — same winning class.
    let auth = crafted_authenticator(&spec, &genuine_fb, &impostor_fb, 6.0, 1.5);

    let victim = MacAddr::station(0x715);
    let mut registry = DeviceRegistry::new();
    registry.register(victim, DeviceId(0));

    // 40 genuine reports (the adaptive policy calibrates on these),
    // then the impostor takes over the source address for 40 more.
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for k in 0..40u16 {
        frames.push(frame_for(victim, k, genuine_fb.clone()));
    }
    for k in 40..80u16 {
        frames.push(frame_for(victim, k, impostor_fb.clone()));
    }

    let fixed = serve(
        PolicyKind::FixedMajority,
        auth.clone(),
        registry.clone(),
        &frames,
    );
    let adaptive = serve(PolicyKind::AdaptiveThreshold, auth, registry, &frames);

    // Both engines classified every report and saw the same stream.
    for r in [&fixed, &adaptive] {
        assert_eq!(r.stats.classified, frames.len() as u64);
        assert_eq!(r.decisions.len(), 1);
        let d = r.decisions[0].decision.expect("stream has evidence");
        assert_eq!(d.module, 0, "impostor must present the right module");
        assert_eq!(d.observations, frames.len() as u64);
    }

    // The fixed majority window accepts the impostor: the majority
    // module still matches the registration.
    assert_eq!(
        fixed.decisions[0].verdict,
        Verdict::Accept,
        "fixed policy was expected to pass the impostor: {:?}",
        fixed.decisions[0]
    );

    // The adaptive policy calibrated the stream at ~0.995 confidence;
    // the takeover's ~0.69 EMA is far below the learned floor.
    assert_eq!(
        adaptive.decisions[0].verdict,
        Verdict::Reject,
        "adaptive policy must flag the confidence collapse: {:?}",
        adaptive.decisions[0]
    );
    // It had accepted the genuine phase first (decided before the
    // takeover at report 40).
    let decided_at = adaptive.decisions[0].decided_at.expect("decided");
    assert!(decided_at <= 40, "decided during the genuine phase");
}

/// Re-registering a source to a new module re-judges the *same* policy
/// evidence against the new expectation: the stream that was accepted as
/// module A is confidently rejected once the registry expects module B —
/// without feeding a single new report.
#[test]
fn reregistration_rejudges_existing_policy_state() {
    use deepcsi_serve::{VerdictPolicy, WindowConfig};

    let policy =
        DecisionPolicyConfig::default().build(WindowConfig::default(), VerdictPolicy::default());
    let mut state = policy.new_state();
    for _ in 0..20 {
        state.push(1, 0.9);
    }

    let mac = MacAddr::station(42);
    let mut registry = DeviceRegistry::new();
    registry.register(mac, DeviceId(1));
    let expected = |reg: &DeviceRegistry| reg.expected(mac).map(|d| d.0 as usize);

    assert_eq!(state.verdict(expected(&registry)), Verdict::Accept);
    let before = state.decision().expect("evidence exists");

    // Re-register the MAC to a different module: same evidence, new
    // judgement.
    registry.register(mac, DeviceId(2));
    assert_eq!(state.verdict(expected(&registry)), Verdict::Reject);

    // The stream's evidence is untouched by the registry change.
    assert_eq!(state.decision(), Some(before));
}
