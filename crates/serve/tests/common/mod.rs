//! Helpers shared by the serving integration tests: datasets and
//! models, the crafted takeover scenario, and lossless engine replays.
//!
//! Every test file includes this with `mod common;` and uses a subset,
//! hence the `dead_code` allowance.

#![allow(dead_code)]

use std::sync::Arc;

use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
use deepcsi_core::demo::{self, input_spec};
use deepcsi_core::{Authenticator, FrozenAuthenticator, ModelConfig};
use deepcsi_data::{generate_d1, Dataset, GenConfig, InputSpec};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_impair::DeviceId;
use deepcsi_nn::{Dense, Flatten, Network, Tensor};
use deepcsi_phy::{Codebook, MimoConfig};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig, EngineReport,
    PolicyKind, ReplaySource,
};

/// Synthetic D1 with `modules` transmitters and `snapshots` reports per
/// trace.
pub fn dataset(modules: u32, snapshots: usize) -> Dataset {
    generate_d1(&GenConfig {
        num_modules: modules,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    })
}

/// The dataset's replay as owned frames, in arrival order.
pub fn frames(ds: &Dataset) -> Vec<Vec<u8>> {
    ReplaySource::from_dataset(ds)
        .frames()
        .map(<[u8]>::to_vec)
        .collect()
}

/// The demo recipe trained on `ds` for 6 epochs — accurate enough that
/// every registered stream of a clean capture is accepted. Its input
/// shape is recorded, as in `deepcsi-served`.
pub fn trained_authenticator(ds: &Dataset) -> Authenticator {
    let (auth, accuracy) = demo::train(ds, 6);
    assert!(
        accuracy > 0.8,
        "per-sample accuracy only {:.2}% — verdict tests need a usable model",
        accuracy * 100.0
    );
    auth
}

/// An untrained `model` on the demo input, for plumbing tests that need
/// no accuracy. Built with [`Authenticator::new`], so no input shape is
/// recorded: the engine learns it from the first report.
pub fn untrained(model: ModelConfig) -> Authenticator {
    let spec = input_spec();
    let probe = spec.tensor(&dataset(1, 1).traces[0].snapshots[0]);
    Authenticator::new(model.build_for(&probe), spec)
}

/// Calibration batch: every tensorized snapshot of the dataset.
pub fn calib(auth: &Authenticator, ds: &Dataset) -> Vec<Tensor> {
    ds.traces
        .iter()
        .flat_map(|t| t.snapshots.iter())
        .map(|fb| auth.tensorize(fb))
        .collect()
}

/// A lossless engine of `workers` shards under `kind`.
pub fn config(kind: PolicyKind, workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        backpressure: Backpressure::Block,
        decision: DecisionPolicyConfig {
            kind,
            ..DecisionPolicyConfig::default()
        },
        ..EngineConfig::default()
    }
}

/// Replays `frames` through one [`config`] engine sharing `frozen`,
/// returning the final report.
pub fn serve(
    kind: PolicyKind,
    workers: usize,
    frozen: &Arc<FrozenAuthenticator>,
    registry: DeviceRegistry,
    frames: &[Vec<u8>],
) -> EngineReport {
    let engine = Engine::start_frozen(config(kind, workers), Arc::clone(frozen), registry);
    for frame in frames {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

/// The takeover scenario the fixed policy cannot see: an impostor takes
/// over a registered stream presenting the *right* module — the
/// majority vote stays clean — but at a confidence far below the
/// stream's own calibrated profile.
pub struct Takeover {
    /// Class 0 wins on both phases: softmax(6, 0, 0) ≈ 0.995 confidence
    /// for the genuine device, softmax(1.5, 0, 0) ≈ 0.69 for the
    /// impostor.
    pub auth: Authenticator,
    /// One genuine and one impostor tensor (an int8 calibration batch).
    pub calib: Vec<Tensor>,
    /// The victim, registered as module 0.
    pub registry: DeviceRegistry,
    /// 40 genuine reports (the adaptive policy calibrates on these),
    /// then 40 from the impostor under the victim's address.
    pub frames: Vec<Vec<u8>>,
}

/// Builds the [`Takeover`] scenario.
pub fn takeover() -> Takeover {
    let spec = InputSpec::default(); // stride 1, stream 0, antennas 0–2
    let genuine = crafted_feedback([100, 200, 300], [40, 60, 80]);
    let impostor = crafted_feedback([350, 50, 120], [20, 90, 35]);
    let victim = MacAddr::station(0x715);
    let mut registry = DeviceRegistry::new();
    registry.register(victim, DeviceId(0));
    let frames = (0..80u16)
        .map(|k| {
            let fb = if k < 40 { &genuine } else { &impostor };
            frame_for(victim, k, fb.clone())
        })
        .collect();
    Takeover {
        auth: crafted_authenticator(&spec, &genuine, &impostor, 6.0, 1.5),
        calib: vec![spec.tensor(&genuine), spec.tensor(&impostor)],
        registry,
        frames,
    }
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
    for view in net.weights_mut() {
        for w in view.iter_mut() {
            *w = 0.0;
        }
        if view.len() == a.len() * 3 {
            for (j, w) in view[..a.len()].iter_mut().enumerate() {
                *w = (alpha * f64::from(a[j]) + beta * f64::from(b[j])) as f32;
            }
        }
    }
    Authenticator::new(net, spec.clone())
}
