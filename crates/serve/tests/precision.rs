//! Engine precision equivalence: the same capture served at
//! `--precision f32` and `--precision int8` must reach the same
//! verdicts.
//!
//! Quantization is allowed to perturb logits (the nn-level parity suite
//! bounds by how much), but on the clean-capture fixtures and the
//! crafted impostor scenario the *decisions* — per-device verdict and
//! decided module — must be identical, at any worker count.

mod common;

use std::sync::Arc;

use common::{calib, dataset, frames, serve, takeover, trained_authenticator, Takeover};
use deepcsi_core::FrozenAuthenticator;
use deepcsi_frame::MacAddr;
use deepcsi_serve::{EngineReport, PolicyKind, ReplaySource, Verdict};

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
/// worker counts — and the int8 run classifies every report (no
/// rejects, no drops).
#[test]
fn precision_never_changes_a_clean_capture_verdict() {
    let ds = dataset(3, 40);
    let auth = trained_authenticator(&ds);
    let f32_snap = Arc::new(auth.freeze());
    let int8_snap = Arc::new(FrozenAuthenticator::quantized(&auth, &calib(&auth, &ds)).unwrap());
    let frames = frames(&ds);
    let registry = ReplaySource::registry(&ds);

    for kind in [PolicyKind::FixedMajority, PolicyKind::ConfidenceWeighted] {
        let baseline = serve(kind, 2, &f32_snap, registry.clone(), &frames);
        assert!(
            baseline
                .decisions
                .iter()
                .all(|d| d.verdict == Verdict::Accept),
            "clean capture must accept every registered stream ({kind:?})"
        );
        for workers in [1usize, 2] {
            let quantized = serve(kind, workers, &int8_snap, registry.clone(), &frames);
            assert_eq!(quantized.stats.classified as usize, frames.len());
            assert_eq!(quantized.stats.rejected, 0);
            assert_eq!(quantized.stats.precision, "int8");
            assert_eq!(
                verdict_vector(&baseline),
                verdict_vector(&quantized),
                "verdicts diverged at int8 (policy {kind:?}, workers {workers})"
            );
        }
    }
}

/// PR 3's takeover scenario at int8: an impostor presenting the right
/// module at collapsed confidence must still pass the fixed majority
/// and still be flagged by the adaptive floor — quantization does not
/// blunt the adaptive policy's confidence discrimination.
#[test]
fn impostor_scenario_verdicts_survive_quantization() {
    let Takeover {
        auth,
        calib,
        registry,
        frames,
    } = takeover();
    let int8_snap = Arc::new(FrozenAuthenticator::quantized(&auth, &calib).unwrap());

    for workers in [1usize, 2] {
        let fixed = serve(
            PolicyKind::FixedMajority,
            workers,
            &int8_snap,
            registry.clone(),
            &frames,
        );
        let adaptive = serve(
            PolicyKind::AdaptiveThreshold,
            workers,
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
