//! Decision-policy integration tests: the three policies over real
//! engine runs — the confidence policy's early exit at equal accuracy,
//! and the adaptive policy flagging a low-confidence impersonation the
//! fixed policy happily accepts.

mod common;

use std::sync::Arc;

use common::{dataset, frames, serve, takeover, trained_authenticator, Takeover};
use deepcsi_frame::MacAddr;
use deepcsi_impair::DeviceId;
use deepcsi_serve::{DecisionPolicyConfig, DeviceRegistry, PolicyKind, ReplaySource, Verdict};

/// The headline requirement: on a clean capture, `ConfidenceWeighted`
/// must reach the same (all-Accept) verdicts as `FixedMajority`, never
/// later than it, and at the median in at most half the reports.
#[test]
fn confidence_weighted_matches_fixed_accuracy_in_half_the_reports() {
    let ds = dataset(3, 40);
    let frozen = Arc::new(trained_authenticator(&ds).freeze());
    let frames = frames(&ds);
    let registry = ReplaySource::registry(&ds);

    let fixed = serve(
        PolicyKind::FixedMajority,
        2,
        &frozen,
        registry.clone(),
        &frames,
    );
    let confidence = serve(
        PolicyKind::ConfidenceWeighted,
        2,
        &frozen,
        registry,
        &frames,
    );

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

/// The adaptive-threshold flagging scenario the fixed policy cannot see,
/// pinned deterministically end to end through the engine: an impostor
/// takes over a registered stream presenting the *right* module — the
/// majority vote stays clean, so `FixedMajority` keeps accepting — but
/// at a confidence far below the stream's own calibrated profile.
/// `AdaptiveThreshold` flags the takeover.
#[test]
fn adaptive_flags_right_module_wrong_confidence_impostor_fixed_accepts() {
    let Takeover {
        auth,
        registry,
        frames,
        ..
    } = takeover();
    let frozen = Arc::new(auth.freeze());

    let fixed = serve(
        PolicyKind::FixedMajority,
        2,
        &frozen,
        registry.clone(),
        &frames,
    );
    let adaptive = serve(PolicyKind::AdaptiveThreshold, 2, &frozen, registry, &frames);

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
