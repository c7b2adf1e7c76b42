//! Bit-identity oracle for every decision policy.
//!
//! Each case runs four seeded `(module, confidence)` streams of 200
//! pushes through one policy and records, after every push, the
//! `decision()` fields (floats as raw bits) and `verdict(Some(expected))`.
//! The streams settle, drift upward (cleaner channel: recalibration),
//! then step down and stay down (a device that moved, or an impostor
//! presenting the right module at the wrong confidence), with sporadic
//! zero-confidence reports. The trajectories must equal
//! `fixtures/policy_golden.txt` exactly, so any refactor of the policy
//! layer that moves one ulp or one verdict fails here.
//!
//! At push 100 each stream is also saved and restored; the restored
//! state must continue bit-identically to the uninterrupted one.

use deepcsi_serve::{
    DecisionPolicyConfig, PolicyKind, PolicyState, Verdict, VerdictPolicy, WindowConfig,
};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/policy_golden.txt");

const STREAMS: u64 = 4;
const PUSHES: usize = 200;
const RESTORE_AT: usize = 100;

fn cases() -> [(&'static str, DecisionPolicyConfig); 4] {
    let cfg = |kind, per_position| DecisionPolicyConfig {
        kind,
        per_position,
        ..DecisionPolicyConfig::default()
    };
    [
        ("fixed", cfg(PolicyKind::FixedMajority, false)),
        ("confidence", cfg(PolicyKind::ConfidenceWeighted, false)),
        ("adaptive", cfg(PolicyKind::AdaptiveThreshold, false)),
        (
            "adaptive-per-position",
            cfg(PolicyKind::AdaptiveThreshold, true),
        ),
    ]
}

/// A deterministic LCG stream: `(expected module, pushes)`.
fn stream(seed: u64) -> (usize, Vec<(usize, f64)>) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    let unit = |r: u64| (r % 1_000_000) as f64 / 1_000_000.0;
    let expected = seed as usize % 3;
    // Stream 3 is taken over in the last phase: the majority module
    // itself changes, not just the confidence.
    let takeover = seed == 3;
    let step_level = 0.5 + 0.05 * seed as f64;
    let pushes = (0..PUSHES)
        .map(|n| {
            let (base, p_match) = match n {
                0..60 => (0.80, 0.85),
                60..110 => (0.80 + 0.18 * (n - 60) as f64 / 50.0, 0.85),
                _ => (step_level, 0.7),
            };
            let on_identity = unit(next()) < p_match;
            let module = if !on_identity {
                (next() % 4) as usize
            } else if takeover && n >= 110 {
                (expected + 1) % 4
            } else {
                expected
            };
            let confidence = if n % 37 == 36 {
                0.0
            } else {
                (base + 0.16 * (unit(next()) - 0.5)).clamp(0.0, 1.0)
            };
            (module, confidence)
        })
        .collect();
    (expected, pushes)
}

fn record(out: &mut String, state: &dyn PolicyState, expected: usize) {
    let verdict = match state.verdict(Some(expected)) {
        Verdict::Accept => 'A',
        Verdict::Reject => 'R',
        Verdict::Unknown => 'U',
    };
    match state.decision() {
        Some(d) => writeln!(
            out,
            "{} {:016x} {:016x} {} {verdict}",
            d.module,
            d.vote_fraction.to_bits(),
            d.confidence_ema.to_bits(),
            d.observations
        ),
        None => writeln!(out, "- {verdict}"),
    }
    .expect("write to String");
}

/// Renders every case's trajectories, checking the mid-stream
/// save → restore continuation along the way.
fn trajectories() -> String {
    let mut out = String::new();
    for (name, cfg) in cases() {
        let policy = cfg.build(WindowConfig::default(), VerdictPolicy::default());
        for seed in 0..STREAMS {
            writeln!(out, "# {name} stream {seed}").expect("write to String");
            let (expected, pushes) = stream(seed);
            let mut state = policy.new_state();
            let mut restored: Option<Box<dyn PolicyState>> = None;
            for (n, &(module, confidence)) in pushes.iter().enumerate() {
                if n == RESTORE_AT {
                    restored = Some(
                        policy
                            .restore_state(&state.save())
                            .expect("a live state's image restores"),
                    );
                }
                state.push(module, confidence);
                record(&mut out, state.as_ref(), expected);
                if let Some(r) = restored.as_mut() {
                    r.push(module, confidence);
                    let (mut a, mut b) = (String::new(), String::new());
                    record(&mut a, state.as_ref(), expected);
                    record(&mut b, r.as_ref(), expected);
                    assert_eq!(
                        a, b,
                        "{name} stream {seed} push {n}: restored state diverged"
                    );
                }
            }
            let restored = restored.expect("streams outlast the restore point");
            assert_eq!(state.save(), restored.save(), "{name} stream {seed}");
        }
    }
    out
}

#[test]
fn policy_trajectories_match_the_golden_fixture() {
    let got = trajectories();
    for (line, (g, w)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, w, "first divergence at fixture line {}", line + 1);
    }
    assert_eq!(got.lines().count(), FIXTURE.lines().count());
}

#[test]
fn streams_exercise_every_verdict_under_every_policy() {
    // A fixture of all-Unknown trajectories would pin nothing: each
    // case must reach Accept and Reject somewhere.
    let mut sections = FIXTURE.split("# ").filter(|s| !s.is_empty());
    for (name, _) in cases() {
        let mut seen = String::new();
        for _ in 0..STREAMS {
            let section = sections.next().expect("one section per stream");
            assert!(section.starts_with(name), "{section:.40}");
            seen.extend(section.lines().skip(1).filter_map(|l| l.chars().last()));
        }
        for v in ['A', 'R'] {
            assert!(seen.contains(v), "{name}: no {v} verdict in any stream");
        }
    }
}
