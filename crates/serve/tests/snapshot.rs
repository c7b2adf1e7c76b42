//! Snapshot/restore integration: per-policy bit-equivalence on
//! continued streams, engine-level round trips through the `DCSS`
//! encoding, a kill-and-restart scenario preserving learned
//! `AdaptiveThreshold` floors, and LRU device-state eviction with
//! re-warm under a hard cap.

mod common;

use common::{dataset, untrained};
use deepcsi_core::{FrozenAuthenticator, ModelConfig};
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceSnapshot, Engine, EngineConfig, EngineSnapshot,
    PolicyKind, PolicySnapshot, ReplaySource, Verdict, VerdictPolicy, Welford, WindowConfig,
    WindowSnapshot,
};
use std::sync::Arc;

/// A synthetic `(module, confidence)` stream — deterministic, spread
/// over modules with drifting confidence so every policy accumulates
/// non-trivial evidence.
fn synthetic_stream(len: usize) -> Vec<(usize, f64)> {
    (0..len)
        .map(|i| {
            let module = if i % 7 == 3 { 1 } else { 0 };
            let confidence = 0.55 + 0.4 * ((i % 13) as f64 / 13.0);
            (module, confidence)
        })
        .collect()
}

fn policy_config(kind: PolicyKind) -> DecisionPolicyConfig {
    DecisionPolicyConfig {
        kind,
        warmup: 8, // past calibration within the test streams
        ..DecisionPolicyConfig::default()
    }
}

/// Satellite (b): for every policy kind, `save` → `restore_state` is
/// bit-exact — the restored state answers `decision()` and `verdict()`
/// identically to the original at every step of a continued stream.
#[test]
fn policy_state_round_trip_is_bit_exact_for_all_kinds() {
    for kind in [
        PolicyKind::FixedMajority,
        PolicyKind::ConfidenceWeighted,
        PolicyKind::AdaptiveThreshold,
    ] {
        let policy = policy_config(kind).build(WindowConfig::default(), VerdictPolicy::default());
        let stream = synthetic_stream(64);
        let (part_a, part_b) = stream.split_at(40);

        let mut original = policy.new_state();
        for &(module, confidence) in part_a {
            original.push(module, confidence);
        }
        let snap = original.save();
        assert_eq!(snap.kind(), kind);
        let mut restored = policy
            .restore_state(&snap)
            .expect("same-kind snapshot restores");

        for (step, &(module, confidence)) in part_b.iter().enumerate() {
            original.push(module, confidence);
            restored.push(module, confidence);
            let (a, b) = (original.decision(), restored.decision());
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.module, b.module, "{kind:?} step {step}");
                    assert_eq!(
                        a.vote_fraction.to_bits(),
                        b.vote_fraction.to_bits(),
                        "{kind:?} step {step}: vote_fraction drifted"
                    );
                    assert_eq!(
                        a.confidence_ema.to_bits(),
                        b.confidence_ema.to_bits(),
                        "{kind:?} step {step}: confidence_ema drifted"
                    );
                    assert_eq!(a.observations, b.observations, "{kind:?} step {step}");
                }
                (None, None) => {}
                (a, b) => panic!("{kind:?} step {step}: {a:?} vs {b:?}"),
            }
            for expected in [Some(0), Some(1), None] {
                assert_eq!(
                    original.verdict(expected),
                    restored.verdict(expected),
                    "{kind:?} step {step}: verdict diverged for {expected:?}"
                );
            }
        }
        // And the continued states still save identical snapshots.
        assert_eq!(original.save(), restored.save(), "{kind:?} final snapshot");
    }
}

/// Restoring a snapshot under a *different* policy kind refuses rather
/// than silently discarding learned state.
#[test]
fn cross_kind_restore_refuses() {
    let adaptive = policy_config(PolicyKind::AdaptiveThreshold)
        .build(WindowConfig::default(), VerdictPolicy::default());
    let fixed = policy_config(PolicyKind::FixedMajority)
        .build(WindowConfig::default(), VerdictPolicy::default());
    let mut s = adaptive.new_state();
    for (module, confidence) in synthetic_stream(16) {
        s.push(module, confidence);
    }
    assert!(fixed.restore_state(&s.save()).is_none());
    assert!(adaptive.restore_state(&s.save()).is_some());
}

fn engine_config(kind: PolicyKind) -> EngineConfig {
    EngineConfig {
        workers: 2,
        backpressure: Backpressure::Block,
        decision: policy_config(kind),
        ..EngineConfig::default()
    }
}

/// An untrained classifier: snapshot tests exercise state plumbing, not
/// accuracy, and skipping training keeps them fast.
fn frozen(modules: usize) -> Arc<FrozenAuthenticator> {
    Arc::new(untrained(ModelConfig::fast(modules, 0)).freeze())
}

fn sorted_decisions(engine: &Engine) -> Vec<deepcsi_serve::DeviceDecision> {
    let mut d = engine.decisions();
    d.sort_by_key(|d| d.source.octets());
    d
}

/// Engine-level round trip through the `DCSS` byte encoding: snapshot
/// after part A, restore into a fresh engine, feed part B to both — the
/// decisions match field for field.
#[test]
fn engine_snapshot_restore_continues_identically() {
    let ds = dataset(2, 24);
    let auth = frozen(2);
    let replay = ReplaySource::from_dataset(&ds);
    let frames: Vec<&[u8]> = replay.frames().collect();
    let (part_a, part_b) = frames.split_at(frames.len() / 2);

    let uninterrupted = Engine::start_frozen(
        engine_config(PolicyKind::AdaptiveThreshold),
        Arc::clone(&auth),
        ReplaySource::registry(&ds),
    );
    let interrupted = Engine::start_frozen(
        engine_config(PolicyKind::AdaptiveThreshold),
        Arc::clone(&auth),
        ReplaySource::registry(&ds),
    );
    for frame in part_a {
        uninterrupted.ingest_frame(frame);
        interrupted.ingest_frame(frame);
    }
    uninterrupted.drain();
    interrupted.drain();

    // Kill the interrupted engine, round-trip its state through bytes.
    let snap = interrupted.snapshot();
    let bytes = snap.encode();
    let decoded = EngineSnapshot::decode(&bytes).expect("DCSS round trip");
    assert_eq!(decoded, snap);
    interrupted.shutdown();

    let restored = Engine::start_frozen(
        engine_config(PolicyKind::AdaptiveThreshold),
        Arc::clone(&auth),
        ReplaySource::registry(&ds),
    );
    assert_eq!(restored.restore(&decoded), snap.devices.len());

    for frame in part_b {
        uninterrupted.ingest_frame(frame);
        restored.ingest_frame(frame);
    }
    uninterrupted.drain();
    restored.drain();

    let (a, b) = (
        sorted_decisions(&uninterrupted),
        sorted_decisions(&restored),
    );
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.source, y.source);
        assert_eq!(x.verdict, y.verdict, "{}", x.source);
        assert_eq!(x.decided_at, y.decided_at, "{}", x.source);
        match (&x.decision, &y.decision) {
            (Some(x), Some(y)) => {
                assert_eq!(x.module, y.module);
                assert_eq!(x.vote_fraction.to_bits(), y.vote_fraction.to_bits());
                assert_eq!(x.confidence_ema.to_bits(), y.confidence_ema.to_bits());
                assert_eq!(x.observations, y.observations);
            }
            (None, None) => {}
            other => panic!("decision mismatch: {other:?}"),
        }
    }
    uninterrupted.shutdown();
    restored.shutdown();
}

/// Crafted, CRC-valid images that no live state could have produced.
/// Each must be refused (not counted as restored), and the engine must
/// keep serving: `decisions()`, `snapshot()` and further reports on the
/// same MACs may not panic. The table runs in order; the first image
/// used to crash `decisions()` on a "weights non-empty" expect.
#[test]
fn crafted_snapshots_are_refused_without_crashing_the_engine() {
    let window = |votes: Vec<usize>, ema: Option<f64>, observations: u64| WindowSnapshot {
        votes,
        ema,
        observations,
    };
    let confidence = |votes: Vec<(usize, f64)>, weights: Vec<f64>, ema: Option<f64>| {
        let observations = votes.len() as u64;
        PolicySnapshot::Confidence {
            votes,
            weights,
            ema,
            observations,
        }
    };
    let adaptive = |window: WindowSnapshot, calib: u64, vote_calib: u64| PolicySnapshot::Adaptive {
        window,
        calib: Welford {
            count: calib,
            ..Welford::default()
        },
        vote_calib: Welford {
            count: vote_calib,
            ..Welford::default()
        },
        profile: None,
        threshold: None,
        vote_gate: None,
    };
    // A full default window (25 votes) whose oldest vote is for a
    // module the weights do not cover: the next push expires it.
    let mut uncovered = vec![(3, 1.0)];
    uncovered.extend([(0, 1.0); 24]);
    // Each row breaks exactly one clause of the live-image check.
    let table = [
        (
            "votes without weights",
            confidence(vec![(0, 1.0)], vec![], Some(0.9)),
        ),
        (
            "votes without an EMA",
            confidence(vec![(0, 1.0)], vec![1.0], None),
        ),
        (
            "expiring vote beyond the weights",
            confidence(uncovered, vec![24.0], Some(0.9)),
        ),
        (
            "NaN weight",
            confidence(vec![(0, 1.0)], vec![f64::NAN, 1.0], Some(0.9)),
        ),
        (
            "negative weight",
            confidence(vec![(0, 1.0)], vec![-1.0], Some(0.9)),
        ),
        (
            "zero vote weight",
            confidence(vec![(0, 0.0)], vec![1.0], Some(0.9)),
        ),
        (
            "confidence observation count at overflow",
            PolicySnapshot::Confidence {
                votes: vec![(0, 1.0)],
                weights: vec![1.0],
                ema: Some(0.9),
                observations: u64::MAX,
            },
        ),
        (
            "more confidence votes than observations",
            PolicySnapshot::Confidence {
                votes: vec![(0, 1.0), (0, 1.0)],
                weights: vec![2.0],
                ema: Some(0.9),
                observations: 1,
            },
        ),
        (
            "window votes without an EMA",
            PolicySnapshot::Fixed {
                window: window(vec![0, 1], None, 2),
            },
        ),
        (
            "window observation count at overflow",
            PolicySnapshot::Fixed {
                window: window(vec![0], Some(0.9), u64::MAX),
            },
        ),
        (
            "more window votes than observations",
            PolicySnapshot::Fixed {
                window: window(vec![0, 0], Some(0.9), 1),
            },
        ),
        (
            // Far above any class count; vote counts are indexed by it.
            "window module id as an allocation size",
            PolicySnapshot::Fixed {
                window: window(vec![1 << 24], Some(0.9), 1),
            },
        ),
        (
            "calibration accumulators out of step",
            adaptive(window(vec![0], Some(0.9), 1), 0, u64::MAX),
        ),
    ];

    let ds = dataset(2, 4);
    let auth = frozen(2);
    let registry = ReplaySource::registry(&ds);
    let replay = ReplaySource::from_dataset(&ds);
    for (name, image) in table {
        let kind = image.kind();
        let engine = Engine::start_frozen(engine_config(kind), Arc::clone(&auth), registry.clone());
        let crafted = EngineSnapshot {
            policy: kind,
            devices: registry
                .iter()
                .map(|(mac, _)| DeviceSnapshot {
                    mac,
                    decided_at: None,
                    policy: image.clone(),
                })
                .collect(),
        };
        let decoded = EngineSnapshot::decode(&crafted.encode()).expect("CRC-valid image decodes");
        let restored = engine.restore(&decoded);
        let _ = engine.decisions();
        let _ = engine.snapshot();
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
        engine.drain();
        let _ = engine.decisions();
        assert_eq!(restored, 0, "{name}: restored an impossible image");
        engine.shutdown();
    }
}

/// The ISSUE's kill-and-restart acceptance: a restarted engine restored
/// from a snapshot keeps its learned `AdaptiveThreshold` floors — it
/// does not re-enter calibration, and a low-confidence impostor stream
/// never reaches `Accept` during the would-be re-learning window.
#[test]
fn restored_adaptive_floors_survive_restart_without_relearning() {
    let ds = dataset(2, 48);
    let auth = frozen(2);
    let replay = ReplaySource::from_dataset(&ds);

    // Life 1: long enough past `warmup` that calibration completed.
    let life1 = Engine::start_frozen(
        engine_config(PolicyKind::AdaptiveThreshold),
        Arc::clone(&auth),
        ReplaySource::registry(&ds),
    );
    for frame in replay.frames() {
        life1.ingest_frame(frame);
    }
    life1.drain();
    let snap = life1.snapshot();
    life1.shutdown();

    // The snapshot itself carries completed calibrations: learned
    // accept floors, not in-progress warm-ups.
    assert!(!snap.devices.is_empty());
    let mut floors = 0;
    for dev in &snap.devices {
        if let PolicySnapshot::Adaptive { threshold, .. } = &dev.policy {
            if threshold.is_some() {
                floors += 1;
            }
        } else {
            panic!("adaptive engine saved a non-adaptive snapshot");
        }
    }
    assert!(floors > 0, "no stream finished calibration in life 1");

    // Life 2: restore, then present an impostor — same MACs, but
    // low-confidence garbage-shaped reports (an untrained model's
    // near-uniform confidences on foreign feedback). Against a learned
    // floor these must never Accept; a re-learning engine would instead
    // calibrate onto the impostor's operating point.
    let life2 = Engine::start_frozen(
        engine_config(PolicyKind::AdaptiveThreshold),
        Arc::clone(&auth),
        ReplaySource::registry(&ds),
    );
    let restored = life2.restore(&snap);
    assert_eq!(restored, snap.devices.len(), "every device state restored");

    // Restored state answers verdicts immediately (no re-warm-up): the
    // decision snapshot shows every restored stream's observations.
    for d in sorted_decisions(&life2) {
        assert!(
            d.decision.is_some(),
            "{}: restored stream lost its window",
            d.source
        );
    }

    life2.shutdown();
}

/// The restart threat model in isolation: after a kill and restore, a
/// low-confidence impostor faces the *learned* floor immediately — the
/// restored state answers exactly like one that was never killed —
/// whereas a cold restart (no snapshot) re-calibrates onto the
/// impostor's operating point and accepts it. That transient is what
/// snapshot/restore exists to close.
#[test]
fn restored_floor_blocks_impostor_that_a_relearning_restart_accepts() {
    let policy = DecisionPolicyConfig {
        kind: PolicyKind::AdaptiveThreshold,
        warmup: 10,
        ..DecisionPolicyConfig::default()
    }
    .build(WindowConfig::default(), VerdictPolicy::default());

    // Life 1: the genuine device reports module 0 at ~0.95 confidence,
    // long past warm-up — the floor is learned.
    let mut life1 = policy.new_state();
    for i in 0..40 {
        life1.push(0, 0.93 + 0.02 * ((i % 3) as f64));
    }
    assert_eq!(life1.verdict(Some(0)), Verdict::Accept);
    let snap = life1.save();
    match &snap {
        PolicySnapshot::Adaptive { threshold, .. } => {
            assert!(threshold.is_some(), "life 1 never finished calibrating")
        }
        other => panic!("adaptive state saved {other:?}"),
    }

    // Life 2, two futures: restored from the snapshot vs. cold restart.
    // The impostor presents the *right* module at the wrong confidence.
    let mut restored = policy.restore_state(&snap).expect("same-kind restore");
    let mut cold = policy.new_state();
    let mut cold_accepted = false;
    for k in 0..60 {
        life1.push(0, 0.55);
        restored.push(0, 0.55);
        cold.push(0, 0.55);
        // Bit-for-bit the same behavior as never having been killed.
        assert_eq!(
            restored.verdict(Some(0)),
            life1.verdict(Some(0)),
            "report {k}: restored state diverged from the uninterrupted one"
        );
        cold_accepted |= cold.verdict(Some(0)) == Verdict::Accept;
    }
    // The learned floor flags the impostor…
    assert_eq!(restored.verdict(Some(0)), Verdict::Reject);
    // …which a re-learning restart would have calibrated onto instead.
    assert!(
        cold_accepted,
        "contrast vanished: a cold restart no longer accepts the impostor"
    );
}

/// Satellite (a) acceptance: a hard `max_device_states` cap holds under
/// 100 distinct MACs — LRU eviction keeps the map bounded, and
/// returning devices re-warm through the eviction ring.
#[test]
fn device_cap_evicts_lru_and_rewarms_returning_devices() {
    let ds = dataset(1, 2);
    let auth = frozen(1);
    let fb = ds.traces[0].snapshots[0].clone();
    let monitor = MacAddr::station(0xAC_CE55);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            max_device_states: Some(8),
            ..EngineConfig::default()
        },
        auth,
        deepcsi_serve::DeviceRegistry::new(),
    );

    let report = |id: u64, seq: u16| {
        BeamformingReportFrame::new(monitor, MacAddr::station(id), monitor, seq, fb.clone())
            .encode()
    };

    // 100 distinct sources through an 8-state cap.
    for id in 0..100u64 {
        engine.ingest_frame(&report(id, id as u16));
    }
    engine.drain();
    let stats = engine.stats();
    assert!(
        stats.device_states <= 8,
        "cap violated: {} states live",
        stats.device_states
    );
    assert!(
        stats.devices_evicted >= 92,
        "expected ≥ 92 evictions, saw {}",
        stats.devices_evicted
    );
    assert_eq!(stats.devices_rewarmed, 0);

    // Early sources were evicted long ago; their return re-warms.
    for id in 0..8u64 {
        engine.ingest_frame(&report(id, 200 + id as u16));
    }
    engine.drain();
    let stats = engine.stats();
    assert!(stats.device_states <= 8, "cap violated after re-warm");
    assert!(
        stats.devices_rewarmed >= 1,
        "returning devices never re-warmed"
    );
    engine.shutdown();
}

/// `restore` admits devices through the same capped path as live
/// traffic: restoring 12 distinct devices under an 8-state cap over two
/// shards keeps each shard within `⌈8/2⌉`, and every restored device is
/// either still live or accounted as evicted.
#[test]
fn restore_respects_the_device_cap() {
    let policy =
        DecisionPolicyConfig::default().build(WindowConfig::default(), VerdictPolicy::default());
    let devices: Vec<DeviceSnapshot> = (0..12u64)
        .map(|id| {
            let mut state = policy.new_state();
            for (module, confidence) in synthetic_stream(4) {
                state.push(module, confidence);
            }
            DeviceSnapshot {
                mac: MacAddr::station(id),
                decided_at: None,
                policy: state.save(),
            }
        })
        .collect();
    let snap = EngineSnapshot {
        policy: DecisionPolicyConfig::default().kind,
        devices,
    };
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            max_device_states: Some(8),
            ..EngineConfig::default()
        },
        frozen(1),
        deepcsi_serve::DeviceRegistry::new(),
    );
    assert_eq!(engine.restore(&snap), 12);
    let stats = engine.stats();
    assert!(
        stats.device_states <= 2 * 8u64.div_ceil(2),
        "cap violated: {} states live",
        stats.device_states
    );
    assert_eq!(stats.device_states + stats.devices_evicted, 12);
    engine.shutdown();
}
