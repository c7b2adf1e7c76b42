//! Deterministic regression: a mid-stream channel re-draw degrades the
//! fixed-majority policy, and per-position calibration recovers it.
//!
//! The stream starts on the training channel (segment 1), then the room
//! is re-drawn and the receiver moves (segment 2). Post-redraw the
//! classifier still identifies the genuine modules, but two of them
//! only by *thin* majorities (module 1 holds 21/25 of its final window,
//! module 2 16/25) — below the strict deployment vote gate (23/25), so
//! [`PolicyKind::FixedMajority`] loses both, though it accepted them
//! before the re-draw; module 0 stays clean at 25/25. After the re-draw
//! every genuine device sits at least two votes from the gate, so the
//! contrast does not hang on a tie.
//! [`PolicyKind::AdaptiveThreshold`] with
//! [`per_position`](deepcsi_serve::DecisionPolicyConfig::per_position)
//! calibration detects the confidence regime change, re-profiles the
//! stream at its new position (restarting its decision window so the
//! gates are learned from post-move statistics), learns a thinner (but
//! still strict-majority) vote gate, and accepts the genuine devices
//! again — without ever accepting an impostor.
//!
//! The whole pipeline is deterministic (seeded generation, seeded
//! training with a host-independent gradient reduction, verdicts
//! independent of engine threading), so these are exact pins on any
//! host, run at both f32 and int8 serving precision. The `#[ignore]`d
//! probes at the bottom re-derive the constants if the generator or the
//! model ever changes on purpose.

use deepcsi_core::{
    run_experiment_with_provider, Authenticator, ExperimentConfig, FrozenAuthenticator,
    ModelConfig, Precision,
};
use deepcsi_data::{Dataset, LabeledSamples, Split};
use deepcsi_impair::DeviceId;
use deepcsi_nn::TrainConfig;
use deepcsi_scenario::{input_spec, samples, stream_mac, SegmentSpec};
use deepcsi_serve::{
    Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig, PolicyKind,
    ReplaySource, Verdict, VerdictPolicy,
};
use std::collections::HashMap;

const MODULES: u32 = 3;
const TRAIN_SNAPSHOTS: usize = 20;
const SEG1_SNAPSHOTS: usize = 30;
const SEG2_SNAPSHOTS: usize = 60;
/// The re-drawn room (segment 2). Deliberately *not* one of the rooms
/// the augmentation provider re-draws during training, so the post-
/// redraw stream is degraded (thin majority) rather than clean.
const REDRAW_ENV: u64 = 6;
/// The receiver position after the re-draw.
const REDRAW_POS: usize = 5;
/// The deployment vote gate: verdicts need a 23/25 majority. After the
/// re-draw the clean module clears it by two votes and the thicker thin
/// majority (module 1, 21/25) misses it by two; before it, the thinnest
/// genuine stream (module 2, 24/25) clears it by one.
const DEPLOY_VOTE_GATE: f64 = 0.9;

fn train_split() -> Split {
    let base = samples(
        &SegmentSpec::train().dataset(MODULES, TRAIN_SNAPSHOTS),
        &input_spec(),
    );
    let mut train = LabeledSamples::default();
    let mut val = LabeledSamples::default();
    for (i, (x, y)) in base.x.iter().zip(&base.y).enumerate() {
        if i % 5 == 4 {
            val.push(x.clone(), *y);
        } else {
            train.push(x.clone(), *y);
        }
    }
    Split {
        train,
        val: val.clone(),
        test: val,
    }
}

/// Trains with channel augmentation (epoch re-draws over several rooms
/// and SNRs, including the segment-2 room), so the classifier survives
/// the re-draw and the remaining degradation is *vote/confidence
/// dilution* — the regime the decision policies differ in.
fn trained() -> (Authenticator, Split) {
    let split = train_split();
    let cfg = ExperimentConfig {
        model: ModelConfig::demo(MODULES as usize),
        train: TrainConfig {
            epochs: 8,
            batch_size: 32,
            learning_rate: 2e-3,
            seed: 7,
            ..TrainConfig::default()
        },
    };
    let spec = input_spec();
    let base = split.train.clone();
    let mut provider = |epoch: usize| {
        let seg = SegmentSpec {
            snr_db: Some([25.0, 15.0, 10.0][epoch % 3]),
            ..SegmentSpec::at([0, 7, 3, 5][epoch % 4], 1)
        };
        let mut out = base.clone();
        out.extend(samples(&seg.dataset(MODULES, TRAIN_SNAPSHOTS), &spec));
        Some(out)
    };
    let result = run_experiment_with_provider(&cfg, &split, &mut provider);
    (Authenticator::new(result.network, input_spec()), split)
}

/// Identity each beamformee-2 stream *claims* (its registry entry).
/// Chosen so the claim differs from the classifier's majority on that
/// stream in both rooms — an impostor whose stolen MAC happens to match
/// what the classifier thinks the hardware is would be accepted by any
/// vote policy, which is not the property under test here.
const IMPOSTOR_CLAIMS: [u32; 3] = [2, 0, 0];

fn registry() -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for m in 0..MODULES {
        reg.register(stream_mac(DeviceId(m), 1), DeviceId(m));
        reg.register(
            stream_mac(DeviceId(m), 2),
            DeviceId(IMPOSTOR_CLAIMS[m as usize]),
        );
    }
    reg
}

fn redraw_segments() -> Vec<Dataset> {
    vec![
        SegmentSpec::train().dataset(MODULES, SEG1_SNAPSHOTS),
        SegmentSpec::at(REDRAW_ENV, REDRAW_POS).dataset(MODULES, SEG2_SNAPSHOTS),
    ]
}

/// Replays `segments` back-to-back through one engine and returns the
/// final verdict per source MAC.
fn run_stream(
    auth: &Authenticator,
    calib: &Split,
    precision: Precision,
    kind: PolicyKind,
    per_position: bool,
    segments: &[Dataset],
) -> HashMap<deepcsi_frame::MacAddr, Verdict> {
    let frozen = match precision {
        Precision::Int8 => {
            FrozenAuthenticator::quantized(auth, &calib.train.x).expect("int8 freeze must succeed")
        }
        _ => auth.freeze(),
    };
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            // A strict deployment gate. The adaptive policy may relax
            // it per stream, but never below a strict majority (0.505).
            policy: VerdictPolicy {
                min_vote_fraction: DEPLOY_VOTE_GATE,
                ..VerdictPolicy::default()
            },
            decision: DecisionPolicyConfig {
                kind,
                per_position,
                ..DecisionPolicyConfig::default()
            },
            ..EngineConfig::default()
        },
        frozen,
        registry(),
    );
    for ds in segments {
        let replay = ReplaySource::from_dataset(ds);
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine
        .shutdown()
        .decisions
        .into_iter()
        .map(|d| (d.source, d.verdict))
        .collect()
}

/// The genuine modules whose post-redraw majorities are correct but thin
/// (in the gap between the learned and deployment vote gates).
const THIN: [DeviceId; 2] = [DeviceId(1), DeviceId(2)];

/// The deterministic pin shared by the f32 and int8 variants.
fn assert_redraw_contrast(precision: Precision) {
    let (auth, calib) = trained();

    // Pre-redraw health: on the training channel alone, both policies
    // accept every genuine stream and no impostor.
    let seg1_only = vec![SegmentSpec::train().dataset(MODULES, SEG1_SNAPSHOTS)];
    for (kind, per_position) in [
        (PolicyKind::FixedMajority, false),
        (PolicyKind::AdaptiveThreshold, true),
    ] {
        let verdicts = run_stream(&auth, &calib, precision, kind, per_position, &seg1_only);
        assert_eq!(
            genuine_accepts(&verdicts),
            MODULES as usize,
            "{kind:?} must accept every genuine stream on the training channel ({precision:?})",
        );
        assert_eq!(
            impostor_accepts(&verdicts),
            0,
            "{kind:?} must not accept impostors on the training channel ({precision:?})",
        );
    }

    // The same streams with a mid-stream re-draw.
    let segments = redraw_segments();
    let fixed = run_stream(
        &auth,
        &calib,
        precision,
        PolicyKind::FixedMajority,
        false,
        &segments,
    );
    let adaptive = run_stream(
        &auth,
        &calib,
        precision,
        PolicyKind::AdaptiveThreshold,
        true,
        &segments,
    );

    // FixedMajority loses the thin genuine devices: their post-redraw
    // majorities are correct but under the deployment gate, so their
    // verdicts fall back to Unknown (never a false Reject).
    for module in THIN {
        assert_eq!(
            fixed[&stream_mac(module, 1)],
            Verdict::Unknown,
            "fixed majority must lose thin genuine module {} after the re-draw ({precision:?})",
            module.0,
        );
    }
    assert_eq!(
        genuine_accepts(&fixed),
        MODULES as usize - THIN.len(),
        "fixed majority must keep the clean genuine device ({precision:?})",
    );

    // AdaptiveThreshold + per-position calibration re-profiles after
    // the move and recovers all genuine devices, the thin ones
    // included.
    for module in THIN {
        assert_eq!(
            adaptive[&stream_mac(module, 1)],
            Verdict::Accept,
            "per-position calibration must recover thin genuine module {} ({precision:?})",
            module.0,
        );
    }
    assert_eq!(
        genuine_accepts(&adaptive),
        MODULES as usize,
        "per-position calibration must accept every genuine stream ({precision:?})",
    );
    assert!(
        genuine_accepts(&adaptive) > genuine_accepts(&fixed),
        "the mitigation must strictly improve on fixed majority ({precision:?})",
    );

    // Relaxing the gate per stream must not open the door to impostors.
    assert_eq!(
        impostor_accepts(&fixed),
        0,
        "fixed majority must not accept impostors after the re-draw ({precision:?})",
    );
    assert_eq!(
        impostor_accepts(&adaptive),
        0,
        "per-position calibration must not accept impostors after the re-draw ({precision:?})",
    );
}

#[test]
fn redraw_degrades_fixed_majority_but_calibration_recovers_f32() {
    assert_redraw_contrast(Precision::F32);
}

#[test]
fn redraw_degrades_fixed_majority_but_calibration_recovers_int8() {
    assert_redraw_contrast(Precision::Int8);
}

fn genuine_accepts(verdicts: &HashMap<deepcsi_frame::MacAddr, Verdict>) -> usize {
    (0..MODULES)
        .filter(|&m| verdicts[&stream_mac(DeviceId(m), 1)] == Verdict::Accept)
        .count()
}

fn impostor_accepts(verdicts: &HashMap<deepcsi_frame::MacAddr, Verdict>) -> usize {
    (0..MODULES)
        .filter(|&m| verdicts[&stream_mac(DeviceId(m), 2)] == Verdict::Accept)
        .count()
}

/// Scans (env, snr) cells for the regime the regression needs: some
/// genuine module whose final-window majority is *correct but thin*
/// (vote in the 0.505..0.6 gap between the learned and fixed gates)
/// while the others stay comfortably above 0.6 — at both precisions.
#[test]
#[ignore = "tuning probe, not a regression pin; run with -- --ignored --nocapture"]
fn probe_window_votes() {
    let (auth, calib) = trained();
    let window = 25;
    for env in 1u64..=7 {
        for snr in [13.0, 12.0, 11.0, 10.0, 9.0] {
            let seg = SegmentSpec {
                snr_db: Some(snr),
                ..SegmentSpec::at(env, 1)
            };
            let ds = seg.dataset(MODULES, SEG2_SNAPSHOTS);
            let mut line = format!("env {env} snr {snr:5.1}:");
            for precision in [Precision::F32, Precision::Int8] {
                let frozen = match precision {
                    Precision::Int8 => {
                        FrozenAuthenticator::quantized(&auth, &calib.train.x).unwrap()
                    }
                    _ => auth.freeze(),
                };
                let mut ctx = frozen.ctx();
                for t in ds.traces.iter().filter(|t| t.beamformee == 1) {
                    let preds: Vec<usize> = t.snapshots[t.snapshots.len() - window..]
                        .iter()
                        .map(|fb| frozen.classify_feedback(fb, &mut ctx))
                        .collect();
                    let correct = preds.iter().filter(|&&p| p == t.module.0 as usize).count();
                    line.push_str(&format!(
                        " {:?}/m{} {:.2}",
                        precision,
                        t.module.0,
                        correct as f64 / window as f64
                    ));
                }
            }
            println!("{line}");
        }
    }
}

/// Scans for cells whose post-redraw dilution is *stationary*: some
/// module's seg2 votes sit in a stable band under the fixed gate while
/// misses are spread from the start (so the learned gate calibrates on
/// representative statistics), and the other modules stay clean.
#[test]
#[ignore = "tuning probe, not a regression pin; run with -- --ignored --nocapture"]
fn probe_stationarity() {
    let (auth, _calib) = trained();
    let frozen = auth.freeze();
    let mut ctx = frozen.ctx();
    for env in 1u64..=7 {
        for pos in [1usize, 3, 5, 8] {
            for snr_db in [None, Some(20.0), Some(12.0)] {
                let seg = SegmentSpec {
                    snr_db,
                    ..SegmentSpec::at(env, pos)
                };
                let ds = seg.dataset(MODULES, SEG2_SNAPSHOTS);
                let mut line = format!("env {env} pos {pos} snr {snr_db:?}:");
                for t in ds.traces.iter().filter(|t| t.beamformee == 1) {
                    let preds: Vec<bool> = t
                        .snapshots
                        .iter()
                        .map(|fb| frozen.classify_feedback(fb, &mut ctx) == t.module.0 as usize)
                        .collect();
                    let vote = |a: usize, b: usize| {
                        preds[a..b].iter().filter(|&&c| c).count() as f64 / (b - a) as f64
                    };
                    line.push_str(&format!(
                        " m{}[{:.2}/{:.2}/{:.2} f10 {}]",
                        t.module.0,
                        vote(0, 25),
                        vote(17, 42),
                        vote(35, 60),
                        preds[..10].iter().filter(|&&c| c).count(),
                    ));
                }
                println!("{line}");
            }
        }
    }
}

/// Steps the adaptive+per-position state machine over one genuine
/// stream and prints its trajectory (EMA, vote, learned gates, verdict),
/// reading the learned gates from the state's saved image.
#[test]
#[ignore = "tuning probe, not a regression pin; run with -- --ignored --nocapture"]
fn probe_adaptive_trajectory() {
    use deepcsi_serve::{PolicySnapshot, WindowConfig};

    let (auth, _calib) = trained();
    let frozen = auth.freeze();
    let mut ctx = frozen.ctx();
    let policy = DecisionPolicyConfig {
        kind: PolicyKind::AdaptiveThreshold,
        per_position: true,
        ..DecisionPolicyConfig::default()
    }
    .build(
        WindowConfig::default(),
        VerdictPolicy {
            min_vote_fraction: DEPLOY_VOTE_GATE,
            ..VerdictPolicy::default()
        },
    );
    let warmup = DecisionPolicyConfig::default().warmup;
    let segments = redraw_segments();
    for module in THIN {
        println!("module {}:", module.0);
        let mut state = policy.new_state();
        let mut i = 0usize;
        for ds in &segments {
            let t = ds
                .traces
                .iter()
                .find(|t| t.module == module && t.beamformee == 1)
                .unwrap();
            for fb in &t.snapshots {
                let x = frozen.tensorize(fb);
                let logits = frozen.model().infer(&x, &mut ctx);
                let pred = logits.argmax();
                let max = logits
                    .as_slice()
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max);
                let sum: f64 = logits
                    .as_slice()
                    .iter()
                    .map(|&v| f64::from(v - max).exp())
                    .sum();
                let confidence = 1.0 / sum;
                state.push(pred, confidence);
                let d = state.decision().unwrap();
                let PolicySnapshot::Adaptive {
                    calib,
                    threshold,
                    vote_gate,
                    ..
                } = state.save()
                else {
                    unreachable!("an adaptive policy saves adaptive images")
                };
                if i % 5 == 4 || i == 29 || i == 30 {
                    println!(
                    "report {i:3}: pred {pred} ema {:.3} vote {:.2} calibrating {} threshold {:?} gate {:?} verdict {:?}",
                    d.confidence_ema,
                    d.vote_fraction,
                    calib.count < warmup,
                    threshold.map(|t| (t * 1000.0).round() / 1000.0),
                    vote_gate.map(|g| (g * 1000.0).round() / 1000.0),
                    state.verdict(Some(module.0 as usize)),
                );
                }
                i += 1;
            }
        }
    }
}

/// Exploration harness: prints per-device engine verdicts for the
/// pinned redraw cell so the pins below can be re-derived if the
/// generator or model ever changes intentionally.
#[test]
#[ignore = "tuning probe, not a regression pin; run with -- --ignored --nocapture"]
fn probe_engine_verdicts() {
    let (auth, calib) = trained();
    let segments = redraw_segments();
    for (si, seg) in segments.iter().enumerate() {
        for t in &seg.traces {
            let preds: Vec<usize> = t
                .snapshots
                .iter()
                .map(|fb| auth.classify_feedback(fb))
                .collect();
            let mut counts = vec![0usize; MODULES as usize];
            for &p in &preds {
                counts[p] += 1;
            }
            // The last default-length window: what the verdict sees.
            let last: Vec<usize> = preds[preds.len().saturating_sub(25)..].to_vec();
            let mut last_counts = vec![0usize; MODULES as usize];
            for &p in &last {
                last_counts[p] += 1;
            }
            println!(
                "  seg{si} module {} bf{} pred counts {counts:?} final window {last_counts:?}",
                t.module, t.beamformee
            );
        }
    }
    for precision in [Precision::F32, Precision::Int8] {
        let fixed = run_stream(
            &auth,
            &calib,
            precision,
            PolicyKind::FixedMajority,
            false,
            &segments,
        );
        let adaptive = run_stream(
            &auth,
            &calib,
            precision,
            PolicyKind::AdaptiveThreshold,
            true,
            &segments,
        );
        let per_device: Vec<String> = (0..MODULES)
            .map(|m| {
                format!(
                    "m{m} fixed {:?} adaptive {:?} | imp{m} fixed {:?} adaptive {:?}",
                    fixed[&stream_mac(DeviceId(m), 1)],
                    adaptive[&stream_mac(DeviceId(m), 1)],
                    fixed[&stream_mac(DeviceId(m), 2)],
                    adaptive[&stream_mac(DeviceId(m), 2)]
                )
            })
            .collect();
        println!(
            "{precision:?}: fixed genuine {}/{} impostor {} | adaptive+pp genuine {}/{} impostor {} | {}",
            genuine_accepts(&fixed),
            MODULES,
            impostor_accepts(&fixed),
            genuine_accepts(&adaptive),
            MODULES,
            impostor_accepts(&adaptive),
            per_device.join(" | "),
        );
    }
}
