//! Decision policies side by side: how fast each policy reaches a
//! verdict on a clean capture, and what happens when an impostor takes
//! over a stream presenting the right identity at the wrong confidence.
//!
//! 1. Simulate a capture campaign and train a fast classifier.
//! 2. Replay the same frame stream through three engines — fixed
//!    majority window, confidence-weighted early exit, adaptive
//!    per-device thresholds — and compare reports-to-verdict.
//! 3. Replay a degraded-channel continuation of the same streams and
//!    watch the adaptive policy flag what the fixed window accepts.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example decision_policies
//! ```

use deepcsi::core::{run_experiment, Authenticator, ExperimentConfig, ModelConfig};
use deepcsi::data::{d1_split, generate_d1, D1Set, GenConfig, InputSpec};
use deepcsi::impair::ImpairmentProfile;
use deepcsi::nn::TrainConfig;
use deepcsi::serve::{
    Backpressure, DecisionPolicyConfig, Engine, EngineConfig, EngineReport, PolicyKind,
    ReplaySource,
};

fn run_policy(
    kind: PolicyKind,
    auth: &Authenticator,
    registry: &deepcsi::serve::DeviceRegistry,
    frames: &[Vec<u8>],
) -> EngineReport {
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            decision: DecisionPolicyConfig {
                kind,
                ..DecisionPolicyConfig::default()
            },
            ..EngineConfig::default()
        },
        auth.freeze(),
        registry.clone(),
    );
    for frame in frames {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

fn main() {
    // --- 1. Dataset + classifier --------------------------------------------
    let gen = GenConfig {
        num_modules: 3,
        snapshots_per_trace: 40,
        ..GenConfig::default()
    };
    println!("generating D1 capture for {} AP modules…", gen.num_modules);
    let dataset = generate_d1(&gen);

    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let split = d1_split(&dataset, D1Set::S1, &[1, 2], &spec);
    let cfg = ExperimentConfig {
        model: ModelConfig::demo(3),
        train: TrainConfig {
            epochs: 6,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 5,
            ..TrainConfig::default()
        },
    };
    println!("training…");
    let result = run_experiment(&cfg, &split);
    println!("  per-sample test accuracy {:.1}%", result.accuracy * 100.0);
    let auth = Authenticator::new(result.network, spec);

    let replay = ReplaySource::from_dataset(&dataset);
    let registry = ReplaySource::registry(&dataset);
    let clean: Vec<Vec<u8>> = replay.frames().map(<[u8]>::to_vec).collect();

    // --- 2. Clean capture: who decides fastest? -----------------------------
    println!("\n== clean capture: reports-to-verdict per stream ==");
    println!(
        "{:<22} {:>8} {:>12} {:>10}",
        "stream", "policy", "verdict", "decided@"
    );
    let kinds = [
        PolicyKind::FixedMajority,
        PolicyKind::ConfidenceWeighted,
        PolicyKind::AdaptiveThreshold,
    ];
    let reports: Vec<EngineReport> = kinds
        .iter()
        .map(|&k| run_policy(k, &auth, &registry, &clean))
        .collect();
    for i in 0..reports[0].decisions.len() {
        for (kind, report) in kinds.iter().zip(&reports) {
            let d = &report.decisions[i];
            println!(
                "{:<22} {:>8} {:>12} {:>10}",
                d.source.to_string(),
                kind.to_string(),
                format!("{:?}", d.verdict),
                d.decided_at
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    for (kind, report) in kinds.iter().zip(&reports) {
        println!(
            "{:>10}: reports-to-verdict p50 {:?}, p99 {:?}",
            kind.to_string(),
            report.stats.reports_to_verdict_p50,
            report.stats.reports_to_verdict_p99,
        );
    }

    // --- 3. Degraded takeover: right identity, wrong confidence -------------
    // The same campaign re-simulated through a much worse channel:
    // identical fingerprints and MACs, but 8 dB SNR and heavy phase
    // noise. Appended after the clean phase it models an impostor
    // replaying degraded captures of the genuine devices.
    println!("\n== degraded takeover after the clean phase ==");
    let degraded_ds = generate_d1(&GenConfig {
        profile: ImpairmentProfile {
            snr_db: 8.0,
            snr_jitter_db: 3.0,
            phase_noise_std_rad: 0.15,
            ..ImpairmentProfile::default()
        },
        ..gen
    });
    let mut handover = clean.clone();
    handover.extend(
        ReplaySource::from_dataset(&degraded_ds)
            .frames()
            .map(<[u8]>::to_vec),
    );

    println!(
        "{:<22} {:>8} {:>12} {:>6}",
        "stream", "policy", "verdict", "conf"
    );
    for kind in [PolicyKind::FixedMajority, PolicyKind::AdaptiveThreshold] {
        let report = run_policy(kind, &auth, &registry, &handover);
        for d in &report.decisions {
            println!(
                "{:<22} {:>8} {:>12} {:>6.2}",
                d.source.to_string(),
                kind.to_string(),
                format!("{:?}", d.verdict),
                d.decision.map(|w| w.confidence_ema).unwrap_or(f64::NAN),
            );
        }
    }
    println!(
        "\nThe fixed window judges only the majority module, so a stream \
         that keeps presenting\nthe right identity stays accepted no matter \
         how its confidence collapses. The\nadaptive policy calibrated each \
         stream's own confidence band during the clean\nphase — streams \
         whose smoothed confidence fell out of their band are flagged."
    );
}
