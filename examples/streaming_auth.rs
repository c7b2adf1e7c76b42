//! Streaming authentication: the `deepcsi-serve` engine end to end.
//!
//! 1. Simulate a capture campaign and train a fast classifier.
//! 2. Freeze the trained model once (`Authenticator::freeze`) and start
//!    the streaming engine on the shared snapshot: MAC-sharded workers,
//!    bounded queues, micro-batched inference over one
//!    `Arc<FrozenAuthenticator>` (no per-worker weight clone),
//!    per-device sliding-window verdicts.
//! 3. Replay the capture as a frame stream — plus one impersonation
//!    attempt and some over-the-air garbage — and read the verdicts.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example streaming_auth
//! ```

use deepcsi::core::demo::{demo_dataset, train, DemoConfig};
use deepcsi::frame::{BeamformingReportFrame, MacAddr};
use deepcsi::serve::{Backpressure, Engine, EngineConfig, ReplaySource, Verdict};
use std::sync::Arc;

fn main() {
    // --- 1. Dataset + classifier --------------------------------------------
    let demo = DemoConfig {
        modules: 3,
        snapshots: 40,
        epochs: 6,
    };
    println!("generating D1 capture for {} AP modules…", demo.modules);
    let dataset = demo_dataset(&demo);
    println!("training…");
    let (auth, accuracy) = train(&dataset, demo.epochs);
    println!("  per-sample test accuracy {:.1}%", accuracy * 100.0);

    // --- 2. Freeze the model, start the engine -------------------------------
    // One immutable weight snapshot serves every worker (and any other
    // consumer holding the Arc) — the engine never clones weights. The
    // classifier itself stays available for more training.
    let frozen = Arc::new(auth.freeze());
    let registry = ReplaySource::registry(&dataset);
    let engine = Engine::start_frozen(
        EngineConfig {
            // Two shards, each classifying its own devices' reports on
            // one core. The worker count can change throughput but never
            // a verdict.
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        Arc::clone(&frozen),
        registry.clone(),
    );

    // --- 3. Stream frames ----------------------------------------------------
    let replay = ReplaySource::from_dataset(&dataset);
    println!(
        "streaming {} frames from {} registered device streams…",
        replay.len(),
        registry.len()
    );
    for frame in replay.frames() {
        engine.ingest_frame(frame);
    }

    // An impersonation attempt: an unregistered station replays module 0's
    // feedback under its own MAC — the registry can only call it Unknown,
    // and registering it against the wrong module would Reject.
    let intruder = MacAddr::station(0xBAD);
    for fb in dataset.traces[0].snapshots.iter().take(30) {
        let bytes = BeamformingReportFrame::new(
            MacAddr::station(0xAC_CE55),
            intruder,
            MacAddr::station(0xAC_CE55),
            0,
            fb.clone(),
        )
        .encode();
        engine.ingest_frame(&bytes);
    }

    // Over-the-air noise that fails to decode.
    for _ in 0..5 {
        engine.ingest_frame(&[0x5A; 13]);
    }

    let report = engine.shutdown();

    // --- 4. Verdicts ----------------------------------------------------------
    println!("\nper-device verdicts:");
    for d in &report.decisions {
        let marker = match d.verdict {
            Verdict::Accept => "✓",
            Verdict::Reject => "✗",
            Verdict::Unknown => "?",
        };
        match &d.decision {
            Some(w) => println!(
                "  {marker} {}  module {}  votes {:.0}%  conf {:.2}  ({} reports)",
                d.source,
                w.module,
                w.vote_fraction * 100.0,
                w.confidence_ema,
                w.observations
            ),
            None => println!("  {marker} {}  (silent)", d.source),
        }
    }
    println!("\nengine telemetry:\n{}", report.stats);
}
