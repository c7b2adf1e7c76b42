//! Dataset-scale soak: sustained report volume through the engine with
//! drop-rate and latency SLO assertions (ROADMAP "dataset-scale serving
//! runs", first slice).
//!
//! Two scales share one harness:
//!
//! * `soak_smoke_10k` — always on, so the harness itself is exercised
//!   by every `cargo test` run and in CI;
//! * `soak_1m` — `#[ignore]`d by default (minutes of wall clock);
//!   run it explicitly for a full-scale soak:
//!   `cargo test -p deepcsi-serve --test soak --release -- --ignored`.
//!
//! The SLOs pinned here are deliberately lax — CI machines are noisy —
//! but they are *real*: lossless ingest (zero drops under `Block`
//! backpressure), full classification accounting at the end of the run,
//! and a p99 micro-batch latency bound.

mod common;

use common::{dataset, untrained};
use deepcsi_core::ModelConfig;
use deepcsi_serve::{Backpressure, Engine, EngineConfig, EngineStats, ReplaySource, Verdict};
use std::time::Duration;

/// p99 micro-batch latency SLO. A batch on this untrained demo-size
/// model takes well under a millisecond of inference; 250 ms only
/// trips on a genuine stall (lock contention, a wedged worker, an
/// allocation storm), not on scheduler noise.
const P99_SLO: Duration = Duration::from_millis(250);

/// Drives at least `total` reports through a 2-worker engine by
/// replaying a small synthetic capture, then asserts the soak SLOs and
/// returns the final stats.
fn run_soak(total: u64) -> EngineStats {
    let ds = dataset(2, 10);
    // Untrained weights: soak measures the serving machinery, not the
    // classifier (throughput does not depend on what the verdicts are).
    let auth = untrained(ModelConfig::demo(2));

    let replay = ReplaySource::from_dataset(&ds);
    let registry = ReplaySource::registry(&ds);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            // Lossless mode: every report must be classified, so the
            // drop-rate SLO is exact (zero), not statistical.
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        auth.freeze(),
        registry.clone(),
    );

    let frames: Vec<&[u8]> = replay.frames().collect();
    assert!(!frames.is_empty());
    let mut sent = 0u64;
    'replay: loop {
        for frame in &frames {
            engine.ingest_frame(frame);
            sent += 1;
            if sent >= total {
                break 'replay;
            }
        }
    }
    engine.drain();
    let report = engine.shutdown();
    let stats = report.stats;

    // --- soak SLOs ---------------------------------------------------
    assert_eq!(stats.ingested, sent, "ingest accounting drifted");
    assert_eq!(stats.dropped, 0, "lossless soak must not drop");
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(
        stats.classified, sent,
        "every enqueued report must be classified by shutdown"
    );
    let p99 = stats.batch_latency_p99.expect("batches ran");
    assert!(
        p99 <= P99_SLO,
        "p99 batch latency {p99:?} exceeds the {P99_SLO:?} SLO"
    );
    // Sustained replay: every registered stream must have accumulated
    // evidence (the model is untrained, so the *verdicts* are not the
    // SLO — the per-stream machinery reaching a windowed decision is).
    assert_eq!(report.decisions.len(), registry.len());
    for d in &report.decisions {
        let w = d
            .decision
            .unwrap_or_else(|| panic!("{} accumulated no evidence", d.source));
        assert!(w.observations > 0);
        assert_ne!(d.verdict, Verdict::Unknown, "{} never decided", d.source);
    }
    stats
}

/// Smoke-scale soak (10k reports): always on, keeping the harness and
/// its SLO assertions exercised by every test run.
#[test]
fn soak_smoke_10k() {
    let stats = run_soak(10_000);
    assert!(stats.batches > 0);
    assert!(stats.mean_batch >= 1.0);
}

/// Full-scale soak (1M reports). `#[ignore]`d: minutes of wall clock on
/// a laptop-class core. Run with `-- --ignored` (release strongly
/// recommended).
#[test]
#[ignore = "dataset-scale soak: minutes of runtime; run with -- --ignored"]
fn soak_1m() {
    let stats = run_soak(1_000_000);
    assert_eq!(stats.classified, 1_000_000);
}
