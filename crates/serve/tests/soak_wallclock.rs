//! Wall-clock soak: the PR 5 soak harness promoted to track SLOs *over
//! time* instead of only at shutdown.
//!
//! The report volume is split into checkpointed intervals; after each
//! interval the engine is drained and a stats snapshot taken, so the
//! assertions see a time series rather than one end-of-run aggregate:
//!
//! * **p99 latency drift** — the micro-batch p99 must hold the SLO at
//!   *every* checkpoint, not just amortised over the whole run;
//! * **device-count stability** — the harness runs without a
//!   `max_device_states` cap, so nothing is evicted and after a warm-up
//!   pass has seen every MAC the `device_states` gauge must not grow;
//! * **verdict-rate stability** — verdicts only accumulate (monotone,
//!   bounded by the registry) and every interval stays lossless;
//! * **RSS growth** — resident memory may not climb materially across
//!   the run (Linux only; skipped where `/proc` is unavailable).
//!
//! Two scales share the harness: `wallclock_soak_smoke_10k` (always on,
//! part of the regular test suite) and an `#[ignore]`d sustained
//! variant.

use deepcsi_core::{Authenticator, ModelConfig};
use deepcsi_data::{generate_d1, GenConfig, InputSpec};
use deepcsi_serve::{Backpressure, Engine, EngineConfig, EngineStats, ReplaySource, Verdict};
use std::time::Duration;

/// Same stall-detection bound as the aggregate soak (`soak.rs`).
const P99_SLO: Duration = Duration::from_millis(250);

/// Allowed resident-set growth between the first and last checkpoint.
/// The engine allocates nothing per report once its windows are full;
/// 64 MiB absorbs allocator slack and lazily-faulted pages without
/// masking a real per-report leak at these volumes.
const RSS_GROWTH_BOUND_BYTES: u64 = 64 * 1024 * 1024;

/// Resident set size via `/proc/self/statm`, if the platform has it.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Drives `total` reports through a 2-worker engine in `intervals`
/// checkpointed chunks (after a full warm-up replay pass that visits
/// every MAC) and returns the per-checkpoint snapshots.
fn run_wallclock_soak(total: u64, intervals: usize) -> Vec<EngineStats> {
    assert!(intervals >= 3, "a time series needs at least 3 intervals");
    let ds = generate_d1(&GenConfig {
        num_modules: 2,
        snapshots_per_trace: 10,
        ..GenConfig::default()
    });
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    let auth = Authenticator::new(ModelConfig::demo(2).build_for(&probe), spec);

    let replay = ReplaySource::from_dataset(&ds);
    let registry = ReplaySource::registry(&ds);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        auth.freeze(),
        registry.clone(),
    );

    let frames: Vec<&[u8]> = replay.frames().collect();
    assert!(!frames.is_empty());

    // Warm-up: one full pass over the capture, so every MAC has a
    // device state before the first checkpoint. Growth after this point
    // is a leak (or an unexpected new stream), not warm-up.
    for frame in &frames {
        engine.ingest_frame(frame);
    }
    engine.drain();
    let warmup = engine.stats();
    assert_eq!(
        warmup.device_states,
        registry.len() as u64,
        "warm-up pass must instantiate exactly one state per registered stream"
    );

    let mut checkpoints = Vec::with_capacity(intervals);
    let mut rss = Vec::with_capacity(intervals);
    let per_interval = (total / intervals as u64).max(1);
    let mut cursor = 0usize;
    for _ in 0..intervals {
        let mut sent = 0u64;
        while sent < per_interval {
            engine.ingest_frame(frames[cursor]);
            cursor = (cursor + 1) % frames.len();
            sent += 1;
        }
        engine.drain();
        checkpoints.push(engine.stats());
        rss.push(rss_bytes());
    }

    // --- SLOs, per checkpoint ---------------------------------------
    let mut prev = warmup.clone();
    for (i, cp) in checkpoints.iter().enumerate() {
        let p99 = cp.batch_latency_p99.expect("batches ran");
        assert!(
            p99 <= P99_SLO,
            "checkpoint {i}: p99 batch latency {p99:?} exceeds {P99_SLO:?}"
        );
        assert_eq!(
            cp.device_states, warmup.device_states,
            "checkpoint {i}: device states grew after warm-up"
        );
        assert_eq!(
            cp.classified - prev.classified,
            per_interval,
            "checkpoint {i}: interval lost reports"
        );
        assert_eq!(
            cp.dropped - prev.dropped,
            0,
            "checkpoint {i}: lossless soak dropped"
        );
        assert!(
            cp.verdicts_decided >= prev.verdicts_decided
                && cp.verdicts_decided <= registry.len() as u64,
            "checkpoint {i}: verdict count unstable ({} → {})",
            prev.verdicts_decided,
            cp.verdicts_decided
        );
        prev = cp.clone();
    }
    if let (Some(Some(first)), Some(Some(last))) = (rss.first(), rss.last()) {
        assert!(
            last.saturating_sub(*first) < RSS_GROWTH_BOUND_BYTES,
            "RSS grew {} → {} bytes across the soak",
            first,
            last
        );
    }

    // End-of-run accounting, as in the aggregate soak.
    let report = engine.shutdown();
    assert_eq!(report.decisions.len(), registry.len());
    for d in &report.decisions {
        assert_ne!(d.verdict, Verdict::Unknown, "{} never decided", d.source);
    }
    checkpoints
}

/// Smoke-scale wall-clock soak (10k reports, 3 checkpoints): always on,
/// next to `soak_smoke_10k`.
#[test]
fn wallclock_soak_smoke_10k() {
    let checkpoints = run_wallclock_soak(10_000, 3);
    assert_eq!(checkpoints.len(), 3);
    // The series is genuinely cumulative.
    assert!(checkpoints[2].classified > checkpoints[0].classified);
}

/// Sustained wall-clock soak (500k reports, 5 checkpoints).
/// `#[ignore]`d: minutes of runtime; run with `-- --ignored` (release
/// strongly recommended).
#[test]
#[ignore = "sustained wall-clock soak: minutes of runtime; run with -- --ignored"]
fn wallclock_soak_sustained_500k() {
    let checkpoints = run_wallclock_soak(500_000, 5);
    assert_eq!(checkpoints.len(), 5);
}
