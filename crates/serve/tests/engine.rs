//! End-to-end tests of the streaming authentication engine: synthetic
//! multi-device captures replayed through sharded ingest, micro-batched
//! inference and windowed verdicts.

mod common;

use common::{dataset, trained_authenticator, untrained};
use deepcsi_core::ModelConfig;
use deepcsi_frame::MacAddr;
use deepcsi_serve::{
    Backpressure, Engine, EngineConfig, IngestOutcome, ReplaySource, Stage, Verdict, VerdictPolicy,
    WindowConfig,
};

/// The acceptance-criterion scenario: replaying a synthetic multi-device
/// capture yields a correct (Accept, right module) verdict for every
/// registered beamformee stream.
#[test]
fn replay_yields_correct_verdict_per_registered_device() {
    let ds = dataset(3, 40);
    let auth = trained_authenticator(&ds);
    let replay = ReplaySource::from_dataset(&ds);
    let registry = ReplaySource::registry(&ds);
    // One stream per (module, beamformee) pair.
    assert_eq!(registry.len(), 6);

    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block, // lossless replay
            window: WindowConfig {
                len: 25,
                ema_alpha: 0.2,
            },
            policy: VerdictPolicy {
                min_observations: 10,
                min_vote_fraction: 0.6,
            },
            ..EngineConfig::default()
        },
        auth.freeze(),
        registry.clone(),
    );
    for frame in replay.frames() {
        assert_eq!(engine.ingest_frame(frame), IngestOutcome::Enqueued);
    }
    let report = engine.shutdown();

    assert_eq!(report.stats.ingested as usize, replay.len());
    assert_eq!(report.stats.classified as usize, replay.len());
    assert_eq!(report.stats.decode_errors, 0);
    assert_eq!(report.stats.dropped, 0);
    assert!(report.stats.batches > 0);
    assert!(
        report.stats.mean_batch > 1.0,
        "micro-batching never batched (mean {:.2})",
        report.stats.mean_batch
    );
    assert!(report.stats.batch_latency_p50.is_some());
    assert!(report.stats.batch_latency_p99 >= report.stats.batch_latency_p50);

    assert_eq!(report.decisions.len(), registry.len());
    for d in &report.decisions {
        let expected = registry.expected(d.source).expect("registered");
        let decision = d.decision.expect("every stream produced reports");
        assert_eq!(
            d.verdict,
            Verdict::Accept,
            "{}: expected module {} but windowed decision was {:?}",
            d.source,
            expected,
            decision
        );
        assert_eq!(decision.module, expected.0 as usize);
        assert!(decision.vote_fraction >= 0.6);
        assert!(decision.confidence_ema > 0.0 && decision.confidence_ema <= 1.0);
    }
}

/// Garbage bytes are counted as decode errors, never classified, and an
/// unregistered-but-valid stream reports `Unknown`.
#[test]
fn decode_errors_and_unknown_sources_are_accounted() {
    let ds = dataset(2, 6);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        untrained(ModelConfig::fast(2, 0)).freeze(),
        deepcsi_serve::DeviceRegistry::new(), // nothing registered
    );
    assert_eq!(engine.ingest_frame(&[0u8; 7]), IngestOutcome::DecodeError);
    assert_eq!(
        engine.ingest_frame(b"not a frame"),
        IngestOutcome::DecodeError
    );
    let replay = ReplaySource::from_dataset(&ds);
    for frame in replay.frames() {
        engine.ingest_frame(frame);
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.decode_errors, 2);
    assert_eq!(report.stats.classified as usize, replay.len());
    assert!(!report.decisions.is_empty());
    for d in &report.decisions {
        assert_eq!(d.verdict, Verdict::Unknown, "{}", d.source);
        assert!(d.decision.is_some());
    }
}

/// Stage timing is unconditional: every ingested frame (decode errors
/// included) is stamped once for `decode`, and every enqueued report
/// once for `queue_wait`.
#[test]
fn every_report_is_stamped_exactly_once_per_stage() {
    let ds = dataset(2, 6);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        untrained(ModelConfig::fast(2, 0)).freeze(),
        ReplaySource::registry(&ds),
    );
    engine.ingest_frame(b"not a frame");
    for frame in ReplaySource::from_dataset(&ds).frames() {
        engine.ingest_frame(frame);
    }
    engine.drain();
    let stats = engine.stats();
    let telemetry = engine.telemetry_handle();
    assert_eq!(stats.decode_errors, 1);
    assert_eq!(telemetry.stage(Stage::Decode).count(), stats.ingested);
    assert_eq!(telemetry.stage(Stage::QueueWait).count(), stats.enqueued);
    assert!(stats.enqueued < stats.ingested);
    engine.shutdown();
}

/// With a tiny bounded queue and drop-newest backpressure, flooding the
/// engine must shed load and account every dropped report.
#[test]
fn backpressure_drops_are_accounted() {
    let ds = dataset(1, 200);
    let replay = ReplaySource::from_dataset(&ds);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 2,
            backpressure: Backpressure::DropNewest,
            ..EngineConfig::default()
        },
        untrained(ModelConfig::fast(2, 0)).freeze(),
        ReplaySource::registry(&ds),
    );
    let mut dropped = 0usize;
    for frame in replay.frames() {
        if engine.ingest_frame(frame) == IngestOutcome::Dropped {
            dropped += 1;
        }
    }
    let report = engine.shutdown();
    assert!(dropped > 0, "flooding a 2-deep queue should shed load");
    assert_eq!(report.stats.dropped as usize, dropped);
    assert_eq!(
        report.stats.enqueued + report.stats.dropped,
        report.stats.ingested
    );
    assert_eq!(report.stats.classified, report.stats.enqueued);
}

/// Registered devices that never reported still appear, as `Unknown`.
#[test]
fn silent_registered_devices_report_unknown() {
    let mut registry = deepcsi_serve::DeviceRegistry::new();
    registry.register(MacAddr::station(0xBEEF), deepcsi_impair::DeviceId(0));
    let engine = Engine::start_frozen(
        EngineConfig::default(),
        untrained(ModelConfig::fast(2, 0)).freeze(),
        registry,
    );
    let report = engine.shutdown();
    assert_eq!(report.decisions.len(), 1);
    assert_eq!(report.decisions[0].source, MacAddr::station(0xBEEF));
    assert_eq!(report.decisions[0].verdict, Verdict::Unknown);
    assert!(report.decisions[0].decision.is_none());
}

/// A frame that *decodes* fine but carries MIMO dimensions the model was
/// never trained on must be rejected and accounted — not allowed to
/// panic a worker and wedge `drain()`/`shutdown()`.
#[test]
fn incompatible_mimo_dimensions_are_rejected_not_fatal() {
    use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
    use deepcsi_frame::BeamformingReportFrame;
    use deepcsi_phy::{Codebook, MimoConfig};

    let ds = dataset(2, 6);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        untrained(ModelConfig::fast(2, 0)).freeze(),
        ReplaySource::registry(&ds),
    );

    // A 2×1 feedback while the model expects 3×2 inputs.
    let foreign = BeamformingFeedback::from_angles(
        MimoConfig::new(2, 1, 1).expect("valid"),
        Codebook::MU_HIGH,
        vec![0, 1],
        &vec![
            QuantizedAngles {
                m: 2,
                n_ss: 1,
                q_phi: vec![1],
                q_psi: vec![2],
            };
            2
        ],
    );
    let frame = BeamformingReportFrame::new(
        MacAddr::station(7),
        MacAddr::station(0xF0E),
        MacAddr::station(7),
        1,
        foreign,
    )
    .encode();
    assert_eq!(engine.ingest_frame(&frame), IngestOutcome::Enqueued);

    // Healthy traffic keeps flowing around the foreign frame.
    let replay = ReplaySource::from_dataset(&ds);
    for frame in replay.frames() {
        engine.ingest_frame(frame);
    }
    // The engine must drain and shut down (this hung before reports were
    // gated on `InputSpec::compatible`).
    let report = engine.shutdown();
    assert_eq!(report.stats.rejected, 1);
    assert_eq!(report.stats.classified as usize, replay.len());
    assert_eq!(report.stats.decode_errors, 0);
}

/// A *shape*-foreign frame (right MIMO dims, wrong subcarrier count)
/// arriving first must neither wedge the engine nor hijack the accepted
/// tensor shape for the legitimate traffic behind it.
#[test]
fn foreign_shape_first_cannot_wedge_or_hijack_the_engine() {
    use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
    use deepcsi_frame::BeamformingReportFrame;
    use deepcsi_phy::{Codebook, MimoConfig};

    let ds = dataset(2, 8);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 1, // one queue so the foreign frame is truly first
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        untrained(ModelConfig::fast(2, 0)).freeze(), // no recorded input shape
        ReplaySource::registry(&ds),
    );

    // 3×2 like the model, but only 8 subcarriers → different tensor width.
    let foreign = BeamformingFeedback::from_angles(
        MimoConfig::new(3, 2, 2).expect("valid"),
        Codebook::MU_HIGH,
        (0..8).collect(),
        &vec![
            QuantizedAngles {
                m: 3,
                n_ss: 2,
                q_phi: vec![1, 2, 3],
                q_psi: vec![4, 5, 6],
            };
            8
        ],
    );
    let frame = BeamformingReportFrame::new(
        MacAddr::station(7),
        MacAddr::station(0xF00),
        MacAddr::station(7),
        1,
        foreign,
    )
    .encode();
    assert_eq!(engine.ingest_frame(&frame), IngestOutcome::Enqueued);
    // Give the worker time to classify (and panic-reject) the foreign
    // batch before the healthy traffic arrives.
    engine.drain();

    let replay = ReplaySource::from_dataset(&ds);
    for frame in replay.frames() {
        engine.ingest_frame(frame);
    }
    let report = engine.shutdown();
    assert!(report.stats.rejected >= 1, "foreign frame not rejected");
    assert_eq!(
        report.stats.classified as usize,
        replay.len(),
        "legitimate traffic was rejected after the foreign frame"
    );
}
