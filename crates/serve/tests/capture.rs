//! Capture-file serving: the dataset → pcap → engine path must be
//! indistinguishable from the in-memory replay path, telemetry must
//! reconcile end to end, and `drain()` must wake by signal, not by
//! sleep-polling.

mod common;

use common::{dataset, trained_authenticator};
use deepcsi_capture::{PcapFileSource, PcapWriter, RadiotapBuilder, LINKTYPE_RADIOTAP};
use deepcsi_core::demo::input_spec;
use deepcsi_core::Authenticator;
use deepcsi_data::Dataset;
use deepcsi_nn::{Dense, Flatten, Network};
use deepcsi_serve::{
    Backpressure, Engine, EngineConfig, EngineReport, ReplaySource, SourceStatus, Verdict,
    VerdictPolicy, WindowConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A minimal (but deterministic) model for plumbing/latency tests.
fn trivial_authenticator(ds: &Dataset, classes: usize) -> Authenticator {
    let spec = input_spec();
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    let mut net = Network::new();
    net.push(Flatten::new());
    net.push(Dense::new(probe.len(), classes, 1));
    Authenticator::new(net, spec)
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        backpressure: Backpressure::Block,
        window: WindowConfig {
            len: 25,
            ema_alpha: 0.2,
        },
        policy: VerdictPolicy {
            min_observations: 10,
            min_vote_fraction: 0.6,
        },
        ..EngineConfig::default()
    }
}

fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "deepcsi-serve-capture-{}-{tag}-{seq}",
        std::process::id()
    ))
}

/// Runs one engine over a frame source until it ends, returning the
/// final report.
fn serve_source(
    auth: Authenticator,
    ds: &Dataset,
    source: &mut dyn deepcsi_capture::FrameSource,
) -> EngineReport {
    let engine = Engine::start_frozen(engine_config(), auth.freeze(), ReplaySource::registry(ds));
    assert_eq!(
        engine.ingest_available(source).expect("source serves"),
        SourceStatus::End
    );
    engine.shutdown()
}

/// The headline requirement: export-to-pcap + `PcapFileSource` must
/// produce byte-identical per-device verdicts and reconciled telemetry
/// vs the in-memory `ReplaySource` — for both container formats.
#[test]
fn pcap_roundtrip_equals_in_memory_replay() {
    let ds = dataset(3, 40);
    let auth = trained_authenticator(&ds);
    let replay = ReplaySource::from_dataset(&ds);

    // In-memory path, through the same FrameSource interface.
    let mut in_memory = replay.clone();
    let baseline = serve_source(auth.clone(), &ds, &mut in_memory);

    // pcap file path.
    let pcap_path = temp_path("roundtrip.pcap");
    replay
        .write_pcap(std::fs::File::create(&pcap_path).unwrap())
        .unwrap();
    let mut pcap_src = PcapFileSource::open(&pcap_path).unwrap();
    let via_pcap = serve_source(auth.clone(), &ds, &mut pcap_src);

    // pcapng file path.
    let ng_path = temp_path("roundtrip.pcapng");
    replay
        .write_pcapng(std::fs::File::create(&ng_path).unwrap())
        .unwrap();
    let mut ng_src = PcapFileSource::open(&ng_path).unwrap();
    let via_pcapng = serve_source(auth, &ds, &mut ng_src);

    // Every stream earns a correct Accept — and the three paths agree
    // byte for byte on every per-device decision.
    assert_eq!(baseline.decisions.len(), ReplaySource::registry(&ds).len());
    for d in &baseline.decisions {
        assert_eq!(d.verdict, Verdict::Accept, "{}", d.source);
    }
    assert_eq!(baseline.decisions, via_pcap.decisions);
    assert_eq!(baseline.decisions, via_pcapng.decisions);

    for report in [&baseline, &via_pcap, &via_pcapng] {
        let s = &report.stats;
        assert_eq!(s.classified as usize, replay.len());
        assert_eq!(s.capture_packets as usize, replay.len());
        assert_eq!((s.capture_skipped, s.capture_errors, s.dropped), (0, 0, 0));
        assert!(s.capture_reconciles(), "telemetry does not reconcile: {s}");
    }
    // The file paths actually read the container framing on top of the
    // MPDU bytes the in-memory path counts.
    assert!(via_pcap.stats.capture_bytes > baseline.stats.capture_bytes);

    std::fs::remove_file(&pcap_path).ok();
    std::fs::remove_file(&ng_path).ok();
}

/// A realistic monitor-mode mix — beamforming reports, beacons, a
/// radiotap-corrupt packet and a prefilter-passing-but-undecodable
/// frame — must leave `enqueued == seen − skipped − errored` intact.
#[test]
fn capture_telemetry_reconciles_over_noisy_capture() {
    let ds = dataset(2, 6);
    let replay = ReplaySource::from_dataset(&ds);

    let mut w = PcapWriter::new(Vec::new(), LINKTYPE_RADIOTAP).unwrap();
    let rt = || RadiotapBuilder::new().antenna_signal(-50).build();
    let mut valid = 0u64;
    for (k, mpdu) in replay.frames().enumerate() {
        // Interleave noise around every real report.
        let mut beacon = rt();
        beacon.extend_from_slice(&[0x80; 40]); // management/beacon
        w.write_packet(k as u64 * 10, &beacon).unwrap();
        let mut pkt = rt();
        pkt.extend_from_slice(mpdu);
        w.write_packet(k as u64 * 10 + 1, &pkt).unwrap();
        valid += 1;
    }
    // One packet whose radiotap header lies about its length…
    let mut corrupt = rt();
    corrupt[2] = 0xEE;
    corrupt[3] = 0x03;
    w.write_packet(9_000, &corrupt).unwrap();
    // …and one that passes the 3-byte prefilter but is not a decodable
    // beamforming report (bogus MIMO control / payload).
    let mut lookalike = rt();
    let mut mpdu = vec![0xFFu8; 40];
    mpdu[0] = 0xE0;
    mpdu[24] = 21;
    mpdu[25] = 0;
    lookalike.extend_from_slice(&mpdu);
    w.write_packet(9_001, &lookalike).unwrap();
    let image = w.finish().unwrap();

    let engine = Engine::start_frozen(
        engine_config(),
        trivial_authenticator(&ds, 2).freeze(),
        ReplaySource::registry(&ds),
    );
    let mut source = PcapFileSource::from_bytes(image);
    assert_eq!(
        engine.ingest_available(&mut source).unwrap(),
        SourceStatus::End
    );
    let report = engine.shutdown();
    let s = &report.stats;

    assert_eq!(s.capture_packets, valid * 2 + 2);
    assert_eq!(s.capture_skipped, valid, "one beacon per report");
    assert_eq!(s.capture_errors, 1, "the corrupt radiotap packet");
    assert_eq!(s.decode_errors, 1, "the prefilter lookalike");
    assert_eq!(s.enqueued, valid);
    assert_eq!(s.classified, valid);
    assert!(
        s.capture_reconciles(),
        "enqueued must equal seen − skipped − errored: {s}"
    );
}

/// A tiny 2×1 report no demo-input model is compatible with: a worker's
/// whole job on it is one `compatible()` check + reject accounting, so
/// a timed ingest → `drain()` cycle measures the engine's handoffs, not
/// inference.
fn incompatible_frame() -> Vec<u8> {
    use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
    use deepcsi_frame::{BeamformingReportFrame, MacAddr};
    use deepcsi_phy::{Codebook, MimoConfig};

    BeamformingReportFrame::new(
        MacAddr::station(0),
        MacAddr::station(1),
        MacAddr::station(0),
        1,
        BeamformingFeedback::from_angles(
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
        ),
    )
    .encode()
}

/// With the Condvar in place, drain latency is a thread wake-up — it
/// must no longer quantize to the old 200 µs sleep-poll interval.
#[test]
fn drain_latency_is_not_quantized_to_a_poll_interval() {
    let ds = dataset(1, 2);
    let frame = incompatible_frame();
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 1,
            max_batch: 1, // every batch is a batch of one
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        trivial_authenticator(&ds, 2).freeze(),
        ReplaySource::registry(&ds),
    );

    // Warm up the worker (thread start, first inference).
    for _ in 0..16 {
        engine.ingest_frame(&frame);
        engine.drain();
    }
    // Time the `drain()` call alone: on this machine the worker only
    // gets the core once the caller blocks, so the wait covers the
    // classify + wake-up handoff in both implementations — but the old
    // sleep-poll version could not return in under one full 200 µs
    // sleep quantum whenever it had to wait at all.
    let mut waits: Vec<Duration> = (0..64)
        .map(|_| {
            engine.ingest_frame(&frame);
            let t = Instant::now();
            engine.drain();
            t.elapsed()
        })
        .collect();
    waits.sort();
    // Under the old implementation *every* waiting drain cost ≥ one
    // full 200 µs sleep, so even the fastest of 64 cycles sat above
    // the quantum. Asserting the minimum keeps the regression check
    // meaningful while shrugging off a loaded machine (other tests in
    // this binary train models concurrently) slowing most wake-ups.
    let fastest = waits[0];
    assert!(
        fastest < Duration::from_micros(200),
        "drain still quantizes to the poll interval (fastest wait of 64: {fastest:?})"
    );
    engine.shutdown();
}

/// A lone report on an idle engine departs the moment its worker wakes,
/// even at the default `max_batch` of 32: batch formation takes what is
/// already queued and never lingers for stragglers. A batch that waited
/// out a 1 ms linger would put every cycle at ≥ 1 ms.
#[test]
fn lone_report_departs_without_lingering_at_the_default_batch_cap() {
    let ds = dataset(1, 2);
    let frame = incompatible_frame();
    let engine = Engine::start_frozen(
        EngineConfig::default(),
        trivial_authenticator(&ds, 2).freeze(),
        ReplaySource::registry(&ds),
    );
    assert_eq!(EngineConfig::default().max_batch, 32);

    // Warm up the workers (thread start, first batch).
    for _ in 0..16 {
        engine.ingest_frame(&frame);
        engine.drain();
    }
    // Time each whole single-report cycle: ingest, batch formation,
    // reject accounting and the drain wake-up.
    let fastest = (0..64)
        .map(|_| {
            let t = Instant::now();
            engine.ingest_frame(&frame);
            engine.drain();
            t.elapsed()
        })
        .min()
        .expect("64 cycles");
    // The minimum shrugs off a loaded machine (other tests in this
    // binary train models concurrently) slowing most wake-ups.
    assert!(
        fastest < Duration::from_micros(500),
        "a lone report waited for stragglers (fastest cycle of 64: {fastest:?})"
    );
    engine.shutdown();
}
