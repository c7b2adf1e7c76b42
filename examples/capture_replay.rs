//! Capture-file replay: the dataset → pcap → engine loop end to end.
//!
//! 1. Simulate a capture campaign and train a fast classifier.
//! 2. Export the synthetic capture as a real radiotap pcap — the file
//!    any monitor-mode sniffer (tcpdump, Wireshark) could have written.
//! 3. Serve the file through the engine via `PcapFileSource` and check
//!    the verdicts match the in-memory replay path exactly.
//!
//! Run with:
//!
//! ```bash
//! cargo run --release --example capture_replay
//! ```

use deepcsi::capture::PcapFileSource;
use deepcsi::core::demo::{demo_dataset, train, DemoConfig};
use deepcsi::serve::{
    Backpressure, Engine, EngineConfig, EngineReport, ReplaySource, SourceStatus,
};

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

    // --- 2. Export the capture as a radiotap pcap ---------------------------
    let replay = ReplaySource::from_dataset(&dataset);
    let path = std::env::temp_dir().join(format!("deepcsi-replay-{}.pcap", std::process::id()));
    replay
        .write_pcap(std::fs::File::create(&path).expect("create pcap"))
        .expect("write pcap");
    println!(
        "exported {} frames to {} ({} container bytes)",
        replay.len(),
        path.display(),
        std::fs::metadata(&path).expect("stat pcap").len(),
    );

    // --- 3. Serve the file and compare with the in-memory path --------------
    let serve = |mut source: Box<dyn deepcsi::capture::FrameSource>| -> EngineReport {
        let engine = Engine::start_frozen(
            EngineConfig {
                workers: 2,
                backpressure: Backpressure::Block,
                ..EngineConfig::default()
            },
            auth.freeze(),
            ReplaySource::registry(&dataset),
        );
        assert_eq!(
            engine.ingest_available(source.as_mut()).expect("source"),
            SourceStatus::End
        );
        engine.shutdown()
    };
    let from_file = serve(Box::new(PcapFileSource::open(&path).expect("open pcap")));
    let from_memory = serve(Box::new(replay.clone()));
    std::fs::remove_file(&path).ok();

    println!("\n--- verdicts from the pcap file ---");
    for d in &from_file.decisions {
        match &d.decision {
            Some(w) => println!(
                "{}  decided {}  votes {:>5.1}%  n {:>4}  {:?}",
                d.source,
                w.module,
                w.vote_fraction * 100.0,
                w.observations,
                d.verdict
            ),
            None => println!("{}  (no reports)  {:?}", d.source, d.verdict),
        }
    }

    println!("\n--- engine telemetry (pcap path) ---");
    println!("{}", from_file.stats);
    assert_eq!(
        from_file.decisions, from_memory.decisions,
        "file and in-memory replays must agree"
    );
    assert!(from_file.stats.capture_reconciles());
    println!("\npcap path and in-memory path produced identical per-device verdicts ✓");
}
