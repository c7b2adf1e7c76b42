//! Distributed-tier benchmark: loopback cluster throughput at 1, 2 and
//! 4 engine nodes behind the shard router, device-state eviction and
//! re-warm under a hard cap, and snapshot encode/decode/restore
//! timings — as machine-readable `RESULT cluster …` lines (collected
//! by `run_all` into `BENCH_cluster.json`; keys documented in
//! `crates/bench/README.md`).
//!
//! The node sweep is a real TCP loopback: one `ShardRouter` in front of
//! N in-process [`EngineNode`]s, a [`ClusterClient`] streaming the
//! deterministic demo replay. Every node serves the identical
//! independently-trained model (the tier's determinism contract), so
//! the sweep prices the wire + fan-out, not model variance.

use deepcsi_bench::{result_line, TINY_FLAGS};
use deepcsi_cluster::demo::{demo_dataset, demo_frames, demo_model, DemoConfig};
use deepcsi_cluster::{ClusterClient, ClusterStats, EngineNode, RouterConfig, ShardRouter};
use deepcsi_core::{Authenticator, FrozenAuthenticator, ModelConfig};
use deepcsi_data::InputSpec;
use deepcsi_frame::{BeamformingReportFrame, MacAddr};
use deepcsi_obs::Flags;
use deepcsi_serve::{Backpressure, Engine, EngineConfig, ReplaySource};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DRAIN_TIMEOUT: Duration = Duration::from_secs(300);

fn main() {
    let tiny = Flags::from_env(TINY_FLAGS).has("--tiny");
    let (demo, repeat, evict_reports) = if tiny {
        (
            DemoConfig {
                modules: 2,
                snapshots: 8,
                epochs: 1,
            },
            2usize,
            400usize,
        )
    } else {
        (
            DemoConfig {
                modules: 2,
                snapshots: 24,
                epochs: 2,
            },
            8,
            4000,
        )
    };

    // --- Node sweep ---------------------------------------------------
    println!("== loopback cluster throughput vs node count ==");
    let t = Instant::now();
    let ds = demo_dataset(&demo);
    let frozen: Arc<FrozenAuthenticator> = Arc::new(demo_model(&demo, &ds).freeze());
    let frames = demo_frames(&ds);
    println!(
        "demo model trained in {:.1?} ({} frames ×{repeat})",
        t.elapsed(),
        frames.len()
    );
    for nodes in [1usize, 2, 4] {
        let rps = cluster_reports_per_sec(&ds, &frozen, &frames, nodes, repeat);
        println!("{nodes} node(s): {rps:>9.0} reports/s");
        result_line("cluster", &format!("nodes{nodes}_reports_per_sec"), rps);
    }

    // --- Eviction / re-warm under a hard cap --------------------------
    println!("\n== bounded device state: eviction + re-warm ==");
    let (rps, evicted, rewarmed) = eviction_churn(evict_reports);
    println!(
        "cap 16, {evict_reports} distinct sources: {rps:.0} reports/s, {evicted} evicted, {rewarmed} re-warmed"
    );
    result_line("cluster", "evict_reports_per_sec", rps);
    result_line("cluster", "devices_evicted", evicted as f64);
    result_line("cluster", "devices_rewarmed", rewarmed as f64);

    // --- Snapshot timings ---------------------------------------------
    println!("\n== snapshot encode / decode / restore ==");
    snapshot_timings(&ds, &frozen, repeat);
}

/// Streams the replay through a router over `nodes` loopback engine
/// nodes and returns end-to-end reports/second (send → drain).
fn cluster_reports_per_sec(
    ds: &deepcsi_data::Dataset,
    frozen: &Arc<FrozenAuthenticator>,
    frames: &[(MacAddr, Vec<u8>)],
    nodes: usize,
    repeat: usize,
) -> f64 {
    let mut running = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..nodes {
        let engine = Arc::new(Engine::start_frozen(
            EngineConfig {
                workers: 1,
                backpressure: Backpressure::Block,
                ..EngineConfig::default()
            },
            Arc::clone(frozen),
            ReplaySource::registry(ds),
        ));
        let node = EngineNode::start(
            "127.0.0.1:0",
            Arc::clone(&engine),
            Arc::new(ClusterStats::new(1)),
        )
        .expect("bind node");
        addrs.push(node.local_addr().to_string());
        running.push((node, engine));
    }
    let router = ShardRouter::start(
        RouterConfig {
            listen: "127.0.0.1:0".into(),
            nodes: addrs,
            ..RouterConfig::default()
        },
        Arc::new(ClusterStats::new(nodes)),
    )
    .expect("bind router");

    let mut client =
        ClusterClient::connect(&router.local_addr().to_string()).expect("connect to router");
    let t = Instant::now();
    for _ in 0..repeat {
        for (mac, mpdu) in frames {
            client.send_report(*mac, mpdu).expect("stream report");
        }
    }
    let reply = client.drain(DRAIN_TIMEOUT).expect("drain");
    let elapsed = t.elapsed();
    assert_eq!(reply.stats.dropped, 0, "Block backpressure never drops");
    let sent = (frames.len() * repeat) as f64;

    drop(client);
    router.stop();
    for (node, engine) in running {
        node.stop();
        Arc::try_unwrap(engine)
            .unwrap_or_else(|_| panic!("engine still shared"))
            .shutdown();
    }
    sent / elapsed.as_secs_f64().max(1e-9)
}

/// Ingest throughput while the LRU cap is churning: `reports` distinct
/// MACs through a 16-state cap, then the first 16 return (re-warm).
fn eviction_churn(reports: usize) -> (f64, u64, u64) {
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe_ds = demo_dataset(&DemoConfig {
        modules: 1,
        snapshots: 1,
        epochs: 1,
    });
    let fb = probe_ds.traces[0].snapshots[0].clone();
    let probe = spec.tensor(&fb);
    let model = ModelConfig::fast(2, 0);
    let auth = Authenticator::new(model.build_for(&probe), spec);
    let monitor = MacAddr::station(0xAC_CE55);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            max_device_states: Some(16),
            ..EngineConfig::default()
        },
        auth.freeze(),
        deepcsi_serve::DeviceRegistry::new(),
    );
    let frame_for = |id: u64, seq: u16| {
        BeamformingReportFrame::new(monitor, MacAddr::station(id), monitor, seq, fb.clone())
            .encode()
    };
    let t = Instant::now();
    for id in 0..reports as u64 {
        engine.ingest_frame(&frame_for(id, (id % 4096) as u16));
    }
    for id in 0..16u64 {
        engine.ingest_frame(&frame_for(id, 4000 + id as u16));
    }
    engine.drain();
    let elapsed = t.elapsed();
    let stats = engine.stats();
    engine.shutdown();
    (
        (reports + 16) as f64 / elapsed.as_secs_f64().max(1e-9),
        stats.devices_evicted,
        stats.devices_rewarmed,
    )
}

/// Times `EngineSnapshot` encode, decode and engine restore over the
/// replayed demo state.
fn snapshot_timings(ds: &deepcsi_data::Dataset, frozen: &Arc<FrozenAuthenticator>, repeat: usize) {
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        Arc::clone(frozen),
        ReplaySource::registry(ds),
    );
    let replay = ReplaySource::from_dataset(ds);
    for _ in 0..repeat {
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();

    let t = Instant::now();
    let snap = engine.snapshot();
    let capture_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let bytes = snap.encode();
    let encode_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let decoded = deepcsi_serve::EngineSnapshot::decode(&bytes).expect("round trip");
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    engine.shutdown();

    let fresh = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        Arc::clone(frozen),
        ReplaySource::registry(ds),
    );
    let t = Instant::now();
    let restored = fresh.restore(&decoded);
    let restore_us = t.elapsed().as_secs_f64() * 1e6;
    fresh.shutdown();

    println!(
        "{} devices, {} bytes: capture {capture_us:.0} µs, encode {encode_us:.0} µs, decode {decode_us:.0} µs, restore {restore_us:.0} µs",
        restored,
        bytes.len()
    );
    result_line("cluster", "snapshot_devices", restored as f64);
    result_line("cluster", "snapshot_bytes", bytes.len() as f64);
    result_line("cluster", "snapshot_capture_us", capture_us);
    result_line("cluster", "snapshot_encode_us", encode_us);
    result_line("cluster", "snapshot_decode_us", decode_us);
    result_line("cluster", "snapshot_restore_us", restore_us);
}
