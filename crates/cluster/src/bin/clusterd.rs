//! `deepcsi-clusterd` — the distributed serving tier's process.
//!
//! Three subcommands, one wire protocol:
//!
//! ```text
//! deepcsi-clusterd node --listen ADDR [flags]
//! deepcsi-clusterd listen --listen ADDR --node ADDR [--node ADDR]... [flags]
//! deepcsi-clusterd send --connect ADDR [flags]
//! ```
//!
//! `deepcsi-clusterd <subcommand> --help` lists the subcommand's flags
//! with their defaults (the `*_FLAGS` tables below are the whole
//! grammar; an unknown flag exits 2). A flag that sets a library config
//! field overrides that config's `Default` only when given.
//!
//! * `node` trains the deterministic demo model (`deepcsi_core::demo`,
//!   the recipe `deepcsi-served` trains with — every node in a cluster
//!   independently arrives at identical weights), starts one engine
//!   behind a TCP listener, and serves until a client sends `SHUTDOWN`.
//!   With `--snapshot-file` the per-device policy state is restored at
//!   start (if the file exists) and written at shutdown, so a killed
//!   and restarted node resumes its learned `AdaptiveThreshold`
//!   floors instead of re-learning them. `--obs-listen` attaches the
//!   live observability plane with the tier's per-connection and
//!   per-shard counters on `/metrics` (scrape it with
//!   `obs-check --scrape`).
//! * `listen` runs the shard router: clients connect here, and each
//!   report fans out to `shard_of(source MAC, nodes)` — the engine's
//!   own shard function lifted across processes.
//! * `send` streams the demo replay at the given address (node or
//!   router — same protocol), drains, and prints the merged stats.
//!   `--compare-local` additionally runs the identical replay through
//!   an in-process engine and exits non-zero unless the cluster's
//!   merged per-device decisions are **byte-identical** to the
//!   single-process ones.
//!
//! Every listener prints `LISTENING <addr>` once ready (port `0`
//! picks a free port), so scripts can bind ephemerally and read the
//! address back.

use deepcsi_cluster::demo::demo_frames;
use deepcsi_cluster::{
    encode_drain_reply, ClusterClient, ClusterStats, DrainReply, EngineNode, RouterConfig,
    ShardRouter, WireDecision,
};
use deepcsi_core::demo::{demo_dataset, train, DemoConfig};
use deepcsi_obs::{Arg, Flag, Flags};
use deepcsi_serve::{
    Backpressure, Engine, EngineConfig, EngineSnapshot, ObsPlane, ObsPlaneConfig, ReplaySource,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval while waiting for a shutdown request.
const POLL: Duration = Duration::from_millis(100);

/// A subcommand's flags: `(flag, what it takes, help)`. A row without a
/// default is required, optional, or overrides the library config
/// field its help names.
type FlagTable = &'static [Flag];

/// The demo-recipe rows `node` and `send` share (each process in a
/// cluster must train with identical values).
#[rustfmt::skip]
const DEMO: [Flag; 3] = [
    ("--modules", Arg::Value, "demo model modules (default: DemoConfig's)"),
    ("--snapshots", Arg::Value, "demo snapshots per trace (default: DemoConfig's)"),
    ("--epochs", Arg::Value, "demo training epochs (default: DemoConfig's)"),
];
#[rustfmt::skip]
const DROP: Flag = ("--drop", Arg::Switch, "drop on a full queue instead of blocking");

#[rustfmt::skip]
const NODE_FLAGS: FlagTable = &[
    ("--listen", Arg::Value, "address to serve on (required; port 0 picks one)"),
    DEMO[0],
    DEMO[1],
    DEMO[2],
    ("--workers", Arg::Value, "shard workers (default: EngineConfig's)"),
    ("--queue", Arg::Value, "per-worker queue capacity (default: EngineConfig's)"),
    ("--policy", Arg::Value, "fixed|confidence|adaptive (default: PolicyKind's)"),
    DROP,
    ("--max-devices", Arg::Value, "cap on live per-device states (default unbounded)"),
    ("--snapshot-file", Arg::Value, "restore device state from / write it to this file"),
    ("--obs-listen", Arg::Value, "bind the live scrape plane here"),
];

#[rustfmt::skip]
const LISTEN_FLAGS: FlagTable = &[
    ("--listen", Arg::Value, "address clients connect to (required)"),
    ("--node", Arg::Value, "engine node address (required, repeatable)"),
    ("--queue", Arg::Value, "per-node queue capacity (default: RouterConfig's)"),
    DROP,
];

#[rustfmt::skip]
const SEND_FLAGS: FlagTable = &[
    ("--connect", Arg::Value, "node or router address (required)"),
    DEMO[0],
    DEMO[1],
    DEMO[2],
    ("--repeat", Arg::Default("1"), "replay passes"),
    ("--compare-local", Arg::Switch, "exit non-zero unless verdicts match one process"),
    ("--shutdown", Arg::Switch, "ask the peer to shut down after the drain"),
    ("--drain-timeout", Arg::Default("120"), "seconds to wait for the drain"),
];

/// `(name, flags, entry point)`.
type Subcommand = (&'static str, FlagTable, fn(&Flags));

const SUBCOMMANDS: [Subcommand; 3] = [
    ("node", NODE_FLAGS, run_node),
    ("listen", LISTEN_FLAGS, run_listen),
    ("send", SEND_FLAGS, run_send),
];

fn demo(flags: &Flags) -> DemoConfig {
    let mut demo = DemoConfig::default();
    flags.set("--modules", &mut demo.modules);
    flags.set("--snapshots", &mut demo.snapshots);
    flags.set("--epochs", &mut demo.epochs);
    demo
}

fn backpressure(flags: &Flags) -> Backpressure {
    if flags.has("--drop") {
        Backpressure::DropNewest
    } else {
        Backpressure::Block
    }
}

fn engine_config(flags: &Flags) -> EngineConfig {
    let mut cfg = EngineConfig {
        backpressure: backpressure(flags),
        max_device_states: flags.opt("--max-devices"),
        // The audit ring feeds `/audit/tail` on the plane; cheap
        // enough to keep on unconditionally.
        audit: Some(deepcsi_serve::AuditConfig::default()),
        ..EngineConfig::default()
    };
    flags.set("--workers", &mut cfg.workers);
    flags.set("--queue", &mut cfg.queue_capacity);
    flags.set("--policy", &mut cfg.decision.kind);
    cfg
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    if let Some((name, table, run)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == cmd) {
        let synopsis = format!("deepcsi-clusterd {name}");
        return run(&Flags::parse_or_exit(&synopsis, table, args));
    }
    let usage: String = SUBCOMMANDS
        .iter()
        .map(|(name, table, _)| Flags::usage(&format!("deepcsi-clusterd {name}"), table))
        .collect();
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        print!("{usage}");
    } else {
        eprintln!("unknown subcommand {cmd:?}");
        eprint!("{usage}");
        std::process::exit(2);
    }
}

fn run_node(flags: &Flags) {
    let listen = flags
        .get("--listen")
        .unwrap_or_else(|| Flags::die("node: --listen is required"));
    // Reject a bad engine knob before training the demo model.
    let cfg = engine_config(flags);
    cfg.validate();
    let demo = demo(flags);
    let t = Instant::now();
    let ds = demo_dataset(&demo);
    let (auth, accuracy) = train(&ds, demo.epochs);
    eprintln!(
        "node: trained demo model ({} modules, {:.2}% S1 accuracy, {:.1?})",
        demo.modules,
        accuracy * 100.0,
        t.elapsed()
    );
    let engine = Arc::new(Engine::start_frozen(
        cfg,
        auth.freeze(),
        ReplaySource::registry(&ds),
    ));

    // Restore per-device policy state from a previous life, if any.
    let snapshot_file = flags.get("--snapshot-file");
    if let Some(path) = &snapshot_file {
        if std::path::Path::new(path).exists() {
            match EngineSnapshot::read_from(std::path::Path::new(path)) {
                Ok(snap) => {
                    let n = engine.restore(&snap);
                    eprintln!("node: restored {n} device states from {path}");
                }
                Err(e) => {
                    eprintln!("node: snapshot {path} unreadable ({e}); starting cold");
                }
            }
        }
    }

    let stats = Arc::new(ClusterStats::new(engine.config().workers));
    let plane = flags.get("--obs-listen").map(|addr| {
        let plane = ObsPlane::start(
            ObsPlaneConfig {
                listen: addr.clone(),
                extra: Some(stats.extra_metrics("node")),
                ..ObsPlaneConfig::default()
            },
            &engine,
        )
        .unwrap_or_else(|e| {
            eprintln!("node: binding observability listener {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("node: observability plane on http://{}", plane.local_addr());
        plane.set_ready(true);
        plane
    });

    let node =
        EngineNode::start(&listen, Arc::clone(&engine), Arc::clone(&stats)).unwrap_or_else(|e| {
            eprintln!("node: binding {listen}: {e}");
            std::process::exit(1);
        });
    println!("LISTENING {}", node.local_addr());

    while !node.shutdown_requested() {
        std::thread::sleep(POLL);
    }
    node.stop();
    if let Some(path) = &snapshot_file {
        match engine.snapshot().write_to(std::path::Path::new(path)) {
            Ok(()) => eprintln!("node: snapshot written to {path}"),
            Err(e) => eprintln!("node: writing snapshot {path}: {e}"),
        }
    }
    if let Some(plane) = plane {
        plane.set_ready(false);
        plane.shutdown();
    }
    let engine = Arc::try_unwrap(engine).unwrap_or_else(|_| {
        eprintln!("node: engine still shared at shutdown");
        std::process::exit(1);
    });
    let report = engine.shutdown();
    eprintln!("node: final stats: {}", report.stats);
}

fn run_listen(flags: &Flags) {
    let listen = flags
        .get("--listen")
        .unwrap_or_else(|| Flags::die("listen: --listen is required"));
    let nodes = flags.all("--node");
    if nodes.is_empty() {
        Flags::die("listen: at least one --node is required");
    }
    let stats = Arc::new(ClusterStats::new(nodes.len()));
    let mut cfg = RouterConfig {
        listen,
        nodes,
        backpressure: backpressure(flags),
        ..RouterConfig::default()
    };
    flags.set("--queue", &mut cfg.queue_capacity);
    let router = ShardRouter::start(cfg, Arc::clone(&stats)).unwrap_or_else(|e| {
        eprintln!("listen: {e}");
        std::process::exit(1);
    });
    println!("LISTENING {}", router.local_addr());
    while !router.shutdown_requested() {
        std::thread::sleep(POLL);
    }
    router.stop();
    eprintln!(
        "router: done ({} reports in, {} busy)",
        stats.reports_in.load(std::sync::atomic::Ordering::Relaxed),
        stats.busy.load(std::sync::atomic::Ordering::Relaxed),
    );
}

fn run_send(flags: &Flags) {
    let connect = flags
        .get("--connect")
        .unwrap_or_else(|| Flags::die("send: --connect is required"));
    let demo = demo(flags);
    let repeat: usize = flags.value("--repeat");
    let ds = demo_dataset(&demo);
    let frames = demo_frames(&ds);
    let mut client = ClusterClient::connect(&connect).unwrap_or_else(|e| {
        eprintln!("send: connecting {connect}: {e}");
        std::process::exit(1);
    });
    let t = Instant::now();
    for _ in 0..repeat {
        for (mac, mpdu) in &frames {
            if let Err(e) = client.send_report(*mac, mpdu) {
                eprintln!("send: write failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let timeout = Duration::from_secs(flags.value("--drain-timeout"));
    let reply = if flags.has("--shutdown") {
        client.shutdown(timeout)
    } else {
        client.drain(timeout)
    }
    .unwrap_or_else(|e| {
        eprintln!("send: drain failed: {e}");
        std::process::exit(1);
    });
    let elapsed = t.elapsed();
    let counters = client.counters();
    println!(
        "sent {} reports ×{repeat} in {:.2?} ({:.0} reports/s)",
        counters.sent,
        elapsed,
        counters.sent as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "cluster: ingested {} enqueued {} classified {} dropped {} busy {} devices {} (evicted {}, re-warmed {})",
        reply.stats.ingested,
        reply.stats.enqueued,
        reply.stats.classified,
        reply.stats.dropped,
        reply.stats.busy,
        reply.stats.device_states,
        reply.stats.devices_evicted,
        reply.stats.devices_rewarmed,
    );
    for d in &reply.decisions {
        println!(
            "  {}  {}  decided_at={:?}",
            d.mac,
            d.verdict.as_str(),
            d.decided_at
        );
    }

    if flags.has("--compare-local") {
        if compare_local(&demo, &ds, repeat, &reply) {
            println!("compare-local: OK — cluster verdicts byte-identical to single-process");
        } else {
            eprintln!("compare-local: MISMATCH — cluster verdicts differ from single-process");
            std::process::exit(1);
        }
    }
}

/// Runs the identical replay through an in-process engine and compares
/// the decision bytes.
fn compare_local(
    demo: &DemoConfig,
    ds: &deepcsi_data::Dataset,
    repeat: usize,
    reply: &DrainReply,
) -> bool {
    let auth = train(ds, demo.epochs).0;
    let replay = ReplaySource::from_dataset(ds);
    let engine = Engine::start_frozen(
        EngineConfig {
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        auth.freeze(),
        ReplaySource::registry(ds),
    );
    for _ in 0..repeat {
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let mut local: Vec<WireDecision> = engine
        .decisions()
        .iter()
        .map(WireDecision::from_engine)
        .collect();
    local.sort_by_key(|d| d.mac.octets());
    engine.shutdown();
    // Byte-level comparison through the wire encoding: the claim is
    // that what a cluster reports is indistinguishable from one
    // process.
    let wire = |decisions: &[WireDecision]| {
        encode_drain_reply(&DrainReply {
            stats: Default::default(),
            decisions: decisions.to_vec(),
        })
    };
    wire(&local) == wire(&reply.decisions)
}
