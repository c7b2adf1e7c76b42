//! `deepcsi-served` — replay a stored (or synthesized) capture through
//! the streaming authentication engine and report per-device verdicts
//! plus engine telemetry.
//!
//! `deepcsi-served --help` lists every flag (the `FLAGS` table below is
//! the whole grammar; an unknown flag exits 2).
//!
//! Without `--dataset` a synthetic D1 capture is generated; without
//! `--model` a fast classifier is trained on it first (and optionally
//! persisted with `--save-model` for instant start-up next time).
//!
//! Capture-file modes:
//!
//! * `--export-pcap PATH` writes the (loaded or synthesized) dataset as
//!   a radiotap pcap (`.pcapng` extension selects pcapng) and exits —
//!   the fixture generator for the modes below.
//! * `--pcap PATH` serves frames from a capture file instead of the
//!   in-memory replay.
//! * `--follow` tails the capture as it grows, surviving truncation and
//!   rotation; `--idle-exit SECS` stops after that long without a new
//!   frame (default: follow forever).
//!
//! Parallelism knobs:
//!
//! * `--workers N` sizes the sharded worker ring (device streams are
//!   partitioned across workers by source MAC). Workers are the only
//!   serving threads: each classifies its own micro-batches on one
//!   core, and the worker count can never change a verdict — only
//!   throughput.
//! * `--precision f32|int8` selects the serving snapshot's numeric
//!   backend (default `f32`, bit-identical to training). `int8`
//!   calibrates activation scales on up to `--calib-samples` (default
//!   256) tensorized reports from the dataset, quantizes the
//!   conv/dense layers onto integer kernels, and serves the quantized
//!   snapshot behind the same `Arc` — verdict plumbing untouched.
//!
//! Decision-policy knobs (see the crate docs for the semantics):
//!
//! * `--policy fixed|confidence|adaptive` selects the verdict policy
//!   (default `fixed`, the classic majority window).
//! * `--accept-threshold MASS` sets the confidence policy's posterior
//!   mass gate, in `(0.5, 1]` (default 0.9).
//! * `--calibration N` sets the adaptive policy's warm-up length in
//!   reports (default 20).
//!
//! Observability knobs (see ARCHITECTURE.md § Observability):
//!
//! * `--metrics-file PATH` rewrites a Prometheus text-exposition file
//!   every `--metrics-interval` seconds (default 5) and once more at
//!   shutdown — point a node-exporter textfile collector (or a test's
//!   `obs-check --prom`) at it.
//! * `--metrics-json PATH` appends one flat JSON object per interval to
//!   a JSONL file, including `deepcsi_interval_seconds` and interval
//!   rates computed from consecutive snapshots (`*_per_sec` fields).
//! * `--trace-file PATH` enables span tracing and writes a Chrome
//!   `trace_event` JSON at shutdown — load it in `chrome://tracing` or
//!   Perfetto. `--trace-sample N` records one micro-batch in `N`
//!   (default 8; `1` traces everything).
//! * `--profile` attaches a per-layer profiler to every inference
//!   context and prints the merged per-op table (share of inference
//!   time, ns/sample, bytes moved) after shutdown.
//!
//! Live observability plane (ARCHITECTURE.md § Live observability
//! plane):
//!
//! * `--obs-listen ADDR` binds the embedded scrape server (e.g.
//!   `127.0.0.1:9644`; port `0` picks a free port and prints it).
//!   Endpoints: `/metrics`, `/stats.json`, `/healthz`, `/readyz`,
//!   `/profile` (with `--profile`), `/audit/tail?n=N`. The plane is a
//!   pure observer — verdicts are bit-identical with it on or off.
//! * `--obs-linger SECS` keeps the plane up (and `/readyz` green) that
//!   long after the replay drains, so an external scraper — CI's
//!   `obs-check --scrape` — can read the settled counters before exit.
//! * `--audit-file PATH` streams one JSON line per decided verdict
//!   (source, verdict, policy, confidence trajectory) to PATH; the
//!   in-memory ring behind `/audit/tail` is on whenever `--obs-listen`
//!   or `--audit-file` is.
//! * `--audit-capacity N` sizes that ring (default 4096 events).

use deepcsi_capture::{FollowSource, FrameSource, PcapFileSource};
use deepcsi_core::demo::{self, DemoConfig};
use deepcsi_core::{Authenticator, FrozenAuthenticator};
use deepcsi_data::Dataset;
use deepcsi_obs::{format_op_table, write_chrome_trace, TraceConfig};
use deepcsi_serve::{
    AuditConfig, Backpressure, DecisionPolicyConfig, Engine, EngineConfig, Flags, MetricsEmitter,
    ObsPlane, ObsPlaneConfig, PolicyKind, Precision, ReplaySource, SourceStatus, Verdict,
    WindowConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every flag: `(flag, takes_value, help)`.
#[rustfmt::skip]
const FLAGS: &[(&str, bool, &str)] = &[
    ("--dataset", true, "stored dataset to serve (default: synthesize D1)"),
    ("--model", true, "trained model to load (default: train a fast one)"),
    ("--save-model", true, "persist the trained model here"),
    ("--modules", true, "synthetic D1 modules (default 3)"),
    ("--snapshots", true, "synthetic D1 snapshots per trace (default 40)"),
    ("--epochs", true, "training epochs (default 6)"),
    ("--workers", true, "shard workers (default 2)"),
    ("--precision", true, "serving snapshot to build: f32|int8 (default f32)"),
    ("--calib-samples", true, "int8 calibration reports (default 256)"),
    ("--batch", true, "micro-batch cap (default 32)"),
    ("--queue", true, "per-worker queue capacity (default 1024)"),
    ("--window", true, "decision window length (default 25)"),
    ("--policy", true, "fixed|confidence|adaptive (default fixed)"),
    ("--accept-threshold", true, "confidence policy's mass gate, in (0.5, 1]"),
    ("--calibration", true, "adaptive policy's warm-up, in reports"),
    ("--repeat", true, "replay passes (default 1)"),
    ("--drop", false, "drop on a full queue instead of blocking"),
    ("--garbage", true, "undecodable frames appended to the replay"),
    ("--export-pcap", true, "write the dataset as pcap/pcapng and exit"),
    ("--pcap", true, "serve a capture file instead of the replay"),
    ("--follow", false, "tail --pcap as it grows"),
    ("--idle-exit", true, "stop --follow after this many idle seconds"),
    ("--metrics-file", true, "Prometheus text file, rewritten periodically"),
    ("--metrics-json", true, "JSONL metrics file, appended periodically"),
    ("--metrics-interval", true, "seconds between emissions (default 5)"),
    ("--trace-file", true, "write a Chrome trace at shutdown"),
    ("--trace-sample", true, "trace one micro-batch in N (default 8)"),
    ("--profile", false, "per-layer inference profile"),
    ("--obs-listen", true, "bind the live scrape plane here"),
    ("--obs-linger", true, "keep the plane up this many seconds after drain"),
    ("--audit-file", true, "JSONL verdict audit trail"),
    ("--audit-capacity", true, "audit ring size (default 4096)"),
];

struct Args {
    dataset: Option<String>,
    model: Option<String>,
    save_model: Option<String>,
    modules: u32,
    snapshots: usize,
    epochs: usize,
    workers: usize,
    precision: Precision,
    calib_samples: usize,
    batch: usize,
    queue: usize,
    window: usize,
    policy: PolicyKind,
    accept_threshold: Option<f64>,
    calibration: Option<u64>,
    repeat: usize,
    drop_on_full: bool,
    garbage: usize,
    export_pcap: Option<String>,
    pcap: Option<String>,
    follow: bool,
    idle_exit: Option<u64>,
    metrics_file: Option<String>,
    metrics_json: Option<String>,
    metrics_interval: u64,
    trace_file: Option<String>,
    trace_sample: u32,
    profile: bool,
    obs_listen: Option<String>,
    obs_linger: u64,
    audit_file: Option<String>,
    audit_capacity: usize,
}

impl Args {
    fn parse() -> Args {
        let f = Flags::parse_or_exit("deepcsi-served", FLAGS, std::env::args().skip(1));
        let args = Args {
            dataset: f.get("--dataset"),
            model: f.get("--model"),
            save_model: f.get("--save-model"),
            modules: f.num("--modules", 3),
            snapshots: f.num("--snapshots", 40),
            epochs: f.num("--epochs", 6),
            workers: f.num("--workers", 2),
            precision: f.num("--precision", Precision::default()),
            calib_samples: f.num("--calib-samples", 256),
            batch: f.num("--batch", 32),
            queue: f.num("--queue", 1024),
            window: f.num("--window", 25),
            policy: f.num("--policy", PolicyKind::default()),
            accept_threshold: f.opt("--accept-threshold"),
            calibration: f.opt("--calibration"),
            repeat: f.num("--repeat", 1),
            drop_on_full: f.has("--drop"),
            garbage: f.num("--garbage", 0),
            export_pcap: f.get("--export-pcap"),
            pcap: f.get("--pcap"),
            follow: f.has("--follow"),
            idle_exit: f.opt("--idle-exit"),
            metrics_file: f.get("--metrics-file"),
            metrics_json: f.get("--metrics-json"),
            metrics_interval: f.num("--metrics-interval", 5),
            trace_file: f.get("--trace-file"),
            trace_sample: f.num("--trace-sample", 8),
            profile: f.has("--profile"),
            obs_listen: f.get("--obs-listen"),
            obs_linger: f.num("--obs-linger", 0),
            audit_file: f.get("--audit-file"),
            audit_capacity: f.num("--audit-capacity", 4096),
        };
        // Surface flag combinations that would otherwise be silently
        // ignored.
        if args.pcap.is_some() && args.repeat > 1 {
            eprintln!("warning: --repeat only applies to the in-memory replay; ignored");
        }
        if args.pcap.is_some() && args.garbage > 0 {
            eprintln!("warning: --garbage only applies to the in-memory replay; ignored");
        }
        if args.follow && args.pcap.is_none() {
            eprintln!("warning: --follow requires --pcap; ignored");
        }
        if args.idle_exit.is_some() && !args.follow {
            eprintln!("warning: --idle-exit only applies with --follow; ignored");
        }
        if args.accept_threshold.is_some() && args.policy != PolicyKind::ConfidenceWeighted {
            eprintln!("warning: --accept-threshold only applies with --policy confidence");
        }
        if args.calibration.is_some() && args.policy != PolicyKind::AdaptiveThreshold {
            eprintln!("warning: --calibration only applies with --policy adaptive");
        }
        if args.calib_samples == 0 {
            Flags::die("--calib-samples must be positive");
        }
        if args.precision != Precision::Int8 && args.calib_samples != 256 {
            eprintln!("warning: --calib-samples only applies with --precision int8");
        }
        if args.metrics_interval == 0 {
            Flags::die("--metrics-interval must be positive");
        }
        if args.trace_sample == 0 {
            Flags::die("--trace-sample must be positive");
        }
        if args.metrics_interval != 5 && args.metrics_file.is_none() && args.metrics_json.is_none()
        {
            eprintln!("warning: --metrics-interval needs --metrics-file or --metrics-json");
        }
        if args.trace_sample != 8 && args.trace_file.is_none() {
            eprintln!("warning: --trace-sample only applies with --trace-file");
        }
        if args.audit_capacity == 0 {
            Flags::die("--audit-capacity must be positive");
        }
        if args.obs_linger > 0 && args.obs_listen.is_none() {
            eprintln!("warning: --obs-linger only applies with --obs-listen; ignored");
        }
        if args.audit_capacity != 4096 && args.obs_listen.is_none() && args.audit_file.is_none() {
            eprintln!("warning: --audit-capacity needs --obs-listen or --audit-file");
        }
        args
    }

    /// The engine configuration the flags describe.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            workers: self.workers,
            queue_capacity: self.queue,
            max_batch: self.batch,
            backpressure: if self.drop_on_full {
                Backpressure::DropNewest
            } else {
                Backpressure::Block
            },
            window: self.window_config(),
            decision: self.decision(),
            trace: self.trace(),
            profile: self.profile,
            audit: self.audit(),
            ..EngineConfig::default()
        }
    }

    /// The audit-trail configuration the flags describe: on whenever the
    /// scrape plane or an audit file is requested.
    fn audit(&self) -> Option<AuditConfig> {
        (self.obs_listen.is_some() || self.audit_file.is_some()).then(|| AuditConfig {
            capacity: self.audit_capacity,
            file: self.audit_file.as_ref().map(std::path::PathBuf::from),
        })
    }

    /// The span-tracing configuration the flags describe: disabled
    /// unless a trace file was requested.
    fn trace(&self) -> TraceConfig {
        if self.trace_file.is_none() {
            return TraceConfig::default();
        }
        TraceConfig {
            sample_every: self.trace_sample,
            ..TraceConfig::always()
        }
    }

    /// The smoothing window the flags describe.
    fn window_config(&self) -> WindowConfig {
        WindowConfig {
            len: self.window,
            ..WindowConfig::default()
        }
    }

    /// The decision-policy configuration the flags describe.
    fn decision(&self) -> DecisionPolicyConfig {
        let mut decision = DecisionPolicyConfig {
            kind: self.policy,
            ..DecisionPolicyConfig::default()
        };
        if let Some(mass) = self.accept_threshold {
            decision.posterior_mass = mass;
        }
        if let Some(warmup) = self.calibration {
            decision.warmup = warmup;
        }
        decision
    }
}

fn load_or_generate_dataset(args: &Args) -> Dataset {
    match &args.dataset {
        Some(path) => {
            let ds = deepcsi_data::load_dataset(path)
                .unwrap_or_else(|e| panic!("loading dataset {path}: {e}"));
            println!(
                "loaded dataset {path}: {} traces, {} snapshots",
                ds.traces.len(),
                ds.num_snapshots()
            );
            ds
        }
        None => {
            let t = Instant::now();
            let ds = demo::demo_dataset(&DemoConfig {
                modules: args.modules,
                snapshots: args.snapshots,
                epochs: args.epochs,
            });
            println!(
                "generated synthetic D1: {} modules, {} traces, {} snapshots ({:.1?})",
                args.modules,
                ds.traces.len(),
                ds.num_snapshots(),
                t.elapsed()
            );
            ds
        }
    }
}

fn load_or_train_model(args: &Args, ds: &Dataset) -> Authenticator {
    if let Some(path) = &args.model {
        let auth =
            Authenticator::load(path).unwrap_or_else(|e| panic!("loading model {path}: {e}"));
        println!("loaded model {path}");
        return auth;
    }
    let t = Instant::now();
    let (mut auth, accuracy) = demo::train(ds, args.epochs);
    println!(
        "trained fast classifier: {:.2}% test accuracy over {} classes ({:.1?})",
        accuracy * 100.0,
        ds.modules().len(),
        t.elapsed()
    );
    if let Some(path) = &args.save_model {
        auth.save(path)
            .unwrap_or_else(|e| panic!("saving model {path}: {e}"));
        println!("saved model to {path}");
    }
    auth
}

/// Writes the dataset's replay capture to a pcap/pcapng file (chosen by
/// extension) — the `--export-pcap` mode.
fn export_capture(ds: &Dataset, path: &str) {
    let replay = ReplaySource::from_dataset(ds);
    let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
    let w = std::io::BufWriter::new(file);
    if path.ends_with(".pcapng") {
        replay.write_pcapng(w)
    } else {
        replay.write_pcap(w)
    }
    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "exported {} frames ({:.2} MiB of MPDUs) to {path}",
        replay.len(),
        replay.total_bytes() as f64 / (1024.0 * 1024.0),
    );
}

/// Feeds the engine from a capture file — finite (`--pcap`) or tailed
/// (`--follow`, until `--idle-exit` seconds pass without a frame).
fn serve_from_capture(engine: &Engine, args: &Args, path: &str) {
    if args.follow {
        let mut source = FollowSource::open(path);
        let idle_exit = args.idle_exit.map(Duration::from_secs);
        let mut last_progress = Instant::now();
        let mut last_seen = 0u64;
        let mut last_bytes = 0u64;
        loop {
            match engine.ingest_available(&mut source) {
                Ok(SourceStatus::Pending) => {
                    let c = source.counters();
                    if c.packets_seen != last_seen {
                        last_seen = c.packets_seen;
                        last_progress = Instant::now();
                    } else if idle_exit.is_some_and(|d| last_progress.elapsed() >= d) {
                        println!("no new frames for {}s, stopping", args.idle_exit.unwrap());
                        return;
                    }
                    // Only sleep when the file truly stopped growing — a
                    // `Pending` with byte progress is just the per-poll
                    // read budget, and a backlog should drain at speed.
                    if c.bytes_read == last_bytes {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    last_bytes = c.bytes_read;
                }
                Ok(SourceStatus::End) => unreachable!("follow sources never end"),
                Err(e) => {
                    eprintln!("following {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    } else {
        let mut source =
            PcapFileSource::open(path).unwrap_or_else(|e| panic!("opening capture {path}: {e}"));
        match engine.ingest_available(&mut source) {
            Ok(SourceStatus::End) => {}
            Ok(SourceStatus::Pending) => unreachable!("file sources never pend"),
            Err(e) => {
                eprintln!("reading capture {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let args = Args::parse();
    // Reject a bad engine knob before the expensive dataset/training
    // work — the engine would assert the same bounds, but only minutes
    // later.
    let cfg = args.engine_config();
    cfg.validate();
    let ds = load_or_generate_dataset(&args);

    if let Some(path) = &args.export_pcap {
        export_capture(&ds, path);
        return;
    }

    let auth = load_or_train_model(&args, &ds);

    let replay = ReplaySource::from_dataset(&ds);
    let registry = ReplaySource::registry(&ds);
    match &args.pcap {
        Some(path) => println!(
            "serving capture {path} ({}){}",
            if args.follow { "follow" } else { "finite" },
            if args.follow {
                " — ^C or --idle-exit to stop"
            } else {
                ""
            },
        ),
        None => println!(
            "replaying {} frames ({:.2} MiB) from {} device streams, ×{}",
            replay.len(),
            replay.total_bytes() as f64 / (1024.0 * 1024.0),
            registry.len(),
            args.repeat
        ),
    }

    // Freeze once: the workers all share this one immutable snapshot.
    let frozen = std::sync::Arc::new(match args.precision {
        Precision::F32 => auth.freeze(),
        Precision::Int8 => {
            // Calibrate activation scales on a representative slice of
            // the capture the engine is about to serve. Stride across
            // the whole dataset — traces are ordered by module, so a
            // plain prefix would calibrate on one device's activations
            // and clamp everyone else's.
            let snapshots: Vec<_> = ds.traces.iter().flat_map(|t| t.snapshots.iter()).collect();
            let step = (snapshots.len() / args.calib_samples).max(1);
            let calib: Vec<deepcsi_nn::Tensor> = snapshots
                .iter()
                .step_by(step)
                .take(args.calib_samples)
                .map(|fb| auth.tensorize(fb))
                .collect();
            let t = Instant::now();
            let quantized = FrozenAuthenticator::quantized(&auth, &calib)
                .unwrap_or_else(|e| panic!("int8 quantization failed: {e}"));
            println!(
                "quantized to int8 on {} calibration reports ({:.1?})",
                calib.len(),
                t.elapsed()
            );
            quantized
        }
    });
    let engine = Engine::start_frozen(cfg, frozen, registry.clone());
    println!(
        "decision policy: {} ({} workers, {} inference)",
        args.policy, args.workers, args.precision,
    );

    // Observability plumbing: the file emitter publishes periodically
    // while serving (and flushes the final partial interval on stop);
    // the live plane, when requested, scrapes the same telemetry over
    // HTTP. Both hold Arc handles that outlive the engine.
    let telemetry = engine.telemetry_handle();
    let audit = engine.audit_handle();
    let emitter = (args.metrics_file.is_some() || args.metrics_json.is_some()).then(|| {
        MetricsEmitter::spawn(
            Arc::clone(&telemetry),
            Duration::from_secs(args.metrics_interval),
            args.metrics_file.clone(),
            args.metrics_json.clone(),
        )
    });
    let plane = args.obs_listen.as_ref().map(|addr| {
        let plane = ObsPlane::start(
            ObsPlaneConfig {
                listen: addr.clone(),
                ..ObsPlaneConfig::default()
            },
            &engine,
        )
        .unwrap_or_else(|e| panic!("binding observability listener {addr}: {e}"));
        println!(
            "observability plane listening on http://{}",
            plane.local_addr()
        );
        plane.set_ready(true);
        plane
    });

    let t = Instant::now();
    match &args.pcap {
        Some(path) => serve_from_capture(&engine, &args, path),
        None => {
            for _ in 0..args.repeat {
                for frame in replay.frames() {
                    engine.ingest_frame(frame);
                }
            }
            // Exercise the decode-error path on demand. Replay mode
            // only: out-of-band garbage would (correctly) break the
            // capture-layer reconciliation a file source reports.
            for i in 0..args.garbage {
                engine.ingest_frame(&[i as u8; 11]);
            }
        }
    }
    engine.drain();
    let elapsed = t.elapsed();
    // Hold the plane open over the settled counters before tearing
    // anything down — CI's loopback scrape runs inside this window.
    if let Some(plane) = &plane {
        if args.obs_linger > 0 {
            plane.tick_now();
            println!("lingering {}s for scrapes (--obs-linger)", args.obs_linger);
            std::thread::sleep(Duration::from_secs(args.obs_linger));
        }
        plane.set_ready(false);
    }
    let report = engine.shutdown();
    if let Some(plane) = plane {
        plane.shutdown();
    }

    // Final publication after every counter has settled: the emitter's
    // stop() flushes the partial interval since its last timer fire.
    if let Some(emitter) = emitter {
        emitter.stop();
        for path in [&args.metrics_file, &args.metrics_json]
            .into_iter()
            .flatten()
        {
            println!("metrics written to {path}");
        }
    }
    if let Some(audit) = &audit {
        if let Some(path) = &args.audit_file {
            println!(
                "audit trail: {} events written to {path} ({} write errors)",
                audit.appended(),
                audit.write_errors()
            );
        }
    }
    if let Some(path) = &args.trace_file {
        let file =
            std::fs::File::create(path).unwrap_or_else(|e| panic!("creating trace {path}: {e}"));
        write_chrome_trace(std::io::BufWriter::new(file), &report.spans)
            .unwrap_or_else(|e| panic!("writing trace {path}: {e}"));
        println!(
            "trace: {} spans written to {path} (open in chrome://tracing or Perfetto)",
            report.spans.len()
        );
    }

    println!("\n--- per-device verdicts ---");
    for d in &report.decisions {
        let expected = registry
            .expected(d.source)
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".to_string());
        match &d.decision {
            Some(w) => println!(
                "{}  expected {:>3}  decided {:>3}  votes {:>5.1}%  conf {:.2}  n {:>6}  {}  {:?}",
                d.source,
                expected,
                w.module,
                w.vote_fraction * 100.0,
                w.confidence_ema,
                w.observations,
                match d.decided_at {
                    Some(n) => format!("verdict@{n:<4}"),
                    None => "undecided   ".to_string(),
                },
                d.verdict
            ),
            None => println!(
                "{}  expected {:>3}  (no reports)  {:?}",
                d.source, expected, d.verdict
            ),
        }
    }

    if let Some(ops) = &report.layer_profile {
        println!("\n--- per-layer inference profile ---");
        print!("{}", format_op_table(ops));
    }

    println!("\n--- engine telemetry ---");
    println!("{}", report.stats);
    let rps = report.stats.classified as f64 / elapsed.as_secs_f64();
    let stream_bytes = if args.pcap.is_some() {
        report.stats.capture_bytes as usize
    } else {
        replay.total_bytes() * args.repeat
    };
    let mibps = stream_bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64();
    println!(
        "throughput: {rps:.0} reports/s ({mibps:.1} MiB/s of frames) over {:.2?}",
        elapsed
    );
    println!("RESULT serve reports_per_sec {rps:.1}");

    let accepted = report
        .decisions
        .iter()
        .filter(|d| d.verdict == Verdict::Accept)
        .count();
    println!("RESULT serve accepted_devices {accepted}");
    println!("RESULT serve registered_devices {}", registry.len());
}
