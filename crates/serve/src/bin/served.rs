//! `deepcsi-served` — replay a stored (or synthesized) capture through
//! the streaming authentication engine and report per-device verdicts
//! plus engine telemetry.
//!
//! `deepcsi-served --help` lists every flag with its default (the
//! `FLAGS` table below is the whole grammar; an unknown flag exits 2).
//! A flag that sets a library config field (`--workers`, `--queue`,
//! `--batch`, `--window`, `--policy`, `--trace-sample`, …) overrides
//! that config's `Default` only when given.
//!
//! A synthetic D1 capture is generated (stored captures enter through
//! `--pcap`); without `--model` a fast classifier is trained on it
//! first (and optionally persisted with `--save-model` as a `DCSM`
//! model file for instant start-up next time).
//!
//! Capture-file modes:
//!
//! * `--export-pcap PATH` writes the synthesized dataset as
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
//!   backend (`f32` is bit-identical to training). `int8` calibrates
//!   activation scales on up to `--calib-samples` tensorized reports
//!   from the dataset, quantizes the conv/dense layers onto integer
//!   kernels, and serves the quantized snapshot behind the same `Arc` —
//!   verdict plumbing untouched.
//!
//! Decision-policy knobs (see the crate docs for the semantics):
//!
//! * `--policy fixed|confidence|adaptive` selects the verdict policy
//!   (`fixed` is the classic majority window).
//! * `--accept-threshold MASS` sets the confidence policy's posterior
//!   mass gate, in `(0.5, 1]`.
//! * `--calibration N` sets the adaptive policy's warm-up length in
//!   reports.
//!
//! Observability knobs (see ARCHITECTURE.md § Observability):
//!
//! * `--metrics-file PATH` rewrites a Prometheus text-exposition file
//!   every `--metrics-interval` seconds and once more at shutdown —
//!   point a node-exporter textfile collector (or a test's
//!   `obs-check --prom`) at it.
//! * `--metrics-json PATH` appends one flat JSON object per interval to
//!   a JSONL file, including `deepcsi_interval_seconds` and interval
//!   rates computed from consecutive snapshots (`*_per_sec` fields).
//! * `--trace-file PATH` enables span tracing and writes a Chrome
//!   `trace_event` JSON at shutdown — load it in `chrome://tracing` or
//!   Perfetto. `--trace-sample N` records one micro-batch in `N` (`1`
//!   traces everything).
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
//!   in-memory ring behind `/audit/tail` (sized by `--audit-capacity`)
//!   is on whenever `--obs-listen` or `--audit-file` is.

use deepcsi_capture::{FollowSource, FrameSource, PcapFileSource};
use deepcsi_core::demo::{self, DemoConfig};
use deepcsi_core::{Authenticator, FrozenAuthenticator};
use deepcsi_data::Dataset;
use deepcsi_obs::{format_op_table, write_chrome_trace, Arg, Flag, Flags, TraceConfig};
use deepcsi_serve::{
    AuditConfig, Backpressure, Engine, EngineConfig, MetricsEmitter, ObsPlane, ObsPlaneConfig,
    PolicyKind, Precision, ReplaySource, SourceStatus, Verdict,
};
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every flag: `(flag, what it takes, help)`. A row without a default
/// is optional, or overrides the library config field its help names.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--model", Arg::Value, "trained model to load (default: train a fast one)"),
    ("--save-model", Arg::Value, "persist the trained model here"),
    ("--modules", Arg::Default("3"), "synthetic D1 modules"),
    ("--snapshots", Arg::Default("40"), "synthetic D1 snapshots per trace"),
    ("--epochs", Arg::Default("6"), "training epochs"),
    ("--workers", Arg::Value, "shard workers (default: EngineConfig's)"),
    ("--precision", Arg::Value, "serving snapshot to build: f32|int8 (default: Precision's)"),
    ("--calib-samples", Arg::Default("256"), "int8 calibration reports"),
    ("--batch", Arg::Value, "micro-batch cap (default: EngineConfig's)"),
    ("--queue", Arg::Value, "per-worker queue capacity (default: EngineConfig's)"),
    ("--window", Arg::Value, "decision window length (default: WindowConfig's)"),
    ("--policy", Arg::Value, "fixed|confidence|adaptive (default: PolicyKind's)"),
    ("--accept-threshold", Arg::Value, "confidence policy's mass gate, in (0.5, 1]"),
    ("--calibration", Arg::Value, "adaptive policy's warm-up, in reports"),
    ("--repeat", Arg::Default("1"), "replay passes"),
    ("--drop", Arg::Switch, "drop on a full queue instead of blocking"),
    ("--garbage", Arg::Default("0"), "undecodable frames appended to the replay"),
    ("--export-pcap", Arg::Value, "write the dataset as pcap/pcapng and exit"),
    ("--pcap", Arg::Value, "serve a capture file instead of the replay"),
    ("--follow", Arg::Switch, "tail --pcap as it grows"),
    ("--idle-exit", Arg::Value, "stop --follow after this many idle seconds"),
    ("--metrics-file", Arg::Value, "Prometheus text file, rewritten periodically"),
    ("--metrics-json", Arg::Value, "JSONL metrics file, appended periodically"),
    ("--metrics-interval", Arg::Default("5"), "seconds between emissions"),
    ("--trace-file", Arg::Value, "write a Chrome trace at shutdown"),
    ("--trace-sample", Arg::Value, "trace one micro-batch in N (default: TraceConfig's)"),
    ("--profile", Arg::Switch, "per-layer inference profile"),
    ("--obs-listen", Arg::Value, "bind the live scrape plane here"),
    ("--obs-linger", Arg::Default("0"), "keep the plane up this many seconds after drain"),
    ("--audit-file", Arg::Value, "JSONL verdict audit trail"),
    ("--audit-capacity", Arg::Value, "audit ring size (default: AuditConfig's)"),
];

/// The engine configuration the flags describe. The tracing and audit
/// counts are parsed whether or not they apply, so a zero exits 2 even
/// when it would be ignored.
fn engine_config(f: &Flags) -> EngineConfig {
    let mut cfg = EngineConfig {
        backpressure: if f.has("--drop") {
            Backpressure::DropNewest
        } else {
            Backpressure::Block
        },
        profile: f.has("--profile"),
        ..EngineConfig::default()
    };
    f.set("--workers", &mut cfg.workers);
    f.set("--queue", &mut cfg.queue_capacity);
    f.set("--batch", &mut cfg.max_batch);
    f.set("--window", &mut cfg.window.len);
    f.set("--policy", &mut cfg.decision.kind);
    f.set("--accept-threshold", &mut cfg.decision.posterior_mass);
    f.set("--calibration", &mut cfg.decision.warmup);
    let trace_sample: Option<NonZeroU32> = f.opt("--trace-sample");
    let audit_capacity: Option<NonZeroUsize> = f.opt("--audit-capacity");
    // Tracing is disabled unless a trace file was requested.
    if f.has("--trace-file") {
        cfg.trace = TraceConfig::sampled();
        if let Some(n) = trace_sample {
            cfg.trace.sample_every = n.get();
        }
    }
    // The audit trail is on whenever the scrape plane or an audit file
    // is requested.
    if f.has("--obs-listen") || f.has("--audit-file") {
        let mut audit = AuditConfig {
            file: f.get("--audit-file").map(std::path::PathBuf::from),
            ..AuditConfig::default()
        };
        if let Some(n) = audit_capacity {
            audit.capacity = n.get();
        }
        cfg.audit = Some(audit);
    }
    cfg
}

/// Surfaces flags given where they are silently ignored.
fn warn_ignored(f: &Flags, precision: Precision, policy: PolicyKind) {
    let replay = !f.has("--pcap");
    #[rustfmt::skip]
    let rules = [
        ("--repeat", !replay, "only applies to the in-memory replay; ignored"),
        ("--garbage", !replay, "only applies to the in-memory replay; ignored"),
        ("--follow", replay, "requires --pcap; ignored"),
        ("--idle-exit", !f.has("--follow"), "only applies with --follow; ignored"),
        ("--accept-threshold", policy != PolicyKind::ConfidenceWeighted, "only applies with --policy confidence"),
        ("--calibration", policy != PolicyKind::AdaptiveThreshold, "only applies with --policy adaptive"),
        ("--calib-samples", precision != Precision::Int8, "only applies with --precision int8"),
        ("--metrics-interval", !f.has("--metrics-file") && !f.has("--metrics-json"), "needs --metrics-file or --metrics-json"),
        ("--trace-sample", !f.has("--trace-file"), "only applies with --trace-file"),
        ("--obs-linger", !f.has("--obs-listen"), "only applies with --obs-listen; ignored"),
        ("--audit-capacity", !f.has("--obs-listen") && !f.has("--audit-file"), "needs --obs-listen or --audit-file"),
    ];
    for (flag, ignored, why) in rules {
        if ignored && f.has(flag) {
            eprintln!("warning: {flag} {why}");
        }
    }
}

fn generate_dataset(demo: &DemoConfig) -> Dataset {
    let t = Instant::now();
    let ds = demo::demo_dataset(demo);
    println!(
        "generated synthetic D1: {} modules, {} traces, {} snapshots ({:.1?})",
        demo.modules,
        ds.traces.len(),
        ds.num_snapshots(),
        t.elapsed()
    );
    ds
}

fn load_or_train_model(f: &Flags, ds: &Dataset, epochs: usize) -> Authenticator {
    if let Some(path) = f.get("--model") {
        let auth =
            Authenticator::load(&path).unwrap_or_else(|e| panic!("loading model {path}: {e}"));
        println!("loaded model {path}");
        return auth;
    }
    let t = Instant::now();
    let (auth, accuracy) = demo::train(ds, epochs);
    println!(
        "trained fast classifier: {:.2}% test accuracy over {} classes ({:.1?})",
        accuracy * 100.0,
        ds.modules().len(),
        t.elapsed()
    );
    if let Some(path) = f.get("--save-model") {
        auth.save(&path)
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
/// (`--follow`, until `idle_exit` seconds pass without a frame).
fn serve_from_capture(engine: &Engine, path: &str, follow: bool, idle_exit: Option<u64>) {
    if follow {
        let mut source = FollowSource::open(path);
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
                    } else if let Some(secs) =
                        idle_exit.filter(|&s| last_progress.elapsed() >= Duration::from_secs(s))
                    {
                        println!("no new frames for {secs}s, stopping");
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
    // Every flag is parsed here, before the expensive dataset and
    // training work: a bad value or a zero count exits 2 at once.
    let f = Flags::from_env(FLAGS);
    let cfg = engine_config(&f);
    let demo = DemoConfig {
        modules: f.value("--modules"),
        snapshots: f.value("--snapshots"),
        epochs: f.value("--epochs"),
    };
    let mut precision = Precision::default();
    f.set("--precision", &mut precision);
    let calib_samples: NonZeroUsize = f.value("--calib-samples");
    let repeat: usize = f.value("--repeat");
    let garbage: usize = f.value("--garbage");
    let idle_exit: Option<u64> = f.opt("--idle-exit");
    let metrics_interval: NonZeroU64 = f.value("--metrics-interval");
    let obs_linger: u64 = f.value("--obs-linger");
    let (pcap, follow) = (f.get("--pcap"), f.has("--follow"));
    let (metrics_file, metrics_json) = (f.get("--metrics-file"), f.get("--metrics-json"));
    let (audit_file, trace_file) = (f.get("--audit-file"), f.get("--trace-file"));
    warn_ignored(&f, precision, cfg.decision.kind);
    // Reject a bad engine knob before the expensive dataset/training
    // work — the engine would assert the same bounds, but only minutes
    // later.
    cfg.validate();
    let ds = generate_dataset(&demo);

    if let Some(path) = f.get("--export-pcap") {
        export_capture(&ds, &path);
        return;
    }

    let auth = load_or_train_model(&f, &ds, demo.epochs);

    let replay = ReplaySource::from_dataset(&ds);
    let registry = ReplaySource::registry(&ds);
    match &pcap {
        Some(path) => println!(
            "serving capture {path} ({}){}",
            if follow { "follow" } else { "finite" },
            if follow {
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
            repeat
        ),
    }

    // Freeze once: the workers all share this one immutable snapshot.
    let frozen = std::sync::Arc::new(match precision {
        Precision::F32 => auth.freeze(),
        Precision::Int8 => {
            // Calibrate activation scales on a representative slice of
            // the capture the engine is about to serve. Stride across
            // the whole dataset — traces are ordered by module, so a
            // plain prefix would calibrate on one device's activations
            // and clamp everyone else's.
            let calib_samples = calib_samples.get();
            let snapshots: Vec<_> = ds.traces.iter().flat_map(|t| t.snapshots.iter()).collect();
            let step = (snapshots.len() / calib_samples).max(1);
            let calib: Vec<deepcsi_nn::Tensor> = snapshots
                .iter()
                .step_by(step)
                .take(calib_samples)
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
    let (policy, workers) = (cfg.decision.kind, cfg.workers);
    let engine = Engine::start_frozen(cfg, frozen, registry.clone());
    println!("decision policy: {policy} ({workers} workers, {precision} inference)");

    // Observability plumbing: the file emitter publishes periodically
    // while serving (and flushes the final partial interval on stop);
    // the live plane, when requested, scrapes the same telemetry over
    // HTTP. Both hold Arc handles that outlive the engine.
    let telemetry = engine.telemetry_handle();
    let audit = engine.audit_handle();
    let emitter = (metrics_file.is_some() || metrics_json.is_some()).then(|| {
        MetricsEmitter::spawn(
            Arc::clone(&telemetry),
            Duration::from_secs(metrics_interval.get()),
            metrics_file.clone(),
            metrics_json.clone(),
        )
    });
    let plane = f.get("--obs-listen").map(|addr| {
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
    match &pcap {
        Some(path) => serve_from_capture(&engine, path, follow, idle_exit),
        None => {
            for _ in 0..repeat {
                for frame in replay.frames() {
                    engine.ingest_frame(frame);
                }
            }
            // Exercise the decode-error path on demand. Replay mode
            // only: out-of-band garbage would (correctly) break the
            // capture-layer reconciliation a file source reports.
            for i in 0..garbage {
                engine.ingest_frame(&[i as u8; 11]);
            }
        }
    }
    engine.drain();
    let elapsed = t.elapsed();
    // Hold the plane open over the settled counters before tearing
    // anything down — CI's loopback scrape runs inside this window.
    if let Some(plane) = &plane {
        if obs_linger > 0 {
            plane.tick_now();
            println!("lingering {obs_linger}s for scrapes (--obs-linger)");
            std::thread::sleep(Duration::from_secs(obs_linger));
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
        for path in [&metrics_file, &metrics_json].into_iter().flatten() {
            println!("metrics written to {path}");
        }
    }
    if let Some(audit) = &audit {
        if let Some(path) = &audit_file {
            println!(
                "audit trail: {} events written to {path} ({} write errors)",
                audit.appended(),
                audit.write_errors()
            );
        }
    }
    if let Some(path) = &trace_file {
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
    let stream_bytes = if pcap.is_some() {
        report.stats.capture_bytes as usize
    } else {
        replay.total_bytes() * repeat
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
