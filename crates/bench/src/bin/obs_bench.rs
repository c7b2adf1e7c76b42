//! Observability overhead sweep: end-to-end engine throughput with the
//! instrumentation at each of its settings, normalised against the
//! default engine — as machine-readable `RESULT obs …` lines (collected
//! by `run_all` into `BENCH_obs.json`; keys documented in
//! `crates/bench/README.md`). The per-layer profiler's op shares for
//! the paper CNN are the repo benchmark's `nn.op_share.paper.*` rows.
//!
//! The three engine rows:
//!
//! * `default` — the out-of-the-box config: stage histograms (always
//!   on), tracing disabled, no profiler. This is the baseline.
//! * `sampled` — span tracing at the default 1-in-8 micro-batch
//!   sampling. Budget: ≤3% below `default`.
//! * `always` — every micro-batch traced *and* the per-layer profiler
//!   attached: the worst case, reported for scale but not asserted.
//!
//! Rounds are interleaved (default, sampled, always, default, …) and
//! each config keeps its best round, so a background hiccup degrades
//! one round of one config instead of biasing a whole row. The budget
//! assertions run only in full mode — `--tiny` runs are for
//! smoke-testing the harness, not for measuring.
//!
//! A second sweep prices the **live observability plane**:
//!
//! * `live_dark` — no plane, no audit: the baseline.
//! * `live_idle` — audit trail on + scrape server bound + SLO ticker at
//!   its default 1 s cadence, but nobody scraping. Budget: ≤1% below
//!   `live_dark`.
//! * `live_scraped` — `live_idle` plus two loopback scraper threads
//!   hitting `/metrics` and `/audit/tail` at ~10 scrapes/s each
//!   (two orders of magnitude past Prometheus's default 15 s scrape
//!   interval). Budget: ≤3% below `live_dark`.

use deepcsi_bench::{result_line, TINY_FLAGS};
use deepcsi_core::{Authenticator, ModelConfig};
use deepcsi_data::{generate_d1, Dataset, GenConfig, InputSpec};
use deepcsi_obs::{http_get, Flags, TraceConfig};
use deepcsi_serve::{
    AuditConfig, Backpressure, Engine, EngineConfig, ObsPlane, ObsPlaneConfig, ReplaySource,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One row of the overhead sweep.
struct ObsSetting {
    name: &'static str,
    trace: TraceConfig,
    profile: bool,
}

fn settings() -> Vec<ObsSetting> {
    vec![
        ObsSetting {
            name: "default",
            trace: TraceConfig::default(),
            profile: false,
        },
        ObsSetting {
            name: "sampled",
            trace: TraceConfig::sampled(),
            profile: false,
        },
        ObsSetting {
            name: "always",
            trace: TraceConfig::always(),
            profile: true,
        },
    ]
}

/// A small synthetic capture for the throughput runs.
fn serve_dataset(modules: u32, snapshots: usize) -> Dataset {
    generate_d1(&GenConfig {
        num_modules: modules,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    })
}

/// An untrained fast classifier over the dataset's input shape
/// (throughput does not depend on trained weights).
fn serve_authenticator(ds: &Dataset, classes: usize) -> Authenticator {
    let spec = InputSpec {
        stride: 4,
        ..InputSpec::default()
    };
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    Authenticator::new(ModelConfig::fast(classes, 0).build_for(&probe), spec)
}

/// End-to-end engine throughput for `repeat` replay passes under `cfg`,
/// reports/second.
fn engine_reports_per_sec_cfg(ds: &Dataset, cfg: EngineConfig, repeat: usize) -> f64 {
    engine_reports_per_sec_observed(ds, cfg, repeat, |_| (), |()| ())
}

/// [`engine_reports_per_sec_cfg`] with observer hooks: `attach` runs
/// once the engine is up (bind a scrape plane, launch scraper threads)
/// and `detach` runs after the replay has drained and the clock has
/// stopped (tear the observers down before engine shutdown).
fn engine_reports_per_sec_observed<T>(
    ds: &Dataset,
    cfg: EngineConfig,
    repeat: usize,
    attach: impl FnOnce(&Engine) -> T,
    detach: impl FnOnce(T),
) -> f64 {
    let replay = ReplaySource::from_dataset(ds);
    let engine = Engine::start_frozen(
        cfg,
        serve_authenticator(ds, ds.modules().len().max(2)).freeze(),
        ReplaySource::registry(ds),
    );
    let observers = attach(&engine);
    let t = Instant::now();
    for _ in 0..repeat {
        for frame in replay.frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let elapsed = t.elapsed().as_secs_f64();
    detach(observers);
    let report = engine.shutdown();
    report.stats.classified as f64 / elapsed
}

fn main() {
    let tiny = Flags::from_env(TINY_FLAGS).has("--tiny");
    let (snapshots, repeat, rounds) = if tiny {
        (6usize, 1usize, 2usize)
    } else {
        (30, 2, 5)
    };

    // --- Engine overhead sweep ---------------------------------------
    println!("== engine throughput vs observability setting ==");
    let ds = serve_dataset(2, snapshots);
    let settings = settings();
    let mut best = vec![0.0f64; settings.len()];
    for _ in 0..rounds {
        for (i, s) in settings.iter().enumerate() {
            let rps = engine_reports_per_sec_cfg(
                &ds,
                EngineConfig {
                    workers: 2,
                    backpressure: Backpressure::Block,
                    trace: s.trace.clone(),
                    profile: s.profile,
                    ..EngineConfig::default()
                },
                repeat,
            );
            best[i] = best[i].max(rps);
        }
    }
    let baseline = best[0];
    let mut overheads = vec![0.0f64; settings.len()];
    for (i, s) in settings.iter().enumerate() {
        // Negative "overhead" is measurement noise (the instrumented
        // run happened to win); clamp so the report reads as a cost.
        let pct = ((baseline - best[i]) / baseline * 100.0).max(0.0);
        overheads[i] = pct;
        println!(
            "{:<8} {:>9.0} reports/s   overhead {:>5.2}%",
            s.name, best[i], pct
        );
        result_line("obs", &format!("reports_per_sec_{}", s.name), best[i]);
        if i > 0 {
            result_line("obs", &format!("overhead_{}_pct", s.name), pct);
        }
    }

    // --- Live-plane overhead sweep ------------------------------------
    // Same interleaved best-of-rounds protocol; the engine runs its
    // default config in every row (the plane is priced alone, not
    // stacked on tracing or profiling).
    println!("\n== engine throughput vs live observability plane ==");
    let live_names = ["live_dark", "live_idle", "live_scraped"];
    type LiveObservers = Option<(ObsPlane, Arc<AtomicBool>, Vec<std::thread::JoinHandle<()>>)>;
    let mut live_best = [0.0f64; 3];
    for _ in 0..rounds {
        for (i, _) in live_names.iter().enumerate() {
            let rps = engine_reports_per_sec_observed(
                &ds,
                EngineConfig {
                    workers: 2,
                    backpressure: Backpressure::Block,
                    audit: (i > 0).then(AuditConfig::default),
                    ..EngineConfig::default()
                },
                repeat,
                |engine| -> LiveObservers {
                    if i == 0 {
                        return None;
                    }
                    let plane = ObsPlane::start(
                        ObsPlaneConfig {
                            listen: "127.0.0.1:0".to_string(),
                            ..ObsPlaneConfig::default()
                        },
                        engine,
                    )
                    .expect("bind live plane");
                    plane.set_ready(true);
                    let stop = Arc::new(AtomicBool::new(false));
                    let scrapers: Vec<_> = if i == 2 {
                        let addr = plane.local_addr().to_string();
                        ["/metrics", "/audit/tail?n=100"]
                            .into_iter()
                            .map(|path| {
                                let addr = addr.clone();
                                let stop = Arc::clone(&stop);
                                std::thread::spawn(move || {
                                    while !stop.load(Ordering::Relaxed) {
                                        let _ = http_get(&addr, path, Duration::from_secs(2));
                                        // ~10 scrapes/s per endpoint —
                                        // still ~100× Prometheus's
                                        // default 15 s scrape interval.
                                        std::thread::sleep(Duration::from_millis(100));
                                    }
                                })
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    Some((plane, stop, scrapers))
                },
                |observers: LiveObservers| {
                    if let Some((plane, stop, scrapers)) = observers {
                        stop.store(true, Ordering::Relaxed);
                        for s in scrapers {
                            let _ = s.join();
                        }
                        plane.shutdown();
                    }
                },
            );
            live_best[i] = live_best[i].max(rps);
        }
    }
    let live_baseline = live_best[0];
    let mut live_over = [0.0f64; 3];
    for (i, name) in live_names.iter().enumerate() {
        let pct = ((live_baseline - live_best[i]) / live_baseline * 100.0).max(0.0);
        live_over[i] = pct;
        println!(
            "{:<13} {:>9.0} reports/s   overhead {:>5.2}%",
            name, live_best[i], pct
        );
        result_line("obs", &format!("reports_per_sec_{name}"), live_best[i]);
        if i > 0 {
            result_line("obs", &format!("overhead_{name}_pct"), pct);
        }
    }

    // --- Budget assertions (full mode only) --------------------------
    if !tiny {
        assert!(
            overheads[1] <= 3.0,
            "sampled-tracing overhead {:.2}% exceeds the 3% budget",
            overheads[1]
        );
        // Live plane: an idle plane (audit appends + SLO ticks) must be
        // counter noise; continuous loopback scraping may cost a little
        // more but stays within the 3% serving budget.
        assert!(
            live_over[1] <= 1.0,
            "idle live plane (audit + SLO) overhead {:.2}% exceeds the 1% budget",
            live_over[1]
        );
        assert!(
            live_over[2] <= 3.0,
            "scraped-under-load overhead {:.2}% exceeds the 3% budget",
            live_over[2]
        );
        println!(
            "\nbudgets ok: sampled {:.2}% (≤3%), \
             live idle {:.2}% (≤1%), live scraped {:.2}% (≤3%)",
            overheads[1], live_over[1], live_over[2]
        );
    }
}
