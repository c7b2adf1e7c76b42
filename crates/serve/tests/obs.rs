//! Observability integration: tracing, profiling, the audit trail and
//! the live scrape plane must be *pure observers* — verdicts
//! bit-identical with them on or off, at both precisions — and the
//! exported artifacts (Chrome trace JSON, Prometheus text, audit JSONL,
//! every HTTP endpoint payload) must survive a round trip through the
//! `obs` crate's own parsers, even while being scraped under load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deepcsi_core::{Authenticator, FrozenAuthenticator, ModelConfig};
use deepcsi_data::{generate_d1, Dataset, GenConfig, InputSpec};
use deepcsi_obs::{
    http_get, parse_chrome_trace, parse_prometheus, write_chrome_trace, HealthState, JsonValue,
    SloConfig, TraceConfig,
};
use deepcsi_serve::{
    AuditConfig, Backpressure, Engine, EngineConfig, EngineReport, ObsPlane, ObsPlaneConfig,
    Precision, ReplaySource, Stage,
};

/// A plane config for deterministic tests: free port, and a ticker that
/// effectively never fires on its own — every SLO evaluation goes
/// through `tick_now()`.
fn test_plane_config(slo: SloConfig) -> ObsPlaneConfig {
    ObsPlaneConfig {
        listen: "127.0.0.1:0".to_string(),
        slo,
        slo_interval: Duration::from_secs(3600),
        ..ObsPlaneConfig::default()
    }
}

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

fn spec() -> InputSpec {
    InputSpec {
        stride: 4, // narrow inputs keep the tests fast
        ..InputSpec::default()
    }
}

fn dataset(modules: u32, snapshots: usize) -> Dataset {
    generate_d1(&GenConfig {
        num_modules: modules,
        snapshots_per_trace: snapshots,
        ..GenConfig::default()
    })
}

/// An untrained classifier: observability must not perturb *whatever*
/// the model decides, so accuracy is irrelevant here — determinism is
/// what's under test.
fn authenticator(ds: &Dataset, modules: usize) -> Authenticator {
    let spec = spec();
    let probe = spec.tensor(&ds.traces[0].snapshots[0]);
    Authenticator::new(ModelConfig::fast(modules, 0).build_for(&probe), spec)
}

/// Freezes at the requested precision (int8 calibrates on the dataset's
/// own snapshots, like `deepcsi-served` does).
fn frozen(auth: &Authenticator, ds: &Dataset, precision: Precision) -> Arc<FrozenAuthenticator> {
    Arc::new(match precision {
        Precision::F32 => auth.freeze(),
        Precision::Int8 => {
            let calib: Vec<_> = ds
                .traces
                .iter()
                .flat_map(|t| t.snapshots.iter())
                .map(|fb| auth.tensorize(fb))
                .collect();
            FrozenAuthenticator::quantized(auth, &calib).expect("int8 quantization")
        }
    })
}

/// Replays the dataset losslessly through two workers, with the
/// observability fields (`trace`, `profile`, `audit`) taken from
/// `observed`.
fn serve(frozen: &Arc<FrozenAuthenticator>, ds: &Dataset, observed: EngineConfig) -> EngineReport {
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..observed
        },
        Arc::clone(frozen),
        ReplaySource::registry(ds),
    );
    for frame in ReplaySource::from_dataset(ds).frames() {
        engine.ingest_frame(frame);
    }
    engine.shutdown()
}

/// One device's decision, flattened for comparison:
/// (source, verdict, decided module, observations, decided_at).
type DecisionRow = (String, String, Option<usize>, u64, Option<u64>);

/// Everything decision-shaped in a report, in comparable form.
fn decision_vector(report: &EngineReport) -> Vec<DecisionRow> {
    report
        .decisions
        .iter()
        .map(|d| {
            (
                d.source.to_string(),
                format!("{:?}", d.verdict),
                d.decision.as_ref().map(|w| w.module),
                d.decision.as_ref().map_or(0, |w| w.observations),
                d.decided_at,
            )
        })
        .collect()
}

#[test]
fn observability_does_not_change_verdicts_at_either_precision() {
    let ds = dataset(3, 20);
    let auth = authenticator(&ds, 3);
    for precision in [Precision::F32, Precision::Int8] {
        let model = frozen(&auth, &ds, precision);
        // Unobserved (trace, profile and audit off) vs everything on
        // (every batch traced, every layer profiled, every verdict
        // audited).
        let unobserved = serve(&model, &ds, EngineConfig::default());
        let lit = serve(
            &model,
            &ds,
            EngineConfig {
                trace: TraceConfig::always(),
                profile: true,
                audit: Some(AuditConfig::default()),
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            decision_vector(&unobserved),
            decision_vector(&lit),
            "{precision} verdicts changed when observability was enabled"
        );
        assert_eq!(unobserved.stats.classified, lit.stats.classified);
        // The unobserved run really recorded nothing, and the lit run
        // really did observe: spans and a profile on one side only.
        assert!(unobserved.spans.is_empty() && unobserved.layer_profile.is_none());
        assert!(!lit.spans.is_empty() && lit.layer_profile.is_some());
    }
}

#[test]
fn spans_cover_every_stage_and_round_trip_through_chrome_json() {
    let ds = dataset(2, 15);
    let auth = authenticator(&ds, 2);
    let model = frozen(&auth, &ds, Precision::F32);
    let report = serve(
        &model,
        &ds,
        EngineConfig {
            trace: TraceConfig::always(),
            ..EngineConfig::default()
        },
    );

    // With sample_every = 1 every pipeline stage must have fired.
    for stage in Stage::ALL {
        assert!(
            report.spans.iter().any(|s| s.name == stage.name()),
            "no {:?} span in {} spans",
            stage.name(),
            report.spans.len()
        );
    }
    // Spans arrive sorted and with sane extents.
    for pair in report.spans.windows(2) {
        assert!(pair[0].start_ns <= pair[1].start_ns, "spans not sorted");
    }

    // Chrome trace_event JSON round trip through the obs parser.
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, &report.spans).expect("write trace");
    let text = String::from_utf8(buf).expect("utf8 trace");
    let parsed = parse_chrome_trace(&text).expect("parse trace");
    assert_eq!(parsed.len(), report.spans.len());
    for (p, e) in parsed.iter().zip(&report.spans) {
        assert!(p.matches(e), "span {:?} did not round-trip", e.name);
    }
}

#[test]
fn metrics_artifacts_parse_cleanly_after_a_run() {
    let ds = dataset(2, 15);
    let auth = authenticator(&ds, 2);
    let model = frozen(&auth, &ds, Precision::F32);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            ..EngineConfig::default()
        },
        Arc::clone(&model),
        ReplaySource::registry(&ds),
    );
    let telemetry = engine.telemetry_handle();
    for frame in ReplaySource::from_dataset(&ds).frames() {
        engine.ingest_frame(frame);
    }
    engine.drain();

    let reg = telemetry.metrics();
    let text = reg.to_prometheus();
    let samples = parse_prometheus(&text).expect("prometheus text parses");
    assert!(!samples.is_empty());
    assert!(!text.contains("NaN"), "non-finite value leaked:\n{text}");
    let classified = samples
        .iter()
        .find(|s| s.name == "deepcsi_classified_total")
        .expect("classified counter exported");
    assert_eq!(classified.value as u64, telemetry.snapshot().classified);

    let line = reg.to_json_line();
    let json = JsonValue::parse(&line).expect("JSON line parses");
    assert_eq!(
        json.get("deepcsi_classified_total")
            .and_then(|v| v.as_f64()),
        Some(classified.value)
    );

    let report = engine.shutdown();
    assert_eq!(report.stats.classified, classified.value as u64);
}

#[test]
fn layer_profile_merges_every_worker_and_accounts_every_sample() {
    let ds = dataset(2, 15);
    let auth = authenticator(&ds, 2);
    let model = frozen(&auth, &ds, Precision::F32);
    let report = serve(
        &model,
        &ds,
        EngineConfig {
            profile: true,
            ..EngineConfig::default()
        },
    );
    let ops = report.layer_profile.as_ref().expect("profile requested");
    assert!(!ops.is_empty());
    // Every op saw every classified sample exactly once, on every row.
    for op in ops {
        assert_eq!(
            op.samples, report.stats.classified,
            "op {} sample count diverges from classified",
            op.name
        );
        assert!(op.calls > 0 && op.bytes > 0);
    }
    assert_eq!(model.model().len(), ops.len());
}

#[test]
fn live_plane_is_a_pure_observer_at_both_precisions() {
    let ds = dataset(3, 20);
    let auth = authenticator(&ds, 3);
    for precision in [Precision::F32, Precision::Int8] {
        let model = frozen(&auth, &ds, precision);
        let dark = serve(&model, &ds, EngineConfig::default());

        // Everything on: audit trail, per-layer profiling, the scrape
        // plane — and live HTTP reads interleaved with ingest.
        let engine = Engine::start_frozen(
            EngineConfig {
                workers: 2,
                backpressure: Backpressure::Block,
                profile: true,
                audit: Some(AuditConfig::default()),
                ..EngineConfig::default()
            },
            Arc::clone(&model),
            ReplaySource::registry(&ds),
        );
        let plane =
            ObsPlane::start(test_plane_config(SloConfig::default()), &engine).expect("bind plane");
        plane.set_ready(true);
        let addr = plane.local_addr().to_string();
        const ENDPOINTS: [&str; 6] = [
            "/metrics",
            "/stats.json",
            "/healthz",
            "/readyz",
            "/profile",
            "/audit/tail?n=10",
        ];
        for (i, frame) in ReplaySource::from_dataset(&ds).frames().enumerate() {
            engine.ingest_frame(frame);
            if i % 61 == 0 {
                // Rotate through every endpoint mid-flight; under load a
                // shed (503) is acceptable, an error or hang is not.
                let path = ENDPOINTS[(i / 61) % ENDPOINTS.len()];
                let (status, _) = http_get(&addr, path, SCRAPE_TIMEOUT).expect("mid-flight scrape");
                assert!(status == 200 || status == 503, "{path} answered {status}");
            }
        }
        engine.drain();
        plane.tick_now();

        // Settled: every endpoint answers 200 with a payload its own
        // parser accepts.
        for path in ENDPOINTS {
            let (status, body) = http_get(&addr, path, SCRAPE_TIMEOUT).expect("settled scrape");
            assert_eq!(status, 200, "{path} after drain:\n{body}");
            if path == "/metrics" {
                assert!(!parse_prometheus(&body)
                    .expect("prometheus parses")
                    .is_empty());
            } else if path.starts_with("/profile") || path.starts_with("/audit") {
                let v = JsonValue::parse(&body).unwrap_or_else(|e| panic!("{path}: {e}\n{body}"));
                assert!(
                    !v.as_array().expect("array payload").is_empty(),
                    "{path} empty"
                );
            } else {
                JsonValue::parse(&body).unwrap_or_else(|e| panic!("{path}: {e}\n{body}"));
            }
        }

        let report = engine.shutdown();
        plane.shutdown();
        assert_eq!(
            decision_vector(&dark),
            decision_vector(&report),
            "{precision} verdicts changed with the live plane attached"
        );
    }
}

#[test]
fn scraping_under_load_keeps_counters_consistent() {
    let ds = dataset(3, 20);
    let auth = authenticator(&ds, 3);
    let model = frozen(&auth, &ds, Precision::F32);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            audit: Some(AuditConfig::default()),
            ..EngineConfig::default()
        },
        Arc::clone(&model),
        ReplaySource::registry(&ds),
    );
    let plane =
        ObsPlane::start(test_plane_config(SloConfig::default()), &engine).expect("bind plane");
    plane.set_ready(true);
    let addr = plane.local_addr().to_string();

    // Two scraper threads hammer the plane for the whole replay.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = ["/metrics", "/audit/tail?n=50"]
        .into_iter()
        .map(|path| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut last_classified = 0.0f64;
                while !stop.load(Ordering::Relaxed) {
                    match http_get(&addr, path, SCRAPE_TIMEOUT) {
                        Ok((200, body)) => {
                            served += 1;
                            if path == "/metrics" {
                                let samples =
                                    parse_prometheus(&body).expect("mid-load scrape parses");
                                let c = samples
                                    .iter()
                                    .find(|s| s.name == "deepcsi_classified_total")
                                    .expect("classified counter in every scrape")
                                    .value;
                                assert!(c >= last_classified, "classified went backwards");
                                last_classified = c;
                            } else {
                                JsonValue::parse(&body).expect("audit tail parses under load");
                            }
                        }
                        // Bounded server: shedding under load is in-contract.
                        Ok((503, _)) => {}
                        Ok((status, body)) => panic!("{path} answered {status}:\n{body}"),
                        Err(e) => panic!("{path} scrape failed: {e}"),
                    }
                }
                served
            })
        })
        .collect();

    for _ in 0..3 {
        for frame in ReplaySource::from_dataset(&ds).frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    stop.store(true, Ordering::Relaxed);
    for s in scrapers {
        let served = s.join().expect("scraper thread");
        assert!(served > 0, "a scraper never landed a 200");
    }

    // Settled scrape: the conservation laws hold exactly, and the scrape
    // is self-describing.
    let (status, body) = http_get(&addr, "/metrics", SCRAPE_TIMEOUT).expect("final scrape");
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("final scrape parses");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from scrape"))
            .value
    };
    assert_eq!(
        get("deepcsi_enqueued_total"),
        get("deepcsi_classified_total") + get("deepcsi_rejected_total"),
        "enqueued != classified + rejected at quiescence"
    );
    assert_eq!(
        get("deepcsi_ingested_total"),
        get("deepcsi_enqueued_total")
            + get("deepcsi_dropped_total")
            + get("deepcsi_decode_errors_total"),
        "ingest conservation broke"
    );
    assert!(get("deepcsi_uptime_seconds") > 0.0);
    assert_eq!(get("deepcsi_build_info"), 1.0);
    assert!(samples.iter().any(|s| s.name == "deepcsi_health_state"));

    let report = engine.shutdown();
    plane.shutdown();
    assert_eq!(
        get("deepcsi_audit_events_total") as u64,
        report.stats.verdicts_decided,
        "audit events != decided verdicts"
    );
    assert_eq!(
        get("deepcsi_classified_total") as u64,
        report.stats.classified
    );
}

#[test]
fn slo_breach_walks_ok_degraded_failing_and_healthz_follows() {
    let ds = dataset(2, 30);
    let auth = authenticator(&ds, 2);
    let model = frozen(&auth, &ds, Precision::F32);
    // A 1-slot DropNewest queue on a single worker: flooding it sheds
    // most of the replay, deterministically breaching the 5% drop SLO.
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch: 1,
            backpressure: Backpressure::DropNewest,
            ..EngineConfig::default()
        },
        Arc::clone(&model),
        ReplaySource::registry(&ds),
    );
    let plane = ObsPlane::start(
        test_plane_config(SloConfig {
            window: 4,
            failing_after: 2,
            ..SloConfig::default()
        }),
        &engine,
    )
    .expect("bind plane");
    plane.set_ready(true);
    let addr = plane.local_addr().to_string();

    // Quiet engine: healthy.
    assert_eq!(plane.tick_now().state, HealthState::Ok);

    for _ in 0..4 {
        for frame in ReplaySource::from_dataset(&ds).frames() {
            engine.ingest_frame(frame);
        }
    }
    engine.drain();
    let stats = engine.stats();
    assert!(
        stats.dropped as f64 > 0.05 * stats.ingested as f64,
        "flood did not shed enough to breach ({} of {})",
        stats.dropped,
        stats.ingested
    );

    // First breaching evaluation: ok → degraded, with a structured
    // breach event on the clean→breaching edge.
    let degraded = plane.tick_now();
    assert_eq!(degraded.state, HealthState::Degraded);
    assert!(degraded
        .rules
        .iter()
        .any(|r| r.rule == "drop_rate" && r.breaching));
    let breaches = plane.breaches();
    let breach = breaches
        .iter()
        .find(|b| b.rule == "drop_rate")
        .expect("drop_rate breach event");
    assert!(breach.value > breach.threshold);
    JsonValue::parse(&breach.to_json()).expect("breach event JSON parses");
    // Degraded still answers 200 — probes only fail the pod at failing.
    let (status, body) = http_get(&addr, "/healthz", SCRAPE_TIMEOUT).expect("healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"degraded\""), "{body}");

    // Second consecutive breaching evaluation escalates to failing, and
    // /healthz flips to 503; /metrics mirrors the state as a gauge.
    assert_eq!(plane.tick_now().state, HealthState::Failing);
    let (status, body) = http_get(&addr, "/healthz", SCRAPE_TIMEOUT).expect("healthz");
    assert_eq!(status, 503);
    assert!(body.contains("\"state\":\"failing\""), "{body}");
    let (_, text) = http_get(&addr, "/metrics", SCRAPE_TIMEOUT).expect("metrics");
    assert!(parse_prometheus(&text)
        .expect("metrics parse")
        .iter()
        .any(|s| s.name == "deepcsi_health_state" && s.value == 2.0));

    // The sliding window forgets the burst: health recovers.
    let mut state = HealthState::Failing;
    for _ in 0..8 {
        state = plane.tick_now().state;
    }
    assert_eq!(state, HealthState::Ok);
    let (status, _) = http_get(&addr, "/healthz", SCRAPE_TIMEOUT).expect("healthz");
    assert_eq!(status, 200);

    plane.shutdown();
    engine.shutdown();
}

#[test]
fn audit_trail_records_exactly_one_event_per_decided_verdict() {
    let dir = std::env::temp_dir().join("deepcsi-obs-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("audit-{}.jsonl", std::process::id()));

    let ds = dataset(3, 20);
    let auth = authenticator(&ds, 3);
    let model = frozen(&auth, &ds, Precision::F32);
    let engine = Engine::start_frozen(
        EngineConfig {
            workers: 2,
            backpressure: Backpressure::Block,
            audit: Some(AuditConfig {
                capacity: 64,
                file: Some(path.clone()),
            }),
            ..EngineConfig::default()
        },
        Arc::clone(&model),
        ReplaySource::registry(&ds),
    );
    let audit = engine.audit_handle().expect("audit enabled");
    for frame in ReplaySource::from_dataset(&ds).frames() {
        engine.ingest_frame(frame);
    }
    let report = engine.shutdown(); // flushes the audit writer

    let decided = report
        .decisions
        .iter()
        .filter(|d| d.decided_at.is_some())
        .count() as u64;
    assert!(decided > 0, "replay must decide at least one stream");
    assert_eq!(report.stats.verdicts_decided, decided);
    assert_eq!(
        audit.appended(),
        decided,
        "exactly one audit event per decided verdict"
    );
    assert_eq!(audit.write_errors(), 0);

    // Ring tail: sequential, complete, and parseable.
    let tail = audit.tail(1_000);
    assert_eq!(tail.len(), decided as usize);
    for (i, ev) in tail.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "audit sequence has gaps");
        let v = JsonValue::parse(&ev.to_json()).expect("event JSON parses");
        let verdict = v.get("verdict").and_then(|x| x.as_str()).unwrap();
        assert!(
            verdict == "accept" || verdict == "reject",
            "decisive verdict expected, got {verdict}"
        );
        assert_eq!(v.get("policy").and_then(|x| x.as_str()), Some("fixed"));
        assert_eq!(v.get("precision").and_then(|x| x.as_str()), Some("f32"));
        assert!(v.get("reports_to_verdict").unwrap().as_f64().unwrap() >= 1.0);
    }

    // The JSONL file mirrors the ring line-for-line.
    let text = std::fs::read_to_string(&path).expect("audit file written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), decided as usize);
    for line in &lines {
        JsonValue::parse(line).expect("audit file line parses");
    }
    std::fs::remove_file(&path).ok();
}
