//! The four workloads: set-up, the counted check pass, the measured
//! segments and the correctness checks of each.
//!
//! Every workload has the same shape. A timed set-up, then a *check
//! pass* of a fixed number of reports — it warms the system and, because
//! its size does not depend on speed, yields the verdict metrics
//! exactly. Then come the measured segments, the drain and the
//! conservation checks, and last the rest of the [`SETUPS`] timed
//! set-ups.

use crate::fixture::{
    arrival_schedule, capture_image, Container, Fixture, MacPlan, Readdress, Rng, Session,
    NOISE_PER_REPORT, SESSION,
};
use crate::stats::{
    highest_supported_percentile, median, peak_rss_mib, process_cpu_ms, quantile, Tracker,
};
use crate::trace::SpanBuf;
use crate::walk::{walk, Ingress, WalkInput};
use deepcsi_capture::{CaptureCounters, CaptureError, FrameSource, PcapFileSource, SourcePoll};
use deepcsi_cluster::codec::encode_request;
use deepcsi_cluster::{
    ClusterClient, ClusterStats, EngineNode, FrameKind, RequestFrame, RouterConfig, ShardRouter,
};
use deepcsi_core::FrozenAuthenticator;
use deepcsi_frame::MacAddr;
use deepcsi_serve::{
    AuditConfig, Backpressure, DecisionPolicyConfig, DeviceRegistry, Engine, EngineConfig,
    EngineStats, IngestOutcome, PolicyKind, Stage, Telemetry, Verdict,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Measured segments per run; a metric is the median of its segments.
pub const SEGMENTS: usize = 10;
/// Reports whose engine top-1 is compared with the stage walk's.
pub const SAMPLE: usize = 512;
/// `paced_demo`: a report must be classified within one sounding
/// interval of its due time.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// `paced_demo` step rates, reports/s. `REF` carries the end-to-end
/// latency metrics; `LOW` and `HIGH` are traced steps.
pub const RATE_LOW: f64 = 300.0;
pub const RATE_REF: f64 = 1500.0;
pub const RATE_HIGH: f64 = 3000.0;
/// Reports a closed-loop generator keeps outstanding: it hands over the
/// next one only while fewer than this many are unfinished. That keeps
/// every worker's queue fed (32 micro-batches in flight) yet below the
/// engine's own queue capacity, so a report's time in the system is set
/// by the system's speed, not by how full its queues happen to run.
pub const IN_FLIGHT: usize = 1024;
/// `wire_churn` population, retuned once from the issue's 4 096 / 256 /
/// 1 024 so a full eviction cycle (sources × 16 reports) fits a run.
pub const WIRE_SOURCES: usize = 2048;
pub const WIRE_ACTIVE: usize = 128;
pub const WIRE_DEVICE_CAP: usize = 512;
/// Waves in `wire_churn`'s check pass (512 sessions).
const WIRE_CHECK_WAVES: usize = 4;
const WIRE_NODES: usize = 2;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayDemo,
    ReplayPaper,
    PacedDemo,
    WireChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReplayDemo,
        Workload::ReplayPaper,
        Workload::PacedDemo,
        Workload::WireChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayDemo => "replay_demo",
            Workload::ReplayPaper => "replay_paper",
            Workload::PacedDemo => "paced_demo",
            Workload::WireChurn => "wire_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One measured segment.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    pub reports_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Share of the segment's reports classified within the workload's
    /// latency limit; a report that failed misses it. Closed loops have
    /// no limit, so there it is the share classified at all.
    pub deadline_met_share: f64,
    pub cpu_ms_per_report: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

/// Verdict quality over the check pass.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    pub reports_to_verdict_p50: f64,
    pub accept_share: f64,
    pub impostor_reject_share: f64,
}

/// One open-loop step of `paced_demo`.
#[derive(Debug, Clone, Default)]
pub struct Step {
    pub rate: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub backlog_mid: usize,
    pub backlog_end: usize,
    pub failed: u64,
    pub gen_lateness_ms_p99: f64,
}

/// Per-layer numbers read off the system after a run.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    pub mean_batch: f64,
    pub batches: f64,
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p99: f64,
    pub batch_latency_ms_p50: f64,
    pub dropped: f64,
    pub rejected: f64,
    pub decode_errors: f64,
    pub device_states: f64,
    pub devices_evicted: f64,
    pub devices_rewarmed: f64,
    /// The engine's own stage clocks, summed and spread over the
    /// reports classified: decode, tensorize, infer, policy_apply.
    pub stage_us_per_report: [f64; 4],
    pub cluster_drain_ms: f64,
    pub cluster_busy: f64,
    pub cluster_dropped: f64,
    pub cluster_rejected: f64,
    /// `paced_demo` only: the low, ref and high steps.
    pub steps: Vec<Step>,
}

/// Everything one run of one workload yields.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// `VmHWM` when the measured part ended.
    pub peak_rss_mib: f64,
    pub segments: Vec<Segment>,
    pub quality: Quality,
    pub wire_bytes_per_report: f64,
    pub serve: ServeStats,
    /// FNV-1a over the engine's top-1 of the sample.
    pub decision_checksum: u64,
    /// `paced_demo`: how late the generator handed reports over, p99.
    pub gen_lateness_ms_p99: f64,
    /// Failed correctness checks; empty means correct.
    pub errors: Vec<String>,
}

impl RunReport {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Runs one set-up on the clock.
    fn timed_setup<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let made = make();
        self.setup_s.push(t.elapsed().as_secs_f64());
        made
    }

    /// Ends the measured part of a run: samples peak memory, then times
    /// the remaining [`SETUPS`] − 1 set-ups. They come last so that the
    /// memory of set-ups the run never uses does not count as its peak.
    fn finish<T>(mut self, make: impl Fn() -> T, teardown: impl Fn(T)) -> RunReport {
        self.peak_rss_mib = peak_rss_mib();
        for _ in 1..SETUPS {
            let extra = self.timed_setup(&make);
            teardown(extra);
        }
        self
    }
}

/// How long a run measures and in how many segments.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    /// The traced run: one segment, counted where counts must repeat,
    /// plus `paced_demo`'s low and high steps.
    pub trace: bool,
}

impl RunOpts {
    fn segments(&self) -> usize {
        if self.trace {
            1
        } else {
            SEGMENTS
        }
    }

    fn segment(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.segments() as f64)
    }
}

pub fn run(workload: Workload, opts: RunOpts) -> RunReport {
    match workload {
        Workload::ReplayDemo => run_replay(Model::Demo, opts),
        Workload::ReplayPaper => run_replay(Model::Paper, opts),
        Workload::PacedDemo => run_paced(opts),
        Workload::WireChurn => run_wire(opts),
    }
}

/// Reports the engine has finished with (classified or rejected).
fn finished(t: &Telemetry) -> u64 {
    t.classified.load(Ordering::Relaxed) + t.rejected.load(Ordering::Relaxed)
}

/// Closes segments: throughput, CPU per report and the latency
/// percentiles of what finished since the previous cut.
struct Meter {
    limit_ms: Option<f64>,
    started: Instant,
    cpu_ms: f64,
    finished: u64,
    failed: u64,
    rows: Vec<Segment>,
}

impl Meter {
    fn start(limit_ms: Option<f64>, finished: u64, failed: u64) -> Meter {
        Meter {
            limit_ms,
            started: Instant::now(),
            cpu_ms: process_cpu_ms(),
            finished,
            failed,
            rows: Vec::new(),
        }
    }

    fn cut(&mut self, finished: u64, failed: u64, latencies: &[f64]) {
        let now = Instant::now();
        let cpu_ms = process_cpu_ms();
        let done = (finished - self.finished) as f64;
        let lost = (failed - self.failed) as f64;
        let met = match self.limit_ms {
            Some(limit) => latencies.iter().filter(|&&l| l <= limit).count(),
            None => latencies.len(),
        } as f64;
        let tail = highest_supported_percentile(latencies.len()).min(0.9);
        self.rows.push(Segment {
            reports_per_s: done / (now - self.started).as_secs_f64(),
            latency_p50_ms: quantile(latencies, 0.5),
            latency_p90_ms: quantile(latencies, tail),
            deadline_met_share: met / (latencies.len() as f64 + lost).max(1.0),
            cpu_ms_per_report: (cpu_ms - self.cpu_ms) / done.max(1.0),
            samples: latencies.len(),
        });
        self.started = now;
        self.cpu_ms = cpu_ms;
        self.finished = finished;
        self.failed = failed;
    }
}

fn ms(d: Option<Duration>) -> f64 {
    d.map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

fn stage_ms(stats: &EngineStats, stage: &str) -> (f64, f64) {
    stats
        .stages
        .iter()
        .find(|s| s.stage == stage)
        .map_or((0.0, 0.0), |s| (ms(s.p50), ms(s.p99)))
}

/// Folds engines' telemetry into one [`ServeStats`]: counts add,
/// latencies take the slower engine.
fn serve_stats(engines: &[Arc<Telemetry>]) -> ServeStats {
    let stats: Vec<EngineStats> = engines.iter().map(|t| t.snapshot()).collect();
    let sum = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&EngineStats) -> f64| stats.iter().map(f).fold(0.0, f64::max);
    let batches = sum(|s| s.batches);
    let classified = sum(|s| s.classified).max(1.0);
    let stage_us = |stage: Stage| {
        let busy: Duration = engines.iter().map(|t| t.stage(stage).sum()).sum();
        busy.as_secs_f64() * 1e6 / classified
    };
    ServeStats {
        mean_batch: classified / batches.max(1.0),
        batches,
        queue_wait_ms_p50: max(&|s| stage_ms(s, "queue_wait").0),
        queue_wait_ms_p99: max(&|s| stage_ms(s, "queue_wait").1),
        batch_latency_ms_p50: max(&|s| ms(s.batch_latency_p50)),
        dropped: sum(|s| s.dropped),
        rejected: sum(|s| s.rejected),
        decode_errors: sum(|s| s.decode_errors),
        device_states: sum(|s| s.device_states),
        devices_evicted: sum(|s| s.devices_evicted),
        devices_rewarmed: sum(|s| s.devices_rewarmed),
        stage_us_per_report: [
            stage_us(Stage::Decode),
            stage_us(Stage::Tensorize),
            stage_us(Stage::Infer),
            stage_us(Stage::PolicyApply),
        ],
        ..ServeStats::default()
    }
}

/// The conservation law every engine must hold once drained.
fn check_conservation(report: &mut RunReport, stats: &EngineStats) {
    report.check(stats.enqueued == stats.classified + stats.rejected, || {
        format!(
            "conservation: enqueued {} != classified {} + rejected {}",
            stats.enqueued, stats.classified, stats.rejected
        )
    });
}

fn fnv1a(values: &[usize]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ v as u64).wrapping_mul(0x100_0000_01B3)
    })
}

/// The sample re-addressed to one MAC per report, so that a device's
/// decision after the run *is* that report's top-1.
pub(crate) fn unique_sources(sample: &[Vec<u8>]) -> Vec<(MacAddr, Vec<u8>)> {
    let patch = Readdress::probe(&sample[0]);
    sample
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mac = MacAddr::station(0x0200_0000 + i as u64);
            let mut f = f.clone();
            patch.apply(&mut f, mac);
            (mac, f)
        })
        .collect()
}

/// Checks per-report top-1 of a run through the system (`got`, by
/// unique MAC) against the stage walk over the same sample.
fn check_top1(
    report: &mut RunReport,
    auth: &FrozenAuthenticator,
    sample: &[Vec<u8>],
    got: &dyn Fn(MacAddr) -> Option<usize>,
) {
    let oracle = walk(
        &WalkInput {
            ingress: Ingress::Frames(sample.to_vec()),
            auth,
            batch: 32,
            decision: DecisionPolicyConfig::default(),
            registry: &DeviceRegistry::new(),
        },
        &mut SpanBuf::new(0, false),
    )
    .top1;
    let seen: Vec<usize> = (0..sample.len())
        .map(|i| got(MacAddr::station(0x0200_0000 + i as u64)).unwrap_or(usize::MAX))
        .collect();
    report.decision_checksum = fnv1a(&seen);
    let wrong = seen.iter().zip(&oracle).filter(|(a, b)| a != b).count();
    report.check(wrong == 0 && oracle.len() == sample.len(), || {
        format!(
            "top-1 of {wrong}/{} sampled reports differs from the stage walk",
            sample.len()
        )
    });
}

/// Top-1 of the sample through a fresh engine with this workload's
/// configuration, compared with the stage walk.
fn check_engine_top1(
    report: &mut RunReport,
    cfg: &EngineConfig,
    auth: &Arc<FrozenAuthenticator>,
    sample: &[Vec<u8>],
) {
    // Lossless whatever the workload's own backpressure: a dropped
    // sample report would read as a wrong top-1.
    let engine = Engine::start_frozen(
        EngineConfig {
            backpressure: Backpressure::Block,
            ..cfg.clone()
        },
        Arc::clone(auth),
        DeviceRegistry::new(),
    );
    for (_, f) in unique_sources(sample) {
        engine.ingest_frame(&f);
    }
    let decisions = engine.shutdown().decisions;
    check_top1(report, auth, sample, &|mac| {
        decisions
            .iter()
            .find(|d| d.source == mac)
            .and_then(|d| d.decision.map(|w| w.module))
    });
}

/// Verdict quality of the eight resident D1 streams.
fn stream_quality(engine: &Engine, impostors: &[MacAddr]) -> Quality {
    let decisions = engine.decisions();
    let (fake, genuine): (Vec<_>, Vec<_>) = decisions
        .iter()
        .partition(|d| impostors.contains(&d.source));
    let accepted = |ds: &[&deepcsi_serve::DeviceDecision]| {
        ds.iter().filter(|d| d.verdict == Verdict::Accept).count() as f64
    };
    let decided: Vec<f64> = decisions
        .iter()
        .filter_map(|d| d.decided_at.map(|n| n as f64))
        .collect();
    Quality {
        reports_to_verdict_p50: median(&decided),
        accept_share: accepted(&genuine) / genuine.len() as f64,
        impostor_reject_share: 1.0 - accepted(&fake) / fake.len() as f64,
    }
}

// ---------------------------------------------------------------------
// replay_demo / replay_paper
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Demo,
    Paper,
}

/// The capture image as an endless frame source: a fresh
/// [`PcapFileSource`] per pass, cumulative counters across passes, and
/// at most `budget` frames per `ingest_available` call so the caller
/// keeps the clock. Each delivered frame is a report handed to the
/// engine, so the tracker lives here.
struct LoopSource {
    image: Vec<u8>,
    inner: PcapFileSource,
    before: CaptureCounters,
    budget: usize,
    passes: u64,
    telemetry: Arc<Telemetry>,
    tracker: Tracker,
}

impl LoopSource {
    fn new(image: Vec<u8>, telemetry: Arc<Telemetry>, tracker: Tracker) -> LoopSource {
        LoopSource {
            inner: PcapFileSource::from_bytes(image.clone()),
            image,
            before: CaptureCounters::default(),
            budget: 0,
            passes: 0,
            telemetry,
            tracker,
        }
    }
}

impl FrameSource for LoopSource {
    fn poll_frame(&mut self) -> Result<SourcePoll, CaptureError> {
        if self.budget == 0 {
            return Ok(SourcePoll::Pending);
        }
        match self.inner.poll_frame()? {
            SourcePoll::Frame(f) => {
                self.budget -= 1;
                let telemetry = &self.telemetry;
                self.tracker
                    .send_when_below(IN_FLIGHT, || finished(telemetry));
                Ok(SourcePoll::Frame(f))
            }
            // A pass ended: hand the clock back so the caller can stop
            // on the boundary, and rewind onto a fresh decoder.
            _ => {
                self.before = self.counters();
                self.inner = PcapFileSource::from_bytes(self.image.clone());
                self.passes += 1;
                self.budget = 0;
                Ok(SourcePoll::Pending)
            }
        }
    }

    fn counters(&self) -> CaptureCounters {
        let c = self.inner.counters();
        CaptureCounters {
            bytes_read: self.before.bytes_read + c.bytes_read,
            packets_seen: self.before.packets_seen + c.packets_seen,
            prefilter_skipped: self.before.prefilter_skipped + c.prefilter_skipped,
            decode_errors: self.before.decode_errors + c.decode_errors,
        }
    }
}

struct ReplayReady {
    fixture: Fixture,
    auth: Arc<FrozenAuthenticator>,
    image: Vec<u8>,
    impostors: Vec<MacAddr>,
    engine: Engine,
}

fn replay_config() -> EngineConfig {
    EngineConfig {
        backpressure: Backpressure::Block,
        ..EngineConfig::default()
    }
}

fn setup_replay(model: Model, seed: u64) -> ReplayReady {
    let fixture = Fixture::build();
    let auth = Arc::new(match model {
        Model::Demo => fixture.demo_auth().freeze(),
        Model::Paper => fixture.paper_auth().freeze(),
    });
    let mut rng = Rng::new(seed);
    let (registry, impostors) = fixture.registry();
    let image = capture_image(&fixture.frames, &mut rng, Container::Pcap);
    let engine = Engine::start_frozen(replay_config(), Arc::clone(&auth), registry);
    ReplayReady {
        fixture,
        auth,
        image,
        impostors,
        engine,
    }
}

fn run_replay(model: Model, opts: RunOpts) -> RunReport {
    let mut report = RunReport::default();
    let ReplayReady {
        fixture,
        auth,
        image,
        impostors,
        engine,
    } = report.timed_setup(|| setup_replay(model, opts.seed));
    let reports_per_pass = fixture.frames.len() as u64;
    report.wire_bytes_per_report = image.len() as f64 / reports_per_pass as f64;

    let sample: Vec<Vec<u8>> = fixture.frames[..SAMPLE]
        .iter()
        .map(|(_, f)| f.clone())
        .collect();
    check_engine_top1(&mut report, &replay_config(), &auth, &sample);

    let telemetry = engine.telemetry_handle();
    let mut source = LoopSource::new(
        image,
        Arc::clone(&telemetry),
        Tracker::new(2 * reports_per_pass as usize, 0),
    );
    let pump = |source: &mut LoopSource| {
        source.budget = 64;
        engine
            .ingest_available(source)
            .expect("in-memory capture is well formed");
    };

    // Check pass: exactly one pass of the capture.
    while source.passes == 0 {
        pump(&mut source);
    }
    engine.drain();
    report.quality = stream_quality(&engine, &impostors);
    source.tracker.observe(finished(&telemetry), Instant::now());
    source.tracker.take();

    let mut meter = Meter::start(None, finished(&telemetry), 0);
    for _ in 0..opts.segments() {
        let end = Instant::now() + opts.segment();
        while Instant::now() < end {
            pump(&mut source);
        }
        source.tracker.observe(finished(&telemetry), Instant::now());
        meter.cut(finished(&telemetry), 0, &source.tracker.take());
    }
    engine.drain();

    let stats = engine.stats();
    check_conservation(&mut report, &stats);
    report.check(stats.capture_reconciles(), || {
        "capture counters do not reconcile with the engine's".to_string()
    });
    report.check(
        stats.capture_skipped == NOISE_PER_REPORT as u64 * stats.enqueued,
        || {
            format!(
                "capture skipped {} packets, {} noise frames were injected",
                stats.capture_skipped,
                NOISE_PER_REPORT as u64 * stats.enqueued
            )
        },
    );
    report.attempted = stats.ingested;
    report.failed = stats.decode_errors + stats.dropped + stats.rejected;
    report.segments = meter.rows;
    report.serve = serve_stats(&[telemetry]);
    engine.shutdown();
    report.finish(|| setup_replay(model, opts.seed), drop)
}

// ---------------------------------------------------------------------
// paced_demo
// ---------------------------------------------------------------------

fn paced_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        backpressure: Backpressure::DropNewest,
        ..EngineConfig::default()
    }
}

/// The open-loop generator: hands each report to the engine at its due
/// time whatever the engine is doing, and between reports sleep-polls
/// the finished count so completions are seen within ~0.1 ms.
struct Pacer<'a> {
    engine: &'a Engine,
    telemetry: Arc<Telemetry>,
    frames: &'a [(MacAddr, Vec<u8>)],
    cursor: usize,
    tracker: Tracker,
    attempted: u64,
    failed: u64,
    lateness_ms: Vec<f64>,
    backlog_mid: usize,
}

impl Pacer<'_> {
    /// Plays one schedule (due times from now) of length `duration`.
    fn play(&mut self, schedule: &[Duration], duration: Duration) {
        const POLL: Duration = Duration::from_micros(50);
        fn wait_until(this: &mut Pacer<'_>, at: Instant) -> Instant {
            loop {
                let now = Instant::now();
                this.tracker.observe(finished(&this.telemetry), now);
                if now >= at {
                    return now;
                }
                std::thread::sleep(POLL.min(at - now));
            }
        }
        let t0 = Instant::now();
        for (i, due) in schedule.iter().enumerate() {
            let due_at = t0 + *due;
            let now = wait_until(self, due_at);
            self.lateness_ms.push((now - due_at).as_secs_f64() * 1e3);
            self.attempted += 1;
            // Timed from when it was due, not from when it was sent:
            // a stall delays every report queued behind it.
            match self.engine.ingest_frame(&self.frames[self.cursor].1) {
                IngestOutcome::Enqueued => self.tracker.sent(due_at),
                _ => self.failed += 1,
            }
            self.cursor = (self.cursor + 1) % self.frames.len();
            if i == schedule.len() / 2 {
                self.backlog_mid = self.tracker.backlog();
            }
        }
        wait_until(self, t0 + duration);
    }

    /// One whole step at `rate`, with its own statistics.
    fn step(&mut self, rng: &mut Rng, rate: f64, duration: Duration) -> Step {
        let n = (rate * duration.as_secs_f64()) as usize;
        let failed = self.failed;
        self.lateness_ms.clear();
        self.tracker.take();
        self.play(&arrival_schedule(rng, n, duration), duration);
        let backlog_end = self.tracker.backlog();
        self.engine.drain();
        self.tracker
            .observe(finished(&self.telemetry), Instant::now());
        let latencies = self.tracker.take();
        Step {
            rate,
            latency_p50_ms: quantile(&latencies, 0.5),
            latency_p99_ms: quantile(&latencies, highest_supported_percentile(n).min(0.99)),
            backlog_mid: self.backlog_mid,
            backlog_end,
            failed: self.failed - failed,
            gen_lateness_ms_p99: quantile(&self.lateness_ms, 0.99),
        }
    }
}

fn run_paced(opts: RunOpts) -> RunReport {
    let mut report = RunReport::default();
    let setup = || {
        let fixture = Fixture::build();
        let auth = Arc::new(fixture.demo_auth().freeze());
        let (registry, impostors) = fixture.registry();
        let engine = Engine::start_frozen(paced_config(), Arc::clone(&auth), registry);
        (fixture, auth, impostors, engine)
    };
    let (fixture, auth, impostors, engine) = report.timed_setup(setup);
    let frames = &fixture.frames;
    report.wire_bytes_per_report =
        frames.iter().map(|(_, f)| f.len()).sum::<usize>() as f64 / frames.len() as f64;

    let sample: Vec<Vec<u8>> = frames[..SAMPLE].iter().map(|(_, f)| f.clone()).collect();
    check_engine_top1(&mut report, &paced_config(), &auth, &sample);

    let mut rng = Rng::new(opts.seed ^ 0x5CED);
    let mut pacer = Pacer {
        engine: &engine,
        telemetry: engine.telemetry_handle(),
        frames,
        cursor: 0,
        tracker: Tracker::new((RATE_HIGH * opts.seconds) as usize, 0),
        attempted: 0,
        failed: 0,
        lateness_ms: Vec::new(),
        backlog_mid: 0,
    };

    // Check pass: the capture's 2 880 reports once, paced at `REF`.
    let pass = Duration::from_secs_f64(frames.len() as f64 / RATE_REF);
    pacer.play(&arrival_schedule(&mut rng, frames.len(), pass), pass);
    engine.drain();
    report.quality = stream_quality(&engine, &impostors);
    report.check(pacer.failed == 0, || {
        format!("{} reports dropped in the check pass", pacer.failed)
    });

    // Traced: the three steps, each drained before the next. Untraced:
    // `REF` only, in back-to-back segments.
    let mut meter = Meter::start(
        Some(LATENCY_LIMIT_MS),
        finished(&pacer.telemetry),
        pacer.failed,
    );
    let mut steps = Vec::new();
    if opts.trace {
        let third = Duration::from_secs_f64(opts.seconds / 3.0);
        for rate in [RATE_LOW, RATE_REF, RATE_HIGH] {
            steps.push(pacer.step(&mut rng, rate, third));
        }
    } else {
        pacer.tracker.take();
        pacer.lateness_ms.clear();
        let n = (RATE_REF * opts.segment().as_secs_f64()) as usize;
        for _ in 0..SEGMENTS {
            pacer.play(
                &arrival_schedule(&mut rng, n, opts.segment()),
                opts.segment(),
            );
            let latencies = pacer.tracker.take();
            meter.cut(finished(&pacer.telemetry), pacer.failed, &latencies);
        }
        engine.drain();
        report.gen_lateness_ms_p99 = quantile(&pacer.lateness_ms, 0.99);
    }

    let stats = engine.stats();
    check_conservation(&mut report, &stats);
    report.attempted = pacer.attempted;
    report.failed = stats.decode_errors + stats.dropped + stats.rejected;
    report.segments = meter.rows;
    report.serve = ServeStats {
        steps,
        ..serve_stats(&[engine.telemetry_handle()])
    };
    drop(pacer);
    engine.shutdown();
    report.finish(setup, drop)
}

// ---------------------------------------------------------------------
// wire_churn
// ---------------------------------------------------------------------

fn wire_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        backpressure: Backpressure::Block,
        max_device_states: Some(WIRE_DEVICE_CAP),
        decision: DecisionPolicyConfig {
            kind: PolicyKind::ConfidenceWeighted,
            ..DecisionPolicyConfig::default()
        },
        // Sized to hold every verdict of a run: one per session.
        audit: Some(AuditConfig {
            capacity: 1 << 17,
            file: None,
        }),
        ..EngineConfig::default()
    }
}

/// The seeded MAC plan and the registry that enrols it: a genuine
/// session under its stream's module, an impostor under the next one.
fn wire_plan(fixture: &Fixture, seed: u64) -> (MacPlan, DeviceRegistry) {
    let streams = fixture.streams();
    let plan = MacPlan::build(
        &mut Rng::new(seed),
        WIRE_SOURCES,
        streams.len(),
        streams[0].len(),
    );
    let enrolled = deepcsi_serve::ReplaySource::registry(&fixture.dataset);
    // Streams sort by MAC, two per module, so "+2" is the next module.
    let mut stream_macs: Vec<MacAddr> = enrolled.iter().map(|(m, _)| m).collect();
    stream_macs.sort();
    let mut registry = DeviceRegistry::new();
    for s in &plan.sessions {
        let stream = (s.stream + 2 * s.impostor as usize) % stream_macs.len();
        registry.register(
            s.mac,
            enrolled.expected(stream_macs[stream]).expect("enrolled"),
        );
    }
    (plan, registry)
}

/// Router, two engine nodes and one client, all in this process, over
/// loopback TCP.
struct Cluster {
    nodes: Vec<(EngineNode, Arc<Engine>)>,
    telemetry: Vec<Arc<Telemetry>>,
    router: ShardRouter,
    client: ClusterClient,
}

impl Cluster {
    fn start(auth: &Arc<FrozenAuthenticator>, registry: &DeviceRegistry) -> Cluster {
        let nodes: Vec<(EngineNode, Arc<Engine>)> = (0..WIRE_NODES)
            .map(|_| {
                let engine = Arc::new(Engine::start_frozen(
                    wire_config(),
                    Arc::clone(auth),
                    registry.clone(),
                ));
                let node = EngineNode::start(
                    "127.0.0.1:0",
                    Arc::clone(&engine),
                    Arc::new(ClusterStats::new(1)),
                )
                .expect("bind loopback node");
                (node, engine)
            })
            .collect();
        let router = ShardRouter::start(
            RouterConfig {
                nodes: nodes
                    .iter()
                    .map(|(n, _)| n.local_addr().to_string())
                    .collect(),
                ..RouterConfig::default()
            },
            Arc::new(ClusterStats::new(WIRE_NODES)),
        )
        .expect("bind loopback router");
        let client =
            ClusterClient::connect(&router.local_addr().to_string()).expect("connect to router");
        Cluster {
            telemetry: nodes.iter().map(|(_, e)| e.telemetry_handle()).collect(),
            nodes,
            router,
            client,
        }
    }

    fn finished(&self) -> u64 {
        self.telemetry.iter().map(|t| finished(t)).sum()
    }

    fn stop(self) {
        drop(self.client);
        self.router.stop();
        for (node, engine) in self.nodes {
            node.stop();
            match Arc::try_unwrap(engine) {
                Ok(engine) => drop(engine.shutdown()),
                Err(_) => panic!("a stopped node still shares its engine"),
            }
        }
    }
}

/// The closed-loop sender: wave after wave of [`WIRE_ACTIVE`] sources,
/// each sending its session round-robin with the others.
struct WireLoad<'a> {
    cluster: Cluster,
    sessions: &'a [Session],
    streams: Vec<Vec<&'a [u8]>>,
    patch: Readdress,
    /// Wire bytes a report costs on top of its MPDU.
    frame_overhead: usize,
    tracker: Tracker,
    scratch: Vec<u8>,
    waves: usize,
    sent: u64,
    sent_bytes: u64,
}

impl WireLoad<'_> {
    fn wave(&mut self) {
        let first = self.waves * WIRE_ACTIVE % WIRE_SOURCES;
        for round in 0..SESSION {
            for s in &self.sessions[first..first + WIRE_ACTIVE] {
                self.scratch.clear();
                self.scratch
                    .extend_from_slice(self.streams[s.stream][s.offset + round]);
                self.patch.apply(&mut self.scratch, s.mac);
                let cluster = &self.cluster;
                self.tracker
                    .send_when_below(IN_FLIGHT, || cluster.finished());
                self.cluster
                    .client
                    .send_report(s.mac, &self.scratch)
                    .expect("send report");
                self.sent += 1;
                self.sent_bytes += (self.scratch.len() + self.frame_overhead) as u64;
            }
        }
        self.waves += 1;
    }

    /// Drains the cluster and takes the latencies of what finished.
    fn settle(&mut self) -> (deepcsi_cluster::DrainReply, Vec<f64>) {
        let reply = self
            .cluster
            .client
            .drain(DRAIN_TIMEOUT)
            .expect("cluster drains");
        self.tracker
            .observe(self.cluster.finished(), Instant::now());
        (reply, self.tracker.take())
    }

    /// Verdict quality of `sessions`, read off the nodes' audit trails.
    fn session_quality(&self, sessions: &[Session]) -> Quality {
        let mut accepted = [0.0f64; 2];
        let mut to_verdict = Vec::new();
        for (_, engine) in &self.cluster.nodes {
            for event in engine.audit_handle().expect("audit on").tail(usize::MAX) {
                let mac: MacAddr = event.source.parse().expect("audited MAC");
                let Some(s) = sessions.iter().find(|s| s.mac == mac) else {
                    continue;
                };
                to_verdict.push(event.reports_to_verdict.unwrap_or(0) as f64);
                if event.verdict == Verdict::Accept.as_str() {
                    accepted[s.impostor as usize] += 1.0;
                }
            }
        }
        let fake = sessions.iter().filter(|s| s.impostor).count() as f64;
        Quality {
            reports_to_verdict_p50: median(&to_verdict),
            accept_share: accepted[0] / (sessions.len() as f64 - fake),
            impostor_reject_share: 1.0 - accepted[1] / fake,
        }
    }
}

fn run_wire(opts: RunOpts) -> RunReport {
    let mut report = RunReport::default();
    let setup = || {
        let fixture = Fixture::build();
        let auth = Arc::new(fixture.demo_auth().freeze());
        let (plan, registry) = wire_plan(&fixture, opts.seed);
        let cluster = Cluster::start(&auth, &registry);
        (fixture, auth, plan, cluster)
    };
    let (fixture, auth, plan, mut cluster) = report.timed_setup(setup);

    // The sample, one MAC per report, through the whole wire path.
    let sample: Vec<Vec<u8>> = fixture.frames[..SAMPLE]
        .iter()
        .map(|(_, f)| f.clone())
        .collect();
    for (mac, f) in unique_sources(&sample) {
        cluster.client.send_report(mac, &f).expect("send sample");
    }
    let reply = cluster.client.drain(DRAIN_TIMEOUT).expect("drain sample");
    check_top1(&mut report, &auth, &sample, &|mac| {
        reply
            .decisions
            .iter()
            .find(|d| d.mac == mac)
            .and_then(|d| d.decision.map(|w| w.0 as usize))
    });

    let streams = fixture.streams();
    let mut load = WireLoad {
        patch: Readdress::probe(streams[0][0]),
        frame_overhead: encode_request(&RequestFrame {
            kind: FrameKind::Report,
            seq: 0,
            mac: plan.sessions[0].mac,
            payload: Vec::new(),
        })
        .len(),
        tracker: Tracker::new(64 * 1024, cluster.finished()),
        cluster,
        sessions: &plan.sessions,
        streams,
        scratch: Vec::new(),
        waves: 0,
        sent: 0,
        sent_bytes: 0,
    };

    for _ in 0..WIRE_CHECK_WAVES {
        load.wave();
    }
    load.settle();
    report.quality = load.session_quality(&plan.sessions[..WIRE_CHECK_WAVES * WIRE_ACTIVE]);

    let mut meter = Meter::start(None, load.cluster.finished(), 0);
    // Traced: one full cycle of the population and one more wave, so the
    // eviction and re-warm counts repeat exactly.
    let cycle = WIRE_SOURCES / WIRE_ACTIVE + 1;
    for _ in 0..opts.segments() {
        let end = Instant::now() + opts.segment();
        let first = load.waves;
        while if opts.trace {
            load.waves - first < cycle
        } else {
            Instant::now() < end
        } {
            load.wave();
        }
        meter.cut(load.cluster.finished(), 0, &load.tracker.take());
    }
    let t = Instant::now();
    let (reply, _) = load.settle();
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;

    let counters = load.cluster.client.counters();
    let sent = load.sent + SAMPLE as u64;
    let w = &reply.stats;
    report.check(w.enqueued == w.classified + w.rejected, || {
        format!(
            "conservation: enqueued {} != classified {} + rejected {}",
            w.enqueued, w.classified, w.rejected
        )
    });
    report.check(w.ingested == sent, || {
        format!("nodes ingested {} of {sent} reports sent", w.ingested)
    });
    for (i, (_, engine)) in load.cluster.nodes.iter().enumerate() {
        let audit = engine.audit_handle().expect("audit on");
        let events = audit.tail(usize::MAX);
        let gapless = events.len() as u64 == audit.appended()
            && events.iter().enumerate().all(|(k, e)| e.seq == k as u64);
        report.check(gapless, || format!("node {i}: audit sequence has gaps"));
    }
    report.attempted = sent;
    report.failed = w.decode_errors
        + w.dropped
        + w.rejected
        + counters.busy
        + counters.dropped
        + counters.rejected;
    report.wire_bytes_per_report = load.sent_bytes as f64 / load.sent as f64;
    report.segments = meter.rows;
    report.serve = ServeStats {
        cluster_drain_ms: drain_ms,
        cluster_busy: counters.busy as f64,
        cluster_dropped: counters.dropped as f64,
        cluster_rejected: counters.rejected as f64,
        ..serve_stats(&load.cluster.telemetry)
    };
    load.cluster.stop();
    report.finish(setup, |(_, _, _, cluster)| cluster.stop())
}

// ---------------------------------------------------------------------
// the stage walk's input
// ---------------------------------------------------------------------

/// The first [`SAMPLE`] reports of a workload as the stage walk sees
/// them, with the model, policy and registry the workload itself runs.
pub struct WalkCase {
    pub ingress: Ingress,
    pub auth: FrozenAuthenticator,
    pub decision: DecisionPolicyConfig,
    pub registry: DeviceRegistry,
}

pub fn walk_case(workload: Workload, fixture: &Fixture, seed: u64) -> WalkCase {
    let mut rng = Rng::new(seed);
    let head = &fixture.frames[..SAMPLE];
    let (registry, _) = fixture.registry();
    match workload {
        Workload::ReplayDemo | Workload::ReplayPaper => WalkCase {
            ingress: Ingress::Capture(capture_image(head, &mut rng, Container::Pcap)),
            auth: if workload == Workload::ReplayDemo {
                fixture.demo_auth().freeze()
            } else {
                fixture.paper_auth().freeze()
            },
            decision: replay_config().decision,
            registry,
        },
        Workload::PacedDemo => WalkCase {
            ingress: Ingress::Frames(head.iter().map(|(_, f)| f.clone()).collect()),
            auth: fixture.demo_auth().freeze(),
            decision: paced_config().decision,
            registry,
        },
        Workload::WireChurn => {
            let (plan, registry) = wire_plan(fixture, seed);
            let streams = fixture.streams();
            let patch = Readdress::probe(streams[0][0]);
            // The first wave's send order, cut at the sample size.
            let frames = (0..SESSION)
                .flat_map(|round| plan.sessions[..WIRE_ACTIVE].iter().map(move |s| (round, s)))
                .take(SAMPLE)
                .map(|(round, s)| {
                    let mut f = streams[s.stream][s.offset + round].to_vec();
                    patch.apply(&mut f, s.mac);
                    (s.mac, f)
                })
                .collect();
            WalkCase {
                ingress: Ingress::Wire(frames),
                auth: fixture.demo_auth().freeze(),
                decision: wire_config().decision,
                registry,
            }
        }
    }
}
