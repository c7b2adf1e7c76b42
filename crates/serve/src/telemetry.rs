//! Engine-wide counters, stage/batch latency tracking, and metrics
//! export.
//!
//! All counters are lock-free atomics updated from the ingest thread and
//! every worker; [`Telemetry::snapshot`] renders a plain-data
//! [`EngineStats`] for reporting, and [`Telemetry::metrics`] renders the
//! same numbers as a `deepcsi_obs::MetricsRegistry` for the Prometheus /
//! JSONL exporters. Latencies go into log-linear histograms from which
//! p50/p99 are read without storing individual observations.

use deepcsi_capture::CaptureCounters;
use deepcsi_obs::{HistogramSnapshot, MetricsRegistry};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sub-buckets per octave: each power-of-two range is split in 4, so a
/// bucket's width is at most 1/4 of its lower bound and the midpoint
/// estimate is within ±12.5% of any observation it holds.
const SUBS: usize = 4;

/// 63 octaves × 4 sub-buckets + the 4 exact small buckets ≈ 256 — the
/// whole u64 nanosecond range with no saturation cliff in practice.
const BUCKETS: usize = 256;

/// Bucket index for a (non-zero) nanosecond value.
fn bucket_of(nanos: u64) -> usize {
    if nanos < SUBS as u64 {
        return nanos as usize; // 0..4 ns: exact
    }
    let exp = 63 - nanos.leading_zeros() as usize;
    let sub = ((nanos >> (exp - 2)) & 0b11) as usize;
    (((exp - 1) << 2) + sub).min(BUCKETS - 1)
}

/// `[lo, hi)` nanosecond bounds of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUBS {
        return (idx as u64, idx as u64 + 1);
    }
    let exp = (idx >> 2) + 1;
    let sub = (idx & 0b11) as u64;
    let step = 1u64 << (exp - 2);
    let lo = (1u64 << exp) + sub * step;
    (lo, lo.saturating_add(step))
}

/// Lock-free log-linear histogram of nanosecond durations.
///
/// Buckets follow the HdrHistogram shape: each power-of-two octave is
/// split into 4 equal sub-buckets, so quantiles resolve to a
/// bucket midpoint that is within ±12.5% of the true value (a pure log₂
/// histogram is only within ±41%). Values 1–3 ns get exact unit
/// buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    /// Total nanoseconds across all observations (the Prometheus
    /// `_sum`).
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().max(1) as u64;
        self.counts[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded durations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a duration, resolved to the
    /// midpoint of the containing log-linear bucket (within ±12.5% of
    /// the true value); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                let (lo, hi) = bucket_bounds(i);
                // Small buckets are exact; log-linear buckets resolve to
                // their midpoint.
                let nanos = if i < SUBS { lo } else { lo + (hi - lo) / 2 };
                return Some(Duration::from_nanos(nanos));
            }
        }
        None
    }

    /// A snapshot for the metrics exporters: cumulative counts at each
    /// non-empty bucket's upper bound, in **seconds** (the Prometheus
    /// base unit), plus sum, count and p50/p99.
    pub fn export(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            cum += n;
            let (_, hi) = bucket_bounds(i);
            buckets.push((hi as f64 / 1e9, cum));
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum().as_secs_f64(),
            count: cum,
            quantiles: [0.5, 0.99]
                .iter()
                .filter_map(|&q| self.quantile(q).map(|d| (q, d.as_secs_f64())))
                .collect(),
        }
    }
}

/// Exact counts above this saturate into the last bucket; decision
/// policies answer in tens of reports, so the interesting range is far
/// below it.
const MAX_TRACKED_REPORTS: usize = 1024;

/// Lock-free exact histogram of small report counts — the
/// reports-to-verdict ("decision latency in reports") distribution.
///
/// Counts `1 ..= 1024` are exact; anything larger saturates into the top
/// bucket, so the p99 of a pathologically slow policy reads as
/// "≥ 1024".
#[derive(Debug)]
pub struct ReportCountHistogram {
    counts: Box<[AtomicU64]>,
}

impl Default for ReportCountHistogram {
    fn default() -> Self {
        ReportCountHistogram {
            counts: (0..=MAX_TRACKED_REPORTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

impl ReportCountHistogram {
    /// Records one reports-to-verdict observation.
    pub fn record(&self, reports: u64) {
        let idx = (reports as usize).min(MAX_TRACKED_REPORTS);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in reports, exact up to the
    /// saturation bound; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (reports, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return Some(reports as u64);
            }
        }
        None
    }

    /// A snapshot for the metrics exporters: cumulative counts at
    /// power-of-two report-count bounds (1, 2, 4, … 1024), plus sum,
    /// count and p50/p99 — coarser than the exact store, but a scrape
    /// does not need 1025 buckets.
    pub fn export(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        let mut sum = 0u64;
        let mut next_bound = 1usize;
        for (reports, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            cum += n;
            sum += n * reports as u64;
            if reports == next_bound {
                buckets.push((reports as f64, cum));
                next_bound *= 2;
            }
        }
        HistogramSnapshot {
            buckets,
            sum: sum as f64,
            count: cum,
            quantiles: [0.5, 0.99]
                .iter()
                .filter_map(|&q| self.quantile(q).map(|v| (q, v as f64)))
                .collect(),
        }
    }
}

/// A pipeline stage with its own latency histogram in
/// [`Telemetry::stage`].
///
/// The taxonomy mirrors a report's life: `decode` (frame bytes →
/// parsed report, on the ingest thread), `queue_wait` (enqueue → batch
/// assembly, the backpressure signal), then per micro-batch on a worker:
/// `tensorize` (feedback → input tensors), `infer` (the batched forward
/// pass) and `policy_apply` (window pushes + verdict checks under the
/// shard lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame bytes → parsed report (ingest thread).
    Decode = 0,
    /// Enqueue → micro-batch assembly (per report).
    QueueWait = 1,
    /// Feedback → input tensors (per micro-batch).
    Tensorize = 2,
    /// The batched forward pass (per inference call).
    Infer = 3,
    /// Window pushes + verdict checks (per inference call).
    PolicyApply = 4,
}

impl Stage {
    /// Every stage, histogram-index order.
    pub const ALL: [Stage; 5] = [
        Stage::Decode,
        Stage::QueueWait,
        Stage::Tensorize,
        Stage::Infer,
        Stage::PolicyApply,
    ];

    /// The stage's span/metric name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::Tensorize => "tensorize",
            Stage::Infer => "infer",
            Stage::PolicyApply => "policy_apply",
        }
    }
}

/// Shared atomic telemetry for one engine.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Frames handed to ingest (parsed or not).
    pub ingested: AtomicU64,
    /// Frames that failed to decode.
    pub decode_errors: AtomicU64,
    /// Reports dropped by backpressure (full worker queue).
    pub dropped: AtomicU64,
    /// Reports accepted onto a worker queue.
    pub enqueued: AtomicU64,
    /// Reports rejected before inference (feedback dimensions
    /// incompatible with the trained model).
    pub rejected: AtomicU64,
    /// Reports classified by workers.
    pub classified: AtomicU64,
    /// Micro-batches executed.
    pub batches: AtomicU64,
    /// Batch latency distribution: per shape group of a micro-batch,
    /// from the group's start (batch assembled and tensorized) to its
    /// decisions applied.
    pub batch_latency: LatencyHistogram,
    /// Inference-pool lanes per worker (gauge; `infer_threads`).
    pub pool_lanes: AtomicU64,
    /// Sum of lanes engaged across pool inference calls — divided by
    /// [`Telemetry::pool_infer_calls`] this is the pool's mean
    /// occupancy (1.0 = every batch ran single-lane, `pool_lanes` =
    /// every batch split across the whole pool).
    pub pool_lanes_engaged: AtomicU64,
    /// Pool inference calls (one per shape group per micro-batch).
    pub pool_infer_calls: AtomicU64,
    /// System-clock faults absorbed while stamping audit events (the
    /// wall clock fell back to last-known-good + monotonic offset).
    /// A non-zero value means the host clock misbehaved mid-serve.
    pub clock_faults: AtomicU64,
    /// Device streams whose verdict first left [`Verdict::Unknown`]
    /// (per stream, once — re-registration aside).
    ///
    /// [`Verdict::Unknown`]: crate::Verdict::Unknown
    pub verdicts_decided: AtomicU64,
    /// Reports each stream needed before its first decisive verdict —
    /// the decision-latency distribution of the active policy.
    pub reports_to_verdict: ReportCountHistogram,
    /// Per-device policy states currently held across all shards.
    /// Bounded by `EngineConfig::max_device_states` when a cap is set
    /// (each eviction decrements it); otherwise one per distinct source
    /// MAC ever seen, and long soaks watch this gauge for growth after
    /// warm-up.
    pub device_states: AtomicU64,
    /// Device states evicted by the per-shard LRU cap.
    pub devices_evicted: AtomicU64,
    /// Evicted streams that returned and rebuilt their state from
    /// scratch (re-warms) — a high rate means the cap is below the
    /// working set.
    pub devices_rewarmed: AtomicU64,
    /// When the engine started serving (set once at engine start); the
    /// source of `deepcsi_uptime_seconds`. Unset on a bare
    /// [`Telemetry`], in which case uptime exports as 0.
    pub started: OnceLock<Instant>,
    /// The active decision policy's name (set once at engine start).
    pub policy: OnceLock<&'static str>,
    /// The serving snapshot's numeric backend (`"f32"` / `"int8"`, set
    /// once at engine start).
    pub precision: OnceLock<&'static str>,
    /// Capture-layer: container bytes read by the frame source.
    pub capture_bytes: AtomicU64,
    /// Capture-layer: packets decoded out of the container.
    pub capture_packets: AtomicU64,
    /// Capture-layer: packets dropped by the 802.11 pre-filter.
    pub capture_skipped: AtomicU64,
    /// Capture-layer: radiotap/pcap per-packet decode errors.
    pub capture_errors: AtomicU64,
    /// Per-stage latency distributions, indexed by [`Stage`]. Empty
    /// histograms (a stage that never ran) simply export nothing.
    pub stages: [LatencyHistogram; 5],
}

/// How a row of [`EXPORTED`] renders.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

/// One exported atomic: `(kind, name, help, field)`.
type Exported = (
    Kind,
    &'static str,
    &'static str,
    fn(&Telemetry) -> &AtomicU64,
);

/// The one export declaration per plain [`Telemetry`] atomic. Derived
/// gauges, the info gauges and the histograms are rendered explicitly
/// by [`Telemetry::metrics`].
#[rustfmt::skip]
const EXPORTED: &[Exported] = &[
    (Kind::Counter, "deepcsi_ingested_total", "Frames handed to ingest.", |t| &t.ingested),
    (Kind::Counter, "deepcsi_decode_errors_total", "Frames that failed to decode.", |t| &t.decode_errors),
    (Kind::Counter, "deepcsi_dropped_total", "Reports dropped by backpressure.", |t| &t.dropped),
    (Kind::Counter, "deepcsi_enqueued_total", "Reports accepted onto worker queues.", |t| &t.enqueued),
    (Kind::Counter, "deepcsi_rejected_total", "Reports rejected before inference.", |t| &t.rejected),
    (Kind::Counter, "deepcsi_classified_total", "Reports classified by workers.", |t| &t.classified),
    (Kind::Counter, "deepcsi_batches_total", "Micro-batches executed.", |t| &t.batches),
    (Kind::Counter, "deepcsi_verdicts_decided_total", "Device streams whose verdict first left Unknown.", |t| &t.verdicts_decided),
    (Kind::Gauge, "deepcsi_device_states", "Per-device policy states held across all shards.", |t| &t.device_states),
    (Kind::Counter, "deepcsi_devices_evicted_total", "Device states evicted by the per-shard LRU cap.", |t| &t.devices_evicted),
    (Kind::Counter, "deepcsi_devices_rewarmed_total", "Evicted streams that returned and rebuilt their state.", |t| &t.devices_rewarmed),
    (Kind::Gauge, "deepcsi_pool_lanes", "Inference-pool lanes per worker (infer_threads).", |t| &t.pool_lanes),
    (Kind::Counter, "deepcsi_pool_infer_calls_total", "Inference-pool calls (one per shape group per batch).", |t| &t.pool_infer_calls),
    (Kind::Counter, "deepcsi_pool_lanes_engaged_total", "Lanes engaged summed across inference-pool calls.", |t| &t.pool_lanes_engaged),
    (Kind::Counter, "deepcsi_clock_faults_total", "System-clock faults absorbed while stamping audit events.", |t| &t.clock_faults),
    (Kind::Counter, "deepcsi_capture_bytes_total", "Capture-layer container bytes read.", |t| &t.capture_bytes),
    (Kind::Counter, "deepcsi_capture_packets_total", "Capture-layer packets decoded.", |t| &t.capture_packets),
    (Kind::Counter, "deepcsi_capture_skipped_total", "Capture-layer pre-filter skips.", |t| &t.capture_skipped),
    (Kind::Counter, "deepcsi_capture_errors_total", "Capture-layer per-packet decode errors.", |t| &t.capture_errors),
];

impl Telemetry {
    /// Publishes the frame source's cumulative capture-layer counters.
    ///
    /// Counters are cumulative on the source side, so this *stores*
    /// rather than adds — the telemetry mirrors the engine's (single)
    /// attached source.
    pub fn set_capture(&self, c: &CaptureCounters) {
        self.capture_bytes.store(c.bytes_read, Ordering::Relaxed);
        self.capture_packets
            .store(c.packets_seen, Ordering::Relaxed);
        self.capture_skipped
            .store(c.prefilter_skipped, Ordering::Relaxed);
        self.capture_errors
            .store(c.decode_errors, Ordering::Relaxed);
    }
    /// Time since the engine started serving (zero when
    /// [`Telemetry::started`] was never set).
    pub fn uptime(&self) -> Duration {
        self.started.get().map_or(Duration::ZERO, Instant::elapsed)
    }

    /// Records one finished micro-batch.
    pub fn record_batch(&self, size: usize, latency: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.classified.fetch_add(size as u64, Ordering::Relaxed);
        self.batch_latency.record(latency);
    }

    /// Records one inference-pool call that engaged `engaged` lanes.
    pub fn record_pool_call(&self, engaged: usize) {
        self.pool_infer_calls.fetch_add(1, Ordering::Relaxed);
        self.pool_lanes_engaged
            .fetch_add(engaged as u64, Ordering::Relaxed);
    }

    /// Records a stream's first decisive verdict after `reports`
    /// classified reports.
    pub fn record_verdict(&self, reports: u64) {
        self.verdicts_decided.fetch_add(1, Ordering::Relaxed);
        self.reports_to_verdict.record(reports);
    }

    /// Records one observation of a pipeline stage's latency.
    pub fn record_stage(&self, stage: Stage, d: Duration) {
        self.stages[stage as usize].record(d);
    }

    /// The latency histogram of one pipeline stage.
    pub fn stage(&self, stage: Stage) -> &LatencyHistogram {
        &self.stages[stage as usize]
    }

    /// A plain-data snapshot of every counter.
    pub fn snapshot(&self) -> EngineStats {
        let batches = self.batches.load(Ordering::Relaxed);
        let classified = self.classified.load(Ordering::Relaxed);
        let pool_calls = self.pool_infer_calls.load(Ordering::Relaxed);
        let pool_engaged = self.pool_lanes_engaged.load(Ordering::Relaxed);
        EngineStats {
            captured_at: Instant::now(),
            stages: Stage::ALL
                .iter()
                .map(|&s| {
                    let h = self.stage(s);
                    StageSnapshot {
                        stage: s.name(),
                        count: h.count(),
                        p50: h.quantile(0.50),
                        p99: h.quantile(0.99),
                    }
                })
                .collect(),
            ingested: self.ingested.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            classified,
            batches,
            mean_batch: if batches == 0 {
                0.0
            } else {
                classified as f64 / batches as f64
            },
            batch_latency_p50: self.batch_latency.quantile(0.50),
            batch_latency_p99: self.batch_latency.quantile(0.99),
            pool_lanes: self.pool_lanes.load(Ordering::Relaxed),
            pool_occupancy: if pool_calls == 0 {
                0.0
            } else {
                pool_engaged as f64 / pool_calls as f64
            },
            clock_faults: self.clock_faults.load(Ordering::Relaxed),
            policy: self.policy.get().copied().unwrap_or(""),
            precision: self.precision.get().copied().unwrap_or(""),
            verdicts_decided: self.verdicts_decided.load(Ordering::Relaxed),
            device_states: self.device_states.load(Ordering::Relaxed),
            devices_evicted: self.devices_evicted.load(Ordering::Relaxed),
            devices_rewarmed: self.devices_rewarmed.load(Ordering::Relaxed),
            reports_to_verdict_p50: self.reports_to_verdict.quantile(0.50),
            reports_to_verdict_p99: self.reports_to_verdict.quantile(0.99),
            capture_bytes: self.capture_bytes.load(Ordering::Relaxed),
            capture_packets: self.capture_packets.load(Ordering::Relaxed),
            capture_skipped: self.capture_skipped.load(Ordering::Relaxed),
            capture_errors: self.capture_errors.load(Ordering::Relaxed),
        }
    }

    /// Renders every counter and histogram as a
    /// [`deepcsi_obs::MetricsRegistry`] — the one source both exporters
    /// (Prometheus text and JSONL) draw from. Counter names follow the
    /// Prometheus conventions (`deepcsi_` prefix, `_total` suffix,
    /// seconds as the time unit).
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        reg.labeled_gauge(
            "deepcsi_engine_info",
            "Engine configuration (dimensions as labels, value always 1).",
            &[
                ("policy", self.policy.get().copied().unwrap_or("")),
                ("precision", self.precision.get().copied().unwrap_or("")),
            ],
            1.0,
        );
        // Self-describing scrapes: a collector that knows nothing about
        // this process can still tell what build/config produced the
        // numbers and how long it has been up.
        reg.labeled_gauge(
            "deepcsi_build_info",
            "Build and serving configuration (dimensions as labels, value always 1).",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("policy", self.policy.get().copied().unwrap_or("")),
                ("precision", self.precision.get().copied().unwrap_or("")),
            ],
            1.0,
        );
        reg.gauge(
            "deepcsi_uptime_seconds",
            "Seconds since the engine started serving.",
            self.uptime().as_secs_f64(),
        );
        for &(kind, name, help, field) in EXPORTED {
            match kind {
                Kind::Counter => reg.counter(name, help, c(field(self))),
                Kind::Gauge => reg.gauge(name, help, c(field(self)) as f64),
            }
        }
        let batches = c(&self.batches);
        reg.gauge(
            "deepcsi_mean_batch",
            "Mean micro-batch size.",
            if batches == 0 {
                0.0
            } else {
                c(&self.classified) as f64 / batches as f64
            },
        );
        let pool_calls = c(&self.pool_infer_calls);
        reg.gauge(
            "deepcsi_pool_occupancy",
            "Mean lanes engaged per inference-pool call.",
            if pool_calls == 0 {
                0.0
            } else {
                c(&self.pool_lanes_engaged) as f64 / pool_calls as f64
            },
        );
        reg.histogram(
            "deepcsi_batch_latency_seconds",
            "Micro-batch latency (batch assembled to decisions applied).",
            self.batch_latency.export(),
        );
        reg.histogram(
            "deepcsi_reports_to_verdict",
            "Reports a stream needed before its first decisive verdict.",
            self.reports_to_verdict.export(),
        );
        for s in Stage::ALL {
            let h = self.stage(s);
            if h.count() == 0 {
                continue; // the stage never ran
            }
            reg.histogram(
                &format!("deepcsi_stage_{}_seconds", s.name()),
                "Per-stage pipeline latency.",
                h.export(),
            );
        }
        reg
    }
}

/// One pipeline stage's latency summary inside an [`EngineStats`]
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    /// The stage's name (see [`Stage::name`]).
    pub stage: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Median stage latency.
    pub p50: Option<Duration>,
    /// 99th-percentile stage latency.
    pub p99: Option<Duration>,
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// When this snapshot was taken (the denominator of the metrics
    /// emitter's interval rates).
    pub captured_at: Instant,
    /// Per-stage latency summaries (all five stages, zero-count when a
    /// stage never ran).
    pub stages: Vec<StageSnapshot>,
    /// Frames handed to ingest.
    pub ingested: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Reports dropped by backpressure.
    pub dropped: u64,
    /// Reports accepted onto worker queues.
    pub enqueued: u64,
    /// Reports rejected before inference (incompatible dimensions).
    pub rejected: u64,
    /// Reports classified.
    pub classified: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean micro-batch size.
    pub mean_batch: f64,
    /// Median micro-batch latency.
    pub batch_latency_p50: Option<Duration>,
    /// 99th-percentile micro-batch latency.
    pub batch_latency_p99: Option<Duration>,
    /// Inference lanes owned by each worker's persistent pool.
    pub pool_lanes: u64,
    /// Mean lanes engaged per pool inference call (0.0 before the
    /// first call) — how much of the pool the observed batch sizes
    /// actually exercised.
    pub pool_occupancy: f64,
    /// Wall-clock reads that failed and fell back to the
    /// monotonic-offset timestamp.
    pub clock_faults: u64,
    /// The active decision policy's name (empty when snapshotted from a
    /// bare [`Telemetry`] outside an engine).
    pub policy: &'static str,
    /// The serving snapshot's numeric backend (`"f32"` / `"int8"`;
    /// empty outside an engine).
    pub precision: &'static str,
    /// Device streams that reached a decisive verdict.
    pub verdicts_decided: u64,
    /// Per-device policy states currently held across all shards
    /// (bounded when `EngineConfig::max_device_states` is set).
    pub device_states: u64,
    /// Device states evicted by the per-shard LRU cap.
    pub devices_evicted: u64,
    /// Evicted streams that returned and rebuilt their state (re-warms).
    pub devices_rewarmed: u64,
    /// Median reports a stream needed before its first decisive verdict.
    pub reports_to_verdict_p50: Option<u64>,
    /// 99th-percentile reports before the first decisive verdict.
    pub reports_to_verdict_p99: Option<u64>,
    /// Capture-layer container bytes read (0 without a frame source).
    pub capture_bytes: u64,
    /// Capture-layer packets seen.
    pub capture_packets: u64,
    /// Capture-layer pre-filter skips.
    pub capture_skipped: u64,
    /// Capture-layer radiotap/pcap decode errors.
    pub capture_errors: u64,
}

impl EngineStats {
    /// Checks the end-to-end conservation law when a frame source fed
    /// the engine: every packet the capture layer saw is either skipped,
    /// errored (capture- or MAC-level), dropped by backpressure, or
    /// enqueued.
    pub fn capture_reconciles(&self) -> bool {
        self.capture_packets
            == self.capture_skipped
                + self.capture_errors
                + self.decode_errors
                + self.dropped
                + self.enqueued
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.capture_packets > 0 {
            writeln!(
                f,
                "capture: {} bytes  {} packets  {} pre-filtered  {} decode errors  ({})",
                self.capture_bytes,
                self.capture_packets,
                self.capture_skipped,
                self.capture_errors,
                if self.capture_reconciles() {
                    "reconciled"
                } else {
                    "NOT RECONCILED"
                },
            )?;
        }
        writeln!(
            f,
            "ingested {}  decode errors {}  enqueued {}  dropped {}  rejected {}",
            self.ingested, self.decode_errors, self.enqueued, self.dropped, self.rejected
        )?;
        writeln!(
            f,
            "classified {}  batches {} (mean size {:.1})  batch latency p50 {} p99 {}",
            self.classified,
            self.batches,
            self.mean_batch,
            fmt_latency(self.batch_latency_p50),
            fmt_latency(self.batch_latency_p99),
        )?;
        writeln!(
            f,
            "pool lanes {} (occupancy {:.2})  clock faults {}",
            self.pool_lanes, self.pool_occupancy, self.clock_faults
        )?;
        let timed: Vec<&StageSnapshot> = self.stages.iter().filter(|s| s.count > 0).collect();
        if !timed.is_empty() {
            write!(f, "stages:")?;
            for s in timed {
                write!(
                    f,
                    "  {} p50 {} p99 {}",
                    s.stage,
                    fmt_latency(s.p50),
                    fmt_latency(s.p99)
                )?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "policy {}  precision {}  device states {}  verdicts decided {}  reports-to-verdict p50 {} p99 {}",
            if self.policy.is_empty() {
                "-"
            } else {
                self.policy
            },
            if self.precision.is_empty() {
                "-"
            } else {
                self.precision
            },
            self.device_states,
            self.verdicts_decided,
            fmt_reports(self.reports_to_verdict_p50),
            fmt_reports(self.reports_to_verdict_p99),
        )?;
        if self.devices_evicted > 0 {
            write!(
                f,
                "  evicted {}  re-warmed {}",
                self.devices_evicted, self.devices_rewarmed
            )?;
        }
        Ok(())
    }
}

fn fmt_latency(d: Option<Duration>) -> String {
    match d {
        None => "n/a".to_string(),
        Some(d) if d < Duration::from_millis(1) => format!("{:.0}µs", d.as_secs_f64() * 1e6),
        Some(d) => format!("{:.2}ms", d.as_secs_f64() * 1e3),
    }
}

fn fmt_reports(n: Option<u64>) -> String {
    match n {
        None => "n/a".to_string(),
        Some(n) => n.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for micros in [10u64, 20, 30, 40, 50, 1000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 6);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= Duration::from_micros(8) && p50 <= Duration::from_micros(64));
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= Duration::from_micros(512), "p99 {p99:?}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn report_count_histogram_is_exact_in_range() {
        let h = ReportCountHistogram::default();
        for n in [4u64, 4, 4, 10, 10, 40] {
            h.record(n);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(0.99), Some(40));
        assert_eq!(h.quantile(1.0), Some(40));
    }

    #[test]
    fn report_count_histogram_saturates_above_bound() {
        let h = ReportCountHistogram::default();
        h.record(5_000_000);
        assert_eq!(h.quantile(0.5), Some(1024));
    }

    #[test]
    fn empty_report_histogram_has_no_quantiles() {
        assert_eq!(ReportCountHistogram::default().quantile(0.5), None);
    }

    #[test]
    fn verdict_recording_feeds_the_snapshot() {
        let t = Telemetry::default();
        t.policy.set("fixed").unwrap();
        t.record_verdict(10);
        t.record_verdict(4);
        let s = t.snapshot();
        assert_eq!(s.policy, "fixed");
        assert_eq!(s.verdicts_decided, 2);
        assert_eq!(s.reports_to_verdict_p50, Some(4));
        assert_eq!(s.reports_to_verdict_p99, Some(10));
        assert!(format!("{s}").contains("reports-to-verdict"));
    }

    #[test]
    fn log_linear_buckets_pin_quantile_resolution() {
        // The whole point of the log-linear layout: a quantile read
        // resolves to within ±12.5% of the true value, where the old
        // pure-log₂ buckets allowed ±41%.
        for &nanos in &[
            5u64,
            77,
            1_000,
            12_345,
            1_000_000,
            7_777_777,
            123_456_789,
            5_000_000_000,
        ] {
            let h = LatencyHistogram::default();
            h.record(Duration::from_nanos(nanos));
            let got = h.quantile(0.5).unwrap().as_nanos() as f64;
            let err = (got - nanos as f64).abs() / nanos as f64;
            assert!(err <= 0.125, "{nanos} ns read back as {got} ({err:.3})");
        }
        // Tiny durations are exact.
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(3));
        assert_eq!(h.quantile(0.5), Some(Duration::from_nanos(3)));
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotonic() {
        // Every nanosecond value must land in a bucket whose bounds
        // contain it, and bucket indexes must be monotonic in the value.
        let mut prev = 0usize;
        let mut check = |n: u64| {
            let idx = bucket_of(n);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= n && n < hi, "{n} not in [{lo},{hi}) (bucket {idx})");
            assert!(idx >= prev, "bucket index regressed at {n}");
            prev = idx;
        };
        // Exhaustive through several octaves, then spot checks up high.
        for n in 1..=4096u64 {
            check(n);
        }
        for exp in 13..40 {
            for off in [0u64, 1, (1 << exp) / 3, (1 << exp) - 1] {
                check((1u64 << exp) + off);
            }
        }
    }

    #[test]
    fn histogram_sum_accumulates() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(250));
        assert_eq!(h.sum(), Duration::from_nanos(350));
        let snap = h.export();
        assert_eq!(snap.count, 2);
        assert!((snap.sum - 350e-9).abs() < 1e-12);
        // Cumulative buckets end at the total count.
        assert_eq!(snap.buckets.last().unwrap().1, 2);
    }

    #[test]
    fn stage_histograms_feed_snapshot_and_metrics() {
        let t = Telemetry::default();
        t.record_stage(Stage::Decode, Duration::from_micros(2));
        t.record_stage(Stage::Infer, Duration::from_micros(500));
        t.record_stage(Stage::Infer, Duration::from_micros(600));
        let s = t.snapshot();
        let infer = s.stages.iter().find(|x| x.stage == "infer").unwrap();
        assert_eq!(infer.count, 2);
        assert!(infer.p50.is_some());
        assert!(format!("{s}").contains("stages:"));
        let text = t.metrics().to_prometheus();
        assert!(text.contains("deepcsi_stage_infer_seconds_bucket"));
        assert!(text.contains("deepcsi_stage_decode_seconds_count 1"));
        // Stages that never ran export nothing.
        assert!(!text.contains("deepcsi_stage_tensorize_seconds"));
        assert!(deepcsi_obs::parse_prometheus(&text).is_ok());
    }

    #[test]
    fn metrics_render_both_formats() {
        let t = Telemetry::default();
        t.policy.set("fixed").unwrap();
        t.precision.set("int8").unwrap();
        t.ingested.store(10, Ordering::Relaxed);
        t.record_batch(8, Duration::from_micros(120));
        t.record_verdict(6);
        let reg = t.metrics();
        let text = reg.to_prometheus();
        let samples = deepcsi_obs::parse_prometheus(&text).expect("prometheus parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "deepcsi_ingested_total" && s.value == 10.0));
        assert!(samples.iter().any(|s| {
            s.name == "deepcsi_engine_info"
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "precision" && v == "int8")
        }));
        assert!(samples
            .iter()
            .any(|s| s.name == "deepcsi_reports_to_verdict_count" && s.value == 1.0));
        let line = reg.to_json_line();
        let v = deepcsi_obs::JsonValue::parse(&line).expect("json line parses");
        assert_eq!(
            v.get("deepcsi_classified_total").unwrap().as_f64(),
            Some(8.0)
        );
    }

    /// The `# HELP` / `# TYPE` line set is an interface (dashboards and
    /// alert rules key on names and kinds): every stage timed, it must
    /// equal the checked-in listing.
    #[test]
    fn exposition_help_and_type_lines_are_pinned() {
        let t = Telemetry::default();
        for stage in Stage::ALL {
            t.record_stage(stage, Duration::from_micros(5));
        }
        let text = t.metrics().to_prometheus();
        let mut lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# ")).collect();
        lines.sort_unstable();
        let want: Vec<&str> = include_str!("../tests/fixtures/metrics_help_type.txt")
            .lines()
            .collect();
        assert_eq!(lines, want);
    }

    #[test]
    fn scrapes_are_self_describing() {
        let t = Telemetry::default();
        t.policy.set("adaptive").unwrap();
        t.precision.set("int8").unwrap();
        // Bare telemetry (no engine): uptime exports as 0.
        let text = t.metrics().to_prometheus();
        assert!(text.contains("deepcsi_uptime_seconds 0"));
        t.started.set(Instant::now()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.uptime() >= Duration::from_millis(5));
        let samples = deepcsi_obs::parse_prometheus(&t.metrics().to_prometheus()).unwrap();
        let uptime = samples
            .iter()
            .find(|s| s.name == "deepcsi_uptime_seconds")
            .expect("uptime gauge");
        assert!(uptime.value > 0.0);
        let build = samples
            .iter()
            .find(|s| s.name == "deepcsi_build_info")
            .expect("build_info gauge");
        assert_eq!(build.value, 1.0);
        for (key, want) in [
            ("version", env!("CARGO_PKG_VERSION")),
            ("policy", "adaptive"),
            ("precision", "int8"),
        ] {
            assert!(
                build.labels.iter().any(|(k, v)| k == key && v == want),
                "missing {key}={want} in {:?}",
                build.labels
            );
        }
    }

    #[test]
    fn concurrent_recording_preserves_counter_sums() {
        // 4 writer threads hammer record_batch/record_verdict while the
        // snapshot path reads concurrently; afterwards the aggregate
        // counters must equal exactly what was written.
        let t = std::sync::Arc::new(Telemetry::default());
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        t.record_batch(3, Duration::from_nanos(50 + i));
                        t.record_stage(Stage::Infer, Duration::from_nanos(40 + i));
                        if i % 10 == 0 {
                            t.record_verdict(i % 64);
                        }
                    }
                });
            }
            // Concurrent reader: snapshots must never tear into
            // impossible states (classified always a multiple of the
            // fixed batch size only at quiescence, but monotonic here).
            let t2 = std::sync::Arc::clone(&t);
            s.spawn(move || {
                let mut last = 0u64;
                for _ in 0..50 {
                    let s = t2.snapshot();
                    assert!(s.classified >= last);
                    last = s.classified;
                }
            });
        });
        let s = t.snapshot();
        assert_eq!(s.batches, THREADS * PER_THREAD);
        assert_eq!(s.classified, 3 * THREADS * PER_THREAD);
        assert_eq!(s.verdicts_decided, THREADS * PER_THREAD / 10);
        assert_eq!(t.batch_latency.count(), THREADS * PER_THREAD);
        assert_eq!(t.stage(Stage::Infer).count(), THREADS * PER_THREAD);
        assert_eq!(t.reports_to_verdict.count(), s.verdicts_decided);
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let t = Telemetry::default();
        t.record_batch(8, Duration::from_micros(100));
        t.record_batch(4, Duration::from_micros(200));
        let s = t.snapshot();
        assert_eq!(s.classified, 12);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch - 6.0).abs() < 1e-9);
        assert!(s.batch_latency_p50.is_some());
        assert!(!format!("{s}").is_empty());
    }
}
