//! The streaming authentication engine.
//!
//! ```text
//!                  ┌─ bounded queue ─ worker 0 ─┐
//!  ingest ─ parse ─┼─ bounded queue ─ worker 1 ─┼─ shared device state
//!  (shard by MAC)  └─ bounded queue ─ worker N ─┘   (policy states + verdicts)
//! ```
//!
//! * **Sharding** — reports are routed by a hash of their source MAC, so
//!   all evidence for one device lands on one worker and windows never
//!   race.
//! * **Backpressure** — queues are bounded; when a queue is full the
//!   engine either drops the report (accounted in telemetry) or blocks,
//!   per [`EngineConfig::backpressure`].
//! * **Shared frozen model** — every worker holds the same
//!   `Arc<FrozenAuthenticator>` (immutable weights, `Send + Sync`); the
//!   only per-worker inference state is one [`deepcsi_nn::InferCtx`] of
//!   scratch buffers. No per-worker weight clone.
//! * **Micro-batching** — each worker blocks for a report, takes
//!   whatever is already queued behind it up to
//!   [`EngineConfig::max_batch`] (no linger: a lone report departs at
//!   once, a backlog fills whole batches) and classifies the batch with one
//!   [`deepcsi_nn::FrozenModel::infer_batch`] call on its own thread.
//!   The workers are the engine's only parallelism: more cores serve
//!   more shards, never a split batch.
//! * **Policy decisions** — per-sample predictions feed one
//!   [`PolicyState`] per device (built by the configured
//!   [`DecisionPolicy`]); verdicts come from the policy judged against
//!   the [`DeviceRegistry`]'s expected identities.

use crate::policy::{DecisionPolicy, DecisionPolicyConfig, PolicyState};
use crate::registry::{DeviceRegistry, Verdict, VerdictPolicy};
use crate::snapshot::{DeviceSnapshot, EngineSnapshot};
use crate::telemetry::{EngineStats, Stage, Telemetry};
use crate::window::{WindowConfig, WindowedDecision};
use deepcsi_capture::{CaptureError, FrameSource, SourcePoll};
use deepcsi_core::FrozenAuthenticator;
use deepcsi_frame::{BeamformingReportFrame, CapturedReport, MacAddr};
use deepcsi_nn::{InferCtx, Tensor};
use deepcsi_obs::{
    merge_op_stats, AuditEvent, AuditLog, OpStat, Profiler, SpanEvent, ThreadTracer, TraceConfig,
    Tracer,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// What to do with a report whose shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Drop the newest report and account it (line-rate monitoring: a
    /// lost sample is cheaper than an unbounded queue).
    #[default]
    DropNewest,
    /// Block the ingest caller until the worker catches up (lossless
    /// replay).
    Block,
}

/// Audit-trail configuration (see [`EngineConfig::audit`]).
///
/// Plain data on purpose: the [`Engine`] builds the actual
/// [`deepcsi_obs::AuditLog`] at startup, so `EngineConfig` stays
/// `Clone + PartialEq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditConfig {
    /// Events retained in the in-memory ring (served at
    /// `/audit/tail`).
    pub capacity: usize,
    /// Optional JSONL file every event is also appended to (created or
    /// truncated at engine start).
    pub file: Option<std::path::PathBuf>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            capacity: 4096,
            file: None,
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Worker threads (shards).
    pub workers: usize,
    /// Bounded queue capacity per worker.
    pub queue_capacity: usize,
    /// Micro-batch size cap per inference call.
    pub max_batch: usize,
    /// Full-queue policy.
    pub backpressure: Backpressure,
    /// Cap on live per-device policy states across all shards
    /// (`None` = unbounded, the historical behavior).
    ///
    /// A passive monitor sees the long tail of every MAC that ever
    /// transmits; without a cap the device maps grow without bound. With
    /// a cap, each shard holds at most `⌈max / workers⌉` states and
    /// evicts least-recently-seen streams ([`EngineStats`] counts
    /// evictions and re-warms — a re-warm is an evicted stream returning
    /// and rebuilding its evidence from scratch). Size it well above the
    /// working set: an evicted *registered* device re-enters calibration
    /// on return.
    pub max_device_states: Option<usize>,
    /// Sliding-window smoothing parameters (shared by every decision
    /// policy).
    pub window: WindowConfig,
    /// Accept/reject evidence gates (shared by every decision policy).
    pub policy: VerdictPolicy,
    /// Which decision policy turns smoothed evidence into verdicts, and
    /// its knobs. Defaults to [`PolicyKind::FixedMajority`], which is
    /// verdict-identical to the pre-policy engine.
    ///
    /// [`PolicyKind::FixedMajority`]: crate::PolicyKind::FixedMajority
    pub decision: DecisionPolicyConfig,
    /// Span tracing configuration. Disabled by default; when enabled,
    /// 1 in [`TraceConfig::sample_every`] micro-batches records spans
    /// for every pipeline stage it passes through (plus per-frame
    /// `decode` spans at the same rate), collected into
    /// [`EngineReport::spans`] at shutdown.
    pub trace: TraceConfig,
    /// When `true`, each worker's inference context carries a
    /// [`Profiler`]: each frozen op's wall time and activation bytes
    /// are aggregated into the per-layer table returned as
    /// [`EngineReport::layer_profile`]. Observation-only — verdicts are
    /// bit-identical either way.
    pub profile: bool,
    /// When `Some`, every decided verdict appends one structured
    /// [`deepcsi_obs::AuditEvent`] to a bounded in-memory ring (read it
    /// via [`Engine::audit_handle`], served live at `/audit/tail`) and,
    /// when [`AuditConfig::file`] is set, to an append-only JSONL file.
    /// Observation-only — verdicts are bit-identical either way.
    pub audit: Option<AuditConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 1024,
            max_batch: 32,
            backpressure: Backpressure::default(),
            max_device_states: None,
            window: WindowConfig::default(),
            policy: VerdictPolicy::default(),
            decision: DecisionPolicyConfig::default(),
            trace: TraceConfig::default(),
            profile: false,
            audit: None,
        }
    }
}

impl EngineConfig {
    /// Checks every knob [`Engine::start_frozen`] would reject, so a
    /// binary can fail on a bad flag before any dataset or training
    /// work.
    ///
    /// # Panics
    ///
    /// Panics on a zero worker count, queue capacity or batch size,
    /// and on any decision-policy parameter
    /// [`DecisionPolicyConfig::build`] rejects.
    pub fn validate(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.queue_capacity > 0, "queue capacity must be positive");
        assert!(self.max_batch > 0, "batch size must be positive");
        self.decision.build(self.window, self.policy);
    }
}

/// Why [`Engine::ingest_available`] stopped pulling from its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// The source has nothing more right now (a live follow source may
    /// grow); poll again later.
    Pending,
    /// The source is exhausted.
    End,
}

/// Outcome of handing one frame to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Parsed and queued to its shard.
    Enqueued,
    /// Parsed but dropped by backpressure.
    Dropped,
    /// The bytes did not decode as a beamforming report.
    DecodeError,
}

/// The per-device view reported by [`Engine::decisions`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDecision {
    /// The stream's source address.
    pub source: MacAddr,
    /// The windowed decision (present once ≥ 1 report classified).
    pub decision: Option<WindowedDecision>,
    /// The registry verdict under the engine's policy.
    pub verdict: Verdict,
    /// Classified reports this stream needed before its verdict first
    /// left [`Verdict::Unknown`] — the stream's decision latency in
    /// reports (`None` while undecided).
    pub decided_at: Option<u64>,
}

/// Everything the engine leaves behind at shutdown.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Final telemetry.
    pub stats: EngineStats,
    /// Final per-device decisions, sorted by source address.
    pub decisions: Vec<DeviceDecision>,
    /// Every sampled span, sorted by start time (empty unless
    /// [`EngineConfig::trace`] was enabled). Render with
    /// [`deepcsi_obs::write_chrome_trace`].
    pub spans: Vec<SpanEvent>,
    /// The aggregated per-layer inference profile across all workers
    /// (`Some` iff [`EngineConfig::profile`] was set). Render with
    /// [`deepcsi_obs::format_op_table`].
    pub layer_profile: Option<Vec<OpStat>>,
}

/// A report on a shard queue, stamped with its enqueue instant so the
/// dequeuing worker can attribute queue-wait time.
struct Queued {
    report: CapturedReport,
    enqueued_at: Instant,
}

struct DeviceState {
    /// The policy's accumulated evidence for this stream.
    state: Box<dyn PolicyState>,
    /// Observations at the stream's first decisive verdict.
    decided_at: Option<u64>,
    /// The shard clock value of this stream's most recent report, for
    /// LRU eviction (see [`Shard`]).
    touch: u64,
}

/// Count of reports enqueued but not yet classified/rejected, with a
/// [`Condvar`] so [`Engine::drain`] wakes the instant the last one
/// lands instead of sleep-polling.
///
/// The count itself stays a lock-free atomic — ingest and workers touch
/// it once per report. The mutex exists only for the condvar protocol
/// and is taken solely on the idle transition and by waiters, so the
/// hot path pays a `fetch_add`, never a lock.
#[derive(Debug, Default)]
struct InFlight {
    count: AtomicI64,
    gate: Mutex<()>,
    idle: Condvar,
}

impl InFlight {
    /// Locks the condvar gate, recovering from poisoning (workers catch
    /// their own panics, but defense in depth is cheap here).
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn add(&self, n: i64) {
        self.count.fetch_add(n, Ordering::AcqRel);
    }

    fn sub(&self, n: i64) {
        if self.count.fetch_sub(n, Ordering::AcqRel) - n <= 0 {
            // Take the gate before notifying: a waiter that observed a
            // positive count cannot miss this wake-up, because we can
            // only get the lock once it is inside `wait`.
            drop(self.lock());
            self.idle.notify_all();
        }
    }

    /// Blocks until the count reaches zero.
    fn wait_idle(&self) {
        let mut gate = self.lock();
        while self.count.load(Ordering::Acquire) > 0 {
            gate = self.idle.wait(gate).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Evicted MACs remembered per shard for re-warm accounting. Bounded:
/// the ring only affects a counter, so forgetting ancient evictions
/// merely undercounts `devices_rewarmed` — it can never grow unbounded
/// like the map it guards.
const REWARM_RING: usize = 1024;

/// One shard's device map plus its LRU bookkeeping. Sharding by source
/// MAC means the maps hold disjoint key sets, so each lock is only ever
/// contended between its own worker and an occasional snapshot reader —
/// never between workers.
///
/// LRU is lazy-invalidation: every report pushes `(mac, clock)` onto
/// `queue` and stamps the same clock into the device's `touch`. An
/// entry is live iff its stamp still matches; eviction pops stale
/// entries until it finds a live head. Amortized O(1) per report, no
/// linked list.
#[derive(Default)]
struct Shard {
    devices: HashMap<MacAddr, DeviceState>,
    /// Device-state cap for this shard (`None` = unbounded).
    cap: Option<usize>,
    /// Monotonic per-shard report counter (the LRU clock).
    clock: u64,
    /// Touch history, oldest first; stale entries are skipped on pop
    /// and periodically compacted.
    queue: VecDeque<(MacAddr, u64)>,
    /// Recently evicted MACs, oldest first (bounded by
    /// [`REWARM_RING`]).
    evicted_ring: VecDeque<MacAddr>,
    /// Membership index over `evicted_ring`.
    evicted_set: HashSet<MacAddr>,
}

impl Shard {
    /// Installs `state` for `mac` and touches it. A MAC not yet in the
    /// map is a new stream: under a cap, make room first, note whether
    /// it is an evicted stream returning (a re-warm: its evidence
    /// rebuilds from scratch), and count it in `device_states` — the
    /// gauge long soaks watch, bounded by the cap when one is set. A MAC
    /// already present has its state replaced.
    fn admit(
        &mut self,
        mac: MacAddr,
        state: Box<dyn PolicyState>,
        decided_at: Option<u64>,
        telemetry: &Telemetry,
    ) {
        if !self.devices.contains_key(&mac) {
            if let Some(cap) = self.cap {
                while self.devices.len() >= cap && self.evict_one(telemetry) {}
            }
            if self.forget_eviction(mac) {
                telemetry.devices_rewarmed.fetch_add(1, Ordering::Relaxed);
            }
            telemetry.device_states.fetch_add(1, Ordering::Relaxed);
        }
        self.devices.insert(
            mac,
            DeviceState {
                state,
                decided_at,
                touch: 0,
            },
        );
        self.touch(mac);
    }

    /// Evicts the least-recently-seen device. Returns `false` when the
    /// map was empty (nothing to evict).
    fn evict_one(&mut self, telemetry: &Telemetry) -> bool {
        while let Some((mac, stamp)) = self.queue.pop_front() {
            let live = self.devices.get(&mac).is_some_and(|dev| dev.touch == stamp);
            if !live {
                continue; // stale queue entry: the device was touched again (or already evicted)
            }
            self.devices.remove(&mac);
            if self.evicted_set.insert(mac) {
                self.evicted_ring.push_back(mac);
                while self.evicted_ring.len() > REWARM_RING {
                    let old = self.evicted_ring.pop_front().expect("non-empty");
                    self.evicted_set.remove(&old);
                }
            }
            telemetry.devices_evicted.fetch_add(1, Ordering::Relaxed);
            telemetry.device_states.fetch_sub(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Drops `mac` from the eviction memory, reporting whether it was
    /// there (i.e. whether this arrival is a re-warm).
    fn forget_eviction(&mut self, mac: MacAddr) -> bool {
        if self.evicted_set.remove(&mac) {
            self.evicted_ring.retain(|m| *m != mac);
            true
        } else {
            false
        }
    }

    /// Stamps a fresh touch for `mac` (which must be present in
    /// `devices`) and records it in the LRU queue.
    fn touch(&mut self, mac: MacAddr) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(dev) = self.devices.get_mut(&mac) {
            dev.touch = clock;
        }
        self.queue.push_back((mac, clock));
        self.maybe_compact();
    }

    /// Rebuilds the queue once stale entries dominate, keeping its
    /// memory proportional to the live map.
    fn maybe_compact(&mut self) {
        if self.queue.len() > 8 * self.devices.len().max(16) {
            let devices = &self.devices;
            self.queue
                .retain(|(mac, stamp)| devices.get(mac).is_some_and(|d| d.touch == *stamp));
        }
    }
}

type ShardState = Arc<Mutex<Shard>>;

/// A running streaming authentication engine.
///
/// ```no_run
/// use deepcsi_serve::{Engine, EngineConfig, PolicyKind, ReplaySource};
///
/// # fn auth() -> deepcsi_core::Authenticator { unimplemented!() }
/// # let dataset = deepcsi_data::Dataset::default();
/// // Pick a decision policy; the default is the fixed majority window.
/// let mut cfg = EngineConfig::default();
/// cfg.decision.kind = PolicyKind::ConfidenceWeighted;
///
/// let engine = Engine::start_frozen(cfg, auth().freeze(), ReplaySource::registry(&dataset));
/// for frame in ReplaySource::from_dataset(&dataset).frames() {
///     engine.ingest_frame(frame);
/// }
/// let report = engine.shutdown();
/// for d in &report.decisions {
///     println!("{}: {:?} (decided after {:?} reports)", d.source, d.verdict, d.decided_at);
/// }
/// ```
pub struct Engine {
    cfg: EngineConfig,
    senders: Vec<SyncSender<Queued>>,
    workers: Vec<JoinHandle<()>>,
    telemetry: Arc<Telemetry>,
    state: Vec<ShardState>,
    registry: Arc<DeviceRegistry>,
    in_flight: Arc<InFlight>,
    tracer: Tracer,
    /// The ingest thread's span recorder. `ingest_frame` takes `&self`,
    /// so the ring sits behind a mutex — uncontended in practice (one
    /// ingest caller), and only ever locked for sampled frames.
    ingest_spans: Mutex<ThreadTracer>,
    /// One per-layer profile slot per worker. Each worker periodically
    /// *replaces* its slot with its cumulative table (and once more on
    /// exit), so a live `/profile` scrape merges the slots at any time
    /// without stopping anything — the tables are cumulative, so
    /// replacement is idempotent and nothing double-counts.
    profile: Arc<Vec<Mutex<Vec<OpStat>>>>,
    /// The per-verdict audit trail (`None` unless
    /// [`EngineConfig::audit`] is set).
    audit: Option<Arc<AuditLog>>,
    /// The decision policy (each worker holds a copy) — kept on the
    /// engine so [`Engine::restore`] can rebuild device states.
    policy: DecisionPolicy,
}

/// A cloneable live view of the engine's per-layer inference profile
/// (see [`Engine::profile_handle`]): merging the per-worker slots at
/// read time yields the same cumulative table
/// [`EngineReport::layer_profile`] holds at shutdown, but while the
/// engine still runs.
#[derive(Clone)]
pub struct LayerProfile {
    slots: Arc<Vec<Mutex<Vec<OpStat>>>>,
}

impl LayerProfile {
    /// The merged per-op table across all workers, as of each worker's
    /// last publish (workers publish every few batches and on exit).
    pub fn merged(&self) -> Vec<OpStat> {
        let mut table: Vec<OpStat> = Vec::new();
        for slot in self.slots.iter() {
            merge_op_stats(&mut table, &slot.lock().unwrap_or_else(|p| p.into_inner()));
        }
        table
    }
}

impl std::fmt::Debug for LayerProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerProfile")
            .field("workers", &self.slots.len())
            .finish()
    }
}

impl Engine {
    /// Starts the worker pool around a frozen (immutable, `Send + Sync`)
    /// authenticator snapshot.
    ///
    /// All workers hold clones of one `Arc<FrozenAuthenticator>` — there
    /// is no per-worker weight copy; the only per-worker inference state
    /// is one scratch [`deepcsi_nn::InferCtx`]. Pass an existing `Arc` to
    /// share the same snapshot across engines (e.g. a serving engine and
    /// an offline evaluator), or a bare [`FrozenAuthenticator`] to let
    /// the engine wrap it. The engine serves at whatever
    /// [`FrozenAuthenticator::precision`] the snapshot was built with
    /// (f32 from
    /// [`deepcsi_core::Authenticator::freeze`], int8 from
    /// [`FrozenAuthenticator::quantized`]).
    ///
    /// ```no_run
    /// use std::sync::Arc;
    /// use deepcsi_serve::{Engine, EngineConfig, ReplaySource};
    ///
    /// # fn auth() -> deepcsi_core::Authenticator { unimplemented!() }
    /// # let dataset = deepcsi_data::Dataset::default();
    /// let frozen = Arc::new(auth().freeze());
    /// let cfg = EngineConfig {
    ///     workers: 4, // four shards, one core each
    ///     ..EngineConfig::default()
    /// };
    /// let engine = Engine::start_frozen(cfg, Arc::clone(&frozen), ReplaySource::registry(&dataset));
    /// # let _ = engine;
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`EngineConfig::validate`] rejects.
    pub fn start_frozen(
        cfg: EngineConfig,
        auth: impl Into<Arc<FrozenAuthenticator>>,
        registry: DeviceRegistry,
    ) -> Engine {
        let auth: Arc<FrozenAuthenticator> = auth.into();
        // Validate eagerly on the caller thread: failing here beats
        // panicking later inside a worker while it holds a shard lock
        // (which would poison it).
        cfg.validate();
        let policy = cfg.decision.build(cfg.window, cfg.policy);
        let telemetry = Arc::new(Telemetry::default());
        let _ = telemetry.started.set(Instant::now());
        let _ = telemetry.policy.set(policy.name());
        let _ = telemetry.precision.set(auth.precision().as_str());
        // One shared wall-clock anchor: every worker stamps audit events
        // against the same last-known-good epoch reference.
        let clock = WallClock::new();
        // The global cap splits evenly across shards (rounded up, so a
        // cap of 10 over 4 workers bounds each shard at 3). Zero means
        // "at most one state per shard" — a cap, not a kill switch.
        let cap = cfg
            .max_device_states
            .map(|m| m.div_ceil(cfg.workers).max(1));
        let state: Vec<ShardState> = (0..cfg.workers)
            .map(|_| {
                Arc::new(Mutex::new(Shard {
                    cap,
                    ..Shard::default()
                }))
            })
            .collect();
        let registry = Arc::new(registry);
        let in_flight = Arc::new(InFlight::default());
        let tracer = Tracer::new(cfg.trace.clone());
        let profile: Arc<Vec<Mutex<Vec<OpStat>>>> =
            Arc::new((0..cfg.workers).map(|_| Mutex::new(Vec::new())).collect());
        // An unwritable audit file is a configuration bug: fail at
        // startup, not at the first verdict.
        let audit: Option<Arc<AuditLog>> = cfg.audit.as_ref().map(|a| {
            let log = match &a.file {
                Some(path) => AuditLog::with_file(a.capacity, path)
                    .unwrap_or_else(|e| panic!("cannot create audit file {}: {e}", path.display())),
                None => AuditLog::new(a.capacity),
            };
            Arc::new(log)
        });
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for (shard, shard_state) in state.iter().enumerate() {
            let (tx, rx) = std::sync::mpsc::sync_channel(cfg.queue_capacity);
            senders.push(tx);
            let worker = WorkerCtx {
                shard,
                rx,
                auth: Arc::clone(&auth),
                telemetry: Arc::clone(&telemetry),
                state: Arc::clone(shard_state),
                in_flight: Arc::clone(&in_flight),
                expected_shape: auth.input_shape(),
                policy,
                registry: Arc::clone(&registry),
                max_batch: cfg.max_batch,
                clock,
                tracer: tracer.clone(),
                profile_enabled: cfg.profile,
                profile: Arc::clone(&profile),
                audit: audit.clone(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("deepcsi-serve-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            );
        }
        let ingest_spans = Mutex::new(tracer.thread());
        Engine {
            cfg,
            senders,
            workers,
            telemetry,
            state,
            registry,
            in_flight,
            tracer,
            ingest_spans,
            profile,
            audit,
            policy,
        }
    }

    /// Parses one captured frame and routes it to its shard.
    pub fn ingest_frame(&self, bytes: &[u8]) -> IngestOutcome {
        self.telemetry.ingested.fetch_add(1, Ordering::Relaxed);
        // Span sampling is resolved before the parse so the decode
        // measurement covers exactly the codec.
        let sampled = self.tracer.sample();
        let t0 = Instant::now();
        let parsed = BeamformingReportFrame::parse(bytes);
        let end = Instant::now();
        self.telemetry.record_stage(Stage::Decode, end - t0);
        if sampled {
            self.ingest_spans
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .record(Stage::Decode.name(), t0, end);
        }
        match parsed {
            Ok(frame) => {
                let report = CapturedReport {
                    source: frame.source(),
                    destination: frame.destination(),
                    sequence: frame.sequence(),
                    feedback: frame.into_feedback(),
                };
                self.route(report)
            }
            Err(_) => {
                self.telemetry.decode_errors.fetch_add(1, Ordering::Relaxed);
                IngestOutcome::DecodeError
            }
        }
    }

    /// Pulls every currently available candidate frame out of a capture
    /// source and ingests it, keeping the capture-layer telemetry
    /// (bytes/packets/skips/errors) in sync with the source's counters.
    ///
    /// Returns [`SourceStatus::End`] for an exhausted finite source and
    /// [`SourceStatus::Pending`] when a live source has nothing more
    /// *yet* — the caller owns the retry cadence (and any sleep), so
    /// the engine never blocks on I/O it does not control.
    ///
    /// # Errors
    ///
    /// Forwards the source's fatal [`CaptureError`]s (structurally
    /// broken container, unreadable file). Telemetry is synced before
    /// returning, so everything decoded up to the error is accounted.
    pub fn ingest_available(
        &self,
        source: &mut dyn FrameSource,
    ) -> Result<SourceStatus, CaptureError> {
        let outcome = loop {
            match source.poll_frame() {
                Ok(SourcePoll::Frame(frame)) => {
                    self.ingest_frame(&frame.mpdu);
                }
                Ok(SourcePoll::Pending) => break Ok(SourceStatus::Pending),
                Ok(SourcePoll::End) => break Ok(SourceStatus::End),
                Err(e) => break Err(e),
            }
        };
        self.telemetry.set_capture(&source.counters());
        outcome
    }

    fn route(&self, report: CapturedReport) -> IngestOutcome {
        let shard = shard_of(report.source, self.senders.len());
        self.in_flight.add(1);
        let queued = Queued {
            report,
            enqueued_at: Instant::now(),
        };
        let outcome = match self.cfg.backpressure {
            Backpressure::Block => match self.senders[shard].send(queued) {
                Ok(()) => IngestOutcome::Enqueued,
                Err(_) => IngestOutcome::Dropped, // worker gone (shutdown race)
            },
            Backpressure::DropNewest => match self.senders[shard].try_send(queued) {
                Ok(()) => IngestOutcome::Enqueued,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    IngestOutcome::Dropped
                }
            },
        };
        match outcome {
            IngestOutcome::Enqueued => {
                self.telemetry.enqueued.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.in_flight.sub(1);
                self.telemetry.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Blocks until every enqueued report has been classified.
    ///
    /// Workers signal a [`Condvar`] when their shard goes idle, so this
    /// returns the moment the last in-flight report lands — latency is
    /// a thread wake-up, not a multiple of a polling interval.
    pub fn drain(&self) {
        self.in_flight.wait_idle();
    }

    /// Current telemetry.
    pub fn stats(&self) -> EngineStats {
        self.telemetry.snapshot()
    }

    /// A shared handle to the engine's live telemetry — the seam a
    /// periodic metrics emitter uses to render
    /// [`Telemetry::metrics`] on its own thread while the engine runs.
    pub fn telemetry_handle(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// A shared handle to the per-verdict audit trail (`None` unless
    /// [`EngineConfig::audit`] is set) — the seam the observability
    /// plane's `/audit/tail` endpoint reads from.
    pub fn audit_handle(&self) -> Option<Arc<AuditLog>> {
        self.audit.clone()
    }

    /// A live view of the per-layer inference profile (`None` unless
    /// [`EngineConfig::profile`] is set) — the seam the observability
    /// plane's `/profile` endpoint reads from while the engine runs.
    pub fn profile_handle(&self) -> Option<LayerProfile> {
        self.cfg.profile.then(|| LayerProfile {
            slots: Arc::clone(&self.profile),
        })
    }

    /// Current per-device decisions (sorted by source address).
    pub fn decisions(&self) -> Vec<DeviceDecision> {
        let mut seen: Vec<DeviceDecision> = Vec::new();
        let mut have: std::collections::HashSet<MacAddr> = std::collections::HashSet::new();
        for shard in &self.state {
            let state = shard
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for (mac, dev) in state.devices.iter() {
                let decision = dev.state.decision();
                have.insert(*mac);
                seen.push(DeviceDecision {
                    source: *mac,
                    decision,
                    verdict: dev
                        .state
                        .verdict(self.registry.expected(*mac).map(|d| d.0 as usize)),
                    decided_at: dev.decided_at,
                });
            }
        }
        // Registered devices that never produced a report still deserve a
        // row (verdict: Unknown).
        for (mac, _) in self.registry.iter() {
            if !have.contains(&mac) {
                seen.push(DeviceDecision {
                    source: mac,
                    decision: None,
                    verdict: Verdict::Unknown,
                    decided_at: None,
                });
            }
        }
        seen.sort_by_key(|d| d.source);
        seen
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Captures every device's policy state as an [`EngineSnapshot`]
    /// (sorted by MAC for deterministic bytes).
    ///
    /// Safe to call while the engine runs — each shard is locked briefly
    /// in turn — but for a consistent image call [`Engine::drain`]
    /// first so no reports are mid-flight.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut devices: Vec<DeviceSnapshot> = Vec::new();
        for shard in &self.state {
            let guard = shard.lock().unwrap_or_else(|p| p.into_inner());
            for (mac, dev) in guard.devices.iter() {
                devices.push(DeviceSnapshot {
                    mac: *mac,
                    decided_at: dev.decided_at,
                    policy: dev.state.save(),
                });
            }
        }
        devices.sort_by_key(|d| d.mac);
        EngineSnapshot {
            policy: self.cfg.decision.kind,
            devices,
        }
    }

    /// Restores device states from a snapshot, returning how many were
    /// restored.
    ///
    /// Each device is routed to its shard with the same
    /// [`shard_of`] hash the workers use and rebuilt via
    /// [`DecisionPolicy::restore_state`] under *this* engine's
    /// configuration — so restoring onto an engine running a different
    /// policy kind restores nothing (the per-device kind check refuses),
    /// a crafted image no live state could have produced is skipped and
    /// not counted, and a restored `AdaptiveThreshold` stream keeps its
    /// learned floor instead of re-entering calibration. A configured
    /// [`EngineConfig::max_device_states`] cap is respected: restoring
    /// more devices than the cap evicts in restore order.
    pub fn restore(&self, snap: &EngineSnapshot) -> usize {
        let mut restored = 0;
        for dev in &snap.devices {
            let Some(state) = self.policy.restore_state(&dev.policy) else {
                continue;
            };
            self.state[shard_of(dev.mac, self.state.len())]
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .admit(dev.mac, state, dev.decided_at, &self.telemetry);
            restored += 1;
        }
        restored
    }

    /// Drains, stops the workers and returns the final report.
    pub fn shutdown(mut self) -> EngineReport {
        self.drain();
        let stats = self.stats();
        let decisions = self.decisions();
        self.senders.clear(); // disconnect queues → workers exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Workers flushed their span rings and published their final
        // profiler tables on exit; the ingest ring flushes here.
        self.ingest_spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .flush();
        let spans = self.tracer.drain();
        let layer_profile = self.profile_handle().map(|p| p.merged());
        if let Some(audit) = &self.audit {
            audit.flush();
        }
        EngineReport {
            stats,
            decisions,
            spans,
            layer_profile,
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The shard (worker index) a source MAC maps to under `workers`-way
/// MAC-hash sharding.
///
/// This is the one routing function in the system: the engine's worker
/// ring uses it per report, and the cluster tier's listener uses the
/// *same* function to fan MACs across engine-node processes — so a
/// device's evidence always lands in exactly one place at every level.
/// [`DefaultHasher::new`] is deterministic (fixed keys), so two
/// processes of the same build always agree.
pub fn shard_of(mac: MacAddr, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    mac.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

struct WorkerCtx {
    shard: usize,
    rx: Receiver<Queued>,
    /// The one weight snapshot every worker shares — cloning this is an
    /// atomic refcount bump, never a weight copy.
    auth: Arc<FrozenAuthenticator>,
    telemetry: Arc<Telemetry>,
    state: ShardState,
    in_flight: Arc<InFlight>,
    /// The model's recorded input shape, when known: reports with any
    /// other shape are rejected instead of poisoning a batch. Never
    /// learned from observed traffic (without a recorded shape each
    /// micro-batch group stands on its own), so crafted frames cannot
    /// pin a shape that starves legitimate reports.
    expected_shape: Option<(usize, usize, usize)>,
    /// Per-device state factory for the engine's decision policy.
    policy: DecisionPolicy,
    /// Expected identities, for spotting each stream's first decisive
    /// verdict as reports land (reports-to-verdict telemetry).
    registry: Arc<DeviceRegistry>,
    max_batch: usize,
    /// Fault-tolerant wall-clock source for audit timestamps (shared
    /// anchor across workers).
    clock: WallClock,
    /// Shared tracing gate + span-recorder factory.
    tracer: Tracer,
    /// Whether the worker's inference context carries a per-op profiler.
    profile_enabled: bool,
    /// The per-worker profile slots; this worker publishes its
    /// cumulative table into `profile[self.shard]` after every batch
    /// (before the in-flight count drops, so a scrape racing
    /// [`Engine::drain`] sees every drained batch) and on exit.
    profile: Arc<Vec<Mutex<Vec<OpStat>>>>,
    /// The per-verdict audit trail, shared with the engine (`None`
    /// when auditing is off).
    audit: Option<Arc<AuditLog>>,
}

/// Fault-tolerant wall-clock source for audit timestamps.
///
/// `SystemTime` can report "before the epoch" on a broken or stepped
/// clock; the engine used to map that to `0`, stamping audit events at
/// 1970 and silently corrupting the trail's timeline. Instead, the
/// engine captures one epoch reading and a monotonic anchor at startup
/// and, on any later clock fault, extends that last-known-good reading
/// by the monotonic elapsed time — timestamps stay ordered and roughly
/// correct, and every fault is counted in [`Telemetry::clock_faults`].
#[derive(Debug, Clone, Copy)]
struct WallClock {
    /// Monotonic instant paired with `anchor_ms`.
    anchor: Instant,
    /// Epoch milliseconds read at the anchor (best effort: a clock
    /// already broken at startup anchors at 0 and the offset still
    /// keeps later stamps ordered).
    anchor_ms: u64,
}

impl WallClock {
    fn new() -> WallClock {
        WallClock {
            anchor: Instant::now(),
            anchor_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
        }
    }

    /// Wall-clock milliseconds since the Unix epoch, degrading to
    /// last-known-good + monotonic offset (never 0) on a clock fault.
    fn unix_ms(&self, telemetry: &Telemetry) -> u64 {
        self.resolve(SystemTime::now().duration_since(UNIX_EPOCH).ok(), telemetry)
    }

    /// Split from [`WallClock::unix_ms`] so tests can inject the fault.
    fn resolve(&self, since_epoch: Option<Duration>, telemetry: &Telemetry) -> u64 {
        match since_epoch {
            Some(d) => d.as_millis() as u64,
            None => {
                telemetry.clock_faults.fetch_add(1, Ordering::Relaxed);
                self.anchor_ms + self.anchor.elapsed().as_millis() as u64
            }
        }
    }
}

/// Blocks for a batch opener, then adds whatever is already queued
/// behind it, up to `cap` reports in all. Returns `false`, with `batch`
/// untouched, once every sender is gone.
///
/// No clock and no timed wait: a lone report departs the moment its
/// worker wakes, and a backlog still fills whole batches from the
/// queue.
fn next_batch(rx: &Receiver<Queued>, batch: &mut Vec<Queued>, cap: usize) -> bool {
    let Ok(opener) = rx.recv() else {
        return false;
    };
    batch.push(opener);
    batch.extend(rx.try_iter().take(cap - 1));
    true
}

impl WorkerCtx {
    fn run(self) {
        // This worker's only mutable inference state: one scratch
        // context for the worker's lifetime. Its buffers reach their
        // high-water mark after the first full batches, then the hot
        // path allocates nothing but the output tensors.
        let mut ctx = self.auth.ctx();
        if self.profile_enabled {
            // With tracing on, the profiler also emits one span per op
            // for sampled batches.
            ctx.set_profiler(if self.tracer.enabled() {
                Profiler::with_tracer(self.tracer.thread())
            } else {
                Profiler::new()
            });
        }
        let mut spans = self.tracer.thread();
        let mut batch: Vec<Queued> = Vec::with_capacity(self.max_batch);
        // Exit once all senders are gone.
        while next_batch(&self.rx, &mut batch, self.max_batch) {
            // One sampling decision per micro-batch: a sampled batch
            // records a span for every stage it passes through.
            let sampled = spans.sample();
            self.account_queue_wait(&batch, sampled, &mut spans);
            // Safety net: no classification panic may take the worker
            // down, or `drain()` would wait forever on its queue.
            // `classify` accounts every report it handles (classified or
            // rejected) in `accounted`; whatever a panic left unaccounted
            // is rejected here, so enqueued == classified + rejected
            // always reconciles.
            let accounted = std::cell::Cell::new(0u64);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.classify(&batch, &accounted, &mut ctx, sampled, &mut spans);
            }));
            if outcome.is_err() {
                self.telemetry
                    .rejected
                    .fetch_add(batch.len() as u64 - accounted.get(), Ordering::Relaxed);
            }
            // Publish the live profile before the in-flight count drops:
            // once `drain()` returns, every drained batch is visible to
            // `/profile`. A publish is a small table clone under an
            // uncontended mutex — noise next to the batch inference it
            // accounts.
            if self.profile_enabled {
                self.publish_profile(&ctx);
            }
            self.in_flight.sub(batch.len() as i64);
            batch.clear();
        }
        // Exit path: one final publish so the engine's shutdown merge
        // (and any last live scrape) sees every batch. The profiler
        // stays attached to the context; slots hold cumulative *copies*,
        // so re-publishing replaces rather than double-counts (the span
        // ring still flushes on drop).
        if self.profile_enabled {
            self.publish_profile(&ctx);
        }
    }

    /// Replaces this worker's live profile slot with its profiler's
    /// cumulative table.
    fn publish_profile(&self, ctx: &InferCtx) {
        *self.profile[self.shard]
            .lock()
            .unwrap_or_else(|p| p.into_inner()) =
            ctx.profiler().map(|p| p.ops().to_vec()).unwrap_or_default();
    }

    /// Attributes each just-dequeued report's time-on-queue: one
    /// histogram observation per report, plus (for a sampled batch) a
    /// single span covering the longest wait.
    fn account_queue_wait(&self, batch: &[Queued], sampled: bool, spans: &mut ThreadTracer) {
        let now = Instant::now();
        for q in batch {
            self.telemetry.record_stage(
                Stage::QueueWait,
                now.saturating_duration_since(q.enqueued_at),
            );
        }
        if sampled {
            if let Some(start) = batch.iter().map(|q| q.enqueued_at).min() {
                spans.record(Stage::QueueWait.name(), start, now);
            }
        }
    }

    /// Classifies one micro-batch, accounting every report exactly once
    /// (as classified or rejected) in both telemetry and `accounted`.
    ///
    /// A passive monitor sees arbitrary frames, so nothing a frame
    /// contains may take the engine down or starve other streams:
    /// feedback that cannot tensorize is rejected up front, and the rest
    /// is grouped by tensor shape with each group classified
    /// independently — a crafted foreign-shape report can only ever
    /// reject itself, never the legitimate reports sharing its batch.
    fn classify(
        &self,
        batch: &[Queued],
        accounted: &std::cell::Cell<u64>,
        ctx: &mut InferCtx,
        sampled: bool,
        spans: &mut ThreadTracer,
    ) {
        let reject = |n: usize| {
            self.telemetry
                .rejected
                .fetch_add(n as u64, Ordering::Relaxed);
            accounted.set(accounted.get() + n as u64);
        };
        struct Group<'a> {
            shape: Vec<usize>,
            reports: Vec<&'a CapturedReport>,
            tensors: Vec<Tensor>,
        }
        // A helper wrapping one stage in a timestamp pair: records the
        // stage histogram, plus a span when the batch is sampled. All
        // timing is observation-only.
        let stage = |stage: Stage, spans: &mut ThreadTracer, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            let end = Instant::now();
            self.telemetry.record_stage(stage, end - t0);
            if sampled {
                spans.record(stage.name(), t0, end);
            }
        };
        let mut groups: Vec<Group<'_>> = Vec::new();
        stage(Stage::Tensorize, spans, &mut || {
            for q in batch {
                let report = &q.report;
                if !self.auth.spec().compatible(&report.feedback) {
                    reject(1);
                    continue;
                }
                // `compatible` should make tensorize infallible, but this
                // is the adversarial surface: a report that still panics
                // here rejects itself, not its batch.
                let t = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.auth.tensorize(&report.feedback)
                })) {
                    Ok(t) => t,
                    Err(_) => {
                        reject(1);
                        continue;
                    }
                };
                match groups.iter_mut().find(|g| g.shape[..] == *t.shape()) {
                    Some(g) => {
                        g.reports.push(report);
                        g.tensors.push(t);
                    }
                    None => groups.push(Group {
                        shape: t.shape().to_vec(),
                        reports: vec![report],
                        tensors: vec![t],
                    }),
                }
            }
        });
        for group in groups {
            let group_started = Instant::now();
            // A shape recorded by the model rejects mismatches outright.
            if let Some((c, h, w)) = self.expected_shape {
                if group.shape != [c, h, w] {
                    reject(group.reports.len());
                    continue;
                }
            }
            // The shape gate plus `compatible` should make this
            // infallible, but an over-the-air surface warrants defense in
            // depth: a group the network rejects only rejects itself.
            let mut infer_outcome = None;
            stage(Stage::Infer, spans, &mut || {
                infer_outcome = Some(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || self.auth.model().infer_batch(&group.tensors, ctx),
                )));
            });
            let Ok(outputs) = infer_outcome.expect("infer stage ran") else {
                reject(group.reports.len());
                continue;
            };
            stage(Stage::PolicyApply, spans, &mut || {
                // Recover a poisoned lock: on a caught panic the map is
                // at worst missing one window push, which is fine to
                // keep serving.
                let mut shard = self
                    .state
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                for (report, logits) in group.reports.iter().zip(outputs.iter()) {
                    let module = logits.argmax();
                    let confidence = softmax_peak(logits.as_slice());
                    if shard.devices.contains_key(&report.source) {
                        shard.touch(report.source);
                    } else {
                        shard.admit(
                            report.source,
                            self.policy.new_state(),
                            None,
                            &self.telemetry,
                        );
                    }
                    let dev = shard
                        .devices
                        .get_mut(&report.source)
                        .expect("just inserted or present");
                    dev.state.push(module, confidence);
                    // Catch the stream's first decisive verdict the
                    // moment it happens — the reports-to-verdict
                    // distribution is the policy's decision latency,
                    // and the audit trail records exactly this event.
                    if dev.decided_at.is_none() {
                        let expected = self.registry.expected(report.source).map(|d| d.0 as usize);
                        let verdict = dev.state.verdict(expected);
                        if verdict != Verdict::Unknown {
                            let decision = dev.state.decision();
                            let n = decision.as_ref().map_or(0, |d| d.observations);
                            dev.decided_at = Some(n);
                            self.telemetry.record_verdict(n);
                            if let Some(audit) = &self.audit {
                                audit.append(AuditEvent {
                                    seq: 0, // assigned by the log
                                    unix_ms: self.clock.unix_ms(&self.telemetry),
                                    source: report.source.to_string(),
                                    verdict: verdict.as_str().to_string(),
                                    expected: expected.map(|e| e as u64),
                                    module: decision.as_ref().map(|d| d.module as u64),
                                    vote_fraction: decision
                                        .as_ref()
                                        .map_or(0.0, |d| d.vote_fraction),
                                    confidence: decision.as_ref().map_or(0.0, |d| d.confidence_ema),
                                    observations: n,
                                    reports_to_verdict: Some(n),
                                    policy: self.policy.name().to_string(),
                                    precision: self.auth.precision().as_str().to_string(),
                                });
                            }
                        }
                    }
                }
            });
            accounted.set(accounted.get() + group.reports.len() as u64);
            // One record per inference call, timed from its own start, so
            // mixed-shape batches neither double-count latency nor skew
            // the mean batch size.
            self.telemetry
                .record_batch(group.reports.len(), group_started.elapsed());
        }
    }
}

/// The softmax probability of the winning logit.
fn softmax_peak(logits: &[f32]) -> f64 {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let sum: f64 = logits.iter().map(|&v| f64::from(v - max).exp()).sum();
    1.0 / sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_stable_and_in_range() {
        for workers in 1..8 {
            for id in 0..100 {
                let mac = MacAddr::station(id);
                let a = shard_of(mac, workers);
                assert_eq!(a, shard_of(mac, workers));
                assert!(a < workers);
            }
        }
    }

    #[test]
    fn sharding_spreads_sources() {
        let workers = 4;
        let mut hit = vec![false; workers];
        for id in 0..64 {
            hit[shard_of(MacAddr::station(id), workers)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected");
    }

    #[test]
    fn softmax_peak_is_a_probability() {
        let p = softmax_peak(&[2.0, 1.0, 0.0]);
        assert!(p > 1.0 / 3.0 && p < 1.0);
        let uniform = softmax_peak(&[0.5, 0.5, 0.5, 0.5]);
        assert!((uniform - 0.25).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_passes_a_healthy_reading_through() {
        let telemetry = Telemetry::default();
        let clock = WallClock::new();
        let stamp = clock.resolve(Some(Duration::from_millis(1_234_567)), &telemetry);
        assert_eq!(stamp, 1_234_567);
        assert_eq!(telemetry.clock_faults.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn wall_clock_fault_extends_the_anchor_and_is_counted() {
        let telemetry = Telemetry::default();
        let clock = WallClock::new();
        assert!(clock.anchor_ms > 0, "test host clock must be sane");

        let first = clock.resolve(None, &telemetry);
        assert!(
            first >= clock.anchor_ms,
            "fallback stamp {first} went backwards from anchor {}",
            clock.anchor_ms
        );
        assert_eq!(telemetry.clock_faults.load(Ordering::Relaxed), 1);

        // Later faults never move the trail backwards.
        std::thread::sleep(Duration::from_millis(5));
        let second = clock.resolve(None, &telemetry);
        assert!(second >= first);
        assert_eq!(telemetry.clock_faults.load(Ordering::Relaxed), 2);
    }

    /// A minimal queued report for the batch-formation tests (its
    /// contents never reach inference).
    fn queued() -> Queued {
        use deepcsi_bfi::{BeamformingFeedback, QuantizedAngles};
        use deepcsi_phy::{Codebook, MimoConfig};
        Queued {
            report: CapturedReport {
                source: MacAddr::station(1),
                destination: MacAddr::station(2),
                sequence: 0,
                feedback: BeamformingFeedback::from_angles(
                    MimoConfig::new(3, 2, 2).expect("valid"),
                    Codebook::MU_HIGH,
                    vec![0],
                    &[QuantizedAngles {
                        m: 3,
                        n_ss: 2,
                        q_phi: vec![0; 3],
                        q_psi: vec![0; 3],
                    }],
                ),
            },
            enqueued_at: Instant::now(),
        }
    }

    /// A lone opener departs as a batch of one while its sender is still
    /// alive: nothing waits for stragglers. The call runs on a helper
    /// thread, so an implementation that blocks fails here instead of
    /// hanging the suite.
    #[test]
    fn lone_opener_departs_as_a_batch_of_one() {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Queued>(8);
        tx.send(queued()).expect("capacity");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut batch = Vec::new();
            let opened = next_batch(&rx, &mut batch, 8);
            done_tx.send((opened, batch.len())).ok();
        });
        let formed = done_rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(formed, Ok((true, 1)), "the opener must depart alone");
        drop(tx);
    }

    /// A backlog fills the batch up to its cap and leaves the rest
    /// queued for the next one.
    #[test]
    fn queued_backlog_fills_the_batch_up_to_its_cap() {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Queued>(8);
        for _ in 0..5 {
            tx.send(queued()).expect("capacity");
        }
        let mut batch = Vec::new();
        assert!(next_batch(&rx, &mut batch, 4));
        assert_eq!(batch.len(), 4);
        assert_eq!(rx.try_iter().count(), 1, "one report stays queued");
    }

    /// At a cap of 1 a batch never takes a second report.
    #[test]
    fn cap_of_one_never_takes_a_second_report() {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Queued>(8);
        for _ in 0..3 {
            tx.send(queued()).expect("capacity");
        }
        let mut batch = Vec::new();
        assert!(next_batch(&rx, &mut batch, 1));
        assert_eq!(batch.len(), 1);
        assert_eq!(rx.try_iter().count(), 2, "the rest stays queued");
        // Once every sender is gone, no batch opens.
        drop(tx);
        batch.clear();
        assert!(!next_batch(&rx, &mut batch, 1));
        assert!(batch.is_empty());
    }
}
