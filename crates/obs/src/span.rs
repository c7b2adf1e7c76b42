//! Span tracing: a sampling gate, lock-free per-thread ring buffers of
//! completed spans, and one shared collector they flush into.
//!
//! The design splits hot from cold:
//!
//! * The **hot path** is [`ThreadTracer::record`] — a write into a ring
//!   the thread exclusively owns (no lock, no atomic, no allocation
//!   after the ring is built) — and [`Tracer::sample`], one relaxed
//!   `fetch_add` on a shared counter. A thread that decides a batch is
//!   not sampled records nothing at all.
//! * The **cold path** is [`ThreadTracer::flush`] (also run on drop):
//!   the ring's events are appended, in arrival order, to the tracer's
//!   mutex-guarded collector that [`Tracer::drain`] empties — the
//!   mutex is only ever taken at flush/drain time, never per span.
//!
//! Rings are bounded (4 096 spans per thread); when a ring wraps, the
//! oldest span is overwritten and counted in [`Tracer::dropped`] —
//! tracing degrades by forgetting history, never by blocking the
//! pipeline.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span: a named interval on one thread, relative to the
/// owning [`Tracer`]'s epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (`"infer"`, `"queue_wait"`, an op name, …).
    pub name: &'static str,
    /// Trace-local thread id (assigned by [`Tracer::thread`]).
    pub tid: u32,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Tracing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When `false`, every record call is a no-op and
    /// [`Tracer::sample`] always answers `false` — the instrumented
    /// code's only cost is the branch on that answer.
    pub enabled: bool,
    /// Sample 1 in `sample_every` units of work (the caller decides the
    /// unit — the engine samples per micro-batch). `0` and `1` both
    /// mean "every one".
    pub sample_every: u32,
}

impl Default for TraceConfig {
    /// Disabled — observability is strictly opt-in.
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// The default 1-in-N sampling rate ([`TraceConfig::sampled`]).
pub const DEFAULT_SAMPLE_EVERY: u32 = 8;

/// Ring capacity, in spans, per [`ThreadTracer`].
const RING_CAPACITY: usize = 4096;

impl TraceConfig {
    /// Enabled at the default 1-in-8 sampling rate (the "default
    /// sampling" point of the overhead budget: ≤ 3% end-to-end).
    pub fn sampled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Enabled, sampling every unit of work (full-fidelity traces for
    /// short runs and tests).
    pub fn always() -> Self {
        TraceConfig {
            enabled: true,
            sample_every: 1,
        }
    }
}

struct Shared {
    cfg: TraceConfig,
    epoch: Instant,
    tick: AtomicU64,
    next_tid: AtomicU32,
    dropped: AtomicU64,
    /// Every flushed span, until [`Tracer::drain`] takes them.
    collected: Mutex<Vec<SpanEvent>>,
}

impl Shared {
    fn sample(&self) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let every = self.cfg.sample_every.max(1) as u64;
        self.tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
    }
}

/// The shared half of the tracer: configuration, the sampling gate and
/// the span collector. Clone it freely — clones share everything.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("cfg", &self.shared.cfg)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer collecting every flushed span (see [`Tracer::drain`]).
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            shared: Arc::new(Shared {
                cfg,
                epoch: Instant::now(),
                tick: AtomicU64::new(0),
                next_tid: AtomicU32::new(0),
                dropped: AtomicU64::new(0),
                collected: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A permanently-off tracer: `sample()` is always `false`, records
    /// are no-ops. The zero-configuration default everywhere.
    pub fn disabled() -> Tracer {
        Tracer::new(TraceConfig::default())
    }

    /// The tracer's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.shared.cfg
    }

    /// `true` when tracing is on at all.
    pub fn enabled(&self) -> bool {
        self.shared.cfg.enabled
    }

    /// The sampling gate: `true` for 1 in
    /// [`TraceConfig::sample_every`] calls (always `false` when
    /// disabled). Call once per unit of work and skip all recording on
    /// `false` — that makes the per-unit cost of an unsampled batch one
    /// relaxed `fetch_add`.
    pub fn sample(&self) -> bool {
        self.shared.sample()
    }

    /// The instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.shared.epoch
    }

    /// A new per-thread recorder with a fresh trace-local thread id.
    pub fn thread(&self) -> ThreadTracer {
        ThreadTracer {
            shared: Arc::clone(&self.shared),
            tid: self.shared.next_tid.fetch_add(1, Ordering::Relaxed),
            ring: Vec::new(),
            next: 0,
            filled: false,
        }
    }

    /// Spans overwritten in wrapped rings (never flushed).
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Empties the collector, returning every flushed span sorted by
    /// start time. Flush the [`ThreadTracer`]s first (worker tracers
    /// flush on drop).
    pub fn drain(&self) -> Vec<SpanEvent> {
        let mut events = std::mem::take(
            &mut *self
                .shared
                .collected
                .lock()
                .unwrap_or_else(|p| p.into_inner()),
        );
        events.sort_by_key(|e| (e.start_ns, e.tid));
        events
    }
}

/// One thread's span recorder: a bounded ring the thread exclusively
/// owns. Create via [`Tracer::thread`]; it flushes on drop.
pub struct ThreadTracer {
    shared: Arc<Shared>,
    tid: u32,
    ring: Vec<SpanEvent>,
    /// Next write slot.
    next: usize,
    /// `true` once the ring has wrapped at least once.
    filled: bool,
}

impl std::fmt::Debug for ThreadTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadTracer")
            .field("tid", &self.tid)
            .field("buffered", &self.buffered())
            .finish()
    }
}

impl ThreadTracer {
    /// This recorder's trace-local thread id.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Delegates to [`Tracer::sample`] (same shared gate).
    pub fn sample(&self) -> bool {
        self.shared.sample()
    }

    /// `true` when tracing is on at all.
    pub fn enabled(&self) -> bool {
        self.shared.cfg.enabled
    }

    /// Spans currently buffered in the ring.
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }

    /// Records one completed span (no-op when tracing is disabled).
    /// `end` earlier than `start` clamps to a zero duration.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.shared.cfg.enabled {
            return;
        }
        let event = SpanEvent {
            name,
            tid: self.tid,
            start_ns: start
                .saturating_duration_since(self.shared.epoch)
                .as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        };
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(event);
            self.next = self.ring.len() % RING_CAPACITY;
            self.filled = self.next == 0;
        } else {
            // Wrapped: overwrite the oldest slot, account the loss.
            self.ring[self.next] = event;
            self.next = (self.next + 1) % RING_CAPACITY;
            self.filled = true;
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Appends the buffered spans (oldest first) to the tracer's
    /// collector and empties the ring. Also runs on drop.
    pub fn flush(&mut self) {
        if self.ring.is_empty() {
            return;
        }
        if self.filled && self.next != 0 {
            // Ring wrapped: re-linearize to oldest-first before flushing.
            self.ring.rotate_left(self.next);
        }
        self.shared
            .collected
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(&self.ring);
        self.ring.clear();
        self.next = 0;
        self.filled = false;
    }
}

impl Drop for ThreadTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(tracer: &Tracer, offset_ns: u64) -> Instant {
        tracer.epoch() + Duration::from_nanos(offset_ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut t = tracer.thread();
        assert!(!t.sample());
        t.record("x", at(&tracer, 0), at(&tracer, 10));
        t.flush();
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn spans_round_trip_through_flush_and_drain() {
        let tracer = Tracer::new(TraceConfig::always());
        let mut t = tracer.thread();
        t.record("a", at(&tracer, 100), at(&tracer, 250));
        t.record("b", at(&tracer, 300), at(&tracer, 340));
        t.flush();
        let events = tracer.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].start_ns, 100);
        assert_eq!(events[0].dur_ns, 150);
        assert_eq!(events[1].name, "b");
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tracer = Tracer::new(TraceConfig::always());
        let mut t = tracer.thread();
        let total = RING_CAPACITY as u64 + 6;
        for i in 0..total {
            t.record("s", at(&tracer, i * 10), at(&tracer, i * 10 + 5));
        }
        t.flush();
        let events = tracer.drain();
        // Only the newest RING_CAPACITY survive, oldest-first.
        assert_eq!(events.len(), RING_CAPACITY);
        assert_eq!(events[0].start_ns, 60);
        assert_eq!(events[RING_CAPACITY - 1].start_ns, (total - 1) * 10);
        assert_eq!(tracer.dropped(), 6);
    }

    #[test]
    fn sampling_gate_passes_one_in_n() {
        let cfg = TraceConfig {
            enabled: true,
            sample_every: 4,
        };
        let tracer = Tracer::new(cfg);
        let hits = (0..100).filter(|_| tracer.sample()).count();
        assert_eq!(hits, 25);
    }

    #[test]
    fn thread_ids_are_distinct() {
        let tracer = Tracer::new(TraceConfig::always());
        let a = tracer.thread();
        let b = tracer.thread();
        assert_ne!(a.tid(), b.tid());
    }
}
