//! # deepcsi-obs — the observability substrate
//!
//! The serving engine answers "who is this device?" at line rate; this
//! crate answers "where did the time go?". It is dependency-free (like
//! the rest of the workspace: no crates.io, only `std`) and deliberately
//! knows nothing about CSI, engines or neural networks — the other
//! crates *feed* it:
//!
//! * **Span tracing** ([`Tracer`] / [`ThreadTracer`]) — every pipeline
//!   stage (`decode`, `queue_wait`, `tensorize`, `infer`,
//!   `policy_apply`, plus one span per `InferOp` when profiling) records
//!   begin/duration events into a lock-free per-thread ring buffer,
//!   behind an atomic [`TraceConfig::sample_every`] gate so the hot path
//!   pays an increment-and-compare when a batch is *not* sampled.
//!   Flushed events collect in the [`Tracer`], which drains them for
//!   rendering as Chrome `trace_event` JSON
//!   ([`write_chrome_trace`]) that `chrome://tracing` / Perfetto load
//!   directly, and [`parse_chrome_trace`] reads back (the round-trip is
//!   CI-checked).
//! * **Per-op profiling** ([`Profiler`] / [`OpStat`]) — carried by a
//!   `deepcsi_nn::InferCtx`, it records wall time and activation bytes
//!   moved for every frozen op, aggregated into the per-layer table the
//!   mixed-precision autotuner consumes.
//! * **Metrics export** ([`MetricsRegistry`]) — counters, gauges and
//!   histogram snapshots render as Prometheus text-exposition format
//!   ([`MetricsRegistry::to_prometheus`]) and as one-object-per-line
//!   JSON ([`MetricsRegistry::to_json_line`]); [`parse_prometheus`]
//!   validates an exposition (names, finite values) without a
//!   Prometheus server in the loop.
//!
//! PR 7 adds the **live observability plane** on top of the same
//! substrate:
//!
//! * **Embedded HTTP server** ([`ObsServer`] / [`http_get`]) — a
//!   dependency-free, bounded, `GET`-only HTTP/1.1 scrape surface so
//!   metrics, health and the audit tail are readable from a *running*
//!   engine, not just from files after the fact.
//! * **SLO monitoring** ([`SloMonitor`] / [`SloConfig`]) — sliding-
//!   window burn rates over p99 batch latency, drop rate, reject rate
//!   and capture reconciliation, driving the `/healthz` `ok → degraded
//!   → failing` state machine and structured [`SloBreach`] events.
//! * **Audit trail** ([`AuditLog`] / [`AuditEvent`]) — one structured
//!   JSONL event per decided verdict, in a bounded ring (served at
//!   `/audit/tail`) plus an optional append-only file.
//!
//! The `obs-check` binary wraps the two parsers for CI smoke steps:
//! `obs-check --prom metrics.prom --trace trace.json` exits non-zero
//! when either artifact fails to parse, and `obs-check --scrape ADDR`
//! validates a live plane over loopback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod chrome;
mod flags;
mod http;
mod json;
mod metrics;
mod profile;
mod prom;
mod slo;
mod span;

pub use audit::{AuditEvent, AuditLog};
pub use chrome::{parse_chrome_trace, write_chrome_trace, ParsedSpan};
pub use flags::{Arg, Flag, Flags};
pub use http::{
    http_get, HttpHandler, HttpRequest, HttpResponse, ObsServer, ObsServerConfig, ServerCounters,
};
pub use json::JsonValue;
pub use metrics::{HistogramSnapshot, Metric, MetricValue, MetricsRegistry};
pub use profile::{format_op_table, merge_op_stats, OpStat, Profiler};
pub use prom::{parse_prometheus, PromSample};
pub use slo::{HealthReport, HealthState, RuleStatus, SloBreach, SloConfig, SloMonitor, SloSample};
pub use span::{SpanEvent, ThreadTracer, TraceConfig, Tracer};
