//! Periodic metrics publication to files.
//!
//! The file-based half of the observability story (the live half is
//! [`ObsPlane`](crate::ObsPlane)): [`emit_metrics`] renders one
//! interval's registry — every [`Telemetry`] counter plus interval
//! rates computed against the previous snapshot — to a Prometheus
//! text file (rewritten whole) and/or a JSONL file (appended), and
//! [`MetricsEmitter`] runs it on a timer thread.
//!
//! The emitter's shutdown contract matters: [`MetricsEmitter::stop`]
//! emits the **final partial interval** before the thread exits, so the
//! tail of a run — often the only part a failing CI job has — is never
//! lost. An earlier version returned on the stop signal without
//! emitting, silently dropping up to one full `--metrics-interval` of
//! data at every exit; the regression test in this module pins the
//! flush.

use crate::telemetry::{EngineStats, Telemetry};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// One metrics publication: render the registry (plus interval rates
/// from `prev` → now) to the Prometheus file (rewritten whole) and/or
/// the JSONL file (appended). Returns the snapshot taken, so the caller
/// can thread it back in as the next interval's `prev`.
///
/// # Panics
///
/// Panics when a metrics file cannot be written — an operator asked for
/// artifacts this process cannot produce, which is a deployment bug.
pub fn emit_metrics(
    telemetry: &Telemetry,
    prev: &EngineStats,
    prom_path: Option<&str>,
    json_path: Option<&str>,
) -> EngineStats {
    let now = telemetry.snapshot();
    let mut reg = telemetry.metrics();
    for (name, help, value) in interval_gauges(prev, &now) {
        reg.gauge(name, help, value);
    }
    if let Some(path) = prom_path {
        std::fs::write(path, reg.to_prometheus())
            .unwrap_or_else(|e| panic!("writing metrics file {path}: {e}"));
    }
    if let Some(path) = json_path {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("opening metrics JSONL {path}: {e}"));
        writeln!(f, "{}", reg.to_json_line())
            .unwrap_or_else(|e| panic!("appending metrics JSONL {path}: {e}"));
    }
    now
}

/// The interval gauges between two snapshots: the interval's width and
/// three per-second rates. Counter differences saturate at zero, so a
/// reversed pair (or one taken across an engine restart) reads 0
/// instead of underflowing, and so does a zero-width interval.
fn interval_gauges(
    prev: &EngineStats,
    now: &EngineStats,
) -> [(&'static str, &'static str, f64); 4] {
    let secs = now
        .captured_at
        .saturating_duration_since(prev.captured_at)
        .as_secs_f64();
    let per_sec = |count: fn(&EngineStats) -> u64| {
        let n = count(now).saturating_sub(count(prev));
        if secs > 0.0 {
            n as f64 / secs
        } else {
            0.0
        }
    };
    [
        (
            "deepcsi_interval_seconds",
            "wall seconds covered by this interval's rate gauges",
            secs,
        ),
        (
            "deepcsi_ingested_per_sec",
            "frames ingested per second over the last interval",
            per_sec(|s| s.ingested),
        ),
        (
            "deepcsi_classified_per_sec",
            "reports classified per second over the last interval",
            per_sec(|s| s.classified),
        ),
        (
            "deepcsi_dropped_per_sec",
            "reports dropped per second over the last interval",
            per_sec(|s| s.dropped),
        ),
    ]
}

/// Periodic metrics publisher: a thread that calls [`emit_metrics`]
/// every `interval` until told to stop, then emits the final partial
/// interval. Create one when at least one metrics output is requested.
pub struct MetricsEmitter {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<EngineStats>,
}

impl MetricsEmitter {
    /// Starts the timer thread. `prom` / `json` are the output paths
    /// (at least one should be `Some`, or the thread renders registries
    /// nobody reads).
    pub fn spawn(
        telemetry: Arc<Telemetry>,
        interval: Duration,
        prom: Option<String>,
        json: Option<String>,
    ) -> MetricsEmitter {
        assert!(!interval.is_zero(), "emit interval must be positive");
        let (stop, rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("deepcsi-metrics-emitter".to_string())
            .spawn(move || {
                let mut prev = telemetry.snapshot();
                loop {
                    match rx.recv_timeout(interval) {
                        Err(RecvTimeoutError::Timeout) => {
                            prev =
                                emit_metrics(&telemetry, &prev, prom.as_deref(), json.as_deref());
                        }
                        // Stop (or an emitter leak — sender dropped):
                        // flush the partial interval since the last
                        // emission, so the run's tail is never lost.
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                            return emit_metrics(
                                &telemetry,
                                &prev,
                                prom.as_deref(),
                                json.as_deref(),
                            );
                        }
                    }
                }
            })
            .expect("spawn metrics emitter");
        MetricsEmitter { stop, handle }
    }

    /// Stops the thread, emitting the final partial interval first, and
    /// returns the snapshot that final emission took.
    pub fn stop(self) -> EngineStats {
        let _ = self.stop.send(());
        self.handle.join().expect("metrics emitter panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn stop_flushes_the_final_partial_interval() {
        let dir = std::env::temp_dir().join("deepcsi-emit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join(format!("metrics-{}.jsonl", std::process::id()));
        let prom = dir.join(format!("metrics-{}.prom", std::process::id()));
        std::fs::remove_file(&json).ok();

        let telemetry = Arc::new(Telemetry::default());
        // Interval far longer than the test: the timer never fires, so
        // any output can only come from the stop-flush.
        let emitter = MetricsEmitter::spawn(
            Arc::clone(&telemetry),
            Duration::from_secs(3600),
            Some(prom.display().to_string()),
            Some(json.display().to_string()),
        );
        telemetry.ingested.store(42, Ordering::Relaxed);
        telemetry.record_batch(40, Duration::from_micros(100));
        let last = emitter.stop();
        assert_eq!(last.ingested, 42);

        // The final interval made it to both files.
        let lines: Vec<String> = std::fs::read_to_string(&json)
            .expect("stop() must flush the JSONL")
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(lines.len(), 1, "exactly the final flush, no timer fires");
        let v = deepcsi_obs::JsonValue::parse(&lines[0]).expect("jsonl parses");
        assert_eq!(
            v.get("deepcsi_ingested_total").unwrap().as_f64(),
            Some(42.0)
        );
        for gauge in [
            "deepcsi_interval_seconds",
            "deepcsi_ingested_per_sec",
            "deepcsi_classified_per_sec",
            "deepcsi_dropped_per_sec",
        ] {
            assert!(v.get(gauge).is_some(), "JSONL line lacks {gauge}");
        }
        let text = std::fs::read_to_string(&prom).expect("stop() must rewrite the prom file");
        assert!(text.contains("deepcsi_ingested_total 42"));
        assert!(deepcsi_obs::parse_prometheus(&text).is_ok());

        std::fs::remove_file(&json).ok();
        std::fs::remove_file(&prom).ok();
    }

    #[test]
    fn interval_gauges_are_saturating_rates() {
        let t = Telemetry::default();
        t.ingested.store(100, Ordering::Relaxed);
        t.record_batch(50, Duration::from_micros(10));
        let a = t.snapshot();
        t.ingested.store(300, Ordering::Relaxed);
        t.record_batch(150, Duration::from_micros(10));
        std::thread::sleep(Duration::from_millis(5));
        let b = t.snapshot();

        let [(_, _, secs), (_, _, ingested), (_, _, classified), (_, _, dropped)] =
            interval_gauges(&a, &b);
        assert!(secs >= 0.005, "interval {secs} s");
        // Rate × width recovers the interval counts.
        assert!((ingested * secs - 200.0).abs() < 1e-6, "{ingested}/s");
        assert!((classified * secs - 150.0).abs() < 1e-6, "{classified}/s");
        assert_eq!(dropped, 0.0);

        // A reversed pair saturates to zeros rather than underflowing.
        for (name, _, value) in interval_gauges(&b, &a) {
            assert_eq!(value, 0.0, "reversed pair: {name}");
        }
        // A zero-width interval reads 0 even though counters moved.
        let same_instant = EngineStats {
            captured_at: a.captured_at,
            ..b.clone()
        };
        for (name, _, value) in interval_gauges(&a, &same_instant) {
            assert_eq!(value, 0.0, "zero-width interval: {name}");
        }
    }
}
