//! The per-verdict audit trail.
//!
//! An authentication system that accepts and rejects devices must be
//! able to answer, after the fact, *why device X was let in at 14:02*.
//! The [`AuditLog`] is that forensic record: every decided verdict
//! appends exactly one structured [`AuditEvent`] — source MAC, verdict,
//! policy, confidence trajectory, reports-to-verdict, precision,
//! timestamp — to a bounded in-memory ring (served live at
//! `/audit/tail?n=`) and, optionally, to an append-only JSONL file
//! (`--audit-file`) that survives the process.
//!
//! Design constraints, in order:
//!
//! 1. **Never stall a worker.** `append()` takes one short mutex for a
//!    ring push and a `BufWriter` write; file flushing happens on the
//!    caller's cadence ([`AuditLog::flush`]), not per event, and file
//!    write errors are counted, not propagated — losing an audit line
//!    beats stalling authentication.
//! 2. **Exactly one event per decided verdict.** The monotonically
//!    increasing [`AuditEvent::seq`] (assigned under the same lock as
//!    the push) makes gaps detectable: `appended()` equals the
//!    engine's `verdicts_decided` counter, and tests pin it.
//! 3. **Bounded memory.** The ring holds the last `capacity` events;
//!    the file, when configured, is the unbounded record. A slot is a
//!    packed record, not an [`AuditEvent`]: `seq` is implied by the
//!    slot's position, the three options are bare values plus a
//!    presence mask, and the four strings share one exact-sized
//!    allocation. That is 88 B inline plus one heap block per event
//!    (48 B for a MAC source and the usual names), ≈ 136 B against
//!    ≈ 312 B (184 B inline plus four `String`s) for the event itself.
//!    [`AuditLog::tail`] rebuilds the events exactly.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::escape;

/// One decided verdict, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// Monotonic sequence number, assigned by [`AuditLog::append`]
    /// (the first event is `0`).
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The reporting device's source identifier (MAC address).
    pub source: String,
    /// The verdict (`accept` / `reject` / policy-specific).
    pub verdict: String,
    /// The registry's expected device id for this source, if enrolled.
    pub expected: Option<u64>,
    /// The module (device id) the decision window converged on.
    pub module: Option<u64>,
    /// Fraction of windowed reports voting for the winning module.
    pub vote_fraction: f64,
    /// Exponential moving average of the winning confidence — the
    /// confidence trajectory's current point.
    pub confidence: f64,
    /// Reports observed by the window when the verdict fired.
    pub observations: u64,
    /// Reports from first sighting to verdict (the early-exit metric).
    pub reports_to_verdict: Option<u64>,
    /// Decision policy name.
    pub policy: String,
    /// Inference precision (`f32` / `int8`).
    pub precision: String,
}

impl AuditEvent {
    /// One-line JSON rendering (no trailing newline). `None` fields
    /// serialize as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"seq\":");
        let _ = write!(out, "{}", self.seq);
        let _ = write!(out, ",\"unix_ms\":{}", self.unix_ms);
        out.push_str(",\"source\":\"");
        escape(&self.source, &mut out);
        out.push_str("\",\"verdict\":\"");
        escape(&self.verdict, &mut out);
        out.push('"');
        let opt = |out: &mut String, key: &str, v: Option<u64>| {
            match v {
                Some(v) => {
                    let _ = write!(out, ",\"{key}\":{v}");
                }
                None => {
                    let _ = write!(out, ",\"{key}\":null");
                }
            };
        };
        opt(&mut out, "expected", self.expected);
        opt(&mut out, "module", self.module);
        let _ = write!(out, ",\"vote_fraction\":{}", fmt_f64(self.vote_fraction));
        let _ = write!(out, ",\"confidence\":{}", fmt_f64(self.confidence));
        let _ = write!(out, ",\"observations\":{}", self.observations);
        opt(&mut out, "reports_to_verdict", self.reports_to_verdict);
        out.push_str(",\"policy\":\"");
        escape(&self.policy, &mut out);
        out.push_str("\",\"precision\":\"");
        escape(&self.precision, &mut out);
        out.push_str("\"}");
        out
    }
}

/// Non-finite values would be invalid JSON; clamp like the metrics
/// formats do.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One ring slot: an [`AuditEvent`] without its `seq` (the ring
/// position implies it), with its three options as bare values plus a
/// presence mask, and with its four strings concatenated into one
/// allocation, the event's only heap block.
#[derive(Debug)]
struct Packed {
    unix_ms: u64,
    vote_fraction: f64,
    confidence: f64,
    observations: u64,
    /// `expected`, `module` and `reports_to_verdict`, `0` when `None`.
    opts: [u64; 3],
    /// Bit `i` set when `opts[i]` is `Some`.
    present: u8,
    /// `source`, `verdict`, `policy` and `precision`, back to back.
    names: Box<str>,
    /// Where `verdict`, `policy` and `precision` start in `names`.
    splits: [u32; 3],
}

impl Packed {
    /// # Panics
    ///
    /// When the four strings together exceed 4 GiB.
    fn new(e: &AuditEvent) -> Packed {
        let rest = [&e.verdict, &e.policy, &e.precision];
        let len = e.source.len() + e.verdict.len() + e.policy.len() + e.precision.len();
        let mut names = String::with_capacity(len);
        names.push_str(&e.source);
        let mut splits = [0u32; 3];
        for (split, part) in splits.iter_mut().zip(rest) {
            *split = u32::try_from(names.len()).expect("audit strings fit in 4 GiB");
            names.push_str(part);
        }
        let opts = [e.expected, e.module, e.reports_to_verdict];
        Packed {
            unix_ms: e.unix_ms,
            vote_fraction: e.vote_fraction,
            confidence: e.confidence,
            observations: e.observations,
            opts: opts.map(|o| o.unwrap_or(0)),
            present: (0..3).fold(0, |bits, i| bits | u8::from(opts[i].is_some()) << i),
            names: names.into_boxed_str(),
            splits,
        }
    }

    fn event(&self, seq: u64) -> AuditEvent {
        let [a, b, c] = self.splits.map(|s| s as usize);
        let n = &self.names;
        let opt = |i: usize| (self.present >> i & 1 != 0).then_some(self.opts[i]);
        AuditEvent {
            seq,
            unix_ms: self.unix_ms,
            source: n[..a].to_string(),
            verdict: n[a..b].to_string(),
            expected: opt(0),
            module: opt(1),
            vote_fraction: self.vote_fraction,
            confidence: self.confidence,
            observations: self.observations,
            reports_to_verdict: opt(2),
            policy: n[b..c].to_string(),
            precision: n[c..].to_string(),
        }
    }
}

struct AuditInner {
    ring: VecDeque<Packed>,
    /// The `seq` of `ring[0]`; slot `i` holds `front_seq + i`.
    front_seq: u64,
    writer: Option<BufWriter<File>>,
}

/// The bounded, thread-safe verdict log. See the module docs
/// for the contract.
pub struct AuditLog {
    inner: Mutex<AuditInner>,
    capacity: usize,
    appended: AtomicU64,
    write_errors: AtomicU64,
}

impl std::fmt::Debug for AuditLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditLog")
            .field("capacity", &self.capacity)
            .field("appended", &self.appended.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AuditLog {
    /// An in-memory-only log retaining the last `capacity` events.
    pub fn new(capacity: usize) -> AuditLog {
        assert!(capacity > 0, "audit ring needs room for at least one event");
        AuditLog {
            inner: Mutex::new(AuditInner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                front_seq: 0,
                writer: None,
            }),
            capacity,
            appended: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// A log that additionally appends every event as one JSONL line to
    /// `path` (created or truncated).
    ///
    /// # Errors
    ///
    /// Returns the file-creation error.
    pub fn with_file(capacity: usize, path: &Path) -> std::io::Result<AuditLog> {
        let log = AuditLog::new(capacity);
        let file = File::create(path)?;
        log.inner.lock().unwrap_or_else(|p| p.into_inner()).writer = Some(BufWriter::new(file));
        Ok(log)
    }

    /// Appends one event, assigning its `seq`, and returns that
    /// sequence number. Pops the oldest ring entry when full; file
    /// write failures are counted in [`AuditLog::write_errors`] rather
    /// than surfaced.
    ///
    /// # Panics
    ///
    /// When the event's four strings together exceed 4 GiB.
    pub fn append(&self, mut event: AuditEvent) -> u64 {
        // Packed before the lock: the copy stays out of the critical
        // section, and its one panic cannot leave a seq without a slot.
        let packed = Packed::new(&event);
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let seq = self.appended.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        if let Some(w) = inner.writer.as_mut() {
            let line = event.to_json();
            if w.write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .is_err()
            {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.front_seq += 1;
        }
        inner.ring.push_back(packed);
        seq
    }

    /// Total events ever appended (not capped by the ring capacity).
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// File write failures so far (0 when no file is configured).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// The last `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<AuditEvent> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let skip = inner.ring.len().saturating_sub(n);
        inner
            .ring
            .iter()
            .zip(inner.front_seq..)
            .skip(skip)
            .map(|(packed, seq)| packed.event(seq))
            .collect()
    }

    /// Flushes the JSONL writer, if any (call on shutdown and on the
    /// metrics-emission cadence).
    pub fn flush(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(w) = inner.writer.as_mut() {
            if w.flush().is_err() {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn event(source: &str) -> AuditEvent {
        AuditEvent {
            seq: 0,
            unix_ms: 1_700_000_000_000,
            source: source.to_string(),
            verdict: "accept".to_string(),
            expected: Some(3),
            module: Some(3),
            vote_fraction: 0.875,
            confidence: 0.91,
            observations: 16,
            reports_to_verdict: Some(9),
            policy: "confidence".to_string(),
            precision: "f32".to_string(),
        }
    }

    #[test]
    fn events_render_parseable_json_with_nulls() {
        let mut e = event("aa:bb:cc:dd:ee:ff");
        e.expected = None;
        e.reports_to_verdict = None;
        let v = JsonValue::parse(&e.to_json()).expect("audit json");
        assert_eq!(v.get("source").unwrap().as_str(), Some("aa:bb:cc:dd:ee:ff"));
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("accept"));
        assert_eq!(v.get("vote_fraction").unwrap().as_f64(), Some(0.875));
        assert!(v.get("expected").unwrap().as_f64().is_none()); // null
        assert!(v.get("reports_to_verdict").is_some());
    }

    #[test]
    fn ring_assigns_seq_and_caps_memory() {
        let log = AuditLog::new(4);
        for i in 0..10 {
            let seq = log.append(event(&format!("dev-{i}")));
            assert_eq!(seq, i);
        }
        assert_eq!(log.appended(), 10);
        let tail = log.tail(100);
        assert_eq!(tail.len(), 4); // capacity, not appended
        assert_eq!(tail.first().unwrap().seq, 6);
        assert_eq!(tail.last().unwrap().seq, 9);
        // tail(n) returns the newest n, oldest first.
        let two = log.tail(2);
        assert_eq!(two.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn file_sink_writes_one_parseable_line_per_event() {
        let dir = std::env::temp_dir().join("deepcsi-audit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("audit-{}.jsonl", std::process::id()));
        let log = AuditLog::with_file(8, &path).expect("create audit file");
        for i in 0..5 {
            log.append(event(&format!("dev-{i}")));
        }
        log.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let v = JsonValue::parse(line).expect("jsonl line");
            assert_eq!(v.get("seq").unwrap().as_f64(), Some(i as f64));
        }
        assert_eq!(log.write_errors(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_appends_never_skip_or_reuse_a_seq() {
        let log = std::sync::Arc::new(AuditLog::new(64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    log.append(event(&format!("t{t}-{i}")));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.appended(), 200);
        let tail = log.tail(64);
        assert_eq!(tail.len(), 64);
        // Ring order is append order: seqs are strictly increasing.
        assert!(tail.windows(2).all(|w| w[0].seq < w[1].seq));
        // ... and gapless, ending at the last one assigned.
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (136..200).collect::<Vec<_>>());
    }

    /// Asserts `got == want` with `confidence` compared bit for bit,
    /// so a NaN round-trips as the same NaN.
    fn assert_same(got: &AuditEvent, want: &AuditEvent) {
        assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
        let (mut got, mut want) = (got.clone(), want.clone());
        got.confidence = 0.0;
        want.confidence = 0.0;
        assert_eq!(got, want);
    }

    #[test]
    fn tail_rebuilds_every_field_after_the_ring_wraps() {
        let mut events = vec![event("aa:bb:cc:dd:ee:ff")];
        let mut e = event("");
        e.verdict.clear();
        e.policy.clear();
        e.precision.clear();
        events.push(e);
        let mut e = event("Zürich-äp-😀");
        e.verdict = "rejét".into();
        e.policy = "ポリシー".into();
        e.precision = "ınt8".into();
        events.push(e);
        let mut e = event(&"x".repeat(100_000));
        e.expected = None;
        e.module = None;
        e.reports_to_verdict = None;
        e.confidence = f64::NAN;
        e.vote_fraction = -0.0;
        e.observations = u64::MAX;
        e.unix_ms = u64::MAX;
        events.push(e);
        let mut e = event("tail");
        e.confidence = f64::from_bits(0x7ff8_dead_beef_0001); // a NaN with a payload
        e.expected = Some(u64::MAX);
        events.push(e);

        // Capacity 3 over 2 + 5 + 5 appends: the ring wraps several
        // times, and the last three appends are the last three events.
        let log = AuditLog::new(3);
        for e in events.iter().take(2).chain(&events).chain(&events) {
            log.append(e.clone());
        }
        assert_eq!(log.appended(), 12);
        let tail = log.tail(10);
        assert_eq!(tail.len(), 3);
        for (i, (got, want)) in tail.iter().zip(&events[2..]).enumerate() {
            let mut want = want.clone();
            want.seq = 9 + i as u64;
            assert_same(got, &want);
        }
    }

    /// The ring's per-event footprint: the record stays within 88 B
    /// inline, and its one heap block (`names`, the record's only
    /// owning field) holds exactly the four strings' bytes.
    #[test]
    fn a_ring_slot_is_88_bytes_and_one_exact_allocation() {
        assert!(std::mem::size_of::<Packed>() <= 88);
        let e = event("aa:bb:cc:dd:ee:ff");
        let packed = Packed::new(&e);
        let total = e.source.len() + e.verdict.len() + e.policy.len() + e.precision.len();
        assert_eq!(packed.names.len(), total);
        assert_eq!(packed.event(5), AuditEvent { seq: 5, ..e });
    }
}
