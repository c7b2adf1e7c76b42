//! `obs-check` — validates observability artifacts without a browser or
//! a Prometheus server in the loop.
//!
//! ```text
//! obs-check [--prom FILE]... [--trace FILE]... [--audit FILE]...
//!           [--scrape ADDR]... [--scrape-timeout SECS]
//! ```
//!
//! Each `--prom` file must parse as Prometheus text exposition with at
//! least one sample and no NaNs; each `--trace` file must parse as a
//! Chrome `trace_event` document; each `--audit` file must hold at
//! least one JSONL line, every line a JSON object, whose `seq`s run
//! 0, 1, 2, … with no gap. Exits 1 naming the first offending file.
//! CI points this at what `deepcsi-served
//! --metrics-file/--trace-file/--audit-file` wrote.
//!
//! `--scrape ADDR` validates a *live* observability plane over loopback
//! instead of (or in addition to) files: it retries `/readyz` until the
//! plane answers 200 (up to `--scrape-timeout` seconds), then
//! fetches `/metrics` (must parse as Prometheus text with samples),
//! `/healthz` (must be JSON with a `state`), `/stats.json` (JSON
//! object) and `/audit/tail?n=5` (JSON array). CI points this at a
//! backgrounded `deepcsi-served --obs-listen ADDR --obs-linger SECS`.
//!
//! The command line parses through a [`Flags`] table like every other
//! binary's: `--help` prints it and exits 0, and an unknown flag, a
//! missing value or no check at all exits 2.

use deepcsi_obs::{http_get, parse_chrome_trace, parse_prometheus, Arg, Flag, Flags, JsonValue};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every flag: `(flag, what it takes, help)`.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--prom", Arg::Value, "Prometheus text file to check (repeatable)"),
    ("--trace", Arg::Value, "Chrome trace JSON to check (repeatable)"),
    ("--audit", Arg::Value, "JSONL audit trail to check for a gapless seq (repeatable)"),
    ("--scrape", Arg::Value, "live plane address to check (repeatable)"),
    ("--scrape-timeout", Arg::Default("30"), "seconds to wait for /readyz"),
];

/// Checks a JSONL audit trail: at least one line, each a JSON object
/// whose `seq` is its line index. Returns the event count.
fn check_audit(text: &str) -> Result<usize, String> {
    let mut events = 0;
    for (i, line) in text.lines().enumerate() {
        let at = i + 1;
        let event = JsonValue::parse(line).map_err(|e| format!("line {at}: {e}"))?;
        if !matches!(event, JsonValue::Object(_)) {
            return Err(format!("line {at}: not a JSON object"));
        }
        match event.get("seq").and_then(JsonValue::as_f64) {
            Some(seq) if seq == i as f64 => events += 1,
            Some(seq) => return Err(format!("line {at}: seq {seq}, expected {i}")),
            None => return Err(format!("line {at}: no numeric seq")),
        }
    }
    if events == 0 {
        return Err("no events".to_string());
    }
    Ok(events)
}

/// Polls `/readyz` until the plane answers 200, then validates every
/// scrape endpoint with the same parsers the file checks use. Returns
/// an error string naming the first failing endpoint.
fn check_scrape(addr: &str, timeout: Duration) -> Result<(), String> {
    let per_request = Duration::from_secs(5).min(timeout);
    // The served process may still be training/loading its model when
    // CI launches the check — wait for readiness, not just for bind.
    let deadline = Instant::now() + timeout;
    loop {
        match http_get(addr, "/readyz", per_request) {
            Ok((200, _)) => break,
            Ok((status, _)) if Instant::now() >= deadline => {
                return Err(format!("/readyz still {status} after {timeout:?}"));
            }
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("/readyz unreachable after {timeout:?}: {e}"));
            }
            _ => std::thread::sleep(Duration::from_millis(200)),
        }
    }
    println!("obs-check: {addr}: /readyz ok");

    let get = |path: &str| -> Result<String, String> {
        match http_get(addr, path, per_request) {
            Ok((200, body)) => Ok(body),
            Ok((status, body)) => Err(format!("{path}: status {status}: {body}")),
            Err(e) => Err(format!("{path}: {e}")),
        }
    };

    let metrics = get("/metrics")?;
    match parse_prometheus(&metrics) {
        Ok(samples) if samples.is_empty() => return Err("/metrics: no samples".to_string()),
        Ok(samples) => println!("obs-check: {addr}: /metrics {} samples ok", samples.len()),
        Err(e) => return Err(format!("/metrics: {e}")),
    }

    let healthz = get("/healthz")?;
    let health = JsonValue::parse(&healthz).map_err(|e| format!("/healthz: {e}"))?;
    let state = health
        .get("state")
        .and_then(|v| v.as_str().map(str::to_string))
        .ok_or_else(|| format!("/healthz: no state in {healthz}"))?;
    println!("obs-check: {addr}: /healthz state {state} ok");

    let stats = get("/stats.json")?;
    let parsed = JsonValue::parse(&stats).map_err(|e| format!("/stats.json: {e}"))?;
    if parsed.get("deepcsi_ingested_total").is_none() {
        return Err(format!("/stats.json: no deepcsi_ingested_total in {stats}"));
    }
    println!("obs-check: {addr}: /stats.json ok");

    let tail = get("/audit/tail?n=5")?;
    let events = JsonValue::parse(&tail)
        .map_err(|e| format!("/audit/tail: {e}"))?
        .as_array()
        .map(<[JsonValue]>::len)
        .ok_or_else(|| format!("/audit/tail: not an array: {tail}"))?;
    println!("obs-check: {addr}: /audit/tail {events} event(s) ok");
    Ok(())
}

/// Runs every check the command line asks for, stopping at the first
/// failure; returns how many ran.
fn run_checks(f: &Flags) -> Result<usize, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let mut checked = 0;
    for path in f.all("--prom") {
        let samples = parse_prometheus(&read(&path)?).map_err(|e| format!("{path}: {e}"))?;
        if samples.is_empty() {
            return Err(format!("{path}: no samples"));
        }
        println!("obs-check: {path}: {} samples ok", samples.len());
        checked += 1;
    }
    for path in f.all("--trace") {
        let spans = parse_chrome_trace(&read(&path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("obs-check: {path}: {} spans ok", spans.len());
        checked += 1;
    }
    for path in f.all("--audit") {
        let events = check_audit(&read(&path)?).map_err(|e| format!("{path}: {e}"))?;
        println!("obs-check: {path}: {events} events, seq gapless ok");
        checked += 1;
    }
    let timeout = Duration::from_secs(f.value("--scrape-timeout"));
    for addr in f.all("--scrape") {
        check_scrape(&addr, timeout).map_err(|e| format!("{addr}: {e}"))?;
        checked += 1;
    }
    Ok(checked)
}

fn main() -> ExitCode {
    let f = Flags::from_env(FLAGS);
    match run_checks(&f) {
        Ok(0) => {
            Flags::die("obs-check: nothing to check: give --prom, --trace, --audit or --scrape")
        }
        Ok(checked) => {
            println!("obs-check: {checked} check(s) ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs-check: {e}");
            ExitCode::FAILURE
        }
    }
}
