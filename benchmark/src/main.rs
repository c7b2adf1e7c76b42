//! The repo benchmark. See `README.md` for every metric and workload.
//!
//! ```text
//! deepcsi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! deepcsi-benchmark run   [--seed n] [--seconds s] [--runs k] [--smoke]
//! deepcsi-benchmark trace [--seed n] [--seconds s]
//! deepcsi-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload and ends with one JSON line; it
//! is what `BENCHMARK.json` names. `run` and `trace` call it once per
//! workload in a child process each (so `peak_rss_mib` is per workload)
//! and write `out/results.json` / `out/layers.json`.

mod compare;
mod fixture;
mod layers;
mod spec;
mod stats;
mod trace;
mod walk;
mod workloads;

use crate::fixture::Fixture;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{iqr_share, median};
use crate::trace::{layer_times, self_times, write_chrome_trace, SpanBuf};
use crate::walk::{walk, WalkInput};
use crate::workloads::{
    walk_case, RunOpts, RunReport, Segment, Workload, LATENCY_LIMIT_MS, SAMPLE,
};
use deepcsi_obs::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// `benchmark/out`, inside the checkout the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: deepcsi-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      deepcsi-benchmark run   [--seed n] [--seconds s] [--runs k] [--smoke]\n\
         \x20      deepcsi-benchmark trace [--seed n] [--seconds s]\n\
         \x20      deepcsi-benchmark compare <a.json> <b.json>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare words, in order.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Option<Args> {
        let mut parsed = Args {
            flags: BTreeMap::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => {
                    parsed.flags.insert("smoke".into(), "1".into());
                }
                Some(key) => {
                    parsed.flags.insert(key.to_string(), args.next()?);
                }
                None => parsed.words.push(arg),
            }
        }
        Some(parsed)
    }

    fn number(&self, key: &str, default: f64) -> Option<f64> {
        match self.flags.get(key) {
            Some(v) => v.parse().ok().filter(|n: &f64| n.is_finite() && *n >= 0.0),
            None => Some(default),
        }
    }
}

fn main() -> ExitCode {
    let Some(args) = Args::parse(std::env::args().skip(1)) else {
        return usage();
    };
    let spec = Spec::load();
    let (Some(seconds), Some(runs)) = (
        args.number("seconds", spec.run_seconds),
        args.number("runs", 1.0),
    ) else {
        return usage();
    };
    // Any seed string is a seed: a number is itself, anything else its hash.
    let seed = args.flags.get("seed").map_or(1, |s| {
        s.parse().unwrap_or_else(|_| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
            })
        })
    });
    let smoke = args.flags.contains_key("smoke");
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match (words.as_slice(), args.flags.get("workload")) {
        ([], Some(name)) => {
            let (Some(workload), Some(trace)) = (
                Workload::from_name(name),
                args.flags.get("trace").and_then(|t| match t.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }),
            ) else {
                return usage();
            };
            one_workload(&spec, workload, seed, seconds.max(0.5), trace);
            ExitCode::SUCCESS
        }
        (["run"], None) => suite(
            &spec,
            false,
            seed,
            if smoke { 1.0 } else { seconds },
            runs.max(1.0) as usize,
            !smoke,
        ),
        (["trace"], None) => suite(&spec, true, seed, seconds, 1, true),
        (["compare", a, b], None) => compare::run(&spec, Path::new(a), Path::new(b)),
        _ => usage(),
    }
}

// ---------------------------------------------------------------------
// one workload, one process: the form BENCHMARK.json names
// ---------------------------------------------------------------------

fn one_workload(spec: &Spec, workload: Workload, seed: u64, seconds: f64, trace: bool) {
    let (values, mut report) = if trace {
        traced(workload, seed, seconds)
    } else {
        untraced(workload, seed, seconds)
    };
    if let Err(e) =
        spec::check_quality(workload, &report.quality, &spec::expected_quality(workload))
    {
        report.errors.push(e);
    }
    for e in &report.errors {
        println!("CHECK {} failed: {e}", workload.name());
    }
    println!(
        "CHECK {} decision_checksum {:016x} over {SAMPLE} reports",
        workload.name(),
        report.decision_checksum
    );
    let listed = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics: Vec<String> = listed
        .iter()
        .map(|m| {
            let (value, spread) = values.get(&m.name).unwrap_or_else(|| {
                panic!(
                    "BENCHMARK.json lists {}, the run did not measure it",
                    m.name
                )
            });
            assert!(value.is_finite(), "{} is not a number: {value}", m.name);
            println!(
                "METRIC {} {} {value} {} spread={spread:.4}",
                workload.name(),
                m.name,
                m.unit
            );
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "METRIC {} failed_share {failed_share} share spread=0.0000",
        workload.name()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// Metric name → (value, spread across the run's segments).
type Values = BTreeMap<String, (f64, f64)>;

fn put(values: &mut Values, name: &str, value: f64) {
    values.insert(name.to_string(), (value, 0.0));
}

fn over_segments(values: &mut Values, name: &str, rows: &[Segment], f: fn(&Segment) -> f64) {
    let v: Vec<f64> = rows.iter().map(f).collect();
    values.insert(name.to_string(), (median(&v), iqr_share(&v)));
}

/// The end-to-end metrics of one untraced run.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> (Values, RunReport) {
    let report = workloads::run(
        workload,
        RunOpts {
            seed,
            seconds,
            trace: false,
        },
    );
    let mut v = Values::new();
    let rows = &report.segments;
    over_segments(&mut v, "reports_per_s", rows, |s| s.reports_per_s);
    over_segments(&mut v, "latency_p50_ms", rows, |s| s.latency_p50_ms);
    over_segments(&mut v, "latency_p90_ms", rows, |s| s.latency_p90_ms);
    over_segments(&mut v, "deadline_met_share", rows, |s| s.deadline_met_share);
    over_segments(&mut v, "cpu_ms_per_report", rows, |s| s.cpu_ms_per_report);
    v.insert(
        "setup_s".to_string(),
        (median(&report.setup_s), iqr_share(&report.setup_s)),
    );
    put(&mut v, "peak_rss_mib", report.peak_rss_mib);
    put(
        &mut v,
        "wire_bytes_per_report",
        report.wire_bytes_per_report,
    );
    let q = &report.quality;
    put(&mut v, "reports_to_verdict_p50", q.reports_to_verdict_p50);
    put(&mut v, "accept_share", q.accept_share);
    put(&mut v, "impostor_reject_share", q.impostor_reject_share);
    let samples: Vec<usize> = rows.iter().map(|s| s.samples).collect();
    println!(
        "NOTE {} latency samples per segment {samples:?}; generator lateness p99 {:.3} ms",
        workload.name(),
        report.gen_lateness_ms_p99
    );
    (v, report)
}

/// The per-layer metrics of one traced run: the layer measurements, the
/// stage walk with spans on and off, and a short run of the workload for
/// the counters only the running system has.
fn traced(workload: Workload, seed: u64, seconds: f64) -> (Values, RunReport) {
    let mut v = Values::new();
    let fixture = Fixture::build();
    let window = Duration::from_secs_f64(seconds / 400.0);
    let named: Vec<(String, f64)> = layers::measure(&fixture, seed, window, &out_dir());

    let case = walk_case(workload, &fixture, seed);
    let report = workloads::run(
        workload,
        RunOpts {
            seed,
            seconds: seconds / 2.0,
            trace: true,
        },
    );
    let input = WalkInput {
        ingress: case.ingress,
        auth: &case.auth,
        batch: (report.serve.mean_batch.round() as usize).max(1),
        decision: case.decision,
        registry: &case.registry,
    };
    // The stage walk, alternating spans off and on.
    let (mut dark, mut lit) = (Vec::new(), Vec::new());
    let mut spans = SpanBuf::new(0, false);
    for _ in 0..3 {
        dark.push(walk(&input, &mut SpanBuf::new(0, false)).wall.as_secs_f64());
        spans = SpanBuf::new(8 * SAMPLE, true);
        lit.push(walk(&input, &mut spans).wall.as_secs_f64());
    }
    std::fs::create_dir_all(out_dir()).expect("create the benchmark's out directory");
    let path = out_dir().join(format!("trace_{}.json", workload.name()));
    let file = std::fs::File::create(&path).expect("create trace file");
    write_chrome_trace(std::io::BufWriter::new(file), spans.spans()).expect("write trace");

    let by_name = self_times(spans.spans());
    let by_layer = layer_times(&by_name);
    let total: u64 = by_layer.values().sum();
    println!(
        "SELF-TIME {} ({} reports, batches of {})",
        workload.name(),
        SAMPLE,
        input.batch
    );
    for (name, ns) in &by_name {
        println!(
            "SELF-TIME {} {name:<22} {:>9.2} us/report {:>6.2} %",
            workload.name(),
            *ns as f64 / 1e3 / SAMPLE as f64,
            100.0 * *ns as f64 / total as f64
        );
    }
    for layer in [
        "capture", "frame", "bfi", "data", "nn", "serve", "obs", "cluster",
    ] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        put(
            &mut v,
            &format!("walk.share.{layer}"),
            ns as f64 / total as f64,
        );
    }
    put(
        &mut v,
        "trace.overhead_share",
        median(&lit) / median(&dark) - 1.0,
    );
    let walk_ms_per_report = total as f64 / 1e6 / SAMPLE as f64;
    put(&mut v, "walk.ms_per_report", walk_ms_per_report);

    let s = &report.serve;
    let cpu = report.segments.first().map_or(0.0, |r| r.cpu_ms_per_report);
    for (name, value) in [
        ("serve.mean_batch", s.mean_batch),
        ("serve.batches", s.batches),
        ("serve.queue_wait_ms_p50", s.queue_wait_ms_p50),
        ("serve.queue_wait_ms_p99", s.queue_wait_ms_p99),
        ("serve.batch_latency_ms_p50", s.batch_latency_ms_p50),
        ("serve.dropped", s.dropped),
        ("serve.rejected", s.rejected),
        ("serve.decode_errors", s.decode_errors),
        ("serve.device_states", s.device_states),
        ("serve.devices_evicted", s.devices_evicted),
        ("serve.devices_rewarmed", s.devices_rewarmed),
        ("serve.stage_us_per_report.decode", s.stage_us_per_report[0]),
        (
            "serve.stage_us_per_report.tensorize",
            s.stage_us_per_report[1],
        ),
        ("serve.stage_us_per_report.infer", s.stage_us_per_report[2]),
        (
            "serve.stage_us_per_report.policy_apply",
            s.stage_us_per_report[3],
        ),
        ("cluster.drain_ms", s.cluster_drain_ms),
        ("cluster.busy", s.cluster_busy),
        ("cluster.dropped", s.cluster_dropped),
        ("cluster.rejected", s.cluster_rejected),
        // What no public call explains: queues, wake-ups, locks. Not
        // defined on the paced run, whose CPU time includes the
        // generator's polling.
        (
            "serve.engine_overhead_share",
            if cpu > 0.0 {
                1.0 - walk_ms_per_report / cpu
            } else {
                0.0
            },
        ),
    ] {
        put(&mut v, name, value);
    }
    // The paced steps; zero on the workloads that have none.
    let step = |i: usize| s.steps.get(i).cloned().unwrap_or_default();
    let (low, reference, high) = (step(0), step(1), step(2));
    let sustained = s
        .steps
        .iter()
        .filter(|st| {
            st.failed == 0
                && st.latency_p99_ms <= LATENCY_LIMIT_MS
                && st.backlog_end <= st.backlog_mid + 64
        })
        .map(|st| st.rate)
        .fold(0.0, f64::max);
    for (name, value) in [
        ("serve.paced.latency_p50_ms.low", low.latency_p50_ms),
        ("serve.paced.latency_p99_ms.low", low.latency_p99_ms),
        ("serve.paced.latency_p50_ms.ref", reference.latency_p50_ms),
        ("serve.paced.latency_p99_ms.ref", reference.latency_p99_ms),
        ("serve.paced.latency_p50_ms.high", high.latency_p50_ms),
        ("serve.paced.latency_p99_ms.high", high.latency_p99_ms),
        ("serve.paced.backlog_end.low", low.backlog_end as f64),
        ("serve.paced.backlog_end.ref", reference.backlog_end as f64),
        ("serve.paced.backlog_end.high", high.backlog_end as f64),
        ("serve.paced.failed.high", high.failed as f64),
        (
            "serve.paced.gen_lateness_ms_p99",
            reference.gen_lateness_ms_p99,
        ),
        ("serve.paced.sustained_rate_rps", sustained),
    ] {
        put(&mut v, name, value);
    }
    for (name, value) in named {
        put(&mut v, &name, value);
    }
    (v, report)
}

// ---------------------------------------------------------------------
// the whole suite
// ---------------------------------------------------------------------

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// name → (value, unit, spread within the run)
    metrics: BTreeMap<String, (f64, String, f64)>,
}

fn child_run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Option<ChildRun> {
    let exe = std::env::current_exe().expect("own path");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        println!("{line}");
        let f: Vec<&str> = line.split_whitespace().collect();
        if let ["METRIC", _, name, value, unit, spread] = f.as_slice() {
            metrics.insert(
                name.to_string(),
                (
                    value.parse().ok()?,
                    unit.to_string(),
                    spread.strip_prefix("spread=")?.parse().ok()?,
                ),
            );
        }
    }
    if !output.status.success() {
        return None;
    }
    let last = JsonValue::parse(stdout.lines().last()?).ok()?;
    Some(ChildRun {
        correct: last.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: last.get("attempted")?.as_f64()?,
        failed: last.get("failed")?.as_f64()?,
        metrics,
    })
}

fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    // `-C target-cpu=native` (the repo's .cargo/config.toml) shows as
    // the features the build was allowed to use.
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .iter()
    .filter_map(|(name, on)| on.then_some(*name))
    .collect();
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"target_features\": \"{}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
        features.join(",")
    )
}

/// Runs every workload `runs` times (seeds `seed..seed+runs`), prints
/// every metric, writes the results file and fails if any run did.
fn suite(spec: &Spec, trace: bool, seed: u64, seconds: f64, runs: usize, write: bool) -> ExitCode {
    let listed: &[MetricSpec] = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let done: Vec<ChildRun> = (0..runs as u64)
            .filter_map(|i| child_run(workload, seed + i, seconds, trace))
            .collect();
        let correct = done.len() == runs && done.iter().all(|r| r.correct);
        ok &= correct;
        let mut metrics = Vec::new();
        for m in listed {
            let values: Vec<f64> = done
                .iter()
                .filter_map(|r| r.metrics.get(&m.name))
                .map(|x| x.0)
                .collect();
            // One run: its own segment spread. Several: between runs.
            let spread = match done.as_slice() {
                [only] => only.metrics.get(&m.name).map_or(0.0, |x| x.2),
                _ => iqr_share(&values),
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"spread\": {spread}}}",
                m.name,
                median(&values),
                m.unit
            ));
        }
        let total = |f: fn(&ChildRun) -> f64| done.iter().map(f).sum::<f64>();
        rows.push(format!(
            "\"{}\": {{\"correct\": {correct}, \"runs\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            workload.name(),
            done.len(),
            total(|r| r.attempted),
            total(|r| r.failed),
            metrics.join(", ")
        ));
    }
    if write {
        std::fs::create_dir_all(out_dir()).expect("create the benchmark's out directory");
        let path = out_dir().join(if trace { "layers.json" } else { "results.json" });
        let doc = format!(
            "{{\"host\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"runs\": {runs}, \"workloads\": {{\n{}\n}}}}\n",
            host_fingerprint(),
            rows.join(",\n")
        );
        std::fs::write(&path, doc).expect("write results");
        println!("wrote {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed a correctness check");
        ExitCode::FAILURE
    }
}
