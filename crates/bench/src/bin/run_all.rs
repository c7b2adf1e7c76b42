//! Runs every figure binary in sequence and collects the `RESULT` lines
//! into `bench_results/summary.txt`.
//! Also runs the benches whose rows the repo benchmark (`benchmark/`)
//! does not report — the observability overhead sweep, the scenario
//! matrix and the cluster tier (`obs_bench`, `scenario_bench`,
//! `cluster_bench`) — and emits their numbers as `BENCH_<tag>.json`
//! (schema documented in `crates/bench/README.md`).

use deepcsi_bench::{PAPER_FLAGS, SCALE_FLAGS, TINY_FLAGS};
use deepcsi_serve::{Flag, Flags};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every figure binary, with the flag table it parses.
const FIGURES: &[(&str, &[Flag])] = &[
    ("fig07_hyperparams", SCALE_FLAGS),
    ("fig08_static_sets", SCALE_FLAGS),
    ("fig09_mixed_beamformees", SCALE_FLAGS),
    ("fig10_training_positions", SCALE_FLAGS),
    ("fig11_swap_beamformees", SCALE_FLAGS),
    ("fig12_phy_params", SCALE_FLAGS),
    ("fig13_quant_error", PAPER_FLAGS),
    ("fig14_v_evolution", &[]),
    ("fig15_stream1", SCALE_FLAGS),
    ("fig16_offset_correction", SCALE_FLAGS),
    ("fig17_mobility", SCALE_FLAGS),
];

/// Every bench binary (all parse [`TINY_FLAGS`]), with its `RESULT` tag.
const BENCHES: &[(&str, &str)] = &[
    ("obs_bench", "obs"),
    ("scenario_bench", "scenarios"),
    ("cluster_bench", "cluster"),
];

fn main() {
    let flags = Flags::from_env(SCALE_FLAGS);
    // Each child gets only the flags it declares: `--paper` means
    // nothing to a bench, `--tiny` nothing to `fig13_quant_error`.
    let forward = |table: &[Flag]| -> Vec<&'static str> {
        table
            .iter()
            .map(|(name, ..)| *name)
            .filter(|name| flags.has(name))
            .collect()
    };
    let exe_dir: PathBuf = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    let out_dir = PathBuf::from("bench_results");
    std::fs::create_dir_all(&out_dir).expect("create bench_results/");
    let mut summary = String::new();

    for &(fig, table) in FIGURES {
        let bin = exe_dir.join(fig);
        println!("\n================ {fig} ================");
        let start = std::time::Instant::now();
        let output = Command::new(&bin)
            .args(forward(table))
            .output()
            .unwrap_or_else(|e| panic!("failed to run {}: {e}", bin.display()));
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            eprintln!("{fig} FAILED: {}", String::from_utf8_lossy(&output.stderr));
        }
        std::fs::write(out_dir.join(format!("{fig}.txt")), stdout.as_bytes())
            .expect("write figure log");
        for line in stdout.lines() {
            if line.starts_with("RESULT ") {
                summary.push_str(line);
                summary.push('\n');
            }
        }
        println!("[{fig} finished in {:.1?}]", start.elapsed());
    }

    std::fs::write(out_dir.join("summary.txt"), &summary).expect("write summary");
    println!(
        "\nwrote bench_results/summary.txt ({} result lines)",
        summary.lines().count()
    );

    for &(bin_name, tag) in BENCHES {
        run_result_bench(&exe_dir, &forward(TINY_FLAGS), &out_dir, bin_name, tag);
    }
}

/// Runs one bench binary and writes its `RESULT <tag> <key> <value>`
/// lines to `BENCH_<tag>.json`.
fn run_result_bench(exe_dir: &Path, forwarded: &[&str], out_dir: &Path, bin_name: &str, tag: &str) {
    let bin = exe_dir.join(bin_name);
    println!("\n================ {bin_name} ================");
    let start = std::time::Instant::now();
    let output = Command::new(&bin)
        .args(forwarded)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {}: {e}", bin.display()));
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!(
            "{bin_name} FAILED: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    std::fs::write(out_dir.join(format!("{bin_name}.txt")), stdout.as_bytes())
        .expect("write bench log");

    let mut entries = Vec::new();
    for line in stdout.lines() {
        // RESULT <tag> <key> <value>
        let mut parts = line.split_whitespace();
        if parts.next() != Some("RESULT") || parts.next() != Some(tag) {
            continue;
        }
        if let (Some(key), Some(value)) = (parts.next(), parts.next()) {
            // Only finite numbers make valid JSON ("inf"/"NaN" parse as
            // f64 but are not JSON values).
            if value.parse::<f64>().map(f64::is_finite).unwrap_or(false) {
                entries.push(format!("  \"{key}\": {value}"));
            }
        }
    }
    let json = format!("{{\n{}\n}}\n", entries.join(",\n"));
    let path = out_dir.join(format!("BENCH_{tag}.json"));
    std::fs::write(&path, &json).expect("write bench json");
    println!(
        "wrote {} ({} metrics) [{:.1?}]",
        path.display(),
        entries.len(),
        start.elapsed()
    );
}
