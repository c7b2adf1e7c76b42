//! Runs every figure binary in sequence and collects the `RESULT` lines
//! into `bench_results/summary.txt`. Every child runs even when an
//! earlier one failed; after the sweep `run_all` exits 1 if any child
//! failed.
//! Also runs the benches whose rows the repo benchmark (`benchmark/`)
//! does not report — the observability overhead sweep, the scenario
//! matrix and the cluster tier (`obs_bench`, `scenario_bench`,
//! `cluster_bench`) — and emits their numbers as `BENCH_<tag>.json`
//! (schema documented in `crates/bench/README.md`).

use deepcsi_bench::{PAPER_FLAGS, SCALE_FLAGS, TINY_FLAGS};
use deepcsi_obs::{Flag, Flags};
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
    let mut failed = Vec::new();

    for &(fig, table) in FIGURES {
        let stdout = run_child(&exe_dir, &out_dir, fig, &forward(table), &mut failed);
        for line in stdout.lines().filter(|l| l.starts_with("RESULT ")) {
            summary.push_str(line);
            summary.push('\n');
        }
    }

    std::fs::write(out_dir.join("summary.txt"), &summary).expect("write summary");
    println!(
        "\nwrote bench_results/summary.txt ({} result lines)",
        summary.lines().count()
    );

    for &(bin_name, tag) in BENCHES {
        let stdout = run_child(
            &exe_dir,
            &out_dir,
            bin_name,
            &forward(TINY_FLAGS),
            &mut failed,
        );
        write_bench_json(&out_dir, &stdout, tag);
    }

    if !failed.is_empty() {
        eprintln!(
            "run_all: {} of {} children failed: {}",
            failed.len(),
            FIGURES.len() + BENCHES.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

/// Runs the binary `name` beside this one with `args`, echoes its
/// stdout and writes it to `<out_dir>/<name>.txt`. A child that exits
/// unsuccessfully is reported and pushed onto `failed`, and the sweep
/// goes on; one that cannot start at all (not built) panics.
fn run_child(
    exe_dir: &Path,
    out_dir: &Path,
    name: &'static str,
    args: &[&str],
    failed: &mut Vec<&'static str>,
) -> String {
    let bin = exe_dir.join(name);
    println!("\n================ {name} ================");
    let start = std::time::Instant::now();
    let output = Command::new(&bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {}: {e}", bin.display()));
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        eprintln!("{name} FAILED ({}): {stderr}", output.status);
        failed.push(name);
    }
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    std::fs::write(out_dir.join(format!("{name}.txt")), stdout.as_bytes())
        .expect("write child log");
    println!("[{name} finished in {:.1?}]", start.elapsed());
    stdout
}

/// Writes a bench's `RESULT <tag> <key> <value>` lines to
/// `BENCH_<tag>.json`.
fn write_bench_json(out_dir: &Path, stdout: &str, tag: &str) {
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
    println!("wrote {} ({} metrics)", path.display(), entries.len());
}
