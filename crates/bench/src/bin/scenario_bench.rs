//! Channel-resilience scenario matrix: drives every decision policy
//! through the serve engine under the `crates/scenario` condition axes
//! (cross-position, mid-stream re-draw, mobility, SNR sweep,
//! interference bursts, multi-day drift), with and without the two
//! mitigations (training-time channel augmentation, per-position
//! calibration).
//!
//! Emits machine-readable `RESULT scenarios <key> <value>` lines that
//! `run_all` collects into `bench_results/BENCH_scenarios.json` — the
//! headline numbers being `accuracy_floor_unmitigated` vs
//! `accuracy_floor_mitigated` (the cross-scenario worst-case top-1),
//! and `mitigation_never_worse` pinning that augmentation never drops
//! any scenario below the unmitigated floor.

use deepcsi_bench::{result_line, TINY_FLAGS};
use deepcsi_obs::Flags;
use deepcsi_scenario::{MatrixConfig, ScenarioMatrix};

fn main() {
    let tiny = Flags::from_env(TINY_FLAGS).has("--tiny");

    let matrix = if tiny {
        ScenarioMatrix::tiny()
    } else {
        ScenarioMatrix::standard(MatrixConfig::default())
    };
    result_line("scenarios", "axes", matrix.scenarios.len() as f64);
    result_line("scenarios", "policies", matrix.policies.len() as f64);

    let report = matrix.run();
    result_line("scenarios", "cells", report.cells.len() as f64);

    println!("\n{:<16} {:<6} {:>6}", "scenario", "arm", "top1");
    for acc in &report.accuracies {
        let arm = if acc.augmentation { "aug" } else { "base" };
        println!("{:<16} {:<6} {:>5.1}%", acc.scenario, arm, acc.top1 * 100.0);
        let key = format!(
            "acc_{}_{}",
            acc.scenario,
            if acc.augmentation {
                "augmented"
            } else {
                "unaugmented"
            }
        );
        result_line("scenarios", &key, acc.top1);
    }

    println!(
        "\n{:<16} {:<12} {:<16} {:>7} {:>8} {:>8}",
        "scenario", "policy", "arm", "accept", "imp_rej", "rtv_p50"
    );
    for cell in &report.cells {
        let arm = cell.mitigations.label();
        println!(
            "{:<16} {:<12} {:<16} {:>6.0}% {:>7.0}% {:>8}",
            cell.scenario,
            cell.policy.to_string(),
            arm,
            cell.genuine_accept_rate * 100.0,
            cell.impostor_reject_rate * 100.0,
            cell.reports_to_verdict_p50
                .map_or("n/a".into(), |v| v.to_string()),
        );
        let stem = format!("{}_{}_{arm}", cell.scenario, cell.policy);
        result_line(
            "scenarios",
            &format!("{stem}_accept_rate"),
            cell.genuine_accept_rate,
        );
        result_line(
            "scenarios",
            &format!("{stem}_impostor_reject"),
            cell.impostor_reject_rate,
        );
        if let Some(p50) = cell.reports_to_verdict_p50 {
            result_line("scenarios", &format!("{stem}_rtv_p50"), p50 as f64);
        }
    }

    if let Some(floor) = report.accuracy_floor(false) {
        result_line("scenarios", "accuracy_floor_unmitigated", floor);
    }
    if let Some(floor) = report.accuracy_floor(true) {
        result_line("scenarios", "accuracy_floor_mitigated", floor);
    }
    let never_worse = report.mitigation_never_worse();
    result_line(
        "scenarios",
        "mitigation_never_worse",
        f64::from(u8::from(never_worse)),
    );
    println!(
        "\ncross-scenario accuracy floor: unmitigated {:?}, mitigated {:?}, never worse: {never_worse}",
        report.accuracy_floor(false),
        report.accuracy_floor(true),
    );
    assert!(
        never_worse,
        "channel augmentation dropped a scenario below the unmitigated floor"
    );
}
