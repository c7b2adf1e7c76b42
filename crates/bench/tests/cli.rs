//! Every bench binary parses its command line against a flag table: a
//! misspelled flag exits 2 and names the flag before any dataset is
//! generated or any model trained, instead of running at the default
//! scale as if the flag had never been typed.

use std::process::{Command, Stdio};

#[test]
fn a_misspelled_flag_exits_2_and_trains_nothing() {
    for (bin, exe) in [
        ("fig08_static_sets", env!("CARGO_BIN_EXE_fig08_static_sets")),
        ("obs_bench", env!("CARGO_BIN_EXE_obs_bench")),
        ("cluster_bench", env!("CARGO_BIN_EXE_cluster_bench")),
        ("scenario_bench", env!("CARGO_BIN_EXE_scenario_bench")),
        ("run_all", env!("CARGO_BIN_EXE_run_all")),
    ] {
        let out = Command::new(exe)
            .arg("--papr")
            .stdin(Stdio::null())
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e}"));
        assert_eq!(out.status.code(), Some(2), "{bin} --papr: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--papr"), "{bin}: stderr: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} did work before refusing the flag: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn help_lists_each_declared_flag_once() {
    for (bin, exe, flags) in [
        (
            "fig08_static_sets",
            env!("CARGO_BIN_EXE_fig08_static_sets"),
            &["--paper", "--tiny"][..],
        ),
        (
            "fig13_quant_error",
            env!("CARGO_BIN_EXE_fig13_quant_error"),
            &["--paper"],
        ),
        ("obs_bench", env!("CARGO_BIN_EXE_obs_bench"), &["--tiny"]),
        (
            "run_all",
            env!("CARGO_BIN_EXE_run_all"),
            &["--paper", "--tiny"],
        ),
    ] {
        let out = Command::new(exe)
            .arg("--help")
            .output()
            .expect("run --help");
        assert!(out.status.success(), "{bin} --help: {out:?}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with(&format!("usage: {bin} ")), "{usage}");
        for flag in flags {
            assert_eq!(usage.matches(flag).count(), 1, "{bin}: {usage}");
        }
        assert_eq!(usage.lines().count(), 1 + flags.len(), "{bin}: {usage}");
    }
}

/// Every child `run_all` runs, by the file name it looks for beside
/// itself.
const CHILDREN: &[&str] = &[
    "fig07_hyperparams",
    "fig08_static_sets",
    "fig09_mixed_beamformees",
    "fig10_training_positions",
    "fig11_swap_beamformees",
    "fig12_phy_params",
    "fig13_quant_error",
    "fig14_v_evolution",
    "fig15_stream1",
    "fig16_offset_correction",
    "fig17_mobility",
    "obs_bench",
    "scenario_bench",
    "cluster_bench",
];

#[cfg(unix)]
#[test]
fn run_all_finishes_the_sweep_then_exits_non_zero_when_a_child_fails() {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("deepcsi-run-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run_all = dir.join("run_all");
    std::fs::copy(env!("CARGO_BIN_EXE_run_all"), &run_all).unwrap();
    for child in CHILDREN {
        let stub = dir.join(child);
        std::fs::write(&stub, "#!/bin/sh\necho RESULT stub x 1\nexit 1\n").unwrap();
        std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let out = Command::new(&run_all)
        .arg("--tiny")
        .current_dir(&dir)
        .stdin(Stdio::null())
        .output()
        .expect("run the copied run_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        out.status.code().is_some(),
        "run_all died by a signal: {out:?}"
    );
    // Every child ran and was reported, and the summary was still written.
    for child in CHILDREN {
        assert!(stderr.contains(&format!("{child} FAILED")), "{stderr}");
    }
    let summary = std::fs::read_to_string(dir.join("bench_results/summary.txt")).unwrap();
    assert_eq!(summary.lines().count(), 11, "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}
