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
