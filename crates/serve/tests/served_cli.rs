//! `deepcsi-served` rejects a bad engine knob or a zero count before it
//! spends seconds generating a dataset and training a model.

use std::process::{Command, Output, Stdio};

fn served(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepcsi-served"))
        .args(args)
        .args(["--modules", "2", "--epochs", "1"])
        .stdin(Stdio::null())
        .output()
        .expect("run deepcsi-served")
}

#[test]
fn zero_workers_fail_before_dataset_generation() {
    let out = served(&["--workers", "0"]);
    assert!(!out.status.success(), "served must refuse --workers 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("generated synthetic D1"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("need at least one worker"),
        "stderr: {stderr}"
    );
}

/// A zero count is a usage error like any other bad flag: exit 2 with
/// the flag named, not a panic, and no dataset generated first.
#[test]
fn zero_counts_are_usage_errors() {
    for flag in [
        "--calib-samples",
        "--metrics-interval",
        "--trace-sample",
        "--audit-capacity",
    ] {
        let out = served(&[flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} 0: stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("generated synthetic D1"),
            "{flag} 0: stdout: {stdout}"
        );
    }
}
