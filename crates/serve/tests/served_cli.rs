//! `deepcsi-served` rejects a bad engine knob before it spends seconds
//! generating a dataset and training a model.

use std::process::{Command, Stdio};

#[test]
fn zero_workers_fail_before_dataset_generation() {
    let out = Command::new(env!("CARGO_BIN_EXE_deepcsi-served"))
        .args(["--workers", "0", "--modules", "2", "--epochs", "1"])
        .stdin(Stdio::null())
        .output()
        .expect("run deepcsi-served");
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
