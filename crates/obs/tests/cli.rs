//! `obs-check` parses its command line against a flag table, like every
//! other binary of the workspace: a misspelled flag or a command line
//! with nothing to check exits 2 (a usage error), `--help` exits 0, and
//! only a check that ran and failed exits 1.

use std::process::{Command, Output, Stdio};

fn obs_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs-check"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run obs-check")
}

#[test]
fn a_misspelled_flag_exits_2_and_checks_nothing() {
    let out = obs_check(&["--papr"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--papr"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn help_lists_each_declared_flag_once() {
    let out = obs_check(&["--help"]);
    assert!(out.status.success(), "{out:?}");
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.starts_with("usage: obs-check "), "{usage}");
    let flags = [
        "--prom ",
        "--trace ",
        "--audit ",
        "--scrape ",
        "--scrape-timeout ",
    ];
    for flag in flags {
        assert_eq!(usage.matches(flag).count(), 1, "{usage}");
    }
    assert_eq!(usage.lines().count(), 1 + flags.len(), "{usage}");
    assert!(usage.contains("(default 30)"), "{usage}");
}

#[test]
fn nothing_to_check_is_a_usage_error() {
    for args in [&[][..], &["--scrape-timeout", "5"]] {
        let out = obs_check(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn a_failed_check_exits_1_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("deepcsi-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (good, bad) = (dir.join("good.prom"), dir.join("bad.prom"));
    std::fs::write(&good, "deepcsi_up 1\n").unwrap();
    std::fs::write(&bad, "# no samples\n").unwrap();
    let (good, bad) = (good.to_str().unwrap(), bad.to_str().unwrap());
    let out = obs_check(&["--prom", good, "--prom", bad]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad.prom"),
        "{out:?}"
    );
    let out = obs_check(&["--prom", good]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_audit_trail_passes_only_with_a_gapless_seq() {
    let dir = std::env::temp_dir().join(format!("deepcsi-obs-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let line = |seq: u64| format!("{{\"seq\":{seq},\"source\":\"aa:bb:cc:dd:ee:ff\"}}\n");
    let (good, gap) = (dir.join("good.jsonl"), dir.join("gap.jsonl"));
    std::fs::write(&good, [0, 1, 2].map(line).concat()).unwrap();
    std::fs::write(&gap, [0, 1, 3].map(line).concat()).unwrap();
    let (good, gap) = (good.to_str().unwrap(), gap.to_str().unwrap());
    let out = obs_check(&["--audit", good]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("3 events"),
        "{out:?}"
    );
    let out = obs_check(&["--audit", gap]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("gap.jsonl") && stderr.contains("line 3: seq 3, expected 2"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
