//! True multi-process integration: spawns real `deepcsi-clusterd`
//! binaries — two engine nodes and a shard router — streams the demo
//! replay through the router with `--compare-local`, and asserts the
//! merged cluster verdicts are byte-identical to a single-process
//! engine. Also exercises snapshot/restore across a process kill and
//! restart.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};

/// Tiny demo config keeps per-process training under a couple seconds.
const DEMO_FLAGS: [&str; 6] = ["--modules", "2", "--snapshots", "10", "--epochs", "1"];

fn clusterd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_deepcsi-clusterd"));
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// A spawned listener process whose `LISTENING <addr>` line has been
/// read back, plus the rest of its pipes for later inspection.
struct Listener {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
    stderr: ChildStderr,
}

impl Listener {
    /// Spawns `deepcsi-clusterd <args...>` and blocks until it prints
    /// `LISTENING <addr>` on stdout.
    #[allow(clippy::zombie_processes)] // reaped via `finish`; panic paths abort the test run
    fn spawn(args: &[&str]) -> Listener {
        let mut child = clusterd().args(args).spawn().expect("spawn clusterd");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let stderr = child.stderr.take().expect("piped stderr");
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read child stdout");
            if n == 0 {
                let status = child.wait().expect("reap exited child");
                panic!("child exited ({status}) before LISTENING (args: {args:?})");
            }
            if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                return Listener {
                    child,
                    addr: addr.to_string(),
                    stdout,
                    stderr,
                };
            }
        }
    }

    /// Waits for exit and returns (success, remaining stdout, stderr).
    fn finish(mut self) -> (bool, String, String) {
        let status = self.child.wait().expect("wait for child");
        let mut out = String::new();
        self.stdout.read_to_string(&mut out).expect("drain stdout");
        let mut err = String::new();
        self.stderr.read_to_string(&mut err).expect("drain stderr");
        (status.success(), out, err)
    }
}

/// Runs `deepcsi-clusterd send <args...>` to completion.
fn send(args: &[&str]) -> (bool, String, String) {
    let out = clusterd().args(args).output().expect("run send");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn two_node_cluster_matches_single_process_across_processes() {
    let node_a = Listener::spawn(
        &[
            &["node", "--listen", "127.0.0.1:0", "--workers", "1"],
            &DEMO_FLAGS[..],
        ]
        .concat(),
    );
    let node_b = Listener::spawn(
        &[
            &["node", "--listen", "127.0.0.1:0", "--workers", "1"],
            &DEMO_FLAGS[..],
        ]
        .concat(),
    );
    let router = Listener::spawn(&[
        "listen",
        "--listen",
        "127.0.0.1:0",
        "--node",
        &node_a.addr,
        "--node",
        &node_b.addr,
    ]);

    let (ok, out, err) = send(
        &[
            &[
                "send",
                "--connect",
                &router.addr,
                "--compare-local",
                "--shutdown",
            ],
            &DEMO_FLAGS[..],
        ]
        .concat(),
    );
    assert!(ok, "send --compare-local failed:\n{out}\n{err}");
    assert!(
        out.contains("compare-local: OK"),
        "expected byte-identical verdicts:\n{out}\n{err}"
    );
    // Block backpressure end to end: nothing dropped, nothing busy.
    assert!(out.contains("dropped 0"), "zero drops expected:\n{out}");
    assert!(out.contains("busy 0"), "zero busy expected:\n{out}");

    // SHUTDOWN fanned out through the router stops every process.
    for (name, listener) in [("router", router), ("node a", node_a), ("node b", node_b)] {
        let (ok, out, err) = listener.finish();
        assert!(ok, "{name} exited non-zero:\n{out}\n{err}");
    }
}

#[test]
fn killed_node_restores_device_state_from_snapshot() {
    let dir = std::env::temp_dir().join(format!("deepcsi-mp-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let snap = dir.join("node.dcss");
    let snap = snap.to_str().expect("utf-8 temp path");

    // Life 1: serve the replay, then shut down (writes the snapshot).
    let node = Listener::spawn(
        &[
            &[
                "node",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--policy",
                "adaptive",
            ],
            &DEMO_FLAGS[..],
            &["--snapshot-file", snap],
        ]
        .concat(),
    );
    let (ok, out, err) = send(
        &[
            &["send", "--connect", &node.addr, "--shutdown"],
            &DEMO_FLAGS[..],
        ]
        .concat(),
    );
    assert!(ok, "send failed:\n{out}\n{err}");
    let (ok, _, err) = node.finish();
    assert!(ok, "node life 1 exited non-zero:\n{err}");
    assert!(
        err.contains("snapshot written"),
        "expected snapshot write on shutdown:\n{err}"
    );

    // Life 2: restart against the same file — device state comes back
    // without re-learning.
    let node = Listener::spawn(
        &[
            &[
                "node",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--policy",
                "adaptive",
            ],
            &DEMO_FLAGS[..],
            &["--snapshot-file", snap],
        ]
        .concat(),
    );
    let (ok, out, err) = send(
        &[
            &["send", "--connect", &node.addr, "--shutdown"],
            &DEMO_FLAGS[..],
        ]
        .concat(),
    );
    assert!(ok, "send to restarted node failed:\n{out}\n{err}");
    let (ok, _, err) = node.finish();
    assert!(ok, "node life 2 exited non-zero:\n{err}");
    assert!(
        err.contains("restored") && err.contains("device states"),
        "expected restore log line on restart:\n{err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A misspelled flag must stop the process, not serve with the default
/// it shadows (`--worker 4` used to serve with 2 workers).
#[test]
fn misspelled_flag_exits_2_instead_of_serving_defaults() {
    let out = clusterd()
        .args(["node", "--listen", "127.0.0.1:0", "--worker", "4"])
        .output()
        .expect("run clusterd");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--worker"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "must not reach LISTENING");
}

/// A zero engine knob is rejected before the demo model trains, not
/// after.
#[test]
fn zero_workers_fail_before_training() {
    let out = clusterd()
        .args(["node", "--listen", "127.0.0.1:0", "--workers", "0"])
        .args(DEMO_FLAGS)
        .output()
        .expect("run clusterd");
    assert!(!out.status.success(), "node must refuse --workers 0");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("need at least one worker"), "stderr: {err}");
    assert!(!err.contains("trained demo model"), "stderr: {err}");
}
