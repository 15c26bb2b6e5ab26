//! The child-process deadline, driven through the real binary.

use std::process::Command;
use std::time::{Duration, Instant};

/// A worker that never finishes is killed at its deadline and comes back
/// as everything attempted, everything failed — with exit code 0, because
/// a counted failure is a result.
#[test]
fn spinning_worker_is_killed_and_counted_failed() {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_xg-benchmark"))
        .args(["--workload", "spin", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0", "--deadline-s", "0.5"])
        .output()
        .expect("run the benchmark binary");
    assert!(started.elapsed() < Duration::from_secs(20));
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text.lines().last().unwrap();
    for part in ["\"correct\": false", "\"attempted\": 1,", "\"failed\": 1,"] {
        assert!(line.contains(part), "{part} missing from {line}");
    }
}

/// An unknown workload is a usage error, not a result.
#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_xg-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
