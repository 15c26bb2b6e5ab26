//! `xg-check` refuses bad input before it explores anything.
//!
//! Every case here would otherwise cost an exploration first (the default
//! depth is the full fixpoint), so "stdout never shows a persona header" is
//! the evidence that the refusal came first.

use std::path::PathBuf;
use std::process::{Command, Output};

fn xg_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xg-check"))
        .args(args)
        .output()
        .expect("xg-check runs")
}

/// A scratch file under the test's own temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str, contents: &[u8]) -> Scratch {
        let path = std::env::temp_dir().join(format!("xg-check-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("scratch file writes");
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8 here")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `xg-check --baseline <file>` and returns its stderr, having checked
/// that it failed without exploring.
fn rejected_baseline(path: &str) -> String {
    let out = xg_check(&["--baseline", path]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("persona:"),
        "explored before reading the baseline"
    );
    assert!(stderr.contains("bad baseline"), "{stderr}");
    stderr
}

#[test]
fn a_missing_baseline_file_is_reported_before_exploring() {
    let stderr = rejected_baseline("/nonexistent/xg-check-baseline.txt");
    assert!(
        stderr.contains("/nonexistent/xg-check-baseline.txt"),
        "{stderr}"
    );
}

#[test]
fn a_baseline_that_is_not_utf8_is_reported_before_exploring() {
    let file = Scratch::new("binary", b"hammer 1698 0x52fc\xff\xfe\n");
    rejected_baseline(file.path());
}

#[test]
fn a_malformed_baseline_line_is_an_error_naming_the_line() {
    let short = Scratch::new(
        "short",
        b"# comment\nhammer 1698 0x52fce471eeec7ee9\nmesi 1555\n",
    );
    let stderr = rejected_baseline(short.path());
    assert!(stderr.contains("line 3"), "{stderr}");

    let count = Scratch::new("count", b"hammer many 0x52fce471eeec7ee9\n");
    let stderr = rejected_baseline(count.path());
    assert!(
        stderr.contains("line 1") && stderr.contains("state count"),
        "{stderr}"
    );

    let fingerprint = Scratch::new("fp", b"\nmesi 1555 0xnothex\n");
    let stderr = rejected_baseline(fingerprint.path());
    assert!(
        stderr.contains("line 2") && stderr.contains("fingerprint"),
        "{stderr}"
    );

    let persona = Scratch::new("persona", b"hamer 1698 0x52fce471eeec7ee9\n");
    let stderr = rejected_baseline(persona.path());
    assert!(
        stderr.contains("line 1") && stderr.contains("persona"),
        "{stderr}"
    );
}

#[test]
fn a_well_formed_baseline_still_gates_the_run() {
    // One row, one persona, depth 0: the initial state only, so the count
    // in the file (7) is wrong and the run must end in drift, not success.
    let file = Scratch::new("drift", b"hammer 7 0x0000000000000001\n");
    let out = xg_check(&[
        "--persona",
        "hammer",
        "--depth",
        "0",
        "--baseline",
        file.path(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("STATE DRIFT (hammer)"), "{stderr}");
}

/// Past 253 a step cannot index an address; `0` names none at all (and
/// is not explored as a one-block world).
#[test]
fn an_address_count_a_step_cannot_index_is_refused() {
    for addrs in ["300", "0"] {
        let out = xg_check(&["--addrs", addrs, "--depth", "1", "--persona", "hammer"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains(&format!("--addrs {addrs}")), "{stderr}");
        assert!(out.stdout.is_empty(), "explored anyway");
    }
}

#[test]
fn an_xg_trace_that_is_not_a_switch_is_refused_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_xg-check"))
        .args(["--persona", "hammer", "--depth", "1"])
        .env("XG_TRACE", "banana")
        .output()
        .expect("xg-check runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("XG_TRACE") && stderr.contains("banana"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "explored anyway");
}

#[test]
fn an_xg_jobs_variable_that_is_not_a_count_is_refused_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_xg-check"))
        .args(["--persona", "hammer", "--depth", "1"])
        .env("XG_JOBS", "banana")
        .output()
        .expect("xg-check runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("XG_JOBS") && stderr.contains("banana"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "explored anyway");
}

#[test]
fn a_jobs_flag_that_is_not_a_count_is_refused_by_name() {
    let out = xg_check(&["--persona", "hammer", "--depth", "1", "--jobs", "banana"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--jobs") && stderr.contains("banana"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "explored anyway");
}
