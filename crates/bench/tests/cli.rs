//! The `xg-bench` binaries refuse a bad worker count, trace switch or
//! unknown argument before they run anything: exit 2, naming the flag or
//! variable and the value.
//!
//! Each of them would otherwise start a sweep (seconds to minutes), so an
//! empty stdout is the evidence that the refusal came first.

use std::process::{Command, Output};

/// The binaries that take `--jobs` / `XG_JOBS` / `XG_TRACE`, each with the
/// arguments that put it on its sweep path.
const BINARIES: [(&str, &str, &[&str]); 3] = [
    ("xg-report", env!("CARGO_BIN_EXE_xg-report"), &["quick"]),
    (
        "xg-fuzz",
        env!("CARGO_BIN_EXE_xg-fuzz"),
        &["--campaign", "quick"],
    ),
    (
        "xg-sweep-bench",
        env!("CARGO_BIN_EXE_xg-sweep-bench"),
        &["--check", "--out", "/nonexistent/BENCH_sweep.json"],
    ),
];

/// Runs `exe` with `XG_JOBS` and `XG_TRACE` as `env` sets them (unset
/// otherwise).
fn run(exe: &str, args: &[&str], more: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(exe)
        .args(args)
        .args(more)
        .env_remove("XG_JOBS")
        .env_remove("XG_TRACE")
        .envs(env.iter().copied())
        .output()
        .expect("binary runs")
}

/// Checks that `out` is a refusal (exit 2, nothing on stdout) and returns
/// what it said.
fn refusal(name: &str, out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} ran before refusing");
    stderr
}

#[test]
fn a_jobs_flag_that_is_not_a_count_is_refused_by_name() {
    for (name, exe, args) in BINARIES {
        let said = refusal(name, &run(exe, args, &["--jobs", "banana"], &[]));
        assert!(said.contains("--jobs") && said.contains("banana"), "{said}");
    }
}

#[test]
fn an_xg_jobs_variable_that_is_not_a_count_is_refused_by_name() {
    for (name, exe, args) in BINARIES {
        let said = refusal(name, &run(exe, args, &[], &[("XG_JOBS", "banana")]));
        assert!(
            said.contains("XG_JOBS") && said.contains("banana"),
            "{said}"
        );
    }
}

#[test]
fn an_xg_trace_that_is_not_a_switch_is_refused_by_name() {
    for (name, exe, args) in BINARIES {
        let said = refusal(name, &run(exe, args, &[], &[("XG_TRACE", "banana")]));
        assert!(
            said.contains("XG_TRACE") && said.contains("banana"),
            "{said}"
        );
    }
}

#[test]
fn a_jobs_flag_without_a_value_is_refused() {
    for (name, exe, args) in BINARIES {
        let said = refusal(name, &run(exe, args, &["--jobs"], &[]));
        assert!(said.contains("--jobs requires a value"), "{said}");
    }
}

/// The flag wins over the variable, so a good flag is not held up by a
/// bad variable (`xg-sweep-bench --check` then fails on its missing
/// baseline: exit 1, past argument handling).
#[test]
fn a_good_jobs_flag_is_accepted_whatever_the_variable_says() {
    let (_, exe, args) = BINARIES[2];
    let out = run(exe, args, &["--jobs", "1"], &[("XG_JOBS", "banana")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--check: failed to read"), "{stderr}");
}

/// A mistyped flag is refused, not ignored: `xg-report --help` would
/// otherwise start the full-scale report, and `xg-sweep-bench --chek`
/// rewrite the file it was meant to gate.
#[test]
fn an_unknown_argument_is_refused_by_name() {
    let sweep_out = std::env::temp_dir().join(format!(
        "xg-bench-cli-{}-BENCH_sweep.json",
        std::process::id()
    ));
    let sweep_out_path = sweep_out.to_str().expect("temp paths are UTF-8 here");
    let cases: [(&str, &str, &[&str]); 4] = [
        ("xg-report", env!("CARGO_BIN_EXE_xg-report"), &["--help"]),
        (
            "xg-fuzz",
            env!("CARGO_BIN_EXE_xg-fuzz"),
            &["--campaign", "quick", "--bogus"],
        ),
        (
            "xg-sweep-bench",
            env!("CARGO_BIN_EXE_xg-sweep-bench"),
            &["--out", sweep_out_path, "--chek"],
        ),
        ("xg-tables", env!("CARGO_BIN_EXE_xg-tables"), &["--bogus"]),
    ];
    for (name, exe, args) in cases {
        let said = refusal(name, &run(exe, args, &[], &[]));
        let unknown = args.last().expect("each case names its typo");
        assert!(
            said.contains(&format!("unknown argument {unknown:?}")),
            "{name}: {said}"
        );
    }
    assert!(!sweep_out.exists(), "xg-sweep-bench wrote {sweep_out_path}");
}

/// `--accels` is bounded on both sides: the link table has a slot per pair
/// of components, so a huge count would abort on allocation instead.
#[test]
fn an_accelerator_count_out_of_range_is_refused_by_name() {
    let (_, exe, args) = BINARIES[1];
    for count in ["0", "65", "99999"] {
        let said = refusal("xg-fuzz", &run(exe, args, &["--accels", count], &[]));
        assert!(
            said.contains("--accels") && said.contains(count),
            "{count}: {said}"
        );
    }
}

/// `XG_TRACE=1` streams a trace of any run, including the campaign's,
/// whose runs ask for no tracing of their own. The first trace line is
/// enough; the child is stopped there.
#[test]
fn xg_trace_streams_a_campaign_trace() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let (_, exe, args) = BINARIES[1];
    let mut child = Command::new(exe)
        .args(args)
        .args(["--jobs", "1"])
        .env_remove("XG_JOBS")
        .env("XG_TRACE", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    // `[cycle] component addr [state] event detail`
    let is_trace = |line: &str| {
        line.strip_prefix('[')
            .and_then(|rest| rest.split_once("] "))
            .is_some_and(|(cycle, rest)| cycle.parse::<u64>().is_ok() && rest.contains(" 0x"))
    };
    let found = stderr
        .lines()
        .map_while(Result::ok)
        .find(|line| is_trace(line));
    let _ = child.kill();
    let _ = child.wait();
    assert!(found.is_some(), "no trace line on stderr");
}
