//! Post-mortem observability: failed runs must come back with a trace dump
//! that names the offending addresses (ISSUE: fuzz-failure post-mortem).

use xg_core::XgVariant;
use xg_harness::campaign::CPU_POOL_PAGE;
use xg_harness::{
    guarantee_probe, run_fuzz, run_fuzz_with, run_stress, AccelOrg, FailureKind, FuzzOpts,
    HostProtocol, Instrumentation, StressOpts, SystemConfig,
};

/// Extracts the first `flagged addr 0x…` token from a post-mortem dump.
fn first_flagged_addr(pm: &str) -> &str {
    let start = pm
        .find("flagged addr ")
        .expect("post-mortem must name a flagged addr")
        + "flagged addr ".len();
    let rest = &pm[start..];
    let end = rest.find(' ').unwrap_or(rest.len());
    &rest[..end]
}

#[test]
fn fuzzed_unprotected_host_failure_names_corrupted_address() {
    // The control experiment from the matrix tests: garbage aimed directly
    // at a strict host pierces its correctness envelope. The outcome must
    // carry a post-mortem from the deterministic traced replay, and the
    // dump must name the address the failure was flagged at *and* retain
    // protocol events for it.
    let mut checked = false;
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::FuzzAccelSide,
            strict_host: true,
            seed: 6,
            ..SystemConfig::default()
        };
        let out = run_fuzz(
            &cfg,
            &FuzzOpts {
                messages: 400,
                ..FuzzOpts::default()
            },
            400,
        );
        let pierced = out.host_violations > 0 || out.deadlocked || out.cpu_data_errors > 0;
        if !pierced {
            continue;
        }
        checked = true;
        let name = cfg.name();
        let pm = out
            .post_mortem
            .as_deref()
            .unwrap_or_else(|| panic!("{name}: pierced run must attach a post-mortem"));
        assert!(pm.contains("=== post-mortem ==="), "{name}:\n{pm}");
        let addr = first_flagged_addr(pm);
        assert!(
            addr.starts_with("0x"),
            "{name}: flagged addr is hex: {addr}"
        );
        assert!(
            pm.contains(&format!("--- trace for addr {addr} ---")),
            "{name}: dump section for the flagged addr\n{pm}"
        );
        // The traced replay retained real protocol events, not empty rings.
        assert!(
            pm.lines().any(|l| l.starts_with("  [")),
            "{name}: post-mortem should retain replayed events\n{pm}"
        );
    }
    assert!(checked, "no host configuration was pierced at seed 6");
}

#[test]
fn guarded_fuzz_post_mortem_spans_guard_and_host() {
    // A guard under attack reports errors to the OS. That is the guard
    // working, so `run_fuzz` does not replay it; asked for explicitly, the
    // traced run's dump shows what the guard saw. Host-side controllers
    // trace into the same per-address rings, so the one dump interleaves
    // both sides of the crossing.
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        seed: 5,
        ..SystemConfig::default()
    };
    let fuzz = FuzzOpts {
        messages: 400,
        ..FuzzOpts::default()
    };
    let out = run_fuzz_with(&cfg, &fuzz, 800, &Instrumentation::replay());
    assert!(out.os_errors > 0, "attack must be detected");
    let pm = out
        .post_mortem
        .as_deref()
        .expect("a traced run with guard errors carries a post-mortem");
    assert!(pm.contains("=== post-mortem ==="), "{pm}");
    assert!(
        pm.contains("guard error"),
        "flag reason names the guard error\n{pm}"
    );
    assert!(pm.contains("[guard]"), "dump has guard events\n{pm}");
}

#[test]
fn failed_fuzz_runs_still_explain_themselves() {
    // The planted guard bug swallows forwarded invalidations: once the
    // probe has made the accelerator a sharer of CPU-pool blocks, the CPU
    // writers never hear back. That is a deadlock, a real failure, so
    // `run_fuzz` replays it and attaches both artefacts unasked.
    let mut cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        ..SystemConfig::default()
    };
    cfg.xg.test_swallow_invs = true;
    let probe = guarantee_probe();
    let fuzz = FuzzOpts {
        messages: probe.steps.len() as u64,
        schedule: Some(probe),
        read_only_pages: vec![CPU_POOL_PAGE],
        ..FuzzOpts::default()
    };
    let out = run_fuzz(&cfg, &fuzz, 150);
    assert_eq!(FailureKind::of(&out), Some(FailureKind::Deadlock));
    let pm = out
        .post_mortem
        .as_deref()
        .expect("a deadlocked fuzz run must attach a post-mortem");
    assert!(pm.contains("outstanding at deadlock"), "{pm}");
    assert!(
        pm.lines().any(|l| l.starts_with("  [")),
        "post-mortem should retain replayed events\n{pm}"
    );
    assert!(out.timeline.is_some(), "and the replay's timeline");
}

#[test]
fn clean_runs_attach_no_post_mortem() {
    let cfg = SystemConfig::default();
    let out = run_stress(
        &cfg,
        &StressOpts {
            ops: 400,
            ..StressOpts::default()
        },
    );
    assert_eq!(out.data_errors, 0, "{:?}", out.error_log);
    assert!(!out.deadlocked);
    assert_eq!(out.post_mortem, None, "{:?}", out.post_mortem);
}

/// Runs the default stress on `host` with the planted guard bug that drops
/// forwarded invalidations, so a host requester never answers its core.
/// Testers hold no idle timers: the queue drains with operations hanging
/// instead of tripping the stall watchdog, and the dump must still name
/// the stuck words and carry the stuck block's section.
fn swallowed_inv_post_mortem(host: HostProtocol) -> String {
    let mut cfg = SystemConfig {
        host,
        ..SystemConfig::default()
    };
    cfg.xg.test_swallow_invs = true;
    let opts = StressOpts::default();
    let out = run_stress(&cfg, &opts);
    assert!(out.deadlocked, "swallowed invalidations must wedge the run");
    assert!(out.completed < opts.ops);
    // Every `.outstanding` counter is a tester's own count of its hanging
    // ops.
    let hanging = |testers: &str| -> u64 {
        let keys = out.report.scalars();
        keys.filter(|(k, _)| k.starts_with(testers) && k.ends_with(".outstanding"))
            .map(|(_, n)| n)
            .sum()
    };
    assert!(hanging("tester_") > 0);
    assert_eq!(out.report.sum_suffix(".outstanding"), hanging("tester_"));
    let pm = out
        .post_mortem
        .expect("a deadlocked run must attach a post-mortem");
    assert!(pm.contains("outstanding at deadlock"), "{pm}");
    assert!(
        pm.contains(&format!(
            "--- trace for addr {} ---",
            first_flagged_addr(&pm)
        )),
        "dump section for the stuck block\n{pm}"
    );
    pm
}

#[test]
fn lost_response_deadlock_names_the_outstanding_words() {
    let pm = swallowed_inv_post_mortem(HostProtocol::Hammer);
    // A Hammer cache traces its own state changes with the words it holds,
    // so the timeline is not the directory's alone, and the directory says
    // who sent each Put and Unblock.
    assert!(
        pm.lines().any(|l| l.contains("] cpu_cache")
            && l.contains("] MemData -> ")
            && l.contains(" words=[")),
        "a HammerCache fill with its word values\n{pm}"
    );
    let from_dir: Vec<&str> = pm
        .lines()
        .filter(|l| l.contains("[hammer-dir] Recv Put") || l.contains("[hammer-dir] Recv Unblock"))
        .collect();
    assert!(!from_dir.is_empty(), "directory Put/Unblock lines\n{pm}");
    for line in from_dir {
        assert!(line.contains(" from n"), "sender not named: {line}");
    }
}

/// The state-change trace comes from the shell both host L1s share, so a
/// MESI L1 names its fills and the words they brought like a Hammer cache.
#[test]
fn lost_response_deadlock_on_mesi_traces_the_l1_fills_too() {
    let pm = swallowed_inv_post_mortem(HostProtocol::Mesi);
    assert!(
        pm.lines().any(|l| l.contains("] cpu_cache")
            && l.contains("[IS_D] Data")
            && l.contains(" -> ")
            && l.contains(" words=[")),
        "a MesiL1 fill with its word values\n{pm}"
    );
    assert!(
        pm.lines()
            .any(|l| l.contains("] cpu_cache") && l.contains("[mesi-l1] Recv")),
        "beside the line for the message that caused it\n{pm}"
    );
}
