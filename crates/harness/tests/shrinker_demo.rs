//! End-to-end shrinker demonstration against a *planted* guard bug.
//!
//! `XgConfig::test_swallow_invs` makes the guard silently drop demands it
//! should forward as invalidations — the host requester never hears back
//! and wedges. The campaign machinery must (a) catch the deadlock, (b)
//! ddmin the noisy failing schedule to a minimal reproducer of at most 10
//! injected messages (it is 1 in practice), and (c) emit a self-contained
//! regression test that *passes* on the fixed build. The committed output
//! of this workflow lives in `tests/repro_swallowed_inv.rs`. A blind run
//! shrinks the same way: its input is the schedule it drew.

use xg_core::XgVariant;
use xg_harness::campaign::{
    guarantee_probe, minimize, repro_json, repro_test_source, run_schedule, CampaignFailure,
    CampaignOpts, FailureKind, CPU_POOL_BLOCK, CPU_POOL_PAGE,
};
use xg_harness::fuzz::{FuzzStep, Schedule};
use xg_harness::{run_fuzz_with, AccelOrg, FuzzOpts, HostProtocol, Instrumentation, SystemConfig};

const SEED: u64 = 0x51AB;

fn buggy_base() -> SystemConfig {
    let mut cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        ..SystemConfig::default()
    };
    cfg.xg.test_swallow_invs = true;
    cfg
}

fn opts() -> CampaignOpts {
    CampaignOpts {
        cpu_ops: 150,
        ..CampaignOpts::default()
    }
}

#[test]
fn planted_bug_minimizes_to_a_tiny_reproducer() {
    let buggy = buggy_base();
    let opts = opts();

    // A deliberately noisy failing input: the full guarantee probe plus
    // chaff. The deadlock only needs the single legal GetS that makes the
    // accelerator a sharer of a CPU-pool block.
    let mut noisy = guarantee_probe();
    for i in 0..6 {
        noisy.steps.push(FuzzStep {
            delay: 3 + i,
            block: i,
            kind: (i % 5) as u8,
            payload_blocks: 1,
            fill: 0x33,
        });
    }
    let fails = |s: &Schedule| run_schedule(&buggy, &opts, s, SEED).deadlocked;
    assert!(
        fails(&noisy),
        "planted bug must deadlock the noisy schedule"
    );

    let min = minimize(&noisy, fails);
    assert!(
        min.steps.len() <= 10,
        "minimized reproducer has {} steps, want <= 10:\n{}",
        min.steps.len(),
        min.to_text()
    );
    // In practice a single legal read of the CPU pool suffices (any block
    // of the read-only window works; ddmin keeps whichever it tried last).
    assert_eq!(min.steps.len(), 1, "expected a 1-message reproducer");
    let window = CPU_POOL_BLOCK..CPU_POOL_BLOCK + 4;
    assert!(
        window.contains(&min.steps[0].block),
        "reproducer step outside the CPU-pool window: {}",
        min.to_text()
    );
    assert!(fails(&min), "minimized schedule still reproduces");

    // The emitted regression test asserts the safety claims, so against
    // the *fixed* build (default config) the same schedule must pass.
    let fixed = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        ..SystemConfig::default()
    };
    let out = run_schedule(&fixed, &opts, &min, SEED);
    assert_eq!(out.host_violations, 0);
    assert_eq!(out.cpu_data_errors, 0);
    assert!(!out.deadlocked, "fixed build must not deadlock");

    // Artifact emission round-trips the schedule.
    let failure = CampaignFailure {
        kind: FailureKind::Deadlock,
        seed: SEED,
        schedule: min.clone(),
        summary: "host deadlocked".into(),
    };
    let src = repro_test_source("repro_swallowed_inv", &fixed, &opts, &failure);
    assert!(src.contains("fn repro_swallowed_inv()"));
    assert!(src.contains(&min.to_text().replace('\n', "\\n")));
    let json = repro_json(&fixed, &opts, &failure);
    assert!(json.contains("\"kind\": \"deadlock\""));
    assert!(json.contains("\"steps\": 1"));
}

#[test]
fn a_blind_run_on_the_planted_bug_minimizes_too() {
    let buggy = buggy_base();
    let blind = FuzzOpts {
        messages: 300,
        read_only_pages: vec![CPU_POOL_PAGE],
        ..FuzzOpts::default()
    };
    let run = |fuzz: &FuzzOpts| run_fuzz_with(&buggy, fuzz, 150, &Instrumentation::off());
    assert!(
        run(&blind).deadlocked,
        "planted bug must deadlock a blind run"
    );

    let drawn = blind.schedule_for(buggy.seed, "fuzz_accel");
    let fails = |s: &Schedule| {
        run(&FuzzOpts {
            schedule: Some(s.clone()),
            ..blind.clone()
        })
        .deadlocked
    };
    let min = minimize(&drawn, fails);
    assert!(
        min.steps.len() <= 10,
        "minimized blind input has {} steps, want <= 10:\n{}",
        min.steps.len(),
        min.to_text()
    );
    assert!(fails(&min), "minimized schedule still reproduces");
}
