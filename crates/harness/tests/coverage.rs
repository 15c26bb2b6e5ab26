//! Coverage-completeness checks in the spirit of §4.1: the random tester
//! must eventually visit every `(state, event)` pair the protocol tables
//! declare reachable, and must never visit a pair outside them.

use xg_core::XgVariant;
use xg_harness::{run_stress, AccelOrg, HostProtocol, StressOpts, SystemConfig, TesterCfg};
use xg_sim::{CoverageSet, FsmRows};

/// Legal rows of the `accel_l1` table the tester does not reach: the flush
/// column is not part of Table 1 (the tester issues no flushes), and
/// `(B, Repl)`, Table 1's stall, is unreachable because victims are
/// resident lines and a resident block is never in `B`.
fn outside_table1(state: &str, event: &str) -> bool {
    event == "Flush" || (state, event) == ("B", "Repl")
}

fn stress_coverage(variant: XgVariant, seed: u64, ops: u64) -> CoverageSet {
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::Xg {
            variant,
            two_level: false,
        },
        seed,
        ..SystemConfig::default()
    };
    let out = run_stress(
        &cfg,
        &StressOpts {
            ops,
            blocks: 4,
            tester: TesterCfg {
                store_percent: 60,
                ..TesterCfg::default()
            },
            ..StressOpts::default()
        },
    );
    assert!(!out.deadlocked);
    assert_eq!(out.data_errors, 0, "{:?}", out.error_log);
    let grid = out
        .report
        .coverage("accel_l1/accel_l1")
        .expect("accelerator coverage collected");
    // The grid and the table's fired counters record the same stimuli.
    let rows = out.report.fsm("accel_l1").expect("accel_l1 rows reported");
    let fired: Vec<_> = rows.iter().filter(|&(_, _, n)| n > 0).collect();
    assert_eq!(fired.len(), grid.len());
    assert!(fired.iter().all(|&(s, e, _)| grid.contains(s, e)));
    grid.clone()
}

#[test]
fn accel_l1_visits_exactly_the_table1_matrix() {
    // Merge coverage across both guard variants and several seeds: some
    // pairs (e.g. an Invalidate landing on an absent block) only occur
    // with the Transactional guard, which forwards demands it cannot
    // deduce away.
    let mut seen = CoverageSet::new();
    for (variant, seed) in [
        (XgVariant::FullState, 101),
        (XgVariant::FullState, 102),
        (XgVariant::Transactional, 103),
        (XgVariant::Transactional, 104),
    ] {
        seen.merge(&stress_coverage(variant, seed, 3_000));
    }

    let expected: Vec<(&str, &str)> = xg_accel::l1::table()
        .rows_by_label()
        .iter()
        .map(|&(state, event, _)| (state, event))
        .filter(|&(state, event)| !outside_table1(state, event))
        .collect();
    // Soundness: nothing outside Table 1 was ever visited.
    for (state, event) in seen.iter() {
        assert!(
            expected.contains(&(state, event)),
            "({state}, {event}) visited but not part of Table 1"
        );
    }
    // Completeness: everything Table 1 declares reachable was visited.
    let missing: Vec<_> = expected
        .iter()
        .filter(|&&(s, e)| !seen.contains(s, e))
        .collect();
    assert!(
        missing.is_empty(),
        "Table 1 pairs never exercised: {missing:?} (visited {}/{})",
        seen.len(),
        expected.len()
    );
}
