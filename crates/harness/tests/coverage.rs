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

/// The `accel_l2` rows two-level stress fires on 8 blocks (see
/// `accel_l2_fires_its_eviction_rows_and_no_violation`): 50 of the 61 legal
/// rows, the inclusive eviction's among them. The legal rows it misses are
/// named in the table's notes.
const ACCEL_L2_BASELINE: &[(&str, &str)] = &[
    ("Busy_EvictPut", "GetM"),
    ("Busy_EvictPut", "GetS"),
    ("Busy_EvictPut", "Inv"),
    ("Busy_EvictPut", "WbAck"),
    ("Busy_EvictRecall", "CleanWb"),
    ("Busy_EvictRecall", "DirtyWb"),
    ("Busy_EvictRecall", "GetM"),
    ("Busy_EvictRecall", "GetS"),
    ("Busy_EvictRecall", "Inv"),
    ("Busy_EvictRecall", "InvAck"),
    ("Busy_EvictRecall", "PutE"),
    ("Busy_EvictRecall", "PutM"),
    ("Busy_EvictRecall", "PutS"),
    ("Busy_Fetch", "DataE"),
    ("Busy_Fetch", "DataM"),
    ("Busy_Fetch", "DataS"),
    ("Busy_Fetch", "GetM"),
    ("Busy_Fetch", "GetS"),
    ("Busy_Fetch", "Inv"),
    ("Busy_HostInv", "CleanWb"),
    ("Busy_HostInv", "DirtyWb"),
    ("Busy_HostInv", "GetM"),
    ("Busy_HostInv", "GetS"),
    ("Busy_HostInv", "InvAck"),
    ("Busy_HostInv", "PutE"),
    ("Busy_HostInv", "PutM"),
    ("Busy_HostInv", "PutS"),
    ("Busy_Install", "Inv"),
    ("Busy_Recall", "CleanWb"),
    ("Busy_Recall", "DirtyWb"),
    ("Busy_Recall", "Inv"),
    ("Busy_Recall", "InvAck"),
    ("Busy_Recall", "PutE"),
    ("Busy_Recall", "PutM"),
    ("Busy_Recall", "PutS"),
    ("NP", "GetM"),
    ("NP", "GetS"),
    ("NP", "Inv"),
    ("Owned", "GetM"),
    ("Owned", "GetS"),
    ("Owned", "Inv"),
    ("Owned", "PutE"),
    ("Owned", "PutM"),
    ("Present", "GetM"),
    ("Present", "GetS"),
    ("Present", "Inv"),
    ("Shared", "GetM"),
    ("Shared", "GetS"),
    ("Shared", "Inv"),
    ("Shared", "PutS"),
];

/// Two-level stress over both hosts and both guard variants, on 8 blocks so
/// the shrunk accelerator L2 evicts: no `accel_l2` violation row fires (each
/// would count a `protocol_violation`), and the fired rows cover the
/// baseline, the eviction's rows and an owner's Put crossing its recall
/// included.
#[test]
fn accel_l2_fires_its_eviction_rows_and_no_violation() {
    let mut fired = std::collections::BTreeSet::new();
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            for seed in 1..=6 {
                let cfg = SystemConfig {
                    host,
                    accel: AccelOrg::Xg {
                        variant,
                        two_level: true,
                    },
                    accel_cores: 2,
                    seed,
                    ..SystemConfig::default()
                };
                let opts = StressOpts {
                    ops: 3_000,
                    blocks: 8,
                    ..StressOpts::default()
                };
                let out = run_stress(&cfg, &opts);
                let name = cfg.name();
                assert!(!out.deadlocked, "{name} seed {seed}");
                assert_eq!(out.data_errors, 0, "{name} seed {seed}");
                assert_eq!(out.report.get("accel_l2.protocol_violation"), 0);
                let rows = out.report.fsm("accel_l2").expect("accel_l2 rows reported");
                fired.extend(
                    rows.iter()
                        .filter(|&(_, _, n)| n > 0)
                        .map(|(s, e, _)| (s.to_owned(), e.to_owned())),
                );
            }
        }
    }
    let missing: Vec<_> = (ACCEL_L2_BASELINE.iter())
        .filter(|&&(s, e)| !fired.contains(&(s.to_owned(), e.to_owned())))
        .collect();
    assert!(missing.is_empty(), "baseline rows not fired: {missing:?}");
    let legal = xg_accel::l2::table().legal_rows();
    assert_eq!((fired.len(), legal), (ACCEL_L2_BASELINE.len(), 61));
}
