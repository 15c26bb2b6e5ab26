//! Transition-coverage regression baseline: the seed stress configurations
//! (the shards behind `xg-report --json` / `--coverage`) must keep
//! exercising at least the recorded `(state, event)` rows of both guard
//! personas, of the guard's `xg_full` table and of the Table 1 accelerator
//! L1; the same shards with the Transactional guard, those of `xg_tx`. Coverage regressing below this baseline means a table
//! migration or workload change silently stopped driving part of the
//! protocol — exactly the drift these counters exist to catch.
//!
//! The baseline is the recorded behaviour of `collect_report` at
//! `Scale::Quick` (Hammer seed 11, Mesi seed 12), which is byte-identical
//! at any worker count.

use xg_bench::{collect_report, Scale};

const HAMMER_PERSONA_BASELINE: &[(&str, &str)] = &[
    ("Get", "FwdRead"),
    ("Get", "FwdWrite"),
    ("Get", "MemData"),
    ("Get", "RespAck"),
    ("Get", "RespData"),
    ("Idle", "FwdRead"),
    ("Idle", "FwdWrite"),
    ("Put_Clean", "WbAck"),
];

/// Baseline rows the quick stress sweep is not held to; the checker still
/// is. `(Put_Clean, WbAck)` is a guard writeback the directory accepts
/// with no forward in between. It fired once in the quick Hammer run under
/// the migrate-on-read owner rule, on the run's only accelerator writeback:
/// an accelerator L1 capacity eviction of a dirty line (block 0x100, cycle
/// 39 960). Under the current rule a reader of a pending writeback installs
/// `S`, the run interleaves differently, and it holds no accelerator
/// writeback at all. The xg-core test
/// `hammer_persona_answers_a_read_from_its_pending_writeback_and_stays_owner`
/// fires the row directly.
const SWEEP_EXEMPT: &[(&str, &str)] = &[("Put_Clean", "WbAck")];

const MESI_PERSONA_BASELINE: &[(&str, &str)] = &[
    ("Get", "AckIn"),
    ("Get", "DataE"),
    ("Get", "DataM"),
    ("Get", "DataS"),
    ("Get", "FwdData_M"),
    ("Get", "FwdData_S"),
    ("Get", "OwnerRead"),
    ("Get_Acks", "AckIn"),
    ("Idle", "Inv"),
    ("Idle", "OwnerRead"),
    ("Idle", "OwnerWrite"),
    ("Put_Shared", "WbAck"),
];

/// The `accel_l1` rows the quick sweep fires: 21 of 28. Not fired: the
/// flush column (the tester issues no flushes), `(B, Repl)` (unreachable)
/// and `(I, Inv)`, an invalidation of a block the L1 does not hold, which
/// the Transactional guard's stress runs in `crates/harness/tests/coverage.rs`
/// reach.
const ACCEL_L1_BASELINE: &[(&str, &str)] = &[
    ("B", "DataE"),
    ("B", "DataM"),
    ("B", "DataS"),
    ("B", "Inv"),
    ("B", "Load"),
    ("B", "Store"),
    ("B", "WbAck"),
    ("E", "Inv"),
    ("E", "Load"),
    ("E", "Repl"),
    ("E", "Store"),
    ("I", "Load"),
    ("I", "Store"),
    ("M", "Inv"),
    ("M", "Load"),
    ("M", "Repl"),
    ("M", "Store"),
    ("S", "Inv"),
    ("S", "Load"),
    ("S", "Repl"),
    ("S", "Store"),
];

/// The `xg_full` rows the quick sweep fires: 31 of 170. Its shards run
/// the Full State guard behind a one-level accelerator, so none of the
/// shadow (`Sh`) rows fire (the xg-core tests reach them), nor a partial
/// grant or Put completion (those need block-size translation).
const XG_FULL_BASELINE: &[(&str, &str)] = &[
    ("E", "OwnerRead"),
    ("E", "PutM"),
    ("E", "Write"),
    ("E_Inv", "CleanWb"),
    ("E_Inv", "DirtyWb"),
    ("E_Inv", "PutE"),
    ("E_Inv", "PutM"),
    ("I", "GetM"),
    ("I", "GetS"),
    ("I", "Read"),
    ("I", "Write"),
    ("I_Get", "LastGrantS"),
    ("I_Get", "LastGrantX"),
    ("I_Get", "Read"),
    ("I_Get", "Write"),
    ("I_PGet", "LastGrantS"),
    ("I_Put", "PutDone"),
    ("I_RInv", "InvAck"),
    ("I_RInv", "Write"),
    ("M", "OwnerRead"),
    ("M", "PutM"),
    ("M", "Write"),
    ("M_Inv", "DirtyWb"),
    ("M_Inv", "PutM"),
    ("S", "GetM"),
    ("S", "PutS"),
    ("S", "Read"),
    ("S", "Write"),
    ("S_Inv", "GetM"),
    ("S_Inv", "InvAck"),
    ("S_Inv", "PutS"),
];

/// The `xg_tx` rows the quick sweep's two shards fire when run with the
/// Transactional guard ([`transactional_sweep_reaches_coverage_baseline`]):
/// 26 of 90.
const XG_TX_BASELINE: &[(&str, &str)] = &[
    ("Get", "LastGrantS"),
    ("Get", "LastGrantX"),
    ("Get", "Read"),
    ("Get", "Write"),
    ("Idle", "GetM"),
    ("Idle", "GetS"),
    ("Idle", "OwnerRead"),
    ("Idle", "PutE"),
    ("Idle", "PutM"),
    ("Idle", "PutS"),
    ("Idle", "Read"),
    ("Idle", "Write"),
    ("Inv", "CleanWb"),
    ("Inv", "DirtyWb"),
    ("Inv", "GetM"),
    ("Inv", "GetS"),
    ("Inv", "InvAck"),
    ("Inv", "PutE"),
    ("Inv", "PutM"),
    ("Inv", "PutS"),
    ("PGet", "LastGrantS"),
    ("PGet", "Read"),
    ("PGet", "Write"),
    ("Put", "PutDone"),
    ("RInv", "InvAck"),
    ("RInv", "Write"),
];

/// Fired-row floors for the model checker's bounded exploration (depth 2
/// with race steps, plus the pinned mesi scripts below).
/// Measured at the configuration this test runs; drift below a floor
/// means the checker's alphabet or world stopped driving part of a
/// machine.
const CHECKER_FIRED_FLOORS: &[(&str, usize)] = &[
    ("hammer_dir", 15),
    ("hammer_persona", 11),
    ("mesi_l2", 26),
    ("mesi_persona", 22),
];

/// Three-step script whose race steps drive the mesi persona's
/// `Get`/`OwnerRead` row — the one fuzz-baseline row that needs depth 3
/// to appear in plain exploration. Pinning it keeps this test at depth 2.
/// Which race lands in the row depends on the world's latency draws: the
/// first script found by search over the steps was re-pinned when the CPU
/// cache's name, and with it its stream, changed.
const MESI_OWNER_READ_SCRIPT: &str = "xg-check v1\ns a 0 1\ns r 0 0 s 1\ns r 0 0 l 0\n";

/// Three-step script that drives the mesi persona's `Get_Acks`/`OwnerRecall`
/// row: the accelerator's `GetM` of the attack block is still waiting for
/// the CPU sharer's ack when a racing CPU load of the window block, which
/// shares the host L2's one way, recalls the attack block. Plain
/// exploration reaches the row at depth 3. Within depth 2 it fired only
/// while the L2 polled every four cycles for a free way; the L2 now retries
/// a parked fill when a record closes, and that timing is gone. Re-pinned
/// by search, as the script above, when the CPU cache's stream changed.
const MESI_OWNER_RECALL_SCRIPT: &str = "xg-check v1\ns r 0 0 l 1\ns r 4 0 l 0\ns r 1 0 l 1\n";

/// Three-step script that drives the mesi persona's `Get`/`AckIn` row,
/// which depth 2 does not reach: the accelerator's racing `GetM` of the
/// attack block the CPU shares collects the CPU's invalidation ack. It was
/// the `OwnerRecall` script above until the CPU cache's stream changed.
const MESI_ACK_IN_SCRIPT: &str = "xg-check v1\ns a 0 0\ns c l 0\ns r 1 0 l 1\nc 2\n";

/// Coverage closure: every persona row the fuzz campaign's baseline
/// exercises is also reachable by the model checker's exploration, so the
/// exhaustive pass vouches for the rows the random campaign stresses.
/// The checker's own fired-row counts are committed as a second floor.
#[test]
fn checker_exploration_covers_fuzz_baseline() {
    use xg_check::{explore, replay, ExploreOpts, Persona, Script, WorldSpec};

    let opts = ExploreOpts {
        depth: Some(2),
        race_steps: true,
        ..ExploreOpts::default()
    };
    let mut coverage = std::collections::BTreeMap::new();
    for persona in Persona::ALL {
        let spec = WorldSpec::new(persona);
        let result = explore(&spec, &opts);
        assert!(
            result.is_clean(),
            "{persona:?}: bounded exploration must be violation-free: {:?}",
            result.violations.first().map(|v| &v.property)
        );
        for (machine, cov) in &result.coverage {
            coverage
                .entry(machine.clone())
                .or_insert_with(xg_sim::TransitionCoverage::default)
                .merge(cov);
        }
        if persona == Persona::Mesi {
            for (text, (state, event)) in [
                (MESI_OWNER_READ_SCRIPT, ("Get", "OwnerRead")),
                (MESI_OWNER_RECALL_SCRIPT, ("Get_Acks", "OwnerRecall")),
                (MESI_ACK_IN_SCRIPT, ("Get", "AckIn")),
            ] {
                let script = Script::from_text(text).expect("pinned script parses");
                let out = replay(&spec, &script);
                assert!(out.verdict.is_clean(), "{:?}", out.verdict);
                let fired = out
                    .report
                    .fsm("mesi_persona")
                    .map(|c| c.count(state, event));
                assert!(
                    fired > Some(0),
                    "{text:?} no longer fires ({state}, {event})"
                );
                for (machine, cov) in out.report.fsms() {
                    coverage
                        .entry(machine.to_string())
                        .or_insert_with(xg_sim::TransitionCoverage::default)
                        .merge(cov);
                }
            }
        }
    }

    for (machine, baseline) in [
        ("hammer_persona", HAMMER_PERSONA_BASELINE),
        ("mesi_persona", MESI_PERSONA_BASELINE),
    ] {
        let cov = coverage
            .get(machine)
            .unwrap_or_else(|| panic!("{machine} coverage missing from checker"));
        let missing: Vec<_> = baseline
            .iter()
            .filter(|(s, e)| cov.count(s, e) == 0)
            .collect();
        assert!(
            missing.is_empty(),
            "{machine}: fuzz-baseline rows unreachable by the checker: {missing:?}"
        );
    }
    for &(machine, floor) in CHECKER_FIRED_FLOORS {
        let cov = coverage
            .get(machine)
            .unwrap_or_else(|| panic!("{machine} coverage missing from checker"));
        assert!(
            cov.fired_rows() >= floor,
            "{machine}: checker coverage regressed: fired {}/{} < floor {floor}",
            cov.fired_rows(),
            cov.total_rows(),
        );
    }
}

#[test]
fn stress_sweep_reaches_coverage_baseline() {
    let (report, findings) = collect_report(Scale::Quick, 1);
    assert!(findings.is_empty(), "{findings:?}");
    for (machine, baseline) in [
        ("hammer_persona", HAMMER_PERSONA_BASELINE),
        ("mesi_persona", MESI_PERSONA_BASELINE),
        ("accel_l1", ACCEL_L1_BASELINE),
        ("xg_full", XG_FULL_BASELINE),
    ] {
        let cov = report
            .fsm(machine)
            .unwrap_or_else(|| panic!("{machine} coverage missing from report"));
        let missing: Vec<_> = baseline
            .iter()
            .filter(|row| !SWEEP_EXEMPT.contains(row))
            .filter(|(s, e)| cov.count(s, e) == 0)
            .collect();
        assert!(
            missing.is_empty(),
            "{machine} coverage regressed below baseline; rows no longer fired: \
             {missing:?} (fired {}/{})",
            cov.fired_rows(),
            cov.total_rows(),
        );
        // Every fired row must be a declared row of the table — firing an
        // undeclared row would mean the coverage instrument lies.
        for (s, e, n) in cov.iter() {
            assert!(
                n == 0 || cov.is_declared(s, e),
                "{machine} fired undeclared row ({s}, {e})"
            );
        }
    }
}

/// The quick sweep's shards run Full State only; the same two shards with
/// the Transactional guard hold `xg_tx` to its floor.
#[test]
fn transactional_sweep_reaches_coverage_baseline() {
    use xg_harness::{run_stress, AccelOrg, HostProtocol, StressOpts, SystemConfig};
    let mut cov = xg_sim::TransitionCoverage::default();
    for (host, seed) in [(HostProtocol::Hammer, 11), (HostProtocol::Mesi, 12)] {
        let accel = AccelOrg::Xg {
            variant: xg_core::XgVariant::Transactional,
            two_level: false,
        };
        let cfg = SystemConfig {
            host,
            seed,
            accel,
            ..SystemConfig::default()
        };
        let opts = StressOpts {
            ops: Scale::Quick.ops(4_000, 10_000),
            ..StressOpts::default()
        };
        let out = run_stress(&cfg, &opts);
        assert!(!out.deadlocked && out.data_errors == 0, "{}", cfg.name());
        cov.merge(out.report.fsm("xg_tx").expect("xg_tx coverage"));
    }
    let missing: Vec<_> = XG_TX_BASELINE
        .iter()
        .filter(|(s, e)| cov.count(s, e) == 0)
        .collect();
    assert!(
        missing.is_empty(),
        "xg_tx rows no longer fired: {missing:?}"
    );
}
