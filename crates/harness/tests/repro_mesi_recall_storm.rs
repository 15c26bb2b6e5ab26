//! The MESI guard timeout storm, shrunk to three injected messages.
//!
//! History: a `mesi/fuzz_xg_tx` campaign (base seed 1320806034655764839,
//! campaign seed 1477640888085218622, 3 generations × 3, `run_len` 40,
//! `cpu_ops` 300) gave 53 159 `xg.timeouts` for 171 injected messages, and
//! no failure was flagged. ddmin of that schedule keeps the three `GetM`s
//! below and one response policy, "answer every `Inv` with a `GetM`".
//!
//! Mechanism: the host L2 recalls a block the accelerator holds, and the
//! guard forwards the `Inv`. The accelerator answers with a `GetM` for the
//! same block, never an ack, so the guard times out (Guarantee 2c) and
//! answers the host itself. Then it serves the queued `GetM` and takes the
//! block back. Blocks 2, 6 and 8 share one set of the shrunken L2, so that
//! install recalls another block the accelerator holds, and the loop never
//! quiesces. The CPU's ops all finish, with no data error and no host
//! violation: the accelerator pays for its own thrash, which the paper
//! allows (§2.2).
//!
//! The run used to go on to the 50 M-cycle cap (10 634 timeouts, 10 818
//! `host_l2.recalls`), because every grant the guard made counted as
//! progress. Progress now means a source of stimulus finished a unit of its
//! work: a core op or an injection. So the watchdog cuts the run 200 000
//! cycles after the last CPU op, and the loop costs at most one timeout per
//! `inv_timeout` of that window, plus one per injection.

use xg_core::XgVariant;
use xg_harness::campaign::{run_campaign, run_schedule_with, CampaignOpts};
use xg_harness::fuzz::Schedule;
use xg_harness::runner::Instrumentation;
use xg_harness::{AccelOrg, HostProtocol, SystemConfig};

const SCHEDULE: &str = "xg-schedule v1\ns 1 2 0 1 0\ns 1 6 1 1 0\ns 1 8 0 1 0\nr 1 3 1\n";

/// Cycles the fuzz watchdog waits after the last unit of stimulus.
const STALL_BOUND: u64 = 200_000;

/// The first cycle after the last epoch of the profile's time series in
/// which some source of stimulus made progress.
fn last_progress_epoch_end(report: &xg_sim::Report, epoch_cycles: u64) -> u64 {
    let last = report
        .profile_entries()
        .filter_map(|(k, v)| {
            let epoch = k.strip_prefix("epoch.")?.strip_suffix(".progress")?;
            (v > 0).then(|| epoch.parse::<u64>().unwrap())
        })
        .max()
        .expect("the CPU testers made progress");
    (last + 1) * epoch_cycles
}

#[test]
fn mesi_recall_storm_ends_when_the_host_work_is_done() {
    let schedule = Schedule::from_text(SCHEDULE).unwrap();
    let base = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::Transactional,
        },
        strict_host: false,
        ..SystemConfig::default()
    };
    let instr = Instrumentation::profiled();
    let out = run_schedule_with(&base, &CampaignOpts::default(), &schedule, 0, &instr);
    assert_eq!(out.injected, 3);
    assert_eq!(out.host_violations, 0, "host protocol violations");
    assert_eq!(out.cpu_data_errors, 0, "cpu data corruption");
    assert!(!out.deadlocked, "host deadlocked");
    assert!(out.cut_live, "expected a cut with the loop still live");
    // The injections all land in the first epoch, so the last epoch with
    // progress holds the last CPU op.
    let last_op_by = last_progress_epoch_end(&out.report, instr.profile.epoch_cycles);
    assert!(
        out.cycles <= last_op_by + STALL_BOUND,
        "run went on to cycle {}, last CPU op by {last_op_by}",
        out.cycles
    );
    let timeouts = out.report.get("xg.timeouts");
    let bound = out.cycles / base.xg.inv_timeout + out.injected;
    assert!(
        timeouts <= bound,
        "{timeouts} guard timeouts over {} cycles, bound {bound} ({} host L2 recalls)",
        out.cycles,
        out.report.get("host_l2.recalls"),
    );
}

/// The two storm campaigns of the benchmark's "Known failures": one
/// execution each fired tens of thousands of guard timeouts (63 826 and
/// 31 876 over twelve executions). Cut once the host's work is done, each
/// campaign stays within a few hundred, keeps its coverage and flags no
/// failure.
#[test]
fn mesi_storm_campaigns_stay_within_a_timeout_budget() {
    let campaigns = [
        (
            XgVariant::FullState,
            7_134_611_160_154_358_618,
            1_832_488_697_174_800_709,
            36,
        ),
        (
            XgVariant::Transactional,
            11_409_396_526_365_357_622,
            1_177_231_695_481_881_802,
            43,
        ),
    ];
    for (variant, base_seed, campaign_seed, pairs) in campaigns {
        let base = SystemConfig {
            host: HostProtocol::Mesi,
            accel: AccelOrg::FuzzXg { variant },
            seed: base_seed,
            ..SystemConfig::default()
        };
        let opts = CampaignOpts {
            seed: campaign_seed,
            generations: 3,
            batch: 4,
            jobs: Some(1),
            ..CampaignOpts::default()
        };
        let out = run_campaign(&base, &opts);
        let timeouts = out.report.get("xg.timeouts");
        assert_eq!(out.runs, 12);
        assert!(
            timeouts <= 50 * out.runs,
            "{variant:?}: {timeouts} guard timeouts over {} executions",
            out.runs
        );
        assert!(out.failures.is_empty(), "{variant:?}: {:?}", out.failures);
        assert_eq!(out.distinct_pairs(), pairs, "{variant:?}: coverage moved");
    }
}
