//! Auto-generated minimal reproducer (deadlock); regenerate with
//! `xg-fuzz --minimize`. 1 injected message(s), sim seed 0x51ab.
//!
//! History: the fuzz campaign caught a planted `test_swallow_invs` guard
//! bug (forwarded invalidations silently dropped → the host requester
//! wedges) as a deadlock, and `minimize` shrank the failing schedule to
//! this single legal read of a CPU-pool block. Committed against the
//! fixed (default) build, the asserts below are the regression gate; see
//! `tests/shrinker_demo.rs` for the workflow that produced this file.

use xg_core::XgVariant;
use xg_harness::campaign::{run_schedule, CampaignOpts};
use xg_harness::fuzz::Schedule;
use xg_harness::{AccelOrg, HostProtocol, SystemConfig};
use xg_sim::FaultSpec;

#[test]
fn repro_swallowed_inv() {
    let schedule = Schedule::from_text("xg-schedule v1\ns 1 262145 0 1 0\n").unwrap();
    let base = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        strict_host: false,
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        cpu_ops: 150,
        pool_blocks: 16,
        faults: FaultSpec {
            delay_spike_pct: 25,
            reorder_pct: 10,
            spike_cycles: 800,
            burst_len: 3,
        },
        ..CampaignOpts::default()
    };
    let out = run_schedule(&base, &opts, &schedule, 0x51ab);
    assert_eq!(out.host_violations, 0, "host protocol violations");
    assert_eq!(out.cpu_data_errors, 0, "cpu data corruption");
    assert!(!out.deadlocked, "host deadlocked");
}
