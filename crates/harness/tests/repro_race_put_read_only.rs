//! Auto-generated minimal reproducer (data_error); regenerate with
//! `xg-fuzz --minimize`. 1 injected message(s), sim seed 0xf97019560d4695d0.
//!
//! History: a `hammer/fuzz_xg_tx` campaign (base seed 10676951668036042682,
//! campaign seed 8745701715632305560, 3 generations × 3, `run_len` 40,
//! `cpu_ops` 300) gave one data error, and `minimize` shrank it to this
//! single `PutM` (fill 0x11) of the read-only CPU-pool block 0x40002,
//! landing while the guard's invalidation for a CPU store is open. The
//! guard resolved the Put-vs-Inv race before checking page permissions and
//! handed the accelerator's data to the host (Guarantee 0b). Committed
//! against the fixed build, the asserts below are the regression gate.

use xg_core::XgVariant;
use xg_harness::campaign::{run_schedule, CampaignOpts};
use xg_harness::fuzz::Schedule;
use xg_harness::{AccelOrg, HostProtocol, SystemConfig};
use xg_sim::FaultSpec;

#[test]
fn repro_race_put_read_only() {
    let schedule = Schedule::from_text("xg-schedule v1\ns 1 262146 4 1 17\n").unwrap();
    let base = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::Transactional,
        },
        strict_host: false,
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        cpu_ops: 300,
        pool_blocks: 16,
        num_accels: 1,
        faults: FaultSpec {
            delay_spike_pct: 25,
            reorder_pct: 10,
            spike_cycles: 800,
            burst_len: 3,
        },
        ..CampaignOpts::default()
    };
    let out = run_schedule(&base, &opts, &schedule, 0xf97019560d4695d0);
    assert_eq!(out.host_violations, 0, "host protocol violations");
    assert_eq!(out.cpu_data_errors, 0, "cpu data corruption");
    assert!(!out.deadlocked, "host deadlocked");
}
