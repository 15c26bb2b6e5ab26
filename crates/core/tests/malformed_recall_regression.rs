//! Regression test for a real guard bug the fuzz campaign found (and
//! `minimize` shrank): answering a forwarded invalidation on a
//! **read-only** page with a *wrong-sized* writeback used to take the
//! Malformed fabrication path, which answered the host's recall with
//! fabricated owner data (`Resolution::Owned`, zeroed, dirty) from a node
//! that was only ever a sharer. Under Hammer the zeroed `RespData`
//! corrupted CPU reads; under MESI the `OwnerWb` from a non-owner was an
//! unsolicited-writeback protocol violation followed by a wedged recall.
//!
//! The fix makes Guarantee 0b dominate well-formedness: on a read-only
//! page any writeback — malformed or not — resolves as shared and is
//! reported as a permission-write error.

use xg_core::XgVariant;
use xg_harness::campaign::CPU_POOL_BLOCK;
use xg_harness::fuzz::{FuzzStep, InvPolicy, Schedule};
use xg_harness::{run_schedule, AccelOrg, CampaignOpts, HostProtocol, SystemConfig};

/// One legal shared read of a CPU-pool block, with every forwarded
/// invalidation answered by a CleanWb of the wrong payload size.
fn malformed_recall_schedule() -> Schedule {
    Schedule {
        steps: vec![FuzzStep {
            delay: 1,
            block: CPU_POOL_BLOCK,
            kind: 0, // GetS
            payload_blocks: 1,
            fill: 0x17,
        }],
        responses: vec![InvPolicy {
            respond: true,
            kind: 1,           // CleanWb
            payload_blocks: 3, // wrong size: the guard runs 1-block blocks
        }],
    }
}

fn check(host: HostProtocol, variant: XgVariant) {
    let base = SystemConfig {
        host,
        accel: AccelOrg::FuzzXg { variant },
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        cpu_ops: 400,
        ..CampaignOpts::default()
    };
    let out = run_schedule(&base, &opts, &malformed_recall_schedule(), 0xBADB);
    assert_eq!(
        out.host_violations, 0,
        "{host:?}/{variant:?}: fabricated owner data pierced the host"
    );
    assert_eq!(
        out.cpu_data_errors, 0,
        "{host:?}/{variant:?}: data corrupted"
    );
    assert!(!out.deadlocked, "{host:?}/{variant:?}: recall wedged");
    assert!(
        out.report.get("xg.errors.perm_write") > 0,
        "{host:?}/{variant:?}: 0b must dominate the malformed writeback"
    );
}

#[test]
fn malformed_recall_response_stays_contained_hammer_full_state() {
    check(HostProtocol::Hammer, XgVariant::FullState);
}

#[test]
fn malformed_recall_response_stays_contained_mesi_full_state() {
    check(HostProtocol::Mesi, XgVariant::FullState);
}

#[test]
fn malformed_recall_response_stays_contained_hammer_transactional() {
    check(HostProtocol::Hammer, XgVariant::Transactional);
}

#[test]
fn malformed_recall_response_stays_contained_mesi_transactional() {
    check(HostProtocol::Mesi, XgVariant::Transactional);
}
