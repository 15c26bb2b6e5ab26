//! Guarantee-class coverage: the campaign's deterministic probe schedule
//! must make the guard report an OS error in *every* class of the paper's
//! Figure 1 — 0a/0b (permissions), 1a/1b (request consistency and
//! duplicates), 2a/2b/2c (response consistency, unsolicited responses,
//! and timeouts) — on each host persona, while the host itself stays
//! violation-free, uncorrupted, and alive.
//!
//! This replaces the old count-only check ("some OS errors happened") with
//! a per-class assertion: a guard that silently stopped detecting, say,
//! duplicate requests would still rack up a nonzero error total, but it
//! cannot pass this test.

use xg_core::XgVariant;
use xg_harness::{
    guarantee_probe, run_schedule, AccelOrg, CampaignOpts, HostProtocol, SystemConfig,
};
use xg_proto::XgErrorKind;

/// The seven guarantee classes (Malformed is a well-formedness catch-all,
/// not one of Figure 1's guarantees, and is exercised elsewhere).
const CLASSES: [XgErrorKind; 7] = [
    XgErrorKind::PermissionRead,       // 0a
    XgErrorKind::PermissionWrite,      // 0b
    XgErrorKind::InconsistentRequest,  // 1a (Full State only)
    XgErrorKind::DuplicateRequest,     // 1b
    XgErrorKind::InconsistentResponse, // 2a
    XgErrorKind::UnsolicitedResponse,  // 2b
    XgErrorKind::ResponseTimeout,      // 2c
];

fn probe_errors(host: HostProtocol, variant: XgVariant) -> Vec<(XgErrorKind, u64)> {
    let base = SystemConfig {
        host,
        accel: AccelOrg::FuzzXg { variant },
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        cpu_ops: 400,
        ..CampaignOpts::default()
    };
    let out = run_schedule(&base, &opts, &guarantee_probe(), 0xF1);
    assert_eq!(out.host_violations, 0, "{host:?}/{variant:?}: host pierced");
    assert_eq!(
        out.cpu_data_errors, 0,
        "{host:?}/{variant:?}: data corrupted"
    );
    assert!(!out.deadlocked, "{host:?}/{variant:?}: host deadlocked");
    CLASSES
        .iter()
        .map(|&k| (k, out.report.get(&format!("xg.errors.{k}"))))
        .collect()
}

fn assert_classes(host: HostProtocol, variant: XgVariant) {
    for (kind, count) in probe_errors(host, variant) {
        if variant == XgVariant::Transactional && kind == XgErrorKind::InconsistentRequest {
            // Guarantee 1a needs the Full State table (the Transactional
            // guard does not track stable states; paper §2.4).
            continue;
        }
        assert!(
            count > 0,
            "{host:?}/{variant:?}: probe never fired guarantee class {kind}"
        );
    }
}

/// The same probe on a *two-guard* system: each guard counts the errors
/// it raises (`<guard>.errors.<kind>`), so the attacked guard must count
/// some class and the correct sibling guard none, in any class. An
/// attribution bug that leaked errors to the wrong guard cannot pass.
fn assert_two_guard_attribution(host: HostProtocol, variant: XgVariant) {
    let base = SystemConfig {
        host,
        accel: AccelOrg::FuzzXg { variant },
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        cpu_ops: 400,
        num_accels: 2,
        ..CampaignOpts::default()
    };
    let out = run_schedule(&base, &opts, &guarantee_probe(), 0xF1);
    assert_eq!(out.host_violations, 0, "{host:?}/{variant:?}: host pierced");
    assert_eq!(
        out.cpu_data_errors, 0,
        "{host:?}/{variant:?}: data corrupted"
    );
    assert!(!out.deadlocked, "{host:?}/{variant:?}: host deadlocked");
    let mut offender_total = 0;
    for kind in CLASSES {
        assert_eq!(
            out.report.get(&format!("a1_xg.errors.{kind}")),
            0,
            "{host:?}/{variant:?}: sibling guard raised class {kind}"
        );
        offender_total += out.report.get(&format!("xg.errors.{kind}"));
    }
    assert!(
        offender_total > 0,
        "{host:?}/{variant:?}: probe fired nothing on the attacked guard"
    );
    assert_eq!(
        out.report.get("a1_xg.errors_total"),
        0,
        "{host:?}/{variant:?}: sibling guard must report zero errors"
    );
}

#[test]
fn probe_spans_every_class_on_hammer_full_state() {
    assert_classes(HostProtocol::Hammer, XgVariant::FullState);
}

#[test]
fn probe_spans_every_class_on_mesi_full_state() {
    assert_classes(HostProtocol::Mesi, XgVariant::FullState);
}

#[test]
fn probe_spans_every_class_on_hammer_transactional() {
    assert_classes(HostProtocol::Hammer, XgVariant::Transactional);
}

#[test]
fn probe_spans_every_class_on_mesi_transactional() {
    assert_classes(HostProtocol::Mesi, XgVariant::Transactional);
}

#[test]
fn two_guard_errors_attributed_to_offender_on_hammer_full_state() {
    assert_two_guard_attribution(HostProtocol::Hammer, XgVariant::FullState);
}

#[test]
fn two_guard_errors_attributed_to_offender_on_mesi_full_state() {
    assert_two_guard_attribution(HostProtocol::Mesi, XgVariant::FullState);
}

#[test]
fn two_guard_errors_attributed_to_offender_on_hammer_transactional() {
    assert_two_guard_attribution(HostProtocol::Hammer, XgVariant::Transactional);
}

#[test]
fn two_guard_errors_attributed_to_offender_on_mesi_transactional() {
    assert_two_guard_attribution(HostProtocol::Mesi, XgVariant::Transactional);
}
