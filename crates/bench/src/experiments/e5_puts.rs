//! E5 — `PutS` bandwidth on the XG→host link (§2.1).
//!
//! Paper claim: "unnecessary PutS messages comprised about 1–4 % of
//! Crossing-Guard-to-host bandwidth", and a suppression knob removes them
//! when the host tolerates silent shared eviction. We measure two
//! workloads:
//!
//! * a **read-only shared** microworkload (every accelerator eviction is a
//!   shared copy) — the worst case, bounding the PutS fraction from above;
//! * the **mixed** producer-consumer workload — the realistic case, where
//!   the fraction lands in the paper's low-single-digit range.
//!
//! On the Hammer host no PutS exists at all; the guard suppresses every
//! one. On MESI the suppression knob removes them from the link.

use xg_core::{OsPolicy, XgConfig, XgVariant};
use xg_harness::system::CoreSlot;
use xg_harness::{
    build_system, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig, WorkloadCore,
};

use crate::table::{percent, Table};
use crate::Scale;

/// One measurement row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label.
    pub label: String,
    /// Messages sent by the guard to the host network.
    pub host_sent: u64,
    /// Put-class messages among them.
    pub puts_sent: u64,
    /// `PutS` suppressed at the guard.
    pub suppressed: u64,
    /// Shared-eviction (`PutS`) messages that reached the host L2.
    pub put_s_at_host: u64,
}

/// Runs one read-only-shared measurement: CPUs and the accelerator all
/// walk the same region with loads only, so every accelerator grant is a
/// *shared* copy and every accelerator eviction is a `PutS`.
fn measure(
    host: HostProtocol,
    suppress: bool,
    pattern: Pattern,
    ops: u64,
    seed: u64,
    label: &str,
) -> Row {
    const BASE: u64 = 0x20_0000;
    const FOOTPRINT: u64 = 2_048;
    let cfg = SystemConfig {
        host,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        accel_cache: (8, 2),
        xg: XgConfig {
            suppress_put_s: suppress,
            ..XgConfig::default()
        },
        seed,
        ..SystemConfig::default()
    };
    let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, _| {
        let name = match slot {
            CoreSlot::Cpu(i) => format!("wl_cpu{i}"),
            CoreSlot::Accel(i) => format!("wl_acc{i}"),
        };
        Box::new(WorkloadCore::new(
            name, cache, pattern, BASE, FOOTPRINT, ops,
        ))
    });
    system.start_cores();
    let out = system.sim.run_with_watchdog(100_000_000, 500_000);
    assert!(!out.stalled, "{label} hung");
    let report = system.sim.report();
    Row {
        label: label.to_string(),
        host_sent: report.get("xg.host_sent"),
        puts_sent: report.get("xg.host_puts_sent"),
        suppressed: report.get("xg.puts_suppressed"),
        put_s_at_host: report.get("host_l2.put_s"),
    }
}

/// Runs the PutS bandwidth measurement on `jobs` workers, one shard per
/// measured configuration.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Row> {
    let ops = scale.ops(4_000, 12_000);
    let shards: Vec<(HostProtocol, bool, Pattern, &str)> = vec![
        (
            HostProtocol::Hammer,
            false,
            Pattern::GraphWalk,
            "hammer, read-only shared (always suppressed)",
        ),
        (
            HostProtocol::Mesi,
            false,
            Pattern::GraphWalk,
            "mesi, read-only shared, forwarded (worst case)",
        ),
        (
            HostProtocol::Mesi,
            true,
            Pattern::GraphWalk,
            "mesi, read-only shared, suppressed",
        ),
        (
            HostProtocol::Mesi,
            false,
            Pattern::ProducerConsumer,
            "mesi, mixed workload, forwarded (typical)",
        ),
    ];
    sweep(shards, jobs, |(host, suppress, pattern, label), _| {
        measure(host, suppress, pattern, ops, seed, label)
    })
}

/// Renders the E5 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E5 (§2.1): PutS share of XG-to-host traffic (paper: 1-4%)",
        &[
            "configuration",
            "XG->host msgs",
            "puts sent",
            "PutS share",
            "PutS suppressed",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.host_sent.to_string(),
            r.puts_sent.to_string(),
            percent(r.put_s_at_host, r.host_sent.max(1)),
            r.suppressed.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn puts_share_is_small_and_suppression_works() {
        let rows = run(Scale::Quick, 4, xg_harness::resolve_jobs(None));
        let hammer = &rows[0];
        let fwd = &rows[1];
        let sup = &rows[2];
        let mixed = &rows[3];
        // Hammer: no PutS ever reaches the host; suppression counts them.
        assert!(hammer.suppressed > 0);
        // MESI forwarding (worst case): PutS reaches the L2.
        assert!(fwd.put_s_at_host > 0, "no shared evictions generated");
        // Suppression removes them from the link.
        assert_eq!(sup.put_s_at_host, 0);
        assert!(sup.suppressed > 0);
        // The mixed workload's PutS share is far below the read-only worst
        // case (the paper's 1-4% regime).
        let frac = |r: &Row| r.put_s_at_host as f64 / r.host_sent.max(1) as f64;
        assert!(
            frac(mixed) < frac(fwd) / 2.0,
            "mixed {}% vs worst-case {}%",
            100.0 * frac(mixed),
            100.0 * frac(fwd)
        );
    }
}
