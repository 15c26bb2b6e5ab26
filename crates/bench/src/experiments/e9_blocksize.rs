//! E9 — block-size translation (§2.5).
//!
//! The accelerator may use blocks that are multiples of the 64 B host
//! block; Crossing Guard merges Gets/grants and splits Puts. We run the
//! same blocked workload with accelerator blocks of 64, 128, and 256 bytes
//! and report runtime, interface traffic (which shrinks — fewer, larger
//! messages), and host traffic (which stays proportional to data moved).

use xg_core::{XgConfig, XgVariant};
use xg_harness::{run_workload, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig};

use crate::table::Table;
use crate::Scale;

/// One block-size setting's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Accelerator block size in host blocks.
    pub k: usize,
    /// Accelerator runtime in cycles.
    pub runtime: u64,
    /// Messages crossing the accelerator↔guard interface.
    pub interface_msgs: u64,
    /// Messages on the guard↔host network.
    pub host_msgs: u64,
    /// Errors (must be zero).
    pub errors: u64,
}

/// Runs the block-size sweep on `jobs` workers, one shard per block size.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Row> {
    let ops = scale.ops(3_000, 10_000);
    sweep(vec![1usize, 2, 4], jobs, |k, _| {
        let cfg = SystemConfig {
            host: HostProtocol::Hammer,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
            xg: XgConfig {
                block_blocks: k,
                ..XgConfig::default()
            },
            seed,
            ..SystemConfig::default()
        };
        let out = run_workload(&cfg, Pattern::Blocked, ops);
        assert!(!out.incomplete, "k={k} hung");
        Row {
            k,
            runtime: out.accel_runtime,
            interface_msgs: out.report.get("xg.accel_received") + out.report.get("xg.accel_sent"),
            host_msgs: out.report.get("xg.host_sent") + out.report.get("xg.host_received"),
            errors: out.report.get("xg.errors_total"),
        }
    })
}

/// Regression gate: any translation error fails the report.
pub fn failures(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.errors > 0)
        .map(|r| format!("E9 k={}: {} errors", r.k, r.errors))
        .collect()
}

/// Renders the E9 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E9 (§2.5): accelerator block-size translation (blocked workload)",
        &[
            "accel block",
            "runtime (cycles)",
            "interface msgs",
            "host msgs",
            "errors",
        ],
    );
    for r in rows {
        t.row(&[
            format!("{} B", r.k * 64),
            r.runtime.to_string(),
            r.interface_msgs.to_string(),
            r.host_msgs.to_string(),
            r.errors.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_blocks_cut_interface_traffic_without_errors() {
        let rows = run(Scale::Quick, 8, xg_harness::resolve_jobs(None));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.errors, 0, "k={}", r.k);
            assert!(r.runtime > 0);
        }
        // A blocked (high-spatial-locality) workload needs fewer interface
        // messages per byte with larger accelerator blocks.
        assert!(
            rows[2].interface_msgs < rows[0].interface_msgs,
            "256 B blocks should reduce interface messages: {} vs {}",
            rows[2].interface_msgs,
            rows[0].interface_msgs
        );
    }
}
