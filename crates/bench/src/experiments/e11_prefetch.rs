//! E11 — accelerator prefetching behind the guard (an extension the paper
//! motivates in §1: streaming accelerators "may prefetch aggressively",
//! and the whole point of the standardized interface is that such
//! customizations need no host-side changes).
//!
//! We run the streaming workload with next-line prefetching off / degree 1
//! / degree 2 and report runtime, average access latency, and prefetch
//! accuracy. Everything crosses the same unmodified Crossing Guard.

use xg_accel::Prefetch;
use xg_core::XgVariant;
use xg_harness::{run_workload, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig};

use crate::table::{percent, Table};
use crate::Scale;

/// One prefetch setting's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Setting label.
    pub label: String,
    /// Accelerator runtime in cycles.
    pub runtime: u64,
    /// Average accelerator access latency.
    pub avg_latency: u64,
    /// Prefetches issued.
    pub issued: u64,
    /// Prefetched lines that served a later demand access.
    pub useful: u64,
    /// Guard errors (prefetches are ordinary interface traffic; zero).
    pub errors: u64,
}

/// Runs the prefetch sweep on `jobs` workers, one shard per setting.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Row> {
    let ops = scale.ops(4_000, 12_000);
    let shards = vec![
        ("off", Prefetch::Off),
        ("next-line, degree 1", Prefetch::NextLine { degree: 1 }),
        ("next-line, degree 2", Prefetch::NextLine { degree: 2 }),
    ];
    sweep(shards, jobs, |(label, prefetch), _| {
        let cfg = SystemConfig {
            host: HostProtocol::Hammer,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
            // Small cache + large streaming footprint: misses dominate
            // without prefetching.
            accel_cache: (16, 2),
            prefetch,
            seed,
            ..SystemConfig::default()
        };
        let out = run_workload(&cfg, Pattern::Streaming, ops);
        assert!(!out.incomplete, "prefetch={label} hung");
        Row {
            label: label.to_string(),
            runtime: out.accel_runtime,
            avg_latency: out.accel_avg_latency,
            issued: out.report.get("accel_l1.prefetches_issued"),
            useful: out.report.get("accel_l1.prefetch_hits"),
            errors: out.report.get("xg.errors_total"),
        }
    })
}

/// Regression gate: guard errors from prefetch traffic fail the report.
pub fn failures(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.errors > 0)
        .map(|r| format!("E11 prefetch={}: {} errors", r.label, r.errors))
        .collect()
}

/// Renders the E11 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E11 (extension, §1): next-line prefetching at the accelerator L1",
        &[
            "prefetch",
            "runtime (cycles)",
            "avg latency",
            "issued",
            "useful",
            "accuracy",
            "errors",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.runtime.to_string(),
            r.avg_latency.to_string(),
            r.issued.to_string(),
            r.useful.to_string(),
            percent(r.useful, r.issued.max(1)),
            r.errors.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetching_cuts_streaming_latency_without_errors() {
        let rows = run(Scale::Quick, 5, xg_harness::resolve_jobs(None));
        let off = &rows[0];
        let deg2 = &rows[2];
        assert_eq!(off.issued, 0);
        assert!(deg2.issued > 0);
        for r in &rows {
            assert_eq!(r.errors, 0, "{}", r.label);
        }
        assert!(
            deg2.avg_latency < off.avg_latency,
            "prefetching should cut latency: {} vs {}",
            deg2.avg_latency,
            off.avg_latency
        );
        assert!(
            deg2.runtime < off.runtime,
            "prefetching should cut runtime: {} vs {}",
            deg2.runtime,
            off.runtime
        );
        // Streaming prefetches are mostly useful.
        assert!(deg2.useful * 2 >= deg2.issued);
    }
}
