//! E3 — the performance comparison (reconstructed from §1: "Crossing Guard
//! performs similarly to the unsafe, hard-to-design accelerator-side cache
//! and better than a safe but high-latency host-side cache").
//!
//! For every host protocol and every synthetic workload (Rodinia proxies —
//! see `xg_harness::workloads` and `DESIGN.md`), the accelerator runs the
//! workload under each organization; the figure plots runtime normalized
//! to the unsafe accelerator-side cache. Expected shape:
//!
//! * host-side is the slowest (every access pays the crossing latency),
//! * both Crossing Guard variants land near the accelerator-side baseline,
//! * the two-level organization helps sharing-heavy workloads.

use xg_core::XgVariant;
use xg_harness::{run_workload, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig};

use crate::table::{ratio, Table};
use crate::Scale;

/// All organizations compared in the figure, in column order.
pub fn organizations() -> Vec<(&'static str, AccelOrg)> {
    vec![
        ("accel_side", AccelOrg::AccelSide),
        ("host_side", AccelOrg::HostSide),
        (
            "xg_full",
            AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
        ),
        (
            "xg_tx",
            AccelOrg::Xg {
                variant: XgVariant::Transactional,
                two_level: false,
            },
        ),
        (
            "xg_full_l2",
            AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: true,
            },
        ),
        (
            "xg_tx_l2",
            AccelOrg::Xg {
                variant: XgVariant::Transactional,
                two_level: true,
            },
        ),
    ]
}

/// One (host, workload) series of runtimes, one per organization.
#[derive(Debug, Clone)]
pub struct Series {
    /// Host protocol tag.
    pub host: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// `(organization, accel runtime cycles)` in [`organizations`] order.
    pub runtimes: Vec<(&'static str, u64)>,
}

impl Series {
    /// Runtime for an organization by name.
    pub fn runtime(&self, org: &str) -> u64 {
        self.runtimes
            .iter()
            .find(|(name, _)| *name == org)
            .map(|(_, rt)| *rt)
            .expect("organization present")
    }
}

/// Which patterns to sweep at each scale.
pub fn patterns(scale: Scale) -> Vec<Pattern> {
    match scale {
        Scale::Quick => vec![
            Pattern::Streaming,
            Pattern::Blocked,
            Pattern::ProducerConsumer,
        ],
        Scale::Full => Pattern::ALL.to_vec(),
    }
}

/// Runs the sweep on `jobs` workers. Every (host, workload, organization)
/// cell is an independent shard; cells fold back into series in the fixed
/// host-major, workload-minor presentation order for any `jobs`.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Series> {
    let ops = scale.ops(2_500, 10_000);
    let orgs = organizations();
    let mut shards = Vec::new();
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for pattern in patterns(scale) {
            for (name, accel) in orgs.clone() {
                let two_level = matches!(
                    accel,
                    AccelOrg::Xg {
                        two_level: true,
                        ..
                    }
                );
                let cfg = SystemConfig {
                    host,
                    accel,
                    accel_cores: if two_level { 2 } else { 1 },
                    seed,
                    ..SystemConfig::default()
                };
                shards.push((host, pattern, name, cfg));
            }
        }
    }
    let cells = sweep(shards, jobs, |(host, pattern, name, cfg), _| {
        let perf = run_workload(&cfg, pattern, ops);
        assert!(
            !perf.incomplete,
            "{} {} {name} did not finish",
            host.tag(),
            pattern.name()
        );
        (host, pattern, name, perf.accel_runtime)
    });
    cells
        .chunks(orgs.len())
        .map(|chunk| Series {
            host: chunk[0].0.tag(),
            workload: chunk[0].1.name(),
            runtimes: chunk.iter().map(|&(_, _, name, rt)| (name, rt)).collect(),
        })
        .collect()
}

/// Renders the E3 figure data (runtime normalized to accel_side).
pub fn table(series: &[Series]) -> String {
    let mut headers: Vec<&str> = vec!["host", "workload"];
    for (name, _) in organizations() {
        headers.push(name);
    }
    let mut t = Table::new(
        "E3 (§4.3 figure): accelerator runtime, normalized to the unsafe accelerator-side cache",
        &headers,
    );
    for s in series {
        let base = s.runtime("accel_side");
        let mut row = vec![s.host.to_string(), s.workload.to_string()];
        for (name, rt) in &s.runtimes {
            let _ = name;
            row.push(ratio(*rt, base));
        }
        t.row(&row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_host_side_slowest_and_xg_near_baseline() {
        // One host, two workloads at quick scale to keep CI fast.
        let ops = 2_500;
        for pattern in [Pattern::Blocked, Pattern::Streaming] {
            let mut rts = std::collections::HashMap::new();
            for (name, accel) in organizations().into_iter().take(4) {
                let cfg = SystemConfig {
                    host: HostProtocol::Hammer,
                    accel,
                    seed: 9,
                    ..SystemConfig::default()
                };
                let perf = run_workload(&cfg, pattern, ops);
                assert!(!perf.incomplete);
                rts.insert(name, perf.accel_runtime);
            }
            let base = rts["accel_side"];
            assert!(
                rts["host_side"] > rts["xg_full"],
                "{}: host-side must be slower than XG",
                pattern.name()
            );
            assert!(
                rts["xg_full"] < base * 2 && rts["xg_tx"] < base * 2,
                "{}: XG should be within 2x of the unsafe baseline",
                pattern.name()
            );
        }
    }
}
