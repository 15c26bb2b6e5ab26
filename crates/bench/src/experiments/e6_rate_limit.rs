//! E6 — denial-of-service rate limiting (§2.5).
//!
//! A misbehaving-but-message-legal accelerator floods the host with
//! requests, consuming directory bandwidth; CPU latency suffers. The
//! token-bucket limiter at the guard throttles the flood and restores CPU
//! performance, at configurable sustained rates.

use xg_core::OsPolicy;
use xg_core::{RateLimit, XgConfig, XgVariant};
use xg_harness::system::CoreSlot;
use xg_harness::tester::word_pool;
use xg_harness::{
    build_system, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig, TesterCfg, TesterCore,
    TesterHub, WorkloadCore,
};

use crate::table::Table;
use crate::Scale;

/// One rate-limit setting's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Limiter setting label.
    pub label: String,
    /// Cycles to finish the fixed CPU workload while flooded.
    pub cpu_finish_cycles: u64,
    /// Average CPU op latency.
    pub cpu_avg_latency: u64,
    /// Accelerator requests throttled at the guard.
    pub throttled: u64,
    /// Accelerator requests that did reach the host.
    pub accel_host_msgs: u64,
}

fn flood_once(limit: Option<RateLimit>, cpu_ops: u64, seed: u64, label: &str) -> Row {
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        // A tiny accelerator cache over a huge streaming footprint: every
        // access misses, producing a legal request flood.
        accel_cache: (2, 1),
        xg: XgConfig {
            rate_limit: limit,
            ..XgConfig::default()
        },
        seed,
        ..SystemConfig::default()
    };
    let hub = TesterHub::new(cfg.cpu_cores, cpu_ops, word_pool(0x40_0000, 8, 2));
    let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, index| {
        match slot {
            CoreSlot::Cpu(i) => Box::new(TesterCore::new(
                format!("tester_cpu{i}"),
                cache,
                index,
                hub.clone(),
                TesterCfg::default(),
            )),
            CoreSlot::Accel(_) => Box::new(WorkloadCore::new(
                "flooder",
                cache,
                Pattern::GraphWalk, // scrambled: every access misses
                0x80_0000,
                1 << 16,
                u64::MAX / 2, // effectively unbounded; run ends with the CPUs
            )),
        }
    });
    system.start_cores();
    let out = system.sim.run_with_watchdog(80_000_000, 500_000);
    assert!(hub.done(), "{label}: CPUs starved entirely");
    let report = system.sim.report();
    let cpu_completed = report.sum_suffix(".ops_completed") - report.get("flooder.ops_completed");
    let latency_sum = report.get("tester_cpu0.latency_sum") + report.get("tester_cpu1.latency_sum");
    Row {
        label: label.to_string(),
        cpu_finish_cycles: out.now.as_u64(),
        cpu_avg_latency: latency_sum / cpu_completed.max(1),
        throttled: report.get("xg.throttled"),
        accel_host_msgs: report.get("xg.host_sent"),
    }
}

/// Runs the DoS experiment on `jobs` workers, one shard per limiter
/// setting.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Row> {
    let cpu_ops = scale.ops(1_500, 10_000);
    let shards: Vec<(Option<RateLimit>, &str)> = vec![
        (None, "no limit (flood unchecked)"),
        (
            Some(RateLimit {
                tokens_per_kilocycle: 50,
                burst: 4,
            }),
            "limit: 50 req / 1k cycles",
        ),
        (
            Some(RateLimit {
                tokens_per_kilocycle: 5,
                burst: 2,
            }),
            "limit: 5 req / 1k cycles",
        ),
    ];
    sweep(shards, jobs, |(limit, label), _| {
        flood_once(limit, cpu_ops, seed, label)
    })
}

/// Renders the E6 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E6 (§2.5): request-rate limiting against a flooding accelerator",
        &[
            "limiter",
            "cpu finish (cycles)",
            "cpu avg latency",
            "accel reqs throttled",
            "accel msgs at host",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.cpu_finish_cycles.to_string(),
            r.cpu_avg_latency.to_string(),
            r.throttled.to_string(),
            r.accel_host_msgs.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_throttles_and_reduces_host_pressure() {
        let rows = run(Scale::Quick, 6, xg_harness::resolve_jobs(None));
        let unlimited = &rows[0];
        let tight = &rows[2];
        assert_eq!(unlimited.throttled, 0);
        assert!(tight.throttled > 0, "tight limiter never engaged");
        assert!(
            tight.accel_host_msgs < unlimited.accel_host_msgs,
            "limiter should cut accel traffic at the host: {} vs {}",
            tight.accel_host_msgs,
            unlimited.accel_host_msgs
        );
    }
}
