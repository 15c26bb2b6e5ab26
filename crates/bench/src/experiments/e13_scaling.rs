//! E13 — banked homes: address-interleaved home nodes.
//!
//! `SystemConfig::home_banks` splits the host home node into M
//! address-interleaved directory / shared-L2 banks; every cache and guard
//! routes each block to its owning bank. This experiment sweeps two system
//! shapes (a small guarded Hammer system, a wider MESI one with two
//! hierarchies) across bank counts and pins the claim that makes the
//! feature shippable:
//!
//! * **Safety at every point**: no cell may deadlock, corrupt data,
//!   raise a protocol violation, or report a spurious guard error —
//!   banking must never change what the protocols do.
//!
//! The table also reports simulated throughput (ops per thousand cycles)
//! per cell. Simulated metrics only — no wall-clock fields — so the table
//! and the summary report are deterministic and safe to diff across
//! machines.

use xg_harness::{run_stress_with, HostProtocol, Instrumentation, StressOpts, SystemConfig};
use xg_sim::Report;

use crate::table::Table;
use crate::Scale;

/// One (shape × banks) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label with the `@bM` bank suffix.
    pub config: String,
    /// CPU core count.
    pub cpus: usize,
    /// Accelerator slot count.
    pub accels: usize,
    /// Address-interleaved home banks.
    pub banks: usize,
    /// Tester operations completed.
    pub ops: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Host protocol violations (must stay 0).
    pub violations: u64,
    /// Guard errors reported to the OS (must stay 0 — nothing fuzzes).
    pub os_errors: u64,
    /// Value-check failures (must stay 0).
    pub data_errors: u64,
    /// True if the watchdog fired or ops were left hanging.
    pub deadlocked: bool,
}

impl Row {
    /// Simulated throughput: operations per thousand cycles.
    pub fn ops_per_kcycle(&self) -> u64 {
        self.ops * 1_000 / self.cycles.max(1)
    }
}

/// System shapes crossed with the bank sweep: a small guarded system on
/// each host protocol, and a wider one with two hierarchies.
const SHAPES: [(HostProtocol, usize, usize); 2] =
    [(HostProtocol::Hammer, 2, 1), (HostProtocol::Mesi, 4, 2)];
/// Home-bank counts swept per shape.
const BANKS: [usize; 3] = [1, 2, 4];

/// Every cell of the sweep, in table order.
pub fn configs(seed: u64) -> Vec<SystemConfig> {
    let mut out = Vec::new();
    for (host, cpus, accels) in SHAPES {
        for banks in BANKS {
            out.push(SystemConfig {
                host,
                cpu_cores: cpus,
                num_accels: accels,
                home_banks: banks,
                seed,
                ..SystemConfig::default()
            });
        }
    }
    out
}

/// Runs every cell on `jobs` workers. The returned [`Report`] carries
/// per-cell simulated throughput under `e13.<config>.*` scalar keys.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> (Vec<Row>, Report) {
    let ops = scale.ops(150, 1_500);
    let cells = configs(seed);
    let outcomes = xg_harness::sweep(cells.clone(), jobs, move |cfg, _| {
        run_stress_with(
            &cfg,
            &StressOpts {
                ops,
                ..StressOpts::default()
            },
            &Instrumentation::off(),
        )
    });
    let mut rows = Vec::new();
    let mut summary = Report::new();
    for (cfg, out) in cells.iter().zip(outcomes) {
        let row = Row {
            config: cfg.name(),
            cpus: cfg.cpu_cores,
            accels: cfg.num_accels,
            banks: cfg.home_banks,
            ops: out.completed,
            cycles: out.cycles,
            violations: out.report.sum_suffix(".protocol_violation"),
            os_errors: out.report.sum_suffix(".errors_total"),
            data_errors: out.data_errors,
            deadlocked: out.deadlocked,
        };
        summary.add(
            format_args!("e13.{}.ops_per_kcycle", row.config),
            row.ops_per_kcycle(),
        );
        summary.add(format_args!("e13.{}.cycles", row.config), row.cycles);
        rows.push(row);
    }
    (rows, summary)
}

/// Regression gate: every cell clean.
pub fn failures(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if r.deadlocked {
            out.push(format!("E13 {}: deadlocked", r.config));
        }
        if r.data_errors > 0 {
            out.push(format!("E13 {}: {} data errors", r.config, r.data_errors));
        }
        if r.violations > 0 {
            out.push(format!(
                "E13 {}: {} protocol violations",
                r.config, r.violations
            ));
        }
        if r.os_errors > 0 {
            out.push(format!(
                "E13 {}: {} spurious guard errors",
                r.config, r.os_errors
            ));
        }
    }
    out
}

/// Renders the banked-homes table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E13: banked homes — address-interleaved home nodes",
        &[
            "config", "cpus", "accels", "banks", "ops", "cycles", "ops/kcyc", "viol", "deadlock",
        ],
    );
    for r in rows {
        t.row(&[
            r.config.clone(),
            r.cpus.to_string(),
            r.accels.to_string(),
            r.banks.to_string(),
            r.ops.to_string(),
            r.cycles.to_string(),
            r.ops_per_kcycle().to_string(),
            r.violations.to_string(),
            if r.deadlocked { "YES" } else { "no" }.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claim: the whole (shape × banks) product runs clean.
    #[test]
    fn every_bank_count_runs_clean() {
        let (rows, summary) = run(Scale::Quick, 0x5CA1E, xg_harness::resolve_jobs(None));
        assert_eq!(rows.len(), SHAPES.len() * BANKS.len());
        let gate = failures(&rows);
        assert!(gate.is_empty(), "{gate:?}");
        for r in &rows {
            assert!(r.ops > 0, "{}: no progress", r.config);
            assert_eq!(summary.get(&format!("e13.{}.cycles", r.config)), r.cycles);
        }
    }
}
