//! E1 — the §4.1 protocol stress test, across all twelve configurations.
//!
//! Paper claim: running the random value-checking tester over every
//! configuration finds **no data errors and no deadlocks**, while visiting
//! broad state/event coverage at every controller. (The paper ran 240 M —
//! 82 B load/check pairs per configuration over 22 compute-years; the op
//! counts here are scaled to seconds — crank [`crate::Scale`] or the
//! `ops` knob to scale up.)

use xg_harness::{run_stress, sweep, StressOpts, SystemConfig};

use crate::table::Table;
use crate::Scale;

/// One configuration's stress outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration name (`host/org`).
    pub config: String,
    /// Operations completed.
    pub completed: u64,
    /// Distinct (state, event) pairs visited across all controllers.
    pub transitions: usize,
    /// Value-check failures — the headline number; must be zero.
    pub data_errors: u64,
    /// Whether the run deadlocked — must be false.
    pub deadlocked: bool,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Runs the stress test over the full configuration matrix on `jobs`
/// workers. Every `(configuration, seed)` pair is an independent shard;
/// shard outcomes fold back per configuration in matrix order, so the rows
/// are identical for any `jobs`.
pub fn run(scale: Scale, seeds: &[u64], jobs: usize) -> Vec<Row> {
    let ops = scale.ops(800, 10_000);
    let matrix = SystemConfig::matrix(1);
    let shards: Vec<SystemConfig> = matrix
        .iter()
        .flat_map(|base| {
            seeds.iter().map(|&seed| SystemConfig {
                seed,
                ..base.clone()
            })
        })
        .collect();
    let outcomes = sweep(shards, jobs, |cfg, _| {
        run_stress(
            &cfg,
            &StressOpts {
                ops,
                ..StressOpts::default()
            },
        )
    });
    matrix
        .iter()
        .zip(outcomes.chunks(seeds.len()))
        .map(|(base, outs)| Row {
            config: base.name(),
            completed: outs.iter().map(|o| o.completed).sum(),
            transitions: outs.iter().map(|o| o.transitions).max().unwrap_or(0),
            data_errors: outs.iter().map(|o| o.data_errors).sum(),
            deadlocked: outs.iter().any(|o| o.deadlocked),
            cycles: outs.iter().map(|o| o.cycles).sum(),
        })
        .collect()
}

/// Regression gate: the lines that make the report exit nonzero.
pub fn failures(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if r.data_errors > 0 {
            out.push(format!("E1 {}: {} data errors", r.config, r.data_errors));
        }
        if r.deadlocked {
            out.push(format!("E1 {}: deadlocked", r.config));
        }
    }
    out
}

/// Renders the E1 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E1 (§4.1): random stress test — correctness with a correct accelerator",
        &[
            "config",
            "ops",
            "state/event pairs",
            "data errors",
            "deadlock",
            "cycles",
        ],
    );
    for r in rows {
        t.row(&[
            r.config.clone(),
            r.completed.to_string(),
            r.transitions.to_string(),
            r.data_errors.to_string(),
            if r.deadlocked { "YES" } else { "no" }.into(),
            r.cycles.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_clean_everywhere() {
        let rows = run(Scale::Quick, &[3], xg_harness::resolve_jobs(None));
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert_eq!(r.data_errors, 0, "{}", r.config);
            assert!(!r.deadlocked, "{}", r.config);
            assert!(r.transitions > 10, "{}", r.config);
        }
        let rendered = table(&rows);
        assert!(rendered.contains("hammer/accel_side"));
        assert!(rendered.contains("mesi/xg_tx_l2"));
    }
}
