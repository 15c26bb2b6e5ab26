//! # xg-bench — the evaluation harness
//!
//! One module per experiment in `DESIGN.md`'s experiment index; each
//! regenerates a table or figure of the Crossing Guard evaluation. The
//! same code backs two entry points:
//!
//! * `cargo run -p xg-bench --bin xg-report` — regenerate everything at
//!   full scale (feeds `EXPERIMENTS.md`); `-- quick` at CI scale.
//! * Unit tests asserting the *shape* claims (who wins, what stays zero).
//!
//! Timing a run is the `benchmark/` package's job, not this crate's.
//!
//! Scale is a knob, not a fork: [`Scale::Quick`] for CI, [`Scale::Full`]
//! for the report.

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod profile;
pub mod table;

/// Runs one representative stress configuration per host protocol and
/// merges the full per-component statistics into a single machine-readable
/// [`xg_sim::Report`] — scalars, coverage, and the latency histograms from
/// the guard, the host controllers, and the accelerator hierarchy. This is
/// what `xg-report --json` serializes.
pub fn collect_report(scale: Scale) -> xg_sim::Report {
    collect_report_jobs(scale, xg_harness::resolve_jobs(None))
}

/// [`collect_report`] on `jobs` workers: each host protocol runs as an
/// independent shard and the shard reports are merged in submission order.
/// [`xg_sim::Report::merge`] is commutative, so the merged JSON is
/// byte-identical at any worker count.
pub fn collect_report_jobs(scale: Scale, jobs: usize) -> xg_sim::Report {
    use xg_harness::{run_stress, sweep, HostProtocol, StressOpts, SystemConfig};
    let ops = scale.ops(4_000, 10_000);
    let shards = vec![(HostProtocol::Hammer, 11), (HostProtocol::Mesi, 12)];
    let reports = sweep(shards, jobs, |(host, seed), _| {
        let cfg = SystemConfig {
            host,
            seed,
            ..SystemConfig::default()
        };
        run_stress(
            &cfg,
            &StressOpts {
                ops,
                ..StressOpts::default()
            },
        )
        .report
    });
    xg_sim::Report::merge_shards(&reports)
}

/// Renders the per-machine transition-coverage sections of a merged
/// report: one table per table-driven machine (see `xg-fsm`), each followed
/// by a fired/total summary and the declared rows the run never exercised.
/// Backs `xg-report --coverage`.
pub fn coverage_tables(report: &xg_sim::Report) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (machine, cov) in report.fsms() {
        let mut t = table::Table::new(
            format!("transition coverage: {machine}"),
            &["state", "event", "fired"],
        );
        for (s, e, n) in cov.iter() {
            t.row(&[s.to_string(), e.to_string(), n.to_string()]);
        }
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "rows fired: {}/{} ({})",
            cov.fired_rows(),
            cov.total_rows(),
            table::percent(cov.fired_rows() as u64, cov.total_rows() as u64),
        );
        let never: Vec<String> = cov
            .never_fired()
            .map(|(s, e)| format!("{s} x {e}"))
            .collect();
        if never.is_empty() {
            let _ = writeln!(out, "never fired: none");
        } else {
            let _ = writeln!(out, "never fired: {}", never.join(", "));
        }
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("no transition-coverage data in report\n");
    }
    out
}

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment (CI, `xg-report quick`, unit tests).
    Quick,
    /// Tens of seconds per experiment (the shipped report).
    Full,
}

impl Scale {
    /// Scales a base count.
    pub fn ops(self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
