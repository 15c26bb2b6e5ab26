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
/// what `xg-report --json` serializes. Beside it come the runs'
/// [`stress_findings`].
///
/// Each host protocol runs as an independent shard on `jobs` workers, and
/// the shard reports are merged in submission order.
/// [`xg_sim::Report::merge`] is commutative, so the merged JSON is
/// byte-identical at any worker count.
pub fn collect_report(scale: Scale, jobs: usize) -> (xg_sim::Report, Vec<String>) {
    use xg_harness::{run_stress, sweep, HostProtocol, StressOpts, SystemConfig};
    let ops = scale.ops(4_000, 10_000);
    let shards = vec![(HostProtocol::Hammer, 11), (HostProtocol::Mesi, 12)];
    let runs = sweep(shards, jobs, |(host, seed), _| {
        let cfg = SystemConfig {
            host,
            seed,
            ..SystemConfig::default()
        };
        let out = run_stress(
            &cfg,
            &StressOpts {
                ops,
                ..StressOpts::default()
            },
        );
        let findings = stress_findings(&format!("{} seed {seed}", cfg.name()), &out);
        (out.report, findings)
    });
    let (reports, findings): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    (xg_sim::Report::merge_shards(&reports), findings.concat())
}

/// What a stress run found that must fail the build, one line each naming
/// `run`: tester data errors, a deadlock, host protocol violations (the
/// `*.protocol_violation` counters). Empty for a clean run.
pub fn stress_findings(run: &str, out: &xg_harness::StressOutcome) -> Vec<String> {
    let violations = out.report.sum_suffix(".protocol_violation");
    [
        (out.data_errors > 0).then(|| format!("{run}: {} data errors", out.data_errors)),
        out.deadlocked.then(|| format!("{run}: deadlocked")),
        (violations > 0).then(|| format!("{run}: {violations} host protocol violations")),
    ]
    .into_iter()
    .flatten()
    .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use xg_harness::StressOutcome;

    #[test]
    fn stress_findings_name_the_run_and_every_broken_claim() {
        let mut out = StressOutcome {
            cycles: 0,
            completed: 0,
            data_errors: 0,
            error_log: Vec::new(),
            deadlocked: false,
            transitions: 0,
            post_mortem: None,
            timeline: None,
            report: xg_sim::Report::new(),
        };
        // Counters that are only named like a finding are not one.
        out.report.add("cpu0.protocol_violations_seen", 5);
        out.report.add("cpu0.protocol_violation", 0);
        assert!(stress_findings("hammer/x seed 1", &out).is_empty());

        out.data_errors = 3;
        out.deadlocked = true;
        out.report.add("cpu1.protocol_violation", 2);
        out.report.add("host_l2.protocol_violation", 1);
        assert_eq!(
            stress_findings("hammer/x seed 1", &out),
            [
                "hammer/x seed 1: 3 data errors",
                "hammer/x seed 1: deadlocked",
                "hammer/x seed 1: 3 host protocol violations",
            ]
        );
    }
}
