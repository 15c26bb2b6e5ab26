//! E2b — coverage-guided campaign vs. blind fuzzing at an equal message
//! budget, on the four guarded configurations of E2's group 1.
//!
//! The paper's fuzz claim (§1, §4) is about *blind* random traffic; the
//! campaign layer ([`xg_harness::campaign`]) adds AFL-style feedback
//! (per-machine `TransitionCoverage` deltas), structural schedule
//! mutation, link fault injection, and permission-window attacks. This
//! experiment quantifies what that buys: for every guarded configuration
//! the guided campaign must fire strictly more distinct `(state, event)`
//! pairs than the blind E2 fuzzer given *at least* as many messages —
//! while still producing zero violations, zero data corruption, and zero
//! deadlocks.

use xg_core::XgVariant;
use xg_harness::{run_blind, run_campaign, AccelOrg, CampaignOpts, HostProtocol, SystemConfig};
use xg_sim::Report;

use crate::table::Table;
use crate::Scale;

/// One guided-vs-blind comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label.
    pub config: String,
    /// Campaign runs executed.
    pub runs: u64,
    /// Messages the campaign injected — the blind budget.
    pub budget: u64,
    /// Distinct `(state, event)` pairs the guided campaign fired.
    pub guided_pairs: u64,
    /// Messages the blind fuzzer injected (≥ `budget` by construction).
    pub blind_injected: u64,
    /// Distinct `(state, event)` pairs the blind fuzzer fired.
    pub blind_pairs: u64,
    /// Corpus entries that discovered new coverage.
    pub corpus: u64,
    /// Host protocol violations across the campaign (must stay 0).
    pub violations: u64,
    /// CPU data corruption events across the campaign (must stay 0).
    pub data_errors: u64,
    /// Deadlocked runs across the campaign (must stay 0).
    pub deadlocks: u64,
}

/// The four guarded configurations (E2 group 1).
pub fn configs() -> Vec<SystemConfig> {
    let mut out = Vec::new();
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            out.push(SystemConfig {
                host,
                accel: AccelOrg::FuzzXg { variant },
                ..SystemConfig::default()
            });
        }
    }
    out
}

/// Campaign sizing per scale. Quick stays a smoke (a few seconds per
/// configuration on one core); Full is the nightly depth.
pub fn opts(scale: Scale, seed: u64) -> CampaignOpts {
    CampaignOpts {
        seed,
        generations: scale.ops(2, 5) as usize,
        batch: scale.ops(3, 6) as usize,
        run_len: scale.ops(25, 40) as usize,
        cpu_ops: scale.ops(200, 400),
        ..CampaignOpts::default()
    }
}

/// Runs the comparison on `jobs` workers. Configurations run serially
/// (each campaign parallelizes its own generation batches); the returned
/// [`Report`] carries the per-configuration numbers as scalars under
/// `fuzz.<config>.{budget, guided_pairs, blind_injected, blind_pairs}`.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> (Vec<Row>, Report) {
    let mut rows = Vec::new();
    let mut summary = Report::new();
    for base in configs() {
        let label = base.name();
        let mut o = opts(scale, seed);
        o.jobs = Some(jobs);
        let guided = run_campaign(&base, &o);
        let blind = run_blind(&base, &o, guided.injected);
        let (mut violations, mut data_errors, mut deadlocks) = (0u64, 0u64, 0u64);
        for f in &guided.failures {
            match f.kind {
                xg_harness::FailureKind::HostViolation => violations += 1,
                xg_harness::FailureKind::DataError => data_errors += 1,
                xg_harness::FailureKind::Deadlock => deadlocks += 1,
            }
        }
        for (key, value) in [
            ("budget", guided.injected),
            ("guided_pairs", guided.distinct_pairs()),
            ("blind_injected", blind.injected),
            ("blind_pairs", blind.distinct_pairs()),
        ] {
            summary.add(format_args!("fuzz.{label}.{key}"), value);
        }
        rows.push(Row {
            config: label,
            runs: guided.runs,
            budget: guided.injected,
            guided_pairs: guided.distinct_pairs(),
            blind_injected: blind.injected,
            blind_pairs: blind.distinct_pairs(),
            corpus: guided.corpus.len() as u64,
            violations,
            data_errors,
            deadlocks,
        });
    }
    (rows, summary)
}

/// Regression gate: every guarded configuration must stay safe under the
/// full campaign (faults on) *and* the guidance must pay for itself —
/// strictly more distinct pairs than blind fuzzing at the same budget.
pub fn failures(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if r.violations > 0 {
            out.push(format!(
                "E2b {}: {} host protocol violations under campaign",
                r.config, r.violations
            ));
        }
        if r.data_errors > 0 {
            out.push(format!(
                "E2b {}: {} cpu data errors under campaign",
                r.config, r.data_errors
            ));
        }
        if r.deadlocks > 0 {
            out.push(format!(
                "E2b {}: {} deadlocked runs under campaign",
                r.config, r.deadlocks
            ));
        }
        if r.guided_pairs <= r.blind_pairs {
            out.push(format!(
                "E2b {}: guided campaign fired {} distinct pairs vs blind {} at budget {} — \
                 guidance did not pay",
                r.config, r.guided_pairs, r.blind_pairs, r.budget
            ));
        }
    }
    out
}

/// Renders the guided-vs-blind table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E2b: coverage-guided campaign vs blind fuzzing (equal message budget)",
        &[
            "config",
            "runs",
            "budget",
            "guided pairs",
            "blind pairs",
            "corpus",
            "violations",
            "data errors",
            "deadlocks",
        ],
    );
    for r in rows {
        t.row(&[
            r.config.clone(),
            r.runs.to_string(),
            r.budget.to_string(),
            r.guided_pairs.to_string(),
            r.blind_pairs.to_string(),
            r.corpus.to_string(),
            r.violations.to_string(),
            r.data_errors.to_string(),
            r.deadlocks.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claim: on all four guarded configurations the guided
    /// campaign beats blind fuzzing at an equal budget, with zero safety
    /// breaks, and the numbers land in the Report's `fuzz.*` scalars.
    #[test]
    fn guided_beats_blind_on_every_guarded_config() {
        let (rows, summary) = run(Scale::Quick, 0xC4A55, xg_harness::resolve_jobs(None));
        assert_eq!(rows.len(), 4);
        let gate = failures(&rows);
        assert!(gate.is_empty(), "{gate:?}");
        for r in &rows {
            assert!(
                r.guided_pairs > r.blind_pairs,
                "{}: guided {} <= blind {}",
                r.config,
                r.guided_pairs,
                r.blind_pairs
            );
            assert!(
                r.blind_injected >= r.budget,
                "{}: blind short-changed",
                r.config
            );
            assert_eq!(
                summary.get(&format!("fuzz.{}.guided_pairs", r.config)),
                r.guided_pairs
            );
            assert_eq!(
                summary.get(&format!("fuzz.{}.blind_pairs", r.config)),
                r.blind_pairs
            );
        }
    }
}
