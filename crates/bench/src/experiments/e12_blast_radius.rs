//! E12 — blast radius: fuzz one guard's accelerator while a correct
//! sibling hierarchy shares the host.
//!
//! The paper argues (§2.2) that a Crossing Guard confines a misbehaving
//! accelerator's damage to the pages it may legally write. The
//! single-accelerator fuzz experiments (E2) check the *host* survives; this
//! experiment checks the claim that matters once several accelerators
//! share one host protocol: a sibling hierarchy behind its *own* guard
//! must neither observe corruption nor starve while its neighbor is
//! bombarding the interface.
//!
//! Setup, per guarded configuration: slot 0 is a fuzzed guard
//! (`FuzzXg`), slot 1 a correct one-level guarded accelerator whose
//! tester cores share the CPU pool. The attacker holds *no* write
//! permission on that pool, so any sibling value-check failure is a
//! containment breach, never legal traffic. Each cell runs twice — once
//! attacked, once with a zero-message fuzzer — and the cycle ratio bounds
//! the collateral slowdown.

use xg_core::XgVariant;
use xg_harness::{run_fuzz, AccelOrg, AccelSlot, FuzzOpts, HostProtocol, SystemConfig};
use xg_sim::Report;

use crate::table::Table;
use crate::Scale;

/// Report label of the attacked guard (instance 0).
pub const ATTACKED_GUARD: &str = "xg";
/// Report label of the correct sibling guard (instance 1).
pub const SIBLING_GUARD: &str = "a1_xg";

/// Collateral slowdown bound, in percent of the unattacked baseline
/// (1000 = the attacked system may take at most 10x the baseline cycles).
/// The attack adds real contention — guard timeouts on withheld
/// invalidation responses stall shared blocks for whole timeout windows —
/// so the bound is a blast-radius ceiling, not a perf target.
pub const MAX_SLOWDOWN_PCT: u64 = 1000;

/// One attacked-vs-baseline cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration label (`hammer/fuzz_xg_full+xg_full_l1`, ...).
    pub config: String,
    /// Fuzz messages injected at guard 0's interface.
    pub injected: u64,
    /// Errors guard 0 (the attacked one) reported to the OS — evidence
    /// the attack engaged.
    pub attacked_os_errors: u64,
    /// Errors the *sibling* guard reported (must stay 0: a correct
    /// hierarchy gives its guard nothing to reject).
    pub sibling_os_errors: u64,
    /// Sibling tester value-check failures (must stay 0).
    pub sibling_data_errors: u64,
    /// Sibling tester operations completed under attack (liveness).
    pub sibling_ops: u64,
    /// Host protocol violations (must stay 0).
    pub host_violations: u64,
    /// CPU-side value-check failures (must stay 0).
    pub cpu_data_errors: u64,
    /// True if anything wedged under attack.
    pub deadlocked: bool,
    /// Cycles to completion under attack.
    pub attacked_cycles: u64,
    /// Cycles to completion with a silent fuzzer (same topology).
    pub baseline_cycles: u64,
}

impl Row {
    /// Attacked cycles as a percentage of baseline cycles (100 = no
    /// collateral slowdown).
    pub fn slowdown_pct(&self) -> u64 {
        self.attacked_cycles * 100 / self.baseline_cycles.max(1)
    }
}

/// The four guarded two-accelerator configurations: each fuzzed guard
/// variant rides with a correct one-level sibling of the same variant.
pub fn configs(seed: u64) -> Vec<SystemConfig> {
    let mut out = Vec::new();
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            out.push(SystemConfig {
                host,
                accel: AccelOrg::FuzzXg { variant },
                accels: vec![
                    AccelSlot::from(AccelOrg::FuzzXg { variant }),
                    AccelSlot::from(AccelOrg::Xg {
                        variant,
                        two_level: false,
                    }),
                ],
                seed,
                ..SystemConfig::default()
            });
        }
    }
    out
}

/// Runs every cell (4 configurations x {attacked, baseline}) on `jobs`
/// workers. The returned [`Report`] carries the per-configuration numbers
/// as scalars under `fuzz.<config>.{sibling_data_errors, sibling_os_errors,
/// attacked_os_errors, slowdown_pct}`.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> (Vec<Row>, Report) {
    let messages = scale.ops(300, 3_000);
    let cpu_ops = scale.ops(200, 2_000);
    let cells: Vec<(SystemConfig, bool)> = configs(seed)
        .into_iter()
        .flat_map(|cfg| [(cfg.clone(), true), (cfg, false)])
        .collect();
    let outcomes = xg_harness::sweep(cells.clone(), jobs, move |(cfg, attacked), _| {
        let fuzz = FuzzOpts {
            messages: if attacked { messages } else { 0 },
            ..FuzzOpts::default()
        };
        run_fuzz(&cfg, &fuzz, cpu_ops)
    });
    let mut rows = Vec::new();
    let mut summary = Report::new();
    // Cells alternate attacked/baseline per config (sweep preserves
    // submission order).
    for pair in cells.chunks(2).zip(outcomes.chunks(2)) {
        let ((cfg, _), [attacked, baseline]) = (&pair.0[0], pair.1) else {
            unreachable!("cells come in attacked/baseline pairs");
        };
        let label = cfg.name();
        let guard = |guard: &str, key: &str| attacked.report.get(&format!("guard.{guard}.{key}"));
        let errors = |guard: &str| attacked.report.get(&format!("{guard}.errors_total"));
        let row = Row {
            config: label.clone(),
            injected: attacked.injected,
            attacked_os_errors: errors(ATTACKED_GUARD),
            sibling_os_errors: errors(SIBLING_GUARD),
            sibling_data_errors: guard(SIBLING_GUARD, "data_errors"),
            sibling_ops: guard(SIBLING_GUARD, "ops_completed"),
            host_violations: attacked.host_violations,
            cpu_data_errors: attacked.cpu_data_errors,
            deadlocked: attacked.deadlocked || baseline.deadlocked,
            attacked_cycles: attacked.cycles,
            baseline_cycles: baseline.cycles,
        };
        for (key, value) in [
            ("sibling_data_errors", row.sibling_data_errors),
            ("sibling_os_errors", row.sibling_os_errors),
            ("attacked_os_errors", row.attacked_os_errors),
            ("slowdown_pct", row.slowdown_pct()),
        ] {
            summary.add(format_args!("fuzz.{label}.{key}"), value);
        }
        rows.push(row);
    }
    (rows, summary)
}

/// Regression gate: the blast radius of a fuzzed guard must not reach its
/// sibling — no corruption anywhere, no sibling guard errors, no host
/// violations, no deadlock, bounded collateral slowdown — while the attack
/// demonstrably engaged (guard 0 rejected traffic, sibling made progress).
pub fn failures(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if r.sibling_data_errors > 0 {
            out.push(format!(
                "E12 {}: {} sibling data errors — containment breached",
                r.config, r.sibling_data_errors
            ));
        }
        if r.sibling_os_errors > 0 {
            out.push(format!(
                "E12 {}: sibling guard reported {} errors for a correct hierarchy",
                r.config, r.sibling_os_errors
            ));
        }
        if r.cpu_data_errors > 0 {
            out.push(format!(
                "E12 {}: {} cpu data errors under attack",
                r.config, r.cpu_data_errors
            ));
        }
        if r.host_violations > 0 {
            out.push(format!(
                "E12 {}: {} host protocol violations",
                r.config, r.host_violations
            ));
        }
        if r.deadlocked {
            out.push(format!("E12 {}: deadlocked", r.config));
        }
        if r.attacked_os_errors == 0 {
            out.push(format!(
                "E12 {}: attacked guard reported no errors — attack never engaged",
                r.config
            ));
        }
        if r.sibling_ops == 0 {
            out.push(format!(
                "E12 {}: sibling completed no operations under attack",
                r.config
            ));
        }
        if r.slowdown_pct() > MAX_SLOWDOWN_PCT {
            out.push(format!(
                "E12 {}: attacked run took {}% of baseline cycles (bound {}%)",
                r.config,
                r.slowdown_pct(),
                MAX_SLOWDOWN_PCT
            ));
        }
    }
    out
}

/// Renders the blast-radius table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E12: blast radius — fuzzed guard vs correct sibling hierarchy",
        &[
            "config",
            "injected",
            "guard0 errs",
            "sib errs",
            "sib data errs",
            "sib ops",
            "violations",
            "slowdown",
            "deadlock",
        ],
    );
    for r in rows {
        t.row(&[
            r.config.clone(),
            r.injected.to_string(),
            r.attacked_os_errors.to_string(),
            r.sibling_os_errors.to_string(),
            r.sibling_data_errors.to_string(),
            r.sibling_ops.to_string(),
            r.host_violations.to_string(),
            format!("{}%", r.slowdown_pct()),
            if r.deadlocked { "YES" } else { "no" }.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance claim: one fuzzed guard plus a correct sibling on
    /// all four guarded configurations — the sibling sees zero errors of
    /// any kind, the host stays whole, every OS error is attributed to the
    /// attacked guard, and the collateral slowdown stays bounded.
    #[test]
    fn blast_radius_stops_at_the_attacked_guard() {
        let (rows, summary) = run(Scale::Quick, 0xB1A57, xg_harness::resolve_jobs(None));
        assert_eq!(rows.len(), 4);
        let gate = failures(&rows);
        assert!(gate.is_empty(), "{gate:?}");
        for r in &rows {
            assert!(r.attacked_os_errors > 0, "{}: attack engaged", r.config);
            assert_eq!(r.sibling_data_errors, 0, "{}", r.config);
            assert_eq!(r.sibling_os_errors, 0, "{}", r.config);
            assert_eq!(
                summary.get(&format!("fuzz.{}.sibling_data_errors", r.config)),
                0
            );
            assert_eq!(
                summary.get(&format!("fuzz.{}.attacked_os_errors", r.config)),
                r.attacked_os_errors
            );
        }
    }
}
