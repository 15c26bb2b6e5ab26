//! Rate limiting must not reorder the interface (paper §2.1, §2.5): every
//! guarded configuration of the matrix, behind a tight limit, finishes its
//! stress run with no deadlock, data error or OS error.

use xg_core::RateLimit;
use xg_harness::{run_stress, AccelOrg, StressOpts, SystemConfig};

#[test]
fn rate_limited_guarded_stress_runs_clean() {
    let opts = StressOpts {
        ops: 800,
        ..StressOpts::default()
    };
    let mut failing = Vec::new();
    for seed in 1..=20 {
        let guarded = SystemConfig::matrix(seed)
            .into_iter()
            .filter(|cfg| matches!(cfg.accel, AccelOrg::Xg { .. }));
        for mut cfg in guarded {
            cfg.xg.rate_limit = Some(RateLimit {
                tokens_per_kilocycle: 10,
                burst: 1,
            });
            let out = run_stress(&cfg, &opts);
            let os_errors = out.report.sum_suffix(".errors_total");
            if out.deadlocked || out.data_errors > 0 || os_errors > 0 {
                failing.push(format!("{} seed {seed}", cfg.name()));
            }
            assert!(out.report.get("xg.throttled") > 0, "{}", cfg.name());
        }
    }
    assert!(
        failing.is_empty(),
        "{} of 160 runs failed: {failing:?}",
        failing.len()
    );
}
