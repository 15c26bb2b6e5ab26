//! Golden report fixtures for the single-accelerator stress matrix.
//!
//! Every evaluated configuration, at `num_accels = 1` and a fixed seed, has
//! to produce a report JSON byte-identical to its fixture under
//! `tests/golden/`; regenerate with
//! `XG_BLESS=1 cargo test -p xg-harness --test golden_single_accel`.

use std::fs;
use std::path::PathBuf;

use xg_harness::{run_stress, StressOpts, SystemConfig};

/// Fixed stress sizing for the fixtures: big enough to exercise every
/// organization's guard/cache paths, small enough to keep the suite quick.
fn opts() -> StressOpts {
    StressOpts {
        ops: 400,
        ..StressOpts::default()
    }
}

const GOLDEN_SEED: u64 = 0xD1FF;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn fixture_path(cfg: &SystemConfig) -> PathBuf {
    golden_dir().join(format!("{}.json", cfg.name().replace('/', "_")))
}

#[test]
fn num_accels_1_reports_are_byte_identical_to_single_accel_goldens() {
    let bless = xg_sim::env_switch("XG_BLESS").unwrap_or_else(|why| panic!("{why}"));
    if bless {
        fs::create_dir_all(golden_dir()).unwrap();
    }
    let mut failures = Vec::new();
    for cfg in SystemConfig::matrix(GOLDEN_SEED) {
        let out = run_stress(&cfg, &opts());
        assert_eq!(
            out.data_errors,
            0,
            "{}: golden run must be clean",
            cfg.name()
        );
        assert!(!out.deadlocked, "{}: golden run deadlocked", cfg.name());
        // Tester results are counted once, by the tester cores themselves.
        let report = &out.report;
        assert_eq!(
            report.sum_suffix(".ops_completed"),
            out.completed,
            "{}: completed ops counted more than once",
            cfg.name()
        );
        assert_eq!(
            report.sum_suffix(".data_errors"),
            out.data_errors,
            "{}",
            cfg.name()
        );
        let guard_keys: Vec<&str> = (report.scalars())
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("guard."))
            .collect();
        assert!(guard_keys.is_empty(), "{}: {guard_keys:?}", cfg.name());
        let got = out.report.to_json();
        let path = fixture_path(&cfg);
        if bless {
            fs::write(&path, &got).unwrap();
            continue;
        }
        let want = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing golden fixture {path:?}: {e}", cfg.name()));
        if got != want {
            failures.push(cfg.name());
        }
    }
    assert!(
        failures.is_empty(),
        "report JSON drifted from the single-accelerator goldens for {failures:?}; \
         if the change is intentional, regenerate with XG_BLESS=1"
    );
}
