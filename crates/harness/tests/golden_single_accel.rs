//! Differential regression fixtures for the single-accelerator path.
//!
//! The multi-accelerator generalization must be a strict superset: with
//! `num_accels = 1` every evaluated configuration has to produce a report
//! JSON *byte-identical* (minus the per-guard section, which is new) to
//! the report the single-accelerator code produced. The fixtures under
//! `tests/golden/` were blessed from that code; regenerate with
//! `XG_BLESS=1 cargo test -p xg-harness --test golden_single_accel`.

use std::fs;
use std::path::PathBuf;

use xg_harness::{run_stress, StressOpts, SystemConfig};
use xg_sim::JsonValue;

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

/// Drops the per-guard section (if any) from a serialized report, leaving
/// everything else untouched. On reports without the section this is the
/// identity (the serializer's key order is deterministic).
fn strip_guards(json: &str) -> String {
    let parsed = JsonValue::parse(json).expect("report JSON parses");
    let JsonValue::Obj(mut root) = parsed else {
        panic!("report JSON is an object");
    };
    root.remove("guards");
    JsonValue::Obj(root).to_string()
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
        let got = strip_guards(&out.report.to_json());
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
