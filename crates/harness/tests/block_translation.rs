//! Block-size translation (paper §2.5) under the §4.1 value oracle: an
//! accelerator block of `k` host blocks, a correct accelerator, and every
//! Full State configuration.

use xg_core::XgVariant;
use xg_harness::{run_stress, AccelOrg, HostProtocol, StressOpts, SystemConfig};

fn full_state(host: HostProtocol, two_level: bool, k: usize, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig {
        host,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level,
        },
        accel_cores: if two_level { 2 } else { 1 },
        seed,
        ..SystemConfig::default()
    };
    cfg.xg.block_blocks = k;
    cfg
}

/// Failing runs, named, of `k`-block translation over `seeds` at `ops`.
fn failures(k: usize, seeds: std::ops::RangeInclusive<u64>, ops: u64) -> Vec<String> {
    let mut failed = Vec::new();
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for two_level in [false, true] {
            for seed in seeds.clone() {
                let cfg = full_state(host, two_level, k, seed);
                let out = run_stress(
                    &cfg,
                    &StressOpts {
                        ops,
                        ..StressOpts::default()
                    },
                );
                let violations = out.report.sum_suffix(".protocol_violation");
                if out.deadlocked || out.data_errors > 0 || violations > 0 {
                    failed.push(format!(
                        "{} k={k} seed {seed}: deadlocked={} data_errors={} violations={violations}",
                        cfg.name(),
                        out.deadlocked,
                        out.data_errors,
                    ));
                }
            }
        }
    }
    failed
}

#[test]
fn seed_four_owner_read_of_a_collected_sub_block_keeps_its_data() {
    let cfg = full_state(HostProtocol::Hammer, false, 2, 4);
    let out = run_stress(
        &cfg,
        &StressOpts {
            ops: 50,
            ..StressOpts::default()
        },
    );
    assert!(!out.deadlocked, "deadlocked after {} ops", out.completed);
    assert_eq!(out.data_errors, 0, "{:?}", out.error_log);
}

#[test]
fn two_and_four_block_translation_stay_clean_over_twenty_seeds() {
    for k in [2, 4] {
        let failed = failures(k, 1..=20, 200);
        assert!(failed.is_empty(), "{failed:#?}");
    }
}
