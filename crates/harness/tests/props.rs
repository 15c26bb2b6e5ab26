//! Property-based system tests: random configurations and seeds through
//! the full stress tester. Each case is a complete simulated system, so
//! the case count is deliberately small; the space covered per case is
//! large (every message ordering is seed-dependent).

use proptest::prelude::*;
use xg_core::XgVariant;
use xg_harness::{run_stress, AccelOrg, HostProtocol, StressOpts, SystemConfig, TesterCfg};

fn host_strategy() -> impl Strategy<Value = HostProtocol> {
    prop_oneof![Just(HostProtocol::Hammer), Just(HostProtocol::Mesi)]
}

fn accel_strategy() -> impl Strategy<Value = AccelOrg> {
    prop_oneof![
        Just(AccelOrg::AccelSide),
        Just(AccelOrg::HostSide),
        (any::<bool>(), any::<bool>()).prop_map(|(tx, two_level)| AccelOrg::Xg {
            variant: if tx {
                XgVariant::Transactional
            } else {
                XgVariant::FullState
            },
            two_level,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Any configuration, any seed, any contention knobs: the stress test
    /// must complete with zero data errors and zero protocol violations.
    #[test]
    fn random_systems_stay_coherent(
        host in host_strategy(),
        accel in accel_strategy(),
        seed in 0u64..10_000,
        blocks in 2u64..6,
        in_flight in 1usize..4,
        store_percent in 20u32..80,
    ) {
        let two_level = matches!(accel, AccelOrg::Xg { two_level: true, .. });
        let cfg = SystemConfig {
            host,
            accel,
            accel_cores: if two_level { 2 } else { 1 },
            seed,
            ..SystemConfig::default()
        };
        let out = run_stress(
            &cfg,
            &StressOpts {
                ops: 400,
                blocks,
                tester: TesterCfg {
                    max_in_flight: in_flight,
                    store_percent,
                },
                ..StressOpts::default()
            },
        );
        prop_assert!(!out.deadlocked, "{} seed {seed} deadlocked", cfg.name());
        prop_assert_eq!(
            out.data_errors,
            0,
            "{} seed {}: {:?}",
            cfg.name(),
            seed,
            out.error_log
        );
        prop_assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
        prop_assert_eq!(out.report.get("os.errors_total"), 0);
    }
}
