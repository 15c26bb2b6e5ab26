//! Multi-accelerator system tests: several independent guarded
//! hierarchies sharing one host protocol.
//!
//! The single-accelerator suite (`props.rs`, `matrix.rs`) establishes
//! that one guard keeps one hierarchy coherent; these tests establish
//! that N guards keep N hierarchies coherent *against each other* — the
//! cross-guard ping-pong and false-sharing traffic every block takes when
//! two accelerators and the CPUs fight over one line.

use proptest::prelude::*;
use xg_core::XgVariant;
use xg_harness::{
    run_stress, run_workload, AccelOrg, HostProtocol, Pattern, StressOpts, SystemConfig, TesterCfg,
};

fn host_strategy() -> impl Strategy<Value = HostProtocol> {
    prop_oneof![Just(HostProtocol::Hammer), Just(HostProtocol::Mesi)]
}

fn variant_strategy() -> impl Strategy<Value = XgVariant> {
    prop_oneof![Just(XgVariant::FullState), Just(XgVariant::Transactional)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Cross-accelerator ping-pong and false sharing: every tester core —
    /// CPU and accelerator, across 1..=4 guard instances — hammers the
    /// words of a single block, so ownership migrates through every guard
    /// on every write. The single-writer value discipline must hold for
    /// arbitrary interleavings, under both host personas and both guard
    /// variants.
    #[test]
    fn shared_hot_block_stays_coherent_across_guards(
        host in host_strategy(),
        variant in variant_strategy(),
        num_accels in 1usize..=4,
        seed in 0u64..10_000,
        false_sharing in any::<bool>(),
    ) {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::Xg {
                variant,
                two_level: false,
            },
            num_accels,
            seed,
            ..SystemConfig::default()
        };
        // Ping-pong: one block, two hot words. False sharing: one block,
        // eight logically-private words that share the line.
        let words_per_block = if false_sharing { 8 } else { 2 };
        let out = run_stress(
            &cfg,
            &StressOpts {
                ops: 300,
                blocks: 1,
                words_per_block,
                tester: TesterCfg {
                    store_percent: 60,
                    ..TesterCfg::default()
                },
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
        prop_assert_eq!(out.report.sum_suffix(".errors_total"), 0);
    }
}

/// The dedicated sharing workloads on a two-guard system: both
/// accelerator cores run the pattern over the *same* base address, so the
/// hot block bounces between the two hierarchies (and the CPU producer-
/// consumer cores) until both finish.
#[test]
fn sharing_workloads_complete_on_two_guard_systems() {
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for pattern in Pattern::SHARING {
            let cfg = SystemConfig {
                host,
                accel: AccelOrg::Xg {
                    variant: XgVariant::FullState,
                    two_level: false,
                },
                num_accels: 2,
                seed: 0x5A5A,
                ..SystemConfig::default()
            };
            let out = run_workload(&cfg, pattern, 400);
            assert!(
                !out.incomplete,
                "{} {} did not finish",
                cfg.name(),
                pattern.name()
            );
            assert!(out.accel_runtime > 0);
            // Both hierarchies' workload cores reported completions.
            assert_eq!(out.report.sum_suffix("wl_acc0.ops_completed"), 400);
            assert_eq!(out.report.sum_suffix("wl_acc1.ops_completed"), 400);
        }
    }
}

/// Heterogeneous guard variants sharing a host: a Full-State and a
/// Transactional guard interoperate on the same hot block.
#[test]
fn mixed_guard_variants_share_one_host() {
    use xg_harness::AccelSlot;
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        let cfg = SystemConfig {
            host,
            accels: vec![
                AccelSlot::from(AccelOrg::Xg {
                    variant: XgVariant::FullState,
                    two_level: false,
                }),
                AccelSlot::from(AccelOrg::Xg {
                    variant: XgVariant::Transactional,
                    two_level: true,
                }),
            ],
            accel_cores: 2,
            seed: 0x313A,
            ..SystemConfig::default()
        };
        let out = run_stress(
            &cfg,
            &StressOpts {
                ops: 400,
                ..StressOpts::default()
            },
        );
        assert!(!out.deadlocked, "{} deadlocked", cfg.name());
        assert_eq!(out.data_errors, 0, "{}: {:?}", cfg.name(), out.error_log);
        assert_eq!(out.report.sum_suffix(".errors_total"), 0);
    }
}
