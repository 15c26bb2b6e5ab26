//! Workspace-level integration tests through the `crossing-guard` facade.
//!
//! These exercise the public API exactly as a downstream user would: build
//! systems from the facade re-exports, run them, inspect outcomes.

use crossing_guard::core::{OsPolicy, XgVariant};
use crossing_guard::harness::system::CoreSlot;
use crossing_guard::harness::tester::word_pool;
use crossing_guard::harness::{
    build_system, run_fuzz, run_stress, run_workload, AccelOrg, FuzzOpts, HostProtocol, Pattern,
    StressOpts, SystemConfig, TesterCfg, TesterCore, TesterShared,
};

fn guarded(host: HostProtocol, variant: XgVariant, two_level: bool, seed: u64) -> SystemConfig {
    SystemConfig {
        host,
        accel: AccelOrg::Xg { variant, two_level },
        accel_cores: if two_level { 2 } else { 1 },
        seed,
        ..SystemConfig::default()
    }
}

#[test]
fn facade_quickstart_compiles_and_runs() {
    let cfg = guarded(HostProtocol::Hammer, XgVariant::FullState, false, 42);
    let shared = TesterShared::new(3, 300, word_pool(0x4000, 4, 2));
    let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, index| {
        let name = match slot {
            CoreSlot::Cpu(i) => format!("cpu{i}"),
            CoreSlot::Accel(i) => format!("acc{i}"),
        };
        Box::new(TesterCore::new(
            name,
            cache,
            index,
            shared.clone(),
            TesterCfg::default(),
        ))
    });
    system.start_cores();
    let outcome = system.sim.run_with_watchdog(10_000_000, 100_000);
    assert!(!outcome.stalled);
    assert_eq!(shared.data_errors(), 0);
    assert!(shared.done());
}

#[test]
fn every_guarded_configuration_survives_longer_stress() {
    // Longer-running stress over the eight guarded configurations with a
    // seed not used elsewhere.
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            for two_level in [false, true] {
                let cfg = guarded(host, variant, two_level, 0xBEEF);
                let out = run_stress(
                    &cfg,
                    &StressOpts {
                        ops: 2_000,
                        ..StressOpts::default()
                    },
                );
                assert!(!out.deadlocked, "{}", cfg.name());
                assert_eq!(out.data_errors, 0, "{}: {:?}", cfg.name(), out.error_log);
                assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
                assert_eq!(out.report.get("os.errors_total"), 0, "{}", cfg.name());
            }
        }
    }
}

#[test]
fn unsafe_and_safe_baselines_also_pass_stress() {
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for accel in [AccelOrg::AccelSide, AccelOrg::HostSide] {
            let cfg = SystemConfig {
                host,
                accel,
                seed: 0xCAFE,
                ..SystemConfig::default()
            };
            let out = run_stress(
                &cfg,
                &StressOpts {
                    ops: 1_500,
                    ..StressOpts::default()
                },
            );
            assert!(!out.deadlocked, "{}", cfg.name());
            assert_eq!(out.data_errors, 0, "{}: {:?}", cfg.name(), out.error_log);
        }
    }
}

#[test]
fn fuzzing_is_contained_with_disable_policy() {
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::Transactional,
        },
        seed: 0xF00D,
        ..SystemConfig::default()
    };
    let out = run_fuzz(
        &cfg,
        &FuzzOpts {
            messages: 600,
            ..FuzzOpts::default()
        },
        1_000,
    );
    assert!(!out.deadlocked);
    assert_eq!(out.host_violations, 0);
    assert_eq!(out.cpu_data_errors, 0);
    assert!(out.os_errors > 0);
}

#[test]
fn workloads_complete_across_patterns_and_hosts() {
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for pattern in [Pattern::Stencil, Pattern::Reduction] {
            let cfg = guarded(host, XgVariant::FullState, false, 0xABCD);
            let out = run_workload(&cfg, pattern, 2_000);
            assert!(!out.incomplete, "{} {}", cfg.name(), pattern.name());
            assert_eq!(out.report.get("os.errors_total"), 0);
        }
    }
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let cfg = guarded(HostProtocol::Mesi, XgVariant::FullState, true, 777);
    let opts = StressOpts {
        ops: 800,
        ..StressOpts::default()
    };
    let a = run_stress(&cfg, &opts);
    let b = run_stress(&cfg, &opts);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.transitions, b.transitions);
    // Full report equality, scalar by scalar.
    let scalars_a: Vec<_> = a.report.scalars().map(|(k, v)| (k.to_owned(), v)).collect();
    let scalars_b: Vec<_> = b.report.scalars().map(|(k, v)| (k.to_owned(), v)).collect();
    assert_eq!(scalars_a, scalars_b);
}

#[test]
fn coverage_report_names_all_controller_families() {
    let cfg = guarded(HostProtocol::Mesi, XgVariant::FullState, true, 31);
    let out = run_stress(
        &cfg,
        &StressOpts {
            ops: 1_000,
            ..StressOpts::default()
        },
    );
    let families: Vec<String> = out
        .report
        .coverages()
        .map(|(name, _)| name.to_string())
        .collect();
    for expected in ["mesi_l1/", "mesi_l2/", "accel_l1/"] {
        assert!(
            families.iter().any(|f| f.starts_with(expected)),
            "missing coverage family {expected}: {families:?}"
        );
    }
    // The accelerator L2 is recorded by its table's rows alone.
    let machines: Vec<&str> = out.report.fsms().map(|(name, _)| name).collect();
    assert!(
        machines.contains(&"accel_l2"),
        "missing machine accel_l2: {machines:?}"
    );
}
