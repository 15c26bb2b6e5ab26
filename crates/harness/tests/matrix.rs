//! Full-matrix integration tests: the §4.1 stress test and §4.2-style
//! fuzzing across every evaluated configuration.

use xg_core::XgVariant;
use xg_harness::{
    resolve_jobs, run_campaign, run_fuzz, run_stress, run_workload, sweep, AccelOrg, CampaignOpts,
    FuzzOpts, HostProtocol, Pattern, StressOpts, SystemConfig,
};

fn stress_opts(ops: u64) -> StressOpts {
    StressOpts {
        ops,
        ..StressOpts::default()
    }
}

#[test]
fn stress_all_twelve_configurations() {
    // Every configuration at one home and at two address-interleaved
    // banks; the assertions are behavioral, so both shapes must pass them.
    let banked = SystemConfig::matrix(7).into_iter().map(|cfg| SystemConfig {
        home_banks: 2,
        ..cfg
    });
    for cfg in SystemConfig::matrix(7).into_iter().chain(banked) {
        let name = cfg.name();
        let out = run_stress(&cfg, &stress_opts(600));
        assert!(
            !out.deadlocked,
            "{name}: deadlocked after {} ops",
            out.completed
        );
        assert_eq!(
            out.data_errors, 0,
            "{name}: data errors: {:?}",
            out.error_log
        );
        assert!(out.completed >= 600, "{name}: only {} ops", out.completed);
        // No controller saw an impossible event.
        assert_eq!(
            out.report.sum_suffix(".protocol_violation"),
            0,
            "{name}: protocol violations"
        );
        assert_eq!(
            out.report.sum_suffix(".errors_total"),
            0,
            "{name}: spurious guard errors"
        );
        assert!(out.transitions > 10, "{name}: no coverage collected");
    }
}

#[test]
fn banked_homes_stay_clean_on_the_serial_path() {
    for (host, banks) in [(HostProtocol::Hammer, 2), (HostProtocol::Mesi, 3)] {
        let cfg = SystemConfig {
            host,
            home_banks: banks,
            seed: 77,
            ..SystemConfig::default()
        };
        let out = run_stress(&cfg, &stress_opts(400));
        assert!(!out.deadlocked, "{}", cfg.name());
        assert_eq!(out.data_errors, 0, "{}: {:?}", cfg.name(), out.error_log);
        assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
        assert_eq!(out.report.sum_suffix(".errors_total"), 0);
    }
}

#[test]
fn stress_is_deterministic_per_seed() {
    let cfg = SystemConfig {
        seed: 42,
        ..SystemConfig::matrix(42)[2].clone() // hammer/xg_full_l1
    };
    let a = run_stress(&cfg, &stress_opts(400));
    let b = run_stress(&cfg, &stress_opts(400));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.completed, b.completed);
    let cfg2 = SystemConfig { seed: 43, ..cfg };
    let c = run_stress(&cfg2, &stress_opts(400));
    assert_ne!(
        (a.cycles, a.completed),
        (c.cycles, c.completed),
        "different seeds should diverge"
    );
}

#[test]
fn stress_many_seeds_on_guarded_configs() {
    // Extra seeds over the Crossing Guard configurations — the protocols
    // under test here are the paper's contribution.
    for seed in [11, 22, 33] {
        for (host, variant, two_level) in [
            (HostProtocol::Hammer, XgVariant::FullState, false),
            (HostProtocol::Hammer, XgVariant::Transactional, true),
            (HostProtocol::Mesi, XgVariant::FullState, true),
            (HostProtocol::Mesi, XgVariant::Transactional, false),
        ] {
            let cfg = SystemConfig {
                host,
                accel: AccelOrg::Xg { variant, two_level },
                accel_cores: if two_level { 2 } else { 1 },
                seed,
                ..SystemConfig::default()
            };
            let out = run_stress(&cfg, &stress_opts(500));
            assert!(!out.deadlocked, "{} seed {seed}", cfg.name());
            assert_eq!(
                out.data_errors,
                0,
                "{} seed {seed}: {:?}",
                cfg.name(),
                out.error_log
            );
        }
    }
}

#[test]
fn fuzzing_the_guard_never_breaks_the_host() {
    for (host, variant) in [
        (HostProtocol::Hammer, XgVariant::FullState),
        (HostProtocol::Hammer, XgVariant::Transactional),
        (HostProtocol::Mesi, XgVariant::FullState),
        (HostProtocol::Mesi, XgVariant::Transactional),
    ] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::FuzzXg { variant },
            seed: 5,
            ..SystemConfig::default()
        };
        let fuzz = FuzzOpts {
            messages: 400,
            ..FuzzOpts::default()
        };
        let out = run_fuzz(&cfg, &fuzz, 800);
        let name = cfg.name();
        assert!(!out.deadlocked, "{name}: host deadlocked under fuzz");
        assert_eq!(
            out.host_violations, 0,
            "{name}: fuzz traffic reached host controllers"
        );
        assert_eq!(out.cpu_data_errors, 0, "{name}: CPU data corrupted");
        assert!(out.cpu_ops_completed >= 800, "{name}: host starved");
        assert!(
            out.os_errors > 0,
            "{name}: violations must be reported to the OS"
        );
        assert!(out.injected >= 400);
    }
}

#[test]
fn fuzzing_an_unprotected_host_shows_the_problem() {
    // The control experiment: the same garbage aimed directly at the host
    // protocol (a buggy accelerator-side cache). The *unmodified strict*
    // host observes impossible events — exactly what Crossing Guard
    // prevents. (We do not require a deadlock — only that the host's
    // correctness envelope is pierced.)
    let mut pierced = false;
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::FuzzAccelSide,
            strict_host: true,
            seed: 6,
            ..SystemConfig::default()
        };
        let out = run_fuzz(
            &cfg,
            &FuzzOpts {
                messages: 400,
                ..FuzzOpts::default()
            },
            400,
        );
        pierced |= out.host_violations > 0 || out.deadlocked || out.cpu_data_errors > 0;
    }
    assert!(
        pierced,
        "raw fuzzing should disturb an unprotected strict host"
    );
}

#[test]
fn weak_sharing_accelerator_is_still_host_safe() {
    // The weak two-level accelerator may serve stale reads internally —
    // which the single-writer value checker tolerates (staleness is
    // monotone) — but must never corrupt values or disturb the host.
    for (host, seed) in [(HostProtocol::Hammer, 61), (HostProtocol::Mesi, 62)] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: true,
            },
            accel_cores: 2,
            weak_accel_sharing: true,
            seed,
            ..SystemConfig::default()
        };
        let out = run_stress(&cfg, &stress_opts(800));
        assert!(!out.deadlocked, "{} weak", cfg.name());
        assert_eq!(
            out.data_errors,
            0,
            "{} weak: {:?}",
            cfg.name(),
            out.error_log
        );
        assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
        assert_eq!(out.report.sum_suffix(".errors_total"), 0);
    }
}

#[test]
fn workload_runs_complete_on_guarded_config() {
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        seed: 9,
        ..SystemConfig::default()
    };
    for pattern in [Pattern::Streaming, Pattern::GraphWalk] {
        let out = run_workload(&cfg, pattern, 2_000);
        assert!(!out.incomplete, "{}: incomplete", pattern.name());
        assert!(out.accel_runtime > 0);
        assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
        assert_eq!(out.report.sum_suffix(".errors_total"), 0);
    }
}

#[test]
fn performance_shape_host_side_is_slowest() {
    // The paper's headline performance claim: XG performs similarly to the
    // unsafe accelerator-side cache and better than the safe host-side
    // cache (§1). Check the ordering on a cache-friendly workload.
    let mk = |accel| SystemConfig {
        host: HostProtocol::Hammer,
        accel,
        seed: 10,
        ..SystemConfig::default()
    };
    let ops = 3_000;
    let accel_side = run_workload(&mk(AccelOrg::AccelSide), Pattern::Blocked, ops);
    let host_side = run_workload(&mk(AccelOrg::HostSide), Pattern::Blocked, ops);
    let xg = run_workload(
        &mk(AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        }),
        Pattern::Blocked,
        ops,
    );
    assert!(!accel_side.incomplete && !host_side.incomplete && !xg.incomplete);
    assert!(
        host_side.accel_runtime > xg.accel_runtime,
        "host-side ({}) should be slower than XG ({})",
        host_side.accel_runtime,
        xg.accel_runtime
    );
    // XG within 2x of the unsafe baseline on this workload (the paper
    // reports "similar"; our latencies are configured, not calibrated).
    assert!(
        xg.accel_runtime < accel_side.accel_runtime * 2,
        "xg ({}) should be near accel-side ({})",
        xg.accel_runtime,
        accel_side.accel_runtime
    );
}

/// `SystemConfig::matrix(seed)` entries on which the Hammer host served
/// stale data to a *correct* accelerator ("went backwards"): a reader
/// served by an `O` owner whose writeback was pending installed `M`/`E`
/// beside the owner's sharers.
#[test]
fn known_hammer_stale_read_seeds_run_clean() {
    for (name, seed) in [
        ("hammer/accel_side", 12424050599204292423u64),
        ("hammer/xg_tx_l1", 6289302247545673172),
        ("hammer/host_side", 17459687858358631241),
        ("hammer/xg_full_l1", 6940457821412259359),
    ] {
        let cfg = SystemConfig::matrix(seed)
            .into_iter()
            .find(|cfg| cfg.name() == name)
            .expect("a matrix entry");
        let out = run_stress(&cfg, &stress_opts(800));
        assert_eq!(
            out.data_errors, 0,
            "{name} seed {seed}: {:?}",
            out.error_log
        );
    }
}

/// Two-level stress over 8 blocks, twice what the shrunk 2×2 accelerator L2
/// holds, on the four two-level configs × 60 seeds: the L2 evicts and its
/// cores store. An owner L1's `PutM` that crossed an inclusive eviction's
/// `Inv` was once acked without its data reaching the evicted line, so the
/// eviction's Put took the pre-store copy to the host and the accelerator
/// core read its own write go missing (`mesi/xg_tx_l2` seed 25,
/// `hammer/xg_tx_l2` seeds 28 and 40, `hammer/xg_full_l2` seed 57).
#[test]
fn two_level_stress_evicting_the_l2_loses_no_accelerator_write() {
    let opts = StressOpts {
        ops: 3_000,
        blocks: 8,
        ..StressOpts::default()
    };
    let runs = sweep((1..=60).collect(), resolve_jobs(None), |seed, _| {
        let two_level = SystemConfig::matrix(seed).into_iter().filter(|cfg| {
            matches!(
                cfg.accel,
                AccelOrg::Xg {
                    two_level: true,
                    ..
                }
            )
        });
        two_level
            .map(|cfg| {
                let out = run_stress(&cfg, &opts);
                let clean = out.data_errors == 0
                    && !out.deadlocked
                    && out.report.sum_suffix(".protocol_violation") == 0;
                let finding = (!clean).then(|| {
                    let name = cfg.name();
                    format!("{name} seed {seed}: {:?}", out.error_log)
                });
                let evictions = out.report.get("accel_l2.up_puts");
                let stores = out.report.get("accel_l2.l1_getms");
                (finding, evictions, stores)
            })
            .collect::<Vec<_>>()
    });
    let runs: Vec<_> = runs.into_iter().flatten().collect();
    let findings: Vec<String> = runs.iter().filter_map(|r| r.0.clone()).collect();
    assert!(
        findings.is_empty(),
        "{} of {} runs failed:\n{}",
        findings.len(),
        runs.len(),
        findings.join("\n")
    );
    assert!(runs
        .iter()
        .all(|&(_, evictions, stores)| evictions > 0 && stores > 0));
}

/// The nightly seed scan: every `SystemConfig::matrix` entry on 4000 seeds
/// for 800 ops, and 100 coverage-guided campaigns on each guarded fuzz
/// configuration in the benchmark's campaign shape (3 generations of 3,
/// 40-step schedules, 300 CPU ops), none of whose executions may run to the
/// cycle cap (`CampaignOutcome::capped`). A hundred matrix seeds are not enough:
/// the Hammer stale read failed 15 of these 48 000 runs, and none of the
/// first 1 800. Run with `cargo test --release -p xg-harness --test
/// matrix -- --ignored seed_scan`.
#[test]
#[ignore = "nightly seed scan; run explicitly with --ignored in release mode"]
fn seed_scan_reports_zero_findings() {
    let seed = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xAB_CDEF;
    let jobs = resolve_jobs(None);
    let stress = sweep((0..4000).map(seed).collect(), jobs, |seed, _| {
        let mut found = Vec::new();
        for cfg in SystemConfig::matrix(seed) {
            let out = run_stress(&cfg, &stress_opts(800));
            if out.data_errors > 0 || out.deadlocked {
                let (errors, deadlocked) = (out.data_errors, out.deadlocked);
                let name = cfg.name();
                found.push(format!(
                    "{name} seed {seed}: {errors} data errors, deadlocked {deadlocked}"
                ));
            }
        }
        found
    });
    let guarded = [
        (HostProtocol::Hammer, XgVariant::FullState),
        (HostProtocol::Hammer, XgVariant::Transactional),
        (HostProtocol::Mesi, XgVariant::FullState),
        (HostProtocol::Mesi, XgVariant::Transactional),
    ];
    let campaigns = (0..100).flat_map(|i| guarded.map(|g| (g, seed(i))));
    let campaign = sweep(campaigns.collect(), jobs, |((host, variant), seed), _| {
        let base = SystemConfig {
            host,
            accel: AccelOrg::FuzzXg { variant },
            ..SystemConfig::default()
        };
        let opts = CampaignOpts {
            seed,
            generations: 3,
            batch: 3,
            run_len: 40,
            cpu_ops: 300,
            jobs: Some(1),
            ..CampaignOpts::default()
        };
        let out = run_campaign(&base, &opts);
        let name = base.name();
        let capped = out.capped;
        out.failures
            .iter()
            .map(|f| {
                format!(
                    "{name} campaign seed {seed}: {} (run seed {})",
                    f.summary, f.seed
                )
            })
            .chain((capped > 0).then(|| {
                format!("{name} campaign seed {seed}: {capped} executions ran to the cycle cap")
            }))
            .collect::<Vec<_>>()
    });
    let findings: Vec<String> = stress.into_iter().chain(campaign).flatten().collect();
    assert!(
        findings.is_empty(),
        "{} findings:\n{}",
        findings.len(),
        findings.join("\n")
    );
}

/// Long-running soak in the spirit of the paper's 22 compute-years —
/// ignored by default; run with `cargo test -- --ignored` (use release
/// mode) to scale coverage up.
#[test]
#[ignore = "long-running soak; run explicitly with --ignored in release mode"]
fn soak_all_configurations() {
    for seed in [1001u64, 2002, 3003, 4004, 5005] {
        for cfg in SystemConfig::matrix(seed) {
            let out = run_stress(&cfg, &stress_opts(25_000));
            assert!(!out.deadlocked, "{} seed {seed}", cfg.name());
            assert_eq!(
                out.data_errors,
                0,
                "{} seed {seed}: {:?}",
                cfg.name(),
                out.error_log
            );
            assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
            assert_eq!(out.report.sum_suffix(".errors_total"), 0);
        }
    }
}

/// Regression: `mesi/xg_tx_l1` seed 1 deadlocked around op 871 when host
/// demands accumulated while the guard was absorbing the trailing InvAck
/// of a Put-vs-Inv race; those late demands were dropped unanswered.
#[test]
fn regression_late_demands_after_race_absorption() {
    let cfg = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::Xg {
            variant: XgVariant::Transactional,
            two_level: false,
        },
        seed: 1,
        ..SystemConfig::default()
    };
    let out = run_stress(&cfg, &stress_opts(2_000));
    assert!(!out.deadlocked);
    assert_eq!(out.data_errors, 0, "{:?}", out.error_log);
}

/// Regression: this two-level run never returned. With a new internal
/// recall already busy on the block, the accelerator L2's queue drain
/// pulled a guard `Inv` out with priority, the `Inv` handler queued it
/// straight back (internal recalls make it wait), and the drain pulled it
/// out again — a spin inside one handler call, where no event is
/// dispatched and so neither `max_cycles` nor the stall watchdog can fire.
#[test]
fn regression_two_level_inv_behind_internal_recall_returns() {
    let cfg = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: true,
        },
        accel_cores: 2,
        seed: 1,
        ..SystemConfig::default()
    };
    let out = run_workload(&cfg, Pattern::Stencil, 8_000);
    assert!(!out.incomplete);
    assert_eq!(out.report.sum_suffix(".protocol_violation"), 0);
    assert_eq!(out.report.sum_suffix(".errors_total"), 0);
}
