//! A pathologically buggy accelerator meets Crossing Guard.
//!
//! ```text
//! cargo run --example buggy_accelerator
//! ```
//!
//! A fuzzing "accelerator" bombards the interface with random coherence
//! messages — wrong kinds, wrong addresses, wrong payload sizes, wrong or
//! absent invalidation responses — while CPU cores keep doing real,
//! value-checked work. Crossing Guard absorbs it all: the host protocol
//! never sees an impossible event, CPU data stays intact, every violation
//! class is reported to the OS, and the OS eventually quarantines the
//! accelerator (the "disable" policy of paper §2.2).

use crossing_guard::core::{Os, OsPolicy, XgVariant};
use crossing_guard::harness::system::CoreSlot;
use crossing_guard::harness::tester::word_pool;
use crossing_guard::harness::{
    build_system, AccelOrg, FuzzOpts, HostProtocol, SystemConfig, TesterCfg, TesterCore,
    TesterShared,
};
use crossing_guard::proto::XgErrorKind;

fn main() {
    let cfg = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        seed: 99,
        ..SystemConfig::default()
    };
    println!(
        "configuration: {} (OS policy: disable on first error)",
        cfg.name()
    );

    let fuzz = FuzzOpts {
        messages: 1_500,
        ..FuzzOpts::default()
    };
    // CPUs work on their own pages (the fuzzer has no permission there).
    let shared = TesterShared::new(cfg.cpu_cores, 4_000, word_pool(0x200_0000, 8, 2));
    let mut system = build_system(
        &cfg,
        OsPolicy::DisableAccelerator,
        None,
        |slot, node, index| match slot {
            CoreSlot::Cpu(i) => Box::new(TesterCore::new(
                format!("cpu{i}"),
                node,
                index,
                shared.clone(),
                TesterCfg::default(),
            )),
            // The accelerator is the fuzzer, aimed at its guard.
            CoreSlot::Accel(k) => Box::new(fuzz.stand_in(cfg.seed, k, node)),
        },
    );
    system.start_cores();
    let out = system.sim.run_with_watchdog(100_000_000, 500_000);

    let report = system.sim.report();
    println!("\nwhile being bombarded:");
    println!("  CPU operations completed : {}", shared.completed());
    println!("  CPU value-check failures : {}", shared.data_errors());
    println!(
        "  host protocol violations : {}",
        report.sum_suffix(".protocol_violation")
    );
    println!("  host deadlocked          : {}", out.stalled);

    let os = system.sim.get::<Os>(system.os).unwrap();
    println!("\nviolations the guard reported to the OS:");
    for kind in XgErrorKind::ALL {
        let n = os.count(kind);
        if n > 0 {
            println!("  {kind:18} {n}");
        }
    }
    println!(
        "\naccelerator quarantined by the OS: {} (requests dropped after disable: {})",
        !os.disabled_guards().is_empty(),
        report.get("xg.dropped_disabled")
    );

    assert_eq!(shared.data_errors(), 0, "CPU data must stay intact");
    assert_eq!(
        report.sum_suffix(".protocol_violation"),
        0,
        "host controllers must never see an impossible event"
    );
    assert!(!out.stalled, "the host must keep making progress");
    assert!(os.total() > 0, "violations must be reported");
    assert!(!os.disabled_guards().is_empty());
    println!("\nthe host never noticed. that is the point.");
}
