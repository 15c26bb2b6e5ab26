//! Quickstart: assemble a guarded heterogeneous system and watch data flow
//! coherently between CPUs and an accelerator.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a 2-CPU Hammer-protocol host, a Full State Crossing Guard, and a
//! Table 1 accelerator cache; runs the random coherence tester across all
//! three cores; prints the value-check verdict, the guard's counters, and
//! the Table 1 transition coverage the accelerator cache visited.

use crossing_guard::core::{OsPolicy, XgVariant};
use crossing_guard::harness::system::CoreSlot;
use crossing_guard::harness::tester::word_pool;
use crossing_guard::harness::{
    build_system, AccelOrg, HostProtocol, SystemConfig, TesterCfg, TesterCore, TesterShared,
};

fn main() {
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        seed: 2024,
        ..SystemConfig::default()
    };
    println!("configuration: {}", cfg.name());

    // Three cores (two CPU, one accelerator) share a small pool of hot
    // words; every value is checked against the single-writer discipline.
    let shared = TesterShared::new(3, 5_000, word_pool(0x4000, 8, 2));
    let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, index| {
        let name = match slot {
            CoreSlot::Cpu(i) => format!("cpu{i}"),
            CoreSlot::Accel(i) => format!("accel{i}"),
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
    let outcome = system.sim.run_with_watchdog(50_000_000, 200_000);

    println!(
        "\nran {} operations in {} simulated cycles (deadlock: {})",
        shared.completed(),
        outcome.now,
        outcome.stalled
    );
    println!("value-check failures: {}", shared.data_errors());

    let report = system.sim.report();
    println!("\nCrossing Guard counters:");
    for key in [
        "xg.grants",
        "xg.wbacks",
        "xg.invs_forwarded",
        "xg.demands_answered_locally",
        "xg.puts_suppressed",
        "xg.host_sent",
        "xg.host_received",
        "xg.errors_total",
    ] {
        println!("  {key:32} {}", report.get(key));
    }

    println!("\nTable 1 coverage at the accelerator L1 (state, event):");
    if let Some(cov) = report.coverage("accel_l1/accel_l1") {
        let mut by_state: std::collections::BTreeMap<&str, Vec<&str>> = Default::default();
        for (state, event) in cov.iter() {
            by_state.entry(state).or_default().push(event);
        }
        for (state, events) in by_state {
            println!("  {state:2} : {}", events.join(", "));
        }
    }
    println!("\nThe accelerator cache used 4 stable states and one transient —");
    println!("every race, ack count, and host-protocol detail stayed behind the guard.");
}
