//! Allocation budgets, counted by a global allocator that tallies calls
//! per thread (so tests running side by side are not charged for each
//! other).
//!
//! - The message path: once caches, queues and tables have reached their
//!   working size, completing one more core op must not cost heap traffic.
//!   Measured as the *marginal* allocation count between a short and a
//!   long run of the same system, so build, report and warm-up allocations
//!   cancel.
//! - The per-run report: `Simulator::report` of a finished stress system
//!   allocates a small constant per scalar key it writes — the key itself,
//!   copied at its length, and its share of the section vector's growth.
//!   Coverage and FSM labels come from `'static` tables and are borrowed,
//!   so they must not add a `String` each.
//! - The fold: merging a run's report into an accumulator that already
//!   holds every one of its keys updates it in place and allocates
//!   nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xg_core::{OsPolicy, XgVariant};
use xg_harness::system::{accel_cores_of, CoreSlot};
use xg_harness::tester::word_pool;
use xg_harness::{
    build_system, run_workload, AccelOrg, HostProtocol, Pattern, SystemConfig, TesterCfg,
    TesterCore, TesterHub,
};
use xg_sim::Report;

struct Counting;

thread_local! {
    /// Allocator calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call on the calling thread. A const-initialised
/// `Cell` needs no lazy set-up and no destructor, so this never allocates
/// and never fails; `try_with` keeps it quiet during thread teardown all
/// the same.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter bump, which allocates nothing and publishes no
// data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, completed core ops)` of one `run_workload`.
fn measure(cfg: &SystemConfig, pattern: Pattern, accel_ops: u64) -> (u64, u64) {
    let before = allocs();
    let out = run_workload(cfg, pattern, accel_ops);
    let allocs = allocs() - before;
    assert!(!out.incomplete, "{} {pattern:?} did not finish", cfg.name());
    // CPU cores run `accel_ops / 4` each alongside the accelerator.
    let ops = accel_ops + cfg.cpu_cores as u64 * (accel_ops / 4);
    (allocs, ops)
}

#[test]
fn steady_state_handlers_do_not_allocate() {
    const BUDGET: f64 = 0.05;
    let mut over = Vec::new();
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
            ..SystemConfig::default()
        };
        for pattern in [
            Pattern::Streaming,
            Pattern::ProducerConsumer,
            Pattern::GraphWalk,
        ] {
            let (short_allocs, short_ops) = measure(&cfg, pattern, 10_000);
            let (long_allocs, long_ops) = measure(&cfg, pattern, 30_000);
            let per_op =
                long_allocs.saturating_sub(short_allocs) as f64 / (long_ops - short_ops) as f64;
            eprintln!(
                "{} {pattern:?}: {per_op:.3} allocations per marginal op",
                cfg.name()
            );
            if per_op > BUDGET {
                over.push(format!("{} {pattern:?}: {per_op:.3}", cfg.name()));
            }
        }
    }
    assert!(
        over.is_empty(),
        "marginal allocations per completed op over {BUDGET}: {over:?}"
    );
}

/// `Simulator::report` of one finished stress system, built and run as
/// `run_stress` does, and the allocations that call made.
fn measure_report(cfg: &SystemConfig, ops: u64) -> (u64, Report) {
    let cfg = cfg.clone().shrink_caches();
    let cores = cfg.cpu_cores + accel_cores_of(&cfg);
    let hub = TesterHub::new(cores, ops, word_pool(0x4000, 4, 2));
    let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, index| {
        let name = match slot {
            CoreSlot::Cpu(i) => format!("tester_cpu{i}"),
            CoreSlot::Accel(i) => format!("tester_acc{i}"),
        };
        Box::new(TesterCore::new(
            name,
            cache,
            index,
            hub.clone(),
            TesterCfg::default(),
        ))
    });
    system.start_cores();
    let out = system.sim.run_with_watchdog(50_000_000, 100_000);
    assert!(hub.done() && !out.stalled, "{}", cfg.name());
    let before = allocs();
    let report = system.sim.report();
    (allocs() - before, report)
}

#[test]
fn reports_allocate_per_scalar_key_not_per_label() {
    const BUDGET: f64 = 2.5;
    let mut over = Vec::new();
    for cfg in SystemConfig::matrix(3) {
        let (allocs, report) = measure_report(&cfg, 800);
        let keys = report.scalars().count();
        let per_key = allocs as f64 / keys as f64;
        eprintln!(
            "{}: report() made {allocs} allocations for {keys} scalar keys ({per_key:.2} per key)",
            cfg.name()
        );
        if per_key > BUDGET {
            over.push(format!("{}: {per_key:.2}", cfg.name()));
        }
    }
    assert!(
        over.is_empty(),
        "report() allocations per scalar key over {BUDGET}: {over:?}"
    );
}

#[test]
fn reports_merge_into_an_accumulator_holding_their_keys_without_allocating() {
    let matrix = SystemConfig::matrix(3);
    let reports: Vec<Report> = matrix
        .iter()
        .map(|cfg| measure_report(cfg, 800).1)
        .collect();
    let mut acc = Report::merge_shards(&reports);
    let mut over = Vec::new();
    for (cfg, report) in matrix.iter().zip(&reports) {
        let before = allocs();
        acc.merge(report);
        let allocs = allocs() - before;
        eprintln!(
            "{}: merge into a key-complete accumulator made {allocs} allocations",
            cfg.name()
        );
        if allocs > 0 {
            over.push(format!("{}: {allocs}", cfg.name()));
        }
    }
    assert!(
        over.is_empty(),
        "merges into an accumulator that holds every key allocated: {over:?}"
    );
}
