//! Allocation budget of the message path: once caches, queues and tables
//! have reached their working size, completing one more core op must not
//! cost heap traffic. Measured as the *marginal* allocation count between
//! a short and a long run of the same system, so build, report and
//! warm-up allocations cancel.
//!
//! This file is its own test binary with exactly one `#[test]` because the
//! counter is process-global: a second test running on another thread
//! would be charged to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xg_core::XgVariant;
use xg_harness::{run_workload, AccelOrg, HostProtocol, Pattern, SystemConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a relaxed counter bump, which allocates nothing and publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, completed core ops)` of one `run_workload`.
fn measure(cfg: &SystemConfig, pattern: Pattern, accel_ops: u64) -> (u64, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = run_workload(cfg, pattern, accel_ops);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
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
