//! Allocation budget of one checker expansion: restore the parent (or a
//! fork inside the step) into the worker's scratch world, run the step on,
//! digest the result. Measured as the *marginal* allocator calls per
//! expansion between a depth-2 and a depth-3 exploration of the same world,
//! so building the world, the level-0 replay and the end-of-run coverage
//! report cancel.
//!
//! The restore copies in place (and only what the step touched), the step
//! runs on tables and spare pools that kept their capacity, the digest
//! reuses its role tables and sort buffer, choice lists live in per-worker
//! and per-parent arenas, and the guard's first-error post-mortem flag is a
//! `'static` string pushed into a buffer the restore empties but keeps. What
//! is left, measured by call site at depth 3:
//!
//! - restores from a fork, which holds the step's open records: the
//!   `HashMap::clone_from` that copies them clones each afresh — the
//!   guard's `InvPending::reasons`, the host L1's `Open::waiting`, and
//!   (MESI) the L2's sharer sets in its busy lines — about 1 call per
//!   Hammer expansion and 1.6 per MESI one;
//! - allocations inside handlers (the Hammer directory's table, the guard's
//!   admission, the MESI L2's eviction), 0.2–0.3 per expansion;
//! - for the one successor in fifty that is a new state, the `checkpoint()`
//!   that keeps it (a deep copy of six components, some forty calls
//!   spread over the expansions that found nothing new).
//!
//! That is 1.63 (Hammer) and 2.71 (MESI) calls since the world is built by
//! `build_system` (1.64 and 2.76 on the old state sets, with the CPU
//! cache's old name restored; 1.79 and 2.84 hand-wired); 3.45 and 4.65
//! while every restore copied all six components, every successor and
//! reply branch carried its own choice list and every first guard error
//! formatted its flag. Anything past the gate is a regression: before the in-place
//! restore an expansion made 56 and 63 calls.
//!
//! This file is its own test binary with exactly one `#[test]` because the
//! counter is process-global: a second test running on another thread
//! would be charged to this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xg_check::{explore, ExploreOpts, Persona, WorldSpec};

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

/// `(allocator calls, expansions)` of one serial exploration to `depth`.
fn measure(spec: &WorldSpec, depth: usize) -> (u64, u64) {
    let opts = ExploreOpts {
        depth: Some(depth),
        jobs: Some(1),
        ..ExploreOpts::default()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = explore(spec, &opts);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(out.is_clean(), "{:?} depth {depth}", spec.persona);
    (allocs, out.expansions)
}

#[test]
fn an_expansion_stays_off_the_allocator() {
    const BUDGET: f64 = 4.0;
    let mut over = Vec::new();
    for persona in Persona::ALL {
        let spec = WorldSpec::new(persona);
        let (short_allocs, short_expansions) = measure(&spec, 2);
        let (long_allocs, long_expansions) = measure(&spec, 3);
        let per_expansion = long_allocs.saturating_sub(short_allocs) as f64
            / (long_expansions - short_expansions) as f64;
        eprintln!(
            "{}: {per_expansion:.2} allocator calls per marginal expansion",
            persona.name()
        );
        if per_expansion > BUDGET {
            over.push(format!("{}: {per_expansion:.2}", persona.name()));
        }
    }
    assert!(
        over.is_empty(),
        "marginal allocator calls per expansion over {BUDGET}: {over:?}"
    );
}
