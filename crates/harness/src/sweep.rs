//! Parallel seed-sweep executor.
//!
//! The paper's evaluation is embarrassingly parallel: 12 configurations ×
//! many stress/fuzz seeds, each an independent deterministic simulation
//! whose statistics merge afterwards. This module fans those shards across
//! cores with a *work-stealing* scheme built from std primitives only:
//! every shard lives in one shared injector queue, and each worker thread
//! (std scoped threads, so borrowed inputs work) steals the next unclaimed
//! shard whenever it goes idle. Long shards therefore never convoy behind
//! short ones, and no worker owns a partition that could go stale.
//!
//! **Determinism guarantee.** Each shard is a self-contained seeded
//! simulation, and results are written into a slot chosen by the shard's
//! *submission index*, never by completion order. Folding the returned
//! `Vec` therefore observes exactly the order a serial loop would have
//! produced, so merged reports and rendered tables are byte-identical
//! regardless of `jobs` or thread interleaving. `jobs = 1` short-circuits
//! to a plain in-order loop on the calling thread — the exact legacy path,
//! with no queue, no threads, and no panic trampoline.
//!
//! **Failure propagation.** A panicking shard (e.g. an `assert!` on an
//! incomplete run) does not abort sibling shards mid-flight: every worker
//! catches unwinds, remaining shards still run, and after the sweep the
//! panic of the *lowest-indexed* failed shard is re-raised on the caller —
//! again matching what a serial loop would have reported first. Because
//! failure replays (post-mortem trace dumps) ride inside ordinary outcome
//! values, not panics, they are never lost to parallelism.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Parses a jobs knob value: a worker count, `0` meaning "auto" — one
/// worker per available core. Anything else is an error that quotes the
/// value, for the caller to prefix with the flag or variable it came from.
pub fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Ok(available_jobs()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{raw:?} is not a worker count (a number; 0 = one per core)"
        )),
    }
}

/// One worker per core the OS will give us (the `jobs = auto` default).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the effective worker count: an explicit request (CLI `--jobs`)
/// wins, then the `XG_JOBS` environment variable, then one per core.
/// `Some(0)` and `XG_JOBS=0` both mean "auto". This is the library's
/// fallback and never fails: an `XG_JOBS` that is not a worker count also
/// means "auto" here — the binaries refuse it first, by name.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(0) => available_jobs(),
        Some(n) => n,
        None => match std::env::var("XG_JOBS") {
            Ok(v) => parse_jobs(&v).unwrap_or_else(|_| available_jobs()),
            Err(_) => available_jobs(),
        },
    }
}

/// Runs `run` over every item of `items` on up to `jobs` workers and
/// returns the outputs **in submission order**.
///
/// `run` receives the item and its submission index. It must be a pure
/// shard: take ownership of its input, build its own simulation, return an
/// owned outcome. Sharing between shards (beyond the read-only captures of
/// `run`) would break the determinism guarantee.
///
/// With `jobs <= 1` this is exactly `items.into_iter().enumerate().map(..)`
/// on the calling thread.
///
/// # Panics
/// Re-raises the panic of the lowest-indexed panicking shard, after every
/// other shard has finished.
pub fn sweep<I, O, F>(items: Vec<I>, jobs: usize, run: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I, usize) -> O + Sync,
{
    if jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run(item, i))
            .collect();
    }
    let total = items.len();
    let workers = jobs.min(total.max(1));
    let injector: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<O>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Steal the next unclaimed shard; holding the injector lock
                // only for the pop keeps workers out of each other's way.
                let Some((index, item)) = injector.lock().unwrap().pop_front() else {
                    return;
                };
                match catch_unwind(AssertUnwindSafe(|| run(item, index))) {
                    Ok(out) => *slots[index].lock().unwrap() = Some(out),
                    Err(payload) => panics.lock().unwrap().push((index, payload)),
                }
            });
        }
    });

    let mut panics = panics.into_inner().unwrap();
    if !panics.is_empty() {
        // Canonical choice: the shard a serial loop would have hit first.
        panics.sort_by_key(|&(index, _)| index);
        resume_unwind(panics.remove(0).1);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every non-panicking shard fills its slot")
        })
        .collect()
}

// Compile-time proof that everything a sweep moves between threads is
// `Send`: the work descriptions, the built simulator itself, and every
// structured outcome. A non-`Send` field sneaking into any of these breaks
// the build here rather than at a distant `sweep` call site.
const _: () = {
    const fn is_send<T: Send>() {}
    is_send::<crate::SystemConfig>();
    is_send::<crate::StressOpts>();
    is_send::<crate::FuzzOpts>();
    is_send::<crate::StressOutcome>();
    is_send::<crate::FuzzOutcome>();
    is_send::<crate::PerfOutcome>();
    is_send::<crate::BuiltSystem>();
    is_send::<crate::ExecSim>();
    is_send::<xg_sim::Report>();
    is_send::<xg_sim::RunOutcome>();
    is_send::<xg_sim::Simulator<xg_proto::Message>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn outputs_arrive_in_submission_order() {
        // Reverse the natural completion order: early shards sleep longest.
        let items: Vec<u64> = (0..32).collect();
        for jobs in [1, 2, 8] {
            let out = sweep(items.clone(), jobs, |item, index| {
                std::thread::sleep(std::time::Duration::from_millis((32 - item).min(5)));
                assert_eq!(item as usize, index);
                item * 10
            });
            assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |item: u64, _: usize| item.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let items: Vec<u64> = (0..100).collect();
        let serial = sweep(items.clone(), 1, work);
        let parallel = sweep(items, 6, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = sweep((0..57).collect(), 4, |item: usize, _| {
            count.fetch_add(1, Ordering::Relaxed);
            item
        });
        assert_eq!(out.len(), 57);
        assert_eq!(count.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(sweep(vec![7u64], 16, |x, _| x + 1), vec![8]);
        assert_eq!(
            sweep(Vec::<u64>::new(), 16, |x, _| x + 1),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn first_panic_by_index_wins_and_others_still_run() {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sweep((0..16).collect::<Vec<usize>>(), 4, |item, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if item == 3 || item == 11 {
                    panic!("shard {item} failed");
                }
                item
            })
        }));
        let payload = result.expect_err("sweep must propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "shard 3 failed", "lowest-indexed panic is canonical");
        assert_eq!(ran.load(Ordering::Relaxed), 16, "siblings were not aborted");
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs("3"), Ok(3));
        assert_eq!(parse_jobs(" 12 "), Ok(12));
        assert_eq!(parse_jobs("0"), Ok(available_jobs()));
        for bad in ["banana", "", "-1", "2.5"] {
            let why = parse_jobs(bad).expect_err(bad);
            assert!(why.contains(&format!("{bad:?}")), "{why}");
        }
        assert_eq!(resolve_jobs(Some(5)), 5);
        assert_eq!(resolve_jobs(Some(0)), available_jobs());
        assert!(available_jobs() >= 1);
    }
}
