//! The random value-checking coherence tester (paper §4.1).
//!
//! Each [`TesterCore`] fires rapid loads and stores at a small pool of word
//! addresses. Values are checkable because exactly one core is the *writer*
//! of each word (chosen by its place in the pool, [`TesterHub::writer_of`])
//! and writes strictly increasing values. Every reader then checks two
//! properties that together witness per-location coherence:
//!
//! 1. **Bounded**: a read never returns a value larger than the writer has
//!    issued (no values from the future, no corrupted data).
//! 2. **Monotone per reader**: successive reads by one core never go
//!    backwards (single-writer / multiple-reader order is respected).
//!
//! Combined with the shrunken caches and randomized message latencies of
//! the stress configuration, this is the same methodology the paper used
//! for 22 compute-years (scaled down to CI budgets; crank the hub's
//! operation target, [`TesterHub::new`], to scale up).
//!
//! Cores are event-driven: each holds at most one pending issue timer,
//! armed `think` cycles out only while it has a free issue slot and the run
//! is not done. A core whose slots are full holds no timer — the completion
//! that frees a slot re-arms it — so dispatched events scale with completed
//! operations (a handful per op), and a lost response drains the queue
//! instead of idling it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use rand::Uniform;
use xg_mem::Addr;
use xg_proto::{CoreKind, CoreMsg, Ctx, Message};
use xg_sim::{Component, NodeId, Report};

/// The state shared by every tester core in one run: the word pool, what
/// the run knows of each word's writes, the completion count, and the
/// failure log. What one core did is that core's own (its report keys).
///
/// Shared cells are atomics, not `RefCell`s, so tester cores — and the
/// systems containing them — are [`Send`] and whole simulations can be
/// fanned across worker threads by [`crate::sweep()`]. One simulation runs on
/// one thread, and each cell is a standalone value that publishes no other
/// data, so every access is a `Relaxed` load or store (an increment is a
/// load then a store, not a locked read-modify-write).
/// Nothing a core does per operation takes a lock, probes a hash table or
/// divides: per-word state is dense by pool slot, and the one `Mutex` holds
/// the failure log, taken only when a value check fails and by readers
/// after the run.
#[derive(Debug)]
pub struct TesterHub {
    target_ops: u64,
    /// The word addresses every core draws from.
    pool: Box<[u64]>,
    /// What the run knows of each pool word's writes, by pool slot.
    words: Box<[WordLog]>,
    completed: AtomicU64,
    /// Set by the completion that reaches `target_ops` (exact, since
    /// `target_ops` is fixed at construction).
    done: AtomicBool,
    failures: Mutex<FailureLog>,
}

/// What the run knows of one word's writes.
#[derive(Debug)]
struct WordLog {
    /// The word's one writer core.
    writer: usize,
    /// The largest value the word's writer has issued.
    issued: AtomicU64,
    /// The cycle the writer's latest `StoreResp` arrived, or [`NO_STORE`].
    stored_at: AtomicU64,
}

/// `WordLog::stored_at` before any store to the word completed.
const NO_STORE: u64 = u64::MAX;

/// The failure log of one run: how many value checks failed, on any core,
/// and the descriptions of the first few, read through [`TesterHub`]. Each
/// core counts its own failures ([`TesterCore`]'s `data_errors` key).
#[derive(Debug, Default)]
struct FailureLog {
    errors: u64,
    error_log: Vec<String>,
}

impl FailureLog {
    fn record_error(&mut self, msg: String) {
        self.errors += 1;
        if self.error_log.len() < 16 {
            self.error_log.push(msg);
        }
    }
}

impl WordLog {
    fn new(writer: usize) -> WordLog {
        WordLog {
            writer,
            issued: AtomicU64::new(0),
            stored_at: AtomicU64::new(NO_STORE),
        }
    }
}

impl TesterHub {
    /// Creates the hub of `total_cores` testers drawing word addresses
    /// from `pool` and aiming for `target_ops` completed operations, to
    /// be handed to each [`TesterCore`].
    ///
    /// # Panics
    /// Panics if the pool is empty or names a word twice.
    pub fn new(total_cores: usize, target_ops: u64, pool: Vec<u64>) -> Arc<TesterHub> {
        assert!(!pool.is_empty(), "tester needs a nonempty address pool");
        let mut distinct = pool.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), pool.len(), "tester pool names a word twice");
        // Block `b` and word `w` of a pool word, counted from the pool's
        // lowest address; `per_block` is the pool's words per block.
        let base = distinct[0];
        let place = |addr: u64| ((addr - base) / 64, (addr - base) % 64 / 8);
        let per_block = pool.iter().filter(|&&a| place(a).0 == 0).count();
        let stride = (total_cores / per_block).max(1) as u64;
        let words = pool
            .iter()
            .map(|&addr| {
                let (b, w) = place(addr);
                WordLog::new(((b + w * stride) % total_cores as u64) as usize)
            })
            .collect();
        Arc::new(TesterHub {
            target_ops,
            pool: pool.into_boxed_slice(),
            words,
            completed: AtomicU64::new(0),
            done: AtomicBool::new(target_ops == 0),
            failures: Mutex::default(),
        })
    }

    /// The unique writer core of pool slot `slot`:
    /// `(b + w · max(1, cores / k)) mod cores`, with `b` the word's block
    /// and `w` its word in the block, both counted from the start of the
    /// pool, and `k` the pool's words per block. On every pool the harness
    /// builds, each core writes, and with at least `k` cores the words of
    /// one block go to cores `cores / k` apart: as CPU cores come first, a
    /// block of a guarded system is written from both sides of the guard.
    pub fn writer_of(&self, slot: usize) -> usize {
        self.words[slot].writer
    }

    /// Whether the run completed its operation budget.
    #[inline]
    pub fn done(&self) -> bool {
        self.done.load(Relaxed)
    }

    /// Operations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Relaxed)
    }

    /// Value-check failures observed by every core (must be zero for a
    /// correct protocol).
    pub fn data_errors(&self) -> u64 {
        self.failures().errors
    }

    /// Human-readable description of the first few failures.
    pub fn error_log(&self) -> Vec<String> {
        self.failures().error_log.clone()
    }

    fn failures(&self) -> std::sync::MutexGuard<'_, FailureLog> {
        self.failures
            .lock()
            .expect("a tester core panicked while logging a failure")
    }

    /// Counts one completed operation, and the run as done once the budget
    /// is reached.
    #[inline]
    fn complete_one(&self) {
        let completed = self.completed.load(Relaxed) + 1;
        self.completed.store(completed, Relaxed);
        if completed >= self.target_ops {
            self.done.store(true, Relaxed);
        }
    }

    /// The next value the writer of pool slot `slot` stores.
    #[inline]
    fn issue_store(&self, slot: usize) -> u64 {
        let issued = &self.words[slot].issued;
        let value = issued.load(Relaxed) + 1;
        issued.store(value, Relaxed);
        value
    }

    /// Notes that the latest store to pool slot `slot` completed at `cycle`.
    #[inline]
    fn store_completed(&self, slot: usize, cycle: u64) {
        self.words[slot].stored_at.store(cycle, Relaxed);
    }

    /// Checks a value core `core` loaded from pool slot `slot` against the
    /// two coherence properties, given the largest value the core read
    /// there before (`last_seen`, raised to `value`). Returns how many of
    /// the two properties the value broke; each failure is logged.
    #[inline]
    fn check_load(&self, core: usize, slot: usize, last_seen: &mut u64, value: u64) -> u64 {
        let issued = self.words[slot].issued.load(Relaxed);
        let prev = *last_seen;
        *last_seen = prev.max(value);
        if value <= issued && value >= prev {
            return 0;
        }
        self.load_failed(core, slot, value, issued, prev);
        u64::from(value > issued) + u64::from(value < prev)
    }

    #[cold]
    #[inline(never)]
    fn load_failed(&self, core: usize, slot: usize, value: u64, issued: u64, prev: u64) {
        let word_addr = self.pool[slot];
        let mut failures = self.failures();
        if value > issued {
            let writer = self.last_store(slot);
            failures.record_error(format!(
                "core {core} read {value} at {word_addr:#x} but only {issued} were written; {writer}"
            ));
        }
        if value < prev {
            let writer = self.last_store(slot);
            failures.record_error(format!(
                "core {core} read {value} at {word_addr:#x} after having read {prev} (went backwards); {writer}"
            ));
        }
    }

    /// Who writes pool slot `slot`'s word and when its last store
    /// completed: the other half of a value-check failure.
    fn last_store(&self, slot: usize) -> String {
        let writer = self.writer_of(slot);
        match self.words[slot].stored_at.load(Relaxed) {
            NO_STORE => format!("no store by core {writer} has completed"),
            cycle => format!("last store by core {writer} at cycle {cycle}"),
        }
    }
}

/// Random delay between a core's issues, in cycles.
const THINK: (u64, u64) = (1, 20);

/// Tester configuration knobs.
#[derive(Debug, Clone)]
pub struct TesterCfg {
    /// Maximum outstanding operations per core.
    pub max_in_flight: usize,
    /// Probability (percent) that a writer writes instead of reading.
    pub store_percent: u32,
}

impl Default for TesterCfg {
    fn default() -> Self {
        TesterCfg {
            max_in_flight: 2,
            store_percent: 50,
        }
    }
}

/// One random-testing core, attached to one cache frontend.
pub struct TesterCore {
    name: String,
    cache: NodeId,
    core_index: usize,
    hub: Arc<TesterHub>,
    cfg: TesterCfg,
    /// This core's view of each pool slot. No other core reads it.
    slots: Box<[SlotView]>,
    /// `gen_range` draws fixed at construction: the think time, the pool
    /// slot, and a writer's percent roll.
    think: Uniform<u64>,
    pick: Uniform<usize>,
    roll: Uniform<u32>,
    /// Outstanding operations in issue order, at most `max_in_flight`.
    in_flight: Vec<InFlight>,
    next_id: u64,
    issued_ops: u64,
    completed_ops: u64,
    /// Value checks this core's loads failed.
    data_errors: u64,
    latency_sum: u64,
    /// Whether this core's one issue timer is pending.
    armed: bool,
}

/// One core's view of one pool slot.
#[derive(Clone, Copy)]
struct SlotView {
    /// The largest value this core has read from the word.
    last_seen: u64,
    /// Whether this core is the word's writer.
    writer: bool,
}

/// One outstanding tester operation.
struct InFlight {
    id: u64,
    /// Pool slot of the word.
    slot: usize,
    store: bool,
    issued_at: u64,
}

impl TesterCore {
    /// Creates a tester core issuing to `cache`, drawing word addresses
    /// from the hub's pool.
    pub fn new(
        name: impl Into<String>,
        cache: NodeId,
        core_index: usize,
        hub: Arc<TesterHub>,
        cfg: TesterCfg,
    ) -> Self {
        let slots = (0..hub.pool.len())
            .map(|slot| SlotView {
                last_seen: 0,
                writer: hub.writer_of(slot) == core_index,
            })
            .collect();
        TesterCore {
            name: name.into(),
            cache,
            core_index,
            think: Uniform::from(THINK.0..=THINK.1),
            pick: Uniform::from(0..hub.pool.len()),
            roll: Uniform::from(0..100),
            hub,
            cfg,
            slots,
            in_flight: Vec::new(),
            next_id: 0,
            issued_ops: 0,
            completed_ops: 0,
            data_errors: 0,
            latency_sum: 0,
            armed: false,
        }
    }

    /// Operations still outstanding (nonzero at the end of a run means a
    /// request was never answered — a liveness failure).
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// Addresses (and store-ness) of outstanding operations in issue order,
    /// for debugging liveness failures.
    pub fn outstanding_ops(&self) -> Vec<(u64, bool)> {
        self.in_flight
            .iter()
            .map(|op| (self.hub.pool[op.slot], op.store))
            .collect()
    }

    /// Arms the core's single issue timer, `think` cycles out, if none is
    /// pending, a slot is free and the run is not done. The only place a
    /// tester schedules a wake: a full or finished core holds no timer.
    fn arm_if_free(&mut self, ctx: &mut Ctx<'_>) {
        if self.armed || self.in_flight.len() >= self.cfg.max_in_flight || self.hub.done() {
            return;
        }
        let delay = self.think.sample(ctx.rng());
        ctx.wake_in(delay, 0);
        self.armed = true;
    }

    fn issue_one(&mut self, ctx: &mut Ctx<'_>) {
        let slot = self.pick.sample(ctx.rng());
        let store = self.slots[slot].writer && self.roll.sample(ctx.rng()) < self.cfg.store_percent;
        let id = self.next_id;
        self.next_id += 1;
        let kind = if store {
            CoreKind::Store {
                value: self.hub.issue_store(slot),
            }
        } else {
            CoreKind::Load
        };
        self.in_flight.push(InFlight {
            id,
            slot,
            store,
            issued_at: ctx.now().as_u64(),
        });
        self.issued_ops += 1;
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: Addr::new(self.hub.pool[slot]),
                kind,
            }
            .into(),
        );
    }

    /// Flags a failed value check for the post-mortem dump: the reader's
    /// half and the writer's, on the one block.
    #[cold]
    #[inline(never)]
    fn flag_failed_load(&self, slot: usize, value: u64, ctx: &mut Ctx<'_>) {
        let word_addr = self.hub.pool[slot];
        let block = Addr::new(word_addr).block().as_u64();
        ctx.flag_post_mortem(
            block,
            format!(
                "{}: value check failed at word {word_addr:#x} (read {value})",
                self.name
            ),
        );
        let writer = self.hub.last_store(slot);
        ctx.flag_post_mortem(block, format!("word {word_addr:#x}: {writer}"));
    }
}

impl Component<Message> for TesterCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        let Some(pos) = self.in_flight.iter().position(|op| op.id == c.id) else {
            return;
        };
        let op = self.in_flight.remove(pos);
        self.latency_sum += ctx.now().as_u64() - op.issued_at;
        match c.kind {
            CoreKind::LoadResp { value } => {
                debug_assert!(!op.store);
                let last_seen = &mut self.slots[op.slot].last_seen;
                let failed = self
                    .hub
                    .check_load(self.core_index, op.slot, last_seen, value);
                if failed > 0 {
                    self.data_errors += failed;
                    self.flag_failed_load(op.slot, value, ctx);
                }
            }
            CoreKind::StoreResp => {
                debug_assert!(op.store);
                self.hub.store_completed(op.slot, ctx.now().as_u64());
            }
            _ => return,
        }
        self.hub.complete_one();
        self.completed_ops += 1;
        ctx.note_progress();
        self.arm_if_free(ctx);
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.armed = false;
        if self.hub.done() {
            return;
        }
        if self.in_flight.len() < self.cfg.max_in_flight {
            self.issue_one(ctx);
        }
        self.arm_if_free(ctx);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.ops_completed"), self.completed_ops);
        out.add(format_args!("{n}.ops_issued"), self.issued_ops);
        out.add(format_args!("{n}.data_errors"), self.data_errors);
        out.add(format_args!("{n}.latency_sum"), self.latency_sum);
        out.add(format_args!("{n}.outstanding"), self.in_flight.len() as u64);
    }
}

/// Builds a word-address pool of `blocks` cache blocks × `words_per_block`
/// words starting at `base`.
pub fn word_pool(base: u64, blocks: u64, words_per_block: u64) -> Vec<u64> {
    let mut pool = Vec::new();
    for b in 0..blocks {
        for w in 0..words_per_block.min(8) {
            pool.push(base + b * 64 + w * 8);
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        const fn send<T: Send>() {}
        send_sync::<TesterHub>();
        send::<TesterCore>();
    };

    /// Writers by pool slot, block-major: `(b + w · max(1, cores / 2))`.
    #[test]
    fn writers_follow_block_and_word_from_the_pool_start() {
        let writers = |cores, pool| {
            let hub = TesterHub::new(cores, 100, pool);
            (0..hub.pool.len())
                .map(|slot| hub.writer_of(slot))
                .collect::<Vec<_>>()
        };
        let pool = || word_pool(0x4008, 4, 2);
        assert_eq!(writers(3, pool()), [0, 1, 1, 2, 2, 0, 0, 1]);
        assert_eq!(writers(4, pool()), [0, 2, 1, 3, 2, 0, 3, 1]);
        assert_eq!(writers(6, pool()), [0, 3, 1, 4, 2, 5, 3, 0]);
        // One word a block: the block alone decides.
        assert_eq!(writers(2, vec![0x40, 0x100, 0x80]), [0, 1, 1]);
    }

    #[test]
    fn check_load_flags_future_and_backwards_values() {
        let hub = TesterHub::new(2, 100, vec![0x40, 0x100]);
        for _ in 0..5 {
            hub.issue_store(1);
        }
        let mut seen = 0;
        assert_eq!(hub.check_load(0, 1, &mut seen, 3), 0);
        assert_eq!(hub.data_errors(), 0);
        assert_eq!(hub.check_load(0, 1, &mut seen, 6), 1); // beyond issued
        assert_eq!(hub.data_errors(), 1);
        hub.store_completed(1, 77);
        assert_eq!(hub.check_load(0, 1, &mut seen, 2), 1); // went backwards (saw 6 before)
        assert_eq!(seen, 6);
        assert_eq!(hub.data_errors(), 2);
        // Each message names the reader first, then the word's writer.
        let writer = hub.writer_of(1);
        assert_eq!(
            hub.error_log(),
            vec![
                format!(
                    "core 0 read 6 at 0x100 but only 5 were written; \
                     no store by core {writer} has completed"
                ),
                format!(
                    "core 0 read 2 at 0x100 after having read 6 (went backwards); \
                     last store by core {writer} at cycle 77"
                ),
            ]
        );
        // A value from the future below one read before breaks both.
        assert_eq!(hub.check_load(0, 1, &mut seen, 9), 1);
        assert_eq!(hub.check_load(0, 1, &mut seen, 7), 2);
        assert_eq!(hub.data_errors(), 5);
    }

    /// Answers every load with a value no one wrote, after a fixed delay.
    struct LyingCache;

    impl Component<Message> for LyingCache {
        fn name(&self) -> &str {
            "lying_cache"
        }
        fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
            let Message::Core(c) = msg else { return };
            let kind = match c.kind {
                CoreKind::Load => CoreKind::LoadResp { value: 1_000 },
                _ => CoreKind::StoreResp,
            };
            ctx.send_after(from, CoreMsg { kind, ..c }.into(), 5);
        }
    }

    /// A failed check seen through a running simulation: the error text,
    /// the reading core's own count, and the two post-mortem flags on the
    /// word's block, reader's half first.
    #[test]
    fn a_failed_value_check_is_logged_attributed_and_flagged() {
        let hub = TesterHub::new(2, 1, word_pool(0x1000, 1, 1));
        let writer = hub.writer_of(0);
        let reader = 1 - writer;
        let mut b = xg_sim::SimBuilder::new(3);
        let cache = b.add(Box::new(LyingCache));
        let core = b.add(Box::new(TesterCore::new(
            "tester",
            cache,
            reader,
            hub.clone(),
            TesterCfg {
                max_in_flight: 1,
                ..TesterCfg::default()
            },
        )));
        let mut sim = b.build();
        sim.post_wake(core, 1, 0);
        sim.run_to_quiescence(10_000);
        assert!(hub.done());
        assert_eq!(hub.completed(), 1);
        assert_eq!(hub.data_errors(), 1);
        assert_eq!(sim.report().get("tester.data_errors"), 1);
        let no_store = format!("no store by core {writer} has completed");
        assert_eq!(
            hub.error_log(),
            vec![format!(
                "core {reader} read 1000 at 0x1000 but only 0 were written; {no_store}"
            )]
        );
        let block = Addr::new(0x1000).block().as_u64();
        let flags: Vec<(u64, &str)> = sim
            .tracer()
            .flags()
            .iter()
            .map(|f| (f.addr, &*f.reason))
            .collect();
        assert_eq!(
            flags,
            vec![
                (
                    block,
                    "tester: value check failed at word 0x1000 (read 1000)"
                ),
                (block, format!("word 0x1000: {no_store}").as_str()),
            ]
        );
    }

    /// Answers every core request after a random delay — loads with 0, which
    /// passes both value checks — so each outstanding op is exactly one
    /// queued event (its request, then its response).
    struct EchoCache;

    impl Component<Message> for EchoCache {
        fn name(&self) -> &str {
            "echo_cache"
        }
        fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
            let Message::Core(c) = msg else { return };
            let kind = match c.kind {
                CoreKind::Load => CoreKind::LoadResp { value: 0 },
                _ => CoreKind::StoreResp,
            };
            let delay = ctx.rng().gen_range(0..40u64);
            ctx.send_after(from, CoreMsg { kind, ..c }.into(), delay);
        }
    }

    /// The event-driven invariant, checked after every dispatched event
    /// against the kernel's own queue (not the core's `armed` flag): while
    /// the run is live a core has exactly one timer pending iff it has a
    /// free issue slot — so never two, and never one with `in_flight ==
    /// max_in_flight` — and once the run is done no new timer appears.
    #[test]
    fn one_timer_per_core_and_only_with_a_free_slot() {
        for (seed, max_in_flight) in [(1, 1), (2, 2), (3, 3)] {
            let hub = TesterHub::new(1, 300, word_pool(0x1000, 2, 2));
            let cfg = TesterCfg {
                max_in_flight,
                ..TesterCfg::default()
            };
            let mut b = xg_sim::SimBuilder::new(seed);
            let cache = b.add(Box::new(EchoCache));
            let core = b.add(Box::new(TesterCore::new(
                "tester",
                cache,
                0,
                hub.clone(),
                cfg,
            )));
            let mut sim = b.build();
            sim.post_wake(core, 1, 0);
            let mut timers_after_done = None;
            loop {
                let stats = sim.queue_stats();
                let queued = (stats.pushes - stats.pops) as usize;
                let in_flight = sim.get::<TesterCore>(core).unwrap().outstanding();
                assert!(in_flight <= max_in_flight);
                let timers = queued - in_flight;
                if hub.done() {
                    let before = timers_after_done.replace(timers).unwrap_or(timers);
                    assert!(timers <= before, "timer armed after done");
                } else {
                    assert_eq!(
                        timers,
                        usize::from(in_flight < max_in_flight),
                        "{in_flight} in flight of {max_in_flight}"
                    );
                }
                if !sim.step() {
                    break;
                }
            }
            assert!(hub.done());
            assert_eq!(sim.get::<TesterCore>(core).unwrap().outstanding(), 0);
        }
    }

    #[test]
    fn word_pool_layout() {
        let pool = word_pool(0x1000, 2, 3);
        assert_eq!(pool, vec![0x1000, 0x1008, 0x1010, 0x1040, 0x1048, 0x1050]);
    }
}
