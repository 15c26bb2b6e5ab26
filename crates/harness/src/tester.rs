//! The random value-checking coherence tester (paper §4.1).
//!
//! Each [`TesterCore`] fires rapid loads and stores at a small pool of word
//! addresses. Values are checkable because exactly one core is the *writer*
//! of each word (chosen by hashing the address) and writes strictly
//! increasing values. Every reader then checks two properties that together
//! witness per-location coherence:
//!
//! 1. **Bounded**: a read never returns a value larger than the writer has
//!    issued (no values from the future, no corrupted data).
//! 2. **Monotone per reader**: successive reads by one core never go
//!    backwards (single-writer / multiple-reader order is respected).
//!
//! Combined with the shrunken caches and randomized message latencies of
//! the stress configuration, this is the same methodology the paper used
//! for 22 compute-years (scaled down to CI budgets; crank
//! [`TesterShared::target_ops`] to scale up).
//!
//! Cores are event-driven: each holds at most one pending issue timer,
//! armed `think` cycles out only while it has a free issue slot and the run
//! is not done. A core whose slots are full holds no timer — the completion
//! that frees a slot re-arms it — so dispatched events scale with completed
//! operations (a handful per op), and a lost response drains the queue
//! instead of idling it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use rand::Rng;
use xg_mem::{Addr, IdMap};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message};
use xg_sim::{Component, NodeId, Report};

/// Handle to the state shared by every tester core in one run.
///
/// A `Mutex` (not `RefCell`) so tester cores — and the systems containing
/// them — are [`Send`] and whole simulations can be fanned across worker
/// threads by [`crate::sweep`]. One simulation runs on one thread, so the
/// lock is always uncontended; a core takes it once per issue and once per
/// completion, and the done-check every wake and every arming decision
/// makes reads an atomic mirror ([`TesterHub::done_fast`]) instead.
pub type SharedTester = Arc<TesterHub>;

/// [`TesterShared`] behind its lock, plus the atomic mirror of its done
/// flag that cores poll.
///
/// Derefs to the inner `Mutex`, so `shared.lock().unwrap()` works for
/// everything else.
#[derive(Debug)]
pub struct TesterHub {
    inner: Mutex<TesterShared>,
    /// Mirror of [`TesterShared::done`], refreshed by the single code path
    /// that bumps `completed` (and therefore exact, not approximate —
    /// `target_ops` is fixed at construction).
    done: AtomicBool,
}

impl TesterHub {
    /// Lock-free equivalent of `lock().unwrap().done()`.
    #[inline]
    pub fn done_fast(&self) -> bool {
        self.done.load(Ordering::Relaxed)
    }

    /// Refreshes the lock-free done mirror; call after bumping `completed`.
    fn publish_done(&self, done: bool) {
        if done {
            self.done.store(true, Ordering::Relaxed);
        }
    }
}

impl std::ops::Deref for TesterHub {
    type Target = Mutex<TesterShared>;
    fn deref(&self) -> &Mutex<TesterShared> {
        &self.inner
    }
}

/// State shared by every tester core in one run.
#[derive(Debug)]
pub struct TesterShared {
    total_cores: usize,
    /// Stop issuing once this many operations completed system-wide.
    pub target_ops: u64,
    completed: u64,
    data_errors: u64,
    /// Value-check failures per observing core index, for multi-accelerator
    /// blast-radius attribution (which hierarchy saw corrupted data).
    errors_by_core: IdMap<usize, u64>,
    error_log: Vec<String>,
    /// Word addresses whose value checks failed, in detection order.
    corrupted: Vec<u64>,
    issued: IdMap<u64, WordLog>,
    last_seen: IdMap<(usize, u64), u64>,
}

/// What the run knows of one word's writes.
#[derive(Debug, Clone, Copy, Default)]
struct WordLog {
    /// The largest value the word's writer has issued.
    issued: u64,
    /// The cycle the writer's latest `StoreResp` arrived, once one has.
    stored_at: Option<u64>,
}

impl TesterShared {
    /// Creates shared state for `total_cores` testers aiming for
    /// `target_ops` completed operations.
    #[allow(clippy::new_ret_no_self)] // returns the hub wrapper, by design
    pub fn new(total_cores: usize, target_ops: u64) -> SharedTester {
        Arc::new(TesterHub {
            inner: Mutex::new(TesterShared {
                total_cores,
                target_ops,
                completed: 0,
                data_errors: 0,
                errors_by_core: IdMap::default(),
                error_log: Vec::new(),
                corrupted: Vec::new(),
                issued: IdMap::default(),
                last_seen: IdMap::default(),
            }),
            done: AtomicBool::new(target_ops == 0),
        })
    }

    /// The unique writer core for a word address.
    pub fn writer_of(&self, word_addr: u64) -> usize {
        // SplitMix-style scramble so neighboring words get different writers.
        let mut x = word_addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        (x % self.total_cores as u64) as usize
    }

    /// Whether the run completed its operation budget.
    pub fn done(&self) -> bool {
        self.completed >= self.target_ops
    }

    /// Operations completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Value-check failures observed (must be zero for a correct protocol).
    pub fn data_errors(&self) -> u64 {
        self.data_errors
    }

    /// Value-check failures observed by one core (by global core index).
    pub fn data_errors_of(&self, core: usize) -> u64 {
        self.errors_by_core.get(&core).copied().unwrap_or(0)
    }

    /// Human-readable description of the first few failures.
    pub fn error_log(&self) -> &[String] {
        &self.error_log
    }

    /// Word addresses whose value checks failed, in detection order.
    pub fn corrupted_addrs(&self) -> &[u64] {
        &self.corrupted
    }

    fn record_error(&mut self, core: usize, word_addr: u64, msg: String) {
        self.data_errors += 1;
        *self.errors_by_core.entry(core).or_insert(0) += 1;
        if self.error_log.len() < 16 {
            self.error_log.push(msg);
        }
        if self.corrupted.len() < 16 {
            self.corrupted.push(word_addr);
        }
    }

    /// Who writes `word_addr` and when its last store completed: the other
    /// half of a value-check failure.
    fn last_store(&self, word_addr: u64) -> String {
        let writer = self.writer_of(word_addr);
        match self.issued.get(&word_addr).and_then(|log| log.stored_at) {
            Some(cycle) => format!("last store by core {writer} at cycle {cycle}"),
            None => format!("no store by core {writer} has completed"),
        }
    }

    fn check_load(&mut self, core: usize, word_addr: u64, value: u64) {
        let issued = self.issued.get(&word_addr).map_or(0, |log| log.issued);
        if value > issued {
            let writer = self.last_store(word_addr);
            self.record_error(
                core,
                word_addr,
                format!(
                    "core {core} read {value} at {word_addr:#x} but only {issued} were written; {writer}"
                ),
            );
        }
        let key = (core, word_addr);
        let prev = self.last_seen.get(&key).copied().unwrap_or(0);
        if value < prev {
            let writer = self.last_store(word_addr);
            self.record_error(
                core,
                word_addr,
                format!(
                    "core {core} read {value} at {word_addr:#x} after having read {prev} (went backwards); {writer}"
                ),
            );
        }
        self.last_seen.insert(key, value.max(prev));
    }
}

/// Tester configuration knobs.
#[derive(Debug, Clone)]
pub struct TesterCfg {
    /// Maximum outstanding operations per core.
    pub max_in_flight: usize,
    /// Random delay between issues (cycles).
    pub think: (u64, u64),
    /// Probability (percent) that a writer writes instead of reading.
    pub store_percent: u32,
}

impl Default for TesterCfg {
    fn default() -> Self {
        TesterCfg {
            max_in_flight: 2,
            think: (1, 20),
            store_percent: 50,
        }
    }
}

/// One random-testing core, attached to one cache frontend.
pub struct TesterCore {
    name: String,
    cache: NodeId,
    core_index: usize,
    shared: SharedTester,
    pool: Vec<u64>,
    cfg: TesterCfg,
    /// Outstanding operations in issue order, at most `max_in_flight`.
    in_flight: Vec<InFlight>,
    next_id: u64,
    issued_ops: u64,
    completed_ops: u64,
    latency_sum: u64,
    /// Whether this core's one issue timer is pending.
    armed: bool,
}

/// One outstanding tester operation.
struct InFlight {
    id: u64,
    word_addr: u64,
    store: bool,
    issued_at: u64,
}

impl TesterCore {
    /// Creates a tester core issuing to `cache`, drawing word addresses
    /// from `pool`.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    pub fn new(
        name: impl Into<String>,
        cache: NodeId,
        core_index: usize,
        shared: SharedTester,
        pool: Vec<u64>,
        cfg: TesterCfg,
    ) -> Self {
        assert!(!pool.is_empty(), "tester needs a nonempty address pool");
        TesterCore {
            name: name.into(),
            cache,
            core_index,
            shared,
            pool,
            cfg,
            in_flight: Vec::new(),
            next_id: 0,
            issued_ops: 0,
            completed_ops: 0,
            latency_sum: 0,
            armed: false,
        }
    }

    /// Operations completed by this core.
    pub fn completed(&self) -> u64 {
        self.completed_ops
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
            .map(|op| (op.word_addr, op.store))
            .collect()
    }

    /// Arms the core's single issue timer, `think` cycles out, if none is
    /// pending, a slot is free and the run is not done. The only place a
    /// tester schedules a wake: a full or finished core holds no timer.
    fn arm_if_free(&mut self, ctx: &mut Ctx<'_>) {
        if self.armed || self.in_flight.len() >= self.cfg.max_in_flight || self.shared.done_fast() {
            return;
        }
        let delay = ctx.rng().gen_range(self.cfg.think.0..=self.cfg.think.1);
        ctx.wake_in(delay, 0);
        self.armed = true;
    }

    fn issue_one(&mut self, ctx: &mut Ctx<'_>) {
        let pick = ctx.rng().gen_range(0..self.pool.len());
        let word_addr = self.pool[pick];
        let mut shared = self.shared.lock().unwrap();
        let is_writer = shared.writer_of(word_addr) == self.core_index;
        let store = is_writer && ctx.rng().gen_range(0u32..100) < self.cfg.store_percent;
        let id = self.next_id;
        self.next_id += 1;
        let kind = if store {
            let log = shared.issued.entry(word_addr).or_default();
            log.issued += 1;
            CoreKind::Store { value: log.issued }
        } else {
            CoreKind::Load
        };
        drop(shared);
        self.in_flight.push(InFlight {
            id,
            word_addr,
            store,
            issued_at: ctx.now().as_u64(),
        });
        self.issued_ops += 1;
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: Addr::new(word_addr),
                kind,
            }
            .into(),
        );
    }
}

impl Component<Message> for TesterCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        let Some(slot) = self.in_flight.iter().position(|op| op.id == c.id) else {
            return;
        };
        let op = self.in_flight.remove(slot);
        self.latency_sum += ctx.now().as_u64() - op.issued_at;
        let mut shared = self.shared.lock().unwrap();
        match c.kind {
            CoreKind::LoadResp { value } => {
                debug_assert!(!op.store);
                let word_addr = op.word_addr;
                let before = shared.data_errors();
                shared.check_load(self.core_index, word_addr, value);
                if shared.data_errors() > before {
                    // The reader's half and the writer's, on the one block.
                    let block = Addr::new(word_addr).block().as_u64();
                    ctx.flag_post_mortem(
                        block,
                        format!(
                            "{}: value check failed at word {word_addr:#x} (read {value})",
                            self.name
                        ),
                    );
                    let writer = shared.last_store(word_addr);
                    ctx.flag_post_mortem(block, format!("word {word_addr:#x}: {writer}"));
                }
            }
            CoreKind::StoreResp => {
                debug_assert!(op.store);
                if let Some(log) = shared.issued.get_mut(&op.word_addr) {
                    log.stored_at = Some(ctx.now().as_u64());
                }
            }
            _ => return,
        }
        shared.completed += 1;
        let done = shared.done();
        drop(shared);
        self.shared.publish_done(done);
        self.completed_ops += 1;
        ctx.note_progress();
        self.arm_if_free(ctx);
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.armed = false;
        if self.shared.done_fast() {
            return;
        }
        if self.in_flight.len() < self.cfg.max_in_flight {
            self.issue_one(ctx);
        }
        self.arm_if_free(ctx);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format!("{n}.ops_completed"), self.completed_ops);
        out.add(format!("{n}.ops_issued"), self.issued_ops);
        out.add(format!("{n}.latency_sum"), self.latency_sum);
        out.add(format!("{n}.outstanding"), self.in_flight.len() as u64);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
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

    #[test]
    fn writer_assignment_is_stable_and_spread() {
        let shared = TesterShared::new(4, 100);
        let s = shared.lock().unwrap();
        let mut seen = std::collections::HashSet::new();
        for w in 0..64u64 {
            let writer = s.writer_of(w * 8);
            assert_eq!(writer, s.writer_of(w * 8), "stable");
            seen.insert(writer);
        }
        assert_eq!(seen.len(), 4, "all cores get to write something");
    }

    #[test]
    fn check_load_flags_future_and_backwards_values() {
        let shared = TesterShared::new(2, 100);
        let mut s = shared.lock().unwrap();
        let mut log = WordLog {
            issued: 5,
            stored_at: None,
        };
        s.issued.insert(0x100, log);
        s.check_load(0, 0x100, 3);
        assert_eq!(s.data_errors(), 0);
        s.check_load(0, 0x100, 6); // beyond issued
        assert_eq!(s.data_errors(), 1);
        log.stored_at = Some(77);
        s.issued.insert(0x100, log);
        s.check_load(0, 0x100, 2); // went backwards (saw 6 before)
        assert_eq!(s.data_errors(), 2);
        assert_eq!(s.data_errors_of(0), 2, "both failures blame core 0");
        assert_eq!(s.data_errors_of(1), 0, "core 1 saw nothing");
        // Each message names the reader first, then the word's writer.
        let writer = s.writer_of(0x100);
        assert_eq!(
            s.error_log()[0],
            format!(
                "core 0 read 6 at 0x100 but only 5 were written; \
                 no store by core {writer} has completed"
            )
        );
        assert_eq!(
            s.error_log()[1],
            format!(
                "core 0 read 2 at 0x100 after having read 6 (went backwards); \
                 last store by core {writer} at cycle 77"
            )
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
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
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
            let shared = TesterShared::new(1, 300);
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
                shared.clone(),
                word_pool(0x1000, 2, 2),
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
                if shared.done_fast() {
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
            assert!(shared.lock().unwrap().done());
            assert_eq!(sim.get::<TesterCore>(core).unwrap().outstanding(), 0);
        }
    }

    #[test]
    fn word_pool_layout() {
        let pool = word_pool(0x1000, 2, 3);
        assert_eq!(pool, vec![0x1000, 0x1008, 0x1010, 0x1040, 0x1048, 0x1050]);
    }
}
