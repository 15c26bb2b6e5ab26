//! Property tests for the kernel's hot-path data structures, against
//! reference oracles.
//!
//! * [`CalendarQueue`] is checked against a `BinaryHeap` ordered by
//!   `(time, seq)` — the exact scheduler the calendar queue replaced. Every
//!   schedule (random and adversarial) must pop in the identical order,
//!   including same-cycle FIFO ties, across the wheel/overflow boundary
//!   and across window wraps. Every push is at or after the last popped
//!   time, the contract the simulator keeps. Resets with events still
//!   queued, ordered walks and refused heads (what a simulator checkpoint
//!   uses) are checked the same way.
//! * [`Slab`] is checked against a `HashMap` model under random alloc/free
//!   interleavings: every live handle reads back its value, freed slots are
//!   recycled before the arena grows, and the id sequence is a pure
//!   function of the alloc/free history.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use proptest::collection::vec;
use proptest::prelude::*;
use xg_sim::queue::{Head, QueueStats, WHEEL_SLOTS};
use xg_sim::{CalendarQueue, Cycle, Slab};

const WINDOW: u64 = WHEEL_SLOTS as u64;

/// Reference scheduler: a binary heap popping ascending `(time, seq)`,
/// plus a model of the calendar queue's window — just enough of it to say
/// what the operation counters must read: where the lower edge stands, and
/// which events wait beyond the horizon.
#[derive(Default)]
struct OracleQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    cursor: u64,
    beyond: BTreeSet<(u64, u64)>,
    stats: QueueStats,
}

impl OracleQueue {
    fn push(&mut self, time: u64, item: u32) {
        assert!(time >= self.cursor, "a schedule pushed into the past");
        self.stats.pushes += 1;
        self.heap.push(Reverse((time, self.seq, item)));
        if time - self.cursor >= WINDOW {
            self.stats.overflow_pushes += 1;
            self.beyond.insert((time, self.seq));
        }
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((time, _, item)) = self.heap.pop()?;
        self.stats.pops += 1;
        // The window's lower edge follows the popped time.
        self.cursor = time;
        self.migrate();
        Some((time, item))
    }

    /// Everything queued, in pop order.
    fn in_order(&self) -> Vec<(u64, u32)> {
        let mut all: Vec<(u64, u64, u32)> = self.heap.iter().map(|&Reverse(e)| e).collect();
        all.sort_unstable();
        all.into_iter().map(|(t, _, item)| (t, item)).collect()
    }

    /// Drops everything and restarts the window at `cursor`; the counters
    /// and the push sequence carry on.
    fn reset_at(&mut self, cursor: u64) {
        self.heap.clear();
        self.beyond.clear();
        self.cursor = cursor;
    }

    /// Events the window has come to cover leave `beyond`, each counted.
    fn migrate(&mut self) {
        while self
            .beyond
            .first()
            .is_some_and(|&(t, _)| t - self.cursor < WINDOW)
        {
            self.beyond.pop_first();
            self.stats.migrated += 1;
        }
    }
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push this far after the last popped time.
    PushAhead(u64),
    /// Peek, then pop; the two must agree.
    Pop,
    /// Peek alone: must not disturb anything.
    Peek,
    /// `pop_until` with its limit this far after the last popped time.
    PopUntil(u64),
    /// `pop_until_unless` with its limit this far after the last popped
    /// time, refusing items that are multiples of three.
    PopUnless(u64),
    /// `reset_at` this far from the last popped time (either way): what a
    /// simulator restoring a checkpoint does to its queue.
    Reset(i64),
    /// `for_each_in_order` must list exactly what would pop, in order.
    Walk,
}

/// Runs `ops` through both queues, checking each pop, every peek, and the
/// operation counters after every step.
fn check_schedule(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cal = CalendarQueue::new();
    let mut oracle = OracleQueue::default();
    let mut item = 0u32;
    let mut now = 0u64;
    for &op in ops {
        match op {
            Op::PushAhead(ahead) => {
                let time = now + ahead;
                cal.push(Cycle::new(time), item);
                oracle.push(time, item);
                item += 1;
            }
            Op::Pop => {
                let expect = oracle.pop();
                let peek = cal.peek_time();
                let got = cal.pop();
                prop_assert_eq!(
                    got.map(|(t, v)| (t.as_u64(), v)),
                    expect,
                    "pop order diverged from the (time, seq) oracle"
                );
                prop_assert_eq!(
                    peek,
                    got.map(|(t, _)| t),
                    "peek_time disagreed with the following pop"
                );
                now = expect.map_or(now, |(t, _)| t);
            }
            Op::Peek => {
                prop_assert_eq!(cal.peek_time().map(Cycle::as_u64), oracle.peek_time());
            }
            Op::PopUntil(ahead) => {
                let limit = now + ahead;
                let expect = match oracle.peek_time() {
                    None => Head::Empty,
                    Some(t) if t > limit => Head::Later(Cycle::new(t)),
                    Some(_) => {
                        let (t, v) = oracle.pop().expect("peeked");
                        now = t;
                        Head::Due(Cycle::new(t), v)
                    }
                };
                prop_assert_eq!(cal.pop_until(Cycle::new(limit)), expect);
            }
            Op::PopUnless(ahead) => {
                let limit = now + ahead;
                let refused = |item: &u32| item.is_multiple_of(3);
                let expect = match oracle.in_order().first() {
                    None => Head::Empty,
                    Some(&(t, v)) if t > limit || refused(&v) => Head::Later(Cycle::new(t)),
                    Some(_) => {
                        let (t, v) = oracle.pop().expect("peeked");
                        now = t;
                        Head::Due(Cycle::new(t), v)
                    }
                };
                prop_assert_eq!(cal.pop_until_unless(Cycle::new(limit), refused), expect);
            }
            Op::Reset(delta) => {
                now = now.saturating_add_signed(delta);
                cal.reset_at(Cycle::new(now));
                oracle.reset_at(now);
            }
            Op::Walk => {
                let mut walked = Vec::new();
                cal.for_each_in_order(|t, &v| walked.push((t.as_u64(), v)));
                prop_assert_eq!(walked, oracle.in_order());
            }
        }
        prop_assert_eq!(cal.len(), oracle.heap.len());
        prop_assert_eq!(cal.stats(), oracle.stats, "operation counters diverged");
    }
    // Drain whatever is left: the tails must agree too.
    while let Some(expect) = oracle.pop() {
        let got = cal.pop();
        prop_assert_eq!(got.map(|(t, v)| (t.as_u64(), v)), Some(expect));
    }
    prop_assert!(cal.is_empty());
    prop_assert_eq!(cal.pop(), None);
    prop_assert_eq!(cal.stats(), oracle.stats);
    Ok(())
}

/// Interprets `(kind, raw)` pairs as a monotone-ish schedule the simulator
/// could produce: pushes land `raw` cycles after the last popped time.
fn future_schedule(steps: &[(bool, u64)], horizon: u64) -> Vec<Op> {
    steps
        .iter()
        .map(|&(is_pop, raw)| {
            if is_pop {
                Op::Pop
            } else {
                Op::PushAhead(raw % horizon)
            }
        })
        .collect()
}

proptest! {
    /// Random schedules over a dense near-future horizon (everything lands
    /// in the wheel): identical pop order, including same-cycle ties —
    /// `raw % 64` makes collisions common.
    #[test]
    fn dense_schedules_match_oracle(steps in vec((any::<bool>(), 0u64..1 << 16), 1..300)) {
        check_schedule(&future_schedule(&steps, 64))?;
    }

    /// Random schedules spanning several window lengths: events split
    /// between wheel and overflow, and migrate back as the window slides.
    #[test]
    fn overflow_schedules_match_oracle(
        steps in vec((any::<bool>(), 0u64..1 << 32), 1..300),
    ) {
        check_schedule(&future_schedule(&steps, WHEEL_SLOTS as u64 * 5))?;
    }

    /// Adversarial schedules: arbitrary distances from the cursor, up to
    /// four windows, so times that alias the same slot across different
    /// rotations meet in the wheel and the overflow heap.
    #[test]
    fn adversarial_schedules_match_oracle(
        steps in vec((any::<bool>(), any::<u64>()), 1..200),
        times in vec(0u64..WHEEL_SLOTS as u64 * 3, 4..12),
    ) {
        let mut ops: Vec<Op> = Vec::new();
        // A prefix that advances the cursor off slot zero, so the times
        // drawn below alias from an arbitrary residue.
        for &t in &times {
            ops.push(Op::PushAhead(t));
        }
        ops.push(Op::Pop);
        ops.push(Op::Pop);
        for &(is_pop, raw) in &steps {
            if is_pop {
                ops.push(Op::Pop);
            } else {
                // Bias toward slot-aliasing times: the same residue, one
                // window apart, must never interleave out of order.
                ops.push(Op::PushAhead(raw % (WHEEL_SLOTS as u64 * 4)));
            }
        }
        check_schedule(&ops)?;
    }

    /// The schedules a run loop with a deadline and far-future timers
    /// produces, concentrated on the window's edge: pushes a hair short of,
    /// exactly at and just past the horizon (and one and two windows
    /// further), between peeks, pops and `pop_until` probes whose limit
    /// falls short of, on or beyond the head. Whether the head is taken,
    /// the cursor moves or an overflow event migrates is decided by
    /// comparisons against `cursor + WHEEL_SLOTS`, and every one of them has
    /// its off-by-one covered here; the counters must track the model's at
    /// each step, not only at the end.
    #[test]
    fn horizon_schedules_match_oracle(
        steps in vec((0u8..8, 0u64..7, 0u64..3), 1..300),
    ) {
        let ops: Vec<Op> = steps
            .iter()
            .map(|&(kind, jitter, windows)| match kind {
                // Near the horizon of this or a later window.
                0 | 1 => Op::PushAhead((windows + 1) * WINDOW + jitter - 3),
                // The near future, where a timer's neighbours live.
                2 | 3 => Op::PushAhead(jitter),
                4 => Op::Pop,
                5 => Op::Peek,
                // Short of the head, or far enough to reach an overflow
                // event with the wheel empty.
                6 => Op::PopUntil(jitter),
                _ => Op::PopUntil(windows * WINDOW + jitter),
            })
            .collect();
        check_schedule(&ops)?;
    }

    /// What a simulator checkpoint asks of its queue: resets (forwards and
    /// backwards) while events sit both in the wheel and beyond the
    /// horizon, ordered walks of whatever is queued, and stops in front of
    /// a due head — each followed by more pushes and pops, so a reset that
    /// left a node linked or a bit set, or a stop that moved the window,
    /// shows up as a wrong pop or a wrong counter later.
    #[test]
    fn resets_walks_and_stops_match_oracle(
        steps in vec((0u8..10, 0u64..9, 0u64..3), 1..300),
    ) {
        let ops: Vec<Op> = steps
            .iter()
            .map(|&(kind, jitter, windows)| match kind {
                0 => Op::PushAhead((windows + 1) * WINDOW + jitter - 4),
                1 | 2 => Op::PushAhead(jitter),
                3 => Op::PushAhead(jitter * 97),
                4 => Op::Pop,
                5 => Op::PopUnless(windows * WINDOW + jitter),
                6 => Op::Walk,
                7 => Op::Reset(jitter as i64 - 4),
                8 => Op::PopUntil(jitter),
                _ => Op::Peek,
            })
            .collect();
        check_schedule(&ops)?;
    }

    /// Same-cycle FIFO ties, concentrated: many pushes to very few distinct
    /// times, popped in between. Seq order is the whole story here.
    #[test]
    fn tie_heavy_schedules_match_oracle(
        steps in vec((any::<bool>(), 0u64..4), 1..200),
    ) {
        check_schedule(&future_schedule(&steps, 4))?;
    }
}

/// One step of a slab workload.
#[derive(Debug, Clone, Copy)]
enum SlabOp {
    Insert(u64),
    /// Free the nth-oldest live handle (modulo the live count).
    TakeNth(usize),
}

proptest! {
    /// The slab against a `HashMap` model: every live id reads back its
    /// value, take returns it, len/capacity track the model, and the arena
    /// never grows while a freed slot exists.
    #[test]
    fn slab_matches_model(
        steps in vec(
            prop_oneof![
                (any::<u64>()).prop_map(SlabOp::Insert),
                (0usize..64).prop_map(SlabOp::TakeNth),
            ],
            1..300,
        ),
    ) {
        let mut slab = Slab::new();
        let mut model: HashMap<u64, u64> = HashMap::new(); // raw id -> value
        let mut live: Vec<(xg_sim::SlabId, u64)> = Vec::new();
        let mut hwm = 0usize;
        for step in steps {
            match step {
                SlabOp::Insert(v) => {
                    let before = slab.capacity();
                    let had_free = slab.capacity() > slab.len();
                    let id = slab.insert(v);
                    prop_assert!(
                        model.insert(id.index() as u64, v).is_none(),
                        "slab handed out a live id twice"
                    );
                    live.push((id, v));
                    if had_free {
                        prop_assert_eq!(
                            slab.capacity(), before,
                            "arena grew while free slots existed"
                        );
                    }
                }
                SlabOp::TakeNth(n) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, v) = live.remove(n % live.len());
                    prop_assert_eq!(*slab.get(id), v);
                    prop_assert_eq!(slab.take(id), v);
                    prop_assert_eq!(model.remove(&(id.index() as u64)), Some(v));
                }
            }
            hwm = hwm.max(model.len());
            prop_assert_eq!(slab.len(), model.len());
            prop_assert!(slab.is_empty() == model.is_empty());
            for &(id, v) in &live {
                prop_assert_eq!(*slab.get(id), v);
            }
        }
        prop_assert!(
            slab.capacity() >= hwm,
            "arena smaller than the live high-water mark"
        );
    }

    /// Slab id assignment is deterministic: replaying the same alloc/free
    /// history yields the same id sequence.
    #[test]
    fn slab_ids_replay_identically(
        steps in vec(
            prop_oneof![
                (any::<u64>()).prop_map(SlabOp::Insert),
                (0usize..16).prop_map(SlabOp::TakeNth),
            ],
            1..100,
        ),
    ) {
        let run = |steps: &[SlabOp]| {
            let mut slab = Slab::new();
            let mut live = Vec::new();
            let mut ids = Vec::new();
            for &step in steps {
                match step {
                    SlabOp::Insert(v) => {
                        let id = slab.insert(v);
                        ids.push(id);
                        live.push(id);
                    }
                    SlabOp::TakeNth(n) => {
                        if live.is_empty() {
                            continue;
                        }
                        let id = live.remove(n % live.len());
                        slab.take(id);
                    }
                }
            }
            ids
        };
        prop_assert_eq!(run(&steps), run(&steps));
    }
}
