//! The kernel's event scheduler: a calendar queue (timing wheel with an
//! overflow heap) with a guaranteed `(time, seq)` pop order.
//!
//! # Why not a `BinaryHeap`?
//!
//! A binary heap pays `O(log n)` compare-and-swap steps on every push and
//! pop, each one a data-dependent branch and a move of the whole entry, and
//! at the queue depths a stress sweep reaches (hundreds of events) those
//! steps wander over several cache lines. The queued event itself is small
//! — a [`crate::slab::SlabId`] stands in for the message payload, so an
//! entry is `(time, seq)` plus two dozen bytes — which is what makes a
//! wheel of fixed-size nodes practical: the calendar queue writes each
//! event once into its slot and reads it once out, and finds the next
//! event with a bitmap scan instead of a pointer chase.
//!
//! # Structure
//!
//! * A **wheel** of [`WHEEL_SLOTS`] buckets, one simulated cycle each,
//!   covering the sliding window `[cursor, cursor + WHEEL_SLOTS)`. A slot
//!   is an intrusive FIFO list of nodes in one shared **arena** with a
//!   LIFO free list: all live events sit in a single contiguous allocation
//!   sized by the queue's high-water mark, steady-state pushes allocate
//!   nothing, and a push or pop touches exactly one recycled (cache-hot)
//!   node plus the slot's head/tail word.
//! * An **occupancy bitmap** (one bit per slot) so finding the next
//!   non-empty slot is a word scan, not a slot-by-slot walk.
//! * An **overflow heap** for events scheduled at or beyond the window
//!   horizon (invalidation timeouts, delay-spike victims). Overflow events
//!   **migrate** into the wheel as the window slides over them.
//!
//! # The hot path
//!
//! The simulator runs one `pop_until` and a few `push`es per event, so both
//! inline into its run loop whole (`#[inline(always)]`), an event's fields
//! go from the caller's registers into the node and back without a stop on
//! the stack, and everything that is not the common case — the overflow
//! heap, a refused push, the migration loop — sits behind one branch in a
//! function of its own. Two things keep that true and are easy to undo by
//! accident: no out-of-line function on the wheel path may take the item
//! by value (its address would escape, and the compiler would then build
//! the item in memory on the hot path too), and `pop_until` answers "when
//! is the next event" and "take it" with a single bitmap scan.
//!
//! # Determinism
//!
//! Pop order is exactly ascending `(time, seq)` where `seq` is the global
//! push counter — byte-for-byte the order the previous `BinaryHeap`
//! scheduler produced. The argument, re-checked by the oracle property
//! tests in `tests/queue_props.rs`:
//!
//! 1. Each slot holds events of exactly one absolute time per window pass
//!    (two times that share a slot differ by `WHEEL_SLOTS` and cannot both
//!    be inside the window).
//! 2. Within a slot, events append in `seq` order: direct pushes arrive in
//!    global `seq` order, and migration (a) drains the overflow heap in
//!    `(time, seq)` order and (b) runs *before* the cursor advance that
//!    makes the slot's time pushable, so migrated events always precede
//!    any later direct push to the same slot.
//! 3. A pop takes the front of the lowest-time occupied slot, and the
//!    overflow heap only ever holds events at or beyond the window horizon
//!    — so the popped event is the global `(time, seq)` minimum.
//!
//! A push may not go *before* the cursor: the simulator only schedules
//! strictly-future events, and its restore moves the window back with
//! [`CalendarQueue::reset_at`] before it re-queues a checkpoint. Such a
//! push panics, naming both cycles, on the cold path the horizon test
//! already sends it to.
//!
//! Only relative order matters, never a `seq` value: a simulator checkpoint
//! lists the queue in pop order ([`CalendarQueue::for_each_in_order`]) and
//! its restore pushes the list into a reset queue in that order, which
//! hands out fresh sequence numbers in the same relative order.

use std::collections::BinaryHeap;

use crate::time::Cycle;

/// Number of one-cycle wheel slots. Power of two so slot lookup is a mask.
///
/// Sized to cover every latency the simulated links commonly draw (link
/// ranges are tens of cycles, delay spikes hundreds to a few thousand) so
/// that only genuinely far-future events — invalidation timeouts, very
/// large spikes — take the overflow-heap detour.
pub const WHEEL_SLOTS: usize = 4096;
const WHEEL_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const WORDS: usize = WHEEL_SLOTS / 64;

/// One scheduled entry: absolute time, global push sequence, payload.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the std max-heap pops earliest-(time, seq) first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic scheduler-operation counters: they depend only on the
/// simulated workload, never on the host machine, so a test can pin them
/// (`xg-harness`'s `tests/observability.rs` holds the overflow and
/// migration counts of the stress matrix at 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed, total.
    pub pushes: u64,
    /// Events popped, total.
    pub pops: u64,
    /// Pushes that landed beyond the wheel horizon (overflow heap).
    pub overflow_pushes: u64,
    /// Events migrated from the overflow heap into the wheel.
    pub migrated: u64,
}

/// What [`CalendarQueue::pop_until`] found at the head of the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Head<T> {
    /// Nothing is scheduled.
    Empty,
    /// The earliest event is scheduled after the limit, at this time; it
    /// stays queued.
    Later(Cycle),
    /// The earliest event and its time, removed from the queue.
    Due(Cycle, T),
}

/// Sentinel "no node" index for the intrusive slot lists.
const NIL: u32 = u32::MAX;

/// An arena node: one scheduled wheel event plus its intrusive FIFO link.
/// `item` is `None` only while the node sits on the free list.
#[derive(Debug)]
struct Node<T> {
    time: u64,
    seq: u64,
    /// Next node in this slot's FIFO, or (on the free list) the next free
    /// node; `NIL` terminates both.
    next: u32,
    item: Option<T>,
}

/// A calendar queue over payload `T`. See the [module docs](self) for the
/// design and determinism argument.
pub struct CalendarQueue<T> {
    /// First queued node of slot `t & WHEEL_MASK`'s FIFO (valid only when
    /// the slot's occupancy bit is set).
    heads: Box<[u32]>,
    /// Last queued node of the slot's FIFO (valid only when occupied).
    tails: Box<[u32]>,
    /// Node storage shared by every slot; grows to the wheel's high-water
    /// mark and is recycled through `free_head` thereafter.
    arena: Vec<Node<T>>,
    /// Head of the LIFO free list threaded through `Node::next`.
    free_head: u32,
    /// Occupancy bitmap over the wheel slots.
    occupied: [u64; WORDS],
    /// Events in the wheel.
    wheel_len: usize,
    /// Lower edge of the wheel window (time of the last pop, or of the
    /// next event after a jump). All wheel events are in
    /// `[cursor, cursor + WHEEL_SLOTS)`.
    cursor: u64,
    /// Events at or beyond the window horizon, min-(time, seq) first.
    overflow: BinaryHeap<Entry<T>>,
    /// Global push counter (the FIFO tie-break).
    seq: u64,
    stats: QueueStats,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with its window starting at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            heads: vec![NIL; WHEEL_SLOTS].into_boxed_slice(),
            tails: vec![NIL; WHEEL_SLOTS].into_boxed_slice(),
            arena: Vec::new(),
            free_head: NIL,
            occupied: [0; WORDS],
            wheel_len: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scheduler-operation counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Drops every scheduled event and restarts the window at `cursor`, so
    /// that pushes at or after it take the ordinary path. Live wheel nodes
    /// go back on the free list and the overflow heap is cleared in place,
    /// so a reset allocates nothing — a model checker restores a mid-step
    /// checkpoint over an undrained world for every branch it forks. The
    /// operation counters carry on.
    pub fn reset_at(&mut self, cursor: Cycle) {
        if self.wheel_len > 0 {
            self.clear_wheel();
        }
        self.overflow.clear();
        self.cursor = cursor.as_u64();
    }

    /// Calls `f` with every scheduled event, in pop order: ascending
    /// `(time, seq)`. The wheel is walked from the cursor an occupancy
    /// word at a time and only as far as its last event, so a sparse
    /// window with one far timer costs a few dozen word tests, not a probe
    /// per slot; overflow events, rare, are sorted on the way out.
    pub fn for_each_in_order(&self, mut f: impl FnMut(Cycle, &T)) {
        let start = (self.cursor & WHEEL_MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let mut left = self.wheel_len;
        // Bits at or after `start` in its word, the other words in ring
        // order, then the bits before `start` in its word.
        for step in 0..=WORDS {
            if left == 0 {
                break;
            }
            let w = (sw + step) % WORDS;
            let mut bits = match step {
                0 => self.occupied[sw] & (u64::MAX << sb),
                WORDS => self.occupied[sw] & !(u64::MAX << sb),
                _ => self.occupied[w],
            };
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut i = self.heads[idx];
                while i != NIL {
                    let node = &self.arena[i as usize];
                    f(
                        Cycle::new(node.time),
                        node.item.as_ref().expect("live node has an item"),
                    );
                    left -= 1;
                    i = node.next;
                }
            }
        }
        if !self.overflow.is_empty() {
            let mut beyond: Vec<&Entry<T>> = self.overflow.iter().collect();
            beyond.sort_unstable_by_key(|e| (e.time, e.seq));
            for e in beyond {
                f(Cycle::new(e.time), &e.item);
            }
        }
    }

    /// Schedules `item` at `time`, after everything already scheduled at
    /// the same time (FIFO tie-break).
    ///
    /// # Panics
    /// If `time` is before the cursor: the time of the last pop, or the
    /// cycle of the last [`reset_at`](Self::reset_at).
    #[inline(always)]
    pub fn push(&mut self, time: Cycle, item: T) {
        let time = time.as_u64();
        let seq = self.seq;
        self.seq += 1;
        self.stats.pushes += 1;
        // One test for "inside the window": a time before the cursor wraps
        // to a huge distance and takes the cold path, which refuses it.
        if time.wrapping_sub(self.cursor) < WHEEL_SLOTS as u64 {
            self.slot_push(time, seq, item);
        } else {
            self.push_outside(Entry { time, seq, item });
        }
    }

    /// A push the window does not cover: beyond the horizon it waits in the
    /// overflow heap; before the cursor it is refused.
    #[inline(never)]
    fn push_outside(&mut self, entry: Entry<T>) {
        assert!(
            entry.time >= self.cursor,
            "event pushed at cycle {} before the queue's cursor at cycle {}",
            entry.time,
            self.cursor
        );
        self.stats.overflow_pushes += 1;
        self.overflow.push(entry);
    }

    /// Time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.next_time().map(Cycle::new)
    }

    /// Removes and returns the earliest scheduled event (lowest time,
    /// lowest push sequence among ties).
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        match self.pop_until(Cycle::new(u64::MAX)) {
            Head::Due(time, item) => Some((time, item)),
            Head::Later(_) | Head::Empty => None,
        }
    }

    /// [`pop`](Self::pop) if the earliest event is scheduled at or before
    /// `limit`; otherwise reports its time and leaves it queued. One probe
    /// of the wheel answers both "when is the next event" and "take it",
    /// which is all a run loop with a deadline asks per event.
    #[inline(always)]
    pub fn pop_until(&mut self, limit: Cycle) -> Head<T> {
        let Some(time) = self.next_time() else {
            return Head::Empty;
        };
        if time > limit.as_u64() {
            return Head::Later(Cycle::new(time));
        }
        self.take_head(time)
    }

    /// [`pop_until`](Self::pop_until), except that a due head `stop`
    /// accepts is not taken either: it is reported as
    /// [`Head::Later`] with its time — at or before `limit`, which is how
    /// the caller tells it from a head past the limit — and stays queued,
    /// with the window where it was. Still one probe per call.
    #[inline]
    pub fn pop_until_unless(&mut self, limit: Cycle, stop: impl FnOnce(&T) -> bool) -> Head<T> {
        let Some(time) = self.next_time() else {
            return Head::Empty;
        };
        if time > limit.as_u64() || stop(self.head_item(time)) {
            return Head::Later(Cycle::new(time));
        }
        self.take_head(time)
    }

    /// The earliest event, due at `time` (`next_time`): the front of its
    /// wheel slot, or, with the wheel empty, the overflow heap's top. A
    /// cursor move would migrate only events at or past the old horizon,
    /// which is beyond `time`, so the head is the same before and after.
    fn head_item(&self, time: u64) -> &T {
        if self.wheel_len > 0 {
            let head = self.heads[(time & WHEEL_MASK) as usize];
            let node = &self.arena[head as usize];
            node.item.as_ref().expect("live node has an item")
        } else {
            &self.overflow.peek().expect("a due head exists").item
        }
    }

    /// Removes the earliest event, due at `time` (`next_time`).
    #[inline(always)]
    fn take_head(&mut self, time: u64) -> Head<T> {
        if time != self.cursor {
            // The window's lower edge advances (or, with the wheel empty,
            // jumps to the next far-future event): newly covered overflow
            // events must land in their slots before this pop returns, so
            // that the caller's subsequent pushes queue up behind them.
            self.cursor = time;
            self.migrate();
        }
        let idx = (time & WHEEL_MASK) as usize;
        let head = self.heads[idx];
        debug_assert_ne!(head, NIL, "occupied slot has no head");
        let node = &mut self.arena[head as usize];
        debug_assert_eq!(node.time, time, "slot held a foreign time");
        let item = node.item.take().expect("live node has an item");
        let next = node.next;
        // Recycle the node LIFO: the hottest node is reused first.
        node.next = self.free_head;
        self.free_head = head;
        self.heads[idx] = next;
        if next == NIL {
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        }
        self.wheel_len -= 1;
        self.stats.pops += 1;
        Head::Due(Cycle::new(time), item)
    }

    /// Absolute time of the earliest scheduled event. Every overflow event
    /// lies at or beyond the horizon (pushes test against the cursor, and
    /// every cursor move migrates), so a non-empty wheel holds the minimum.
    #[inline(always)]
    fn next_time(&self) -> Option<u64> {
        debug_assert!(
            self.overflow
                .peek()
                .is_none_or(|e| e.time >= self.cursor + WHEEL_SLOTS as u64),
            "overflow event inside the window"
        );
        if self.wheel_len > 0 {
            Some(self.next_wheel_time())
        } else {
            self.overflow.peek().map(|e| e.time)
        }
    }

    /// Appends an event to its slot's FIFO (`time` must be inside the
    /// window). Takes the fields, not an [`Entry`], so the node is written
    /// in place from the caller's registers.
    #[inline(always)]
    fn slot_push(&mut self, time: u64, seq: u64, item: T) {
        let idx = (time & WHEEL_MASK) as usize;
        // Claim a node from the free list, growing the arena only when the
        // live count exceeds its high-water mark.
        let node = if self.free_head != NIL {
            let i = self.free_head;
            let slot = &mut self.arena[i as usize];
            debug_assert!(slot.item.is_none(), "free node holds an item");
            self.free_head = slot.next;
            slot.time = time;
            slot.seq = seq;
            slot.next = NIL;
            slot.item = Some(item);
            i
        } else {
            // Not a function of its own: handing `item` to a call would pin
            // it to the stack on the recycling path above as well.
            let i = u32::try_from(self.arena.len()).expect("queue arena exhausted u32 ids");
            assert_ne!(i, NIL, "queue arena exhausted u32 ids");
            self.arena.push(Node {
                time,
                seq,
                next: NIL,
                item: Some(item),
            });
            i
        };
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.occupied[word] & bit != 0 {
            let tail = self.tails[idx] as usize;
            debug_assert!(
                self.arena[tail].time == time && self.arena[tail].seq < seq,
                "slot order violated"
            );
            self.arena[tail].next = node;
        } else {
            self.occupied[word] |= bit;
            self.heads[idx] = node;
        }
        self.tails[idx] = node;
        self.wheel_len += 1;
    }

    /// Moves every overflow event the window now covers into its slot, in
    /// `(time, seq)` order. The heap is empty for all but far-future events
    /// (timeouts), so only that test is inlined into the callers.
    #[inline(always)]
    fn migrate(&mut self) {
        if !self.overflow.is_empty() {
            self.migrate_overflow();
        }
    }

    #[inline(never)]
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + WHEEL_SLOTS as u64;
        while self.overflow.peek().is_some_and(|e| e.time < horizon) {
            let Entry { time, seq, item } = self.overflow.pop().expect("peeked");
            self.stats.migrated += 1;
            self.slot_push(time, seq, item);
        }
    }

    /// Drops every wheel event and returns its node to the free list.
    fn clear_wheel(&mut self) {
        for w in 0..WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut i = self.heads[idx];
                while i != NIL {
                    let node = &mut self.arena[i as usize];
                    node.item = None;
                    let next = node.next;
                    node.next = self.free_head;
                    self.free_head = i;
                    i = next;
                }
            }
        }
        self.occupied = [0; WORDS];
        self.wheel_len = 0;
    }

    /// Absolute time of the lowest-time occupied slot. Requires
    /// `wheel_len > 0`.
    fn next_wheel_time(&self) -> u64 {
        debug_assert!(self.wheel_len > 0);
        // Scan the bitmap from the cursor's residue, wrapping once; the
        // first set bit at scan distance d is the event at cursor + d
        // (slots below the cursor are always empty).
        let start = (self.cursor & WHEEL_MASK) as usize;
        let (sw, sb) = (start / 64, start % 64);
        // Bits at or after `start` in its word.
        let first = self.occupied[sw] & (u64::MAX << sb);
        if first != 0 {
            let bit = first.trailing_zeros() as u64;
            return self.cursor + (bit - sb as u64);
        }
        for step in 1..=WORDS {
            let w = (sw + step) % WORDS;
            let word = if step == WORDS {
                // Wrapped fully: bits before `start` in the start word.
                self.occupied[sw] & !(u64::MAX << sb)
            } else {
                self.occupied[w]
            };
            if word != 0 {
                let bit = word.trailing_zeros() as u64;
                let slot = ((w % WORDS) * 64) as u64 + bit;
                let dist = (slot + WHEEL_SLOTS as u64 - (self.cursor & WHEEL_MASK)) & WHEEL_MASK;
                return self.cursor + dist;
            }
        }
        unreachable!("wheel_len > 0 but no occupied slot");
    }
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len())
            .field("cursor", &self.cursor)
            .field("wheel_len", &self.wheel_len)
            .field("overflow_len", &self.overflow.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, v)| (t.as_u64(), v))
            .collect()
    }

    #[test]
    fn reset_at_empties_and_moves_the_window_without_a_rebase() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(9_000), 1u32);
        q.push(Cycle::new(9_001), 2);
        assert_eq!(q.pop().map(|(t, v)| (t.as_u64(), v)), Some((9_000, 1)));
        // Non-empty reset: the leftover event is dropped.
        q.reset_at(Cycle::new(100));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        // Earlier than the old cursor, yet accepted: the window moved.
        q.push(Cycle::new(105), 3);
        q.push(Cycle::new(101), 4);
        assert_eq!(drain(&mut q), vec![(101, 4), (105, 3)]);
        // Empty reset backwards again, to the very cycle pushed.
        q.reset_at(Cycle::new(7));
        q.push(Cycle::new(7), 5);
        assert_eq!(drain(&mut q), vec![(7, 5)]);
    }

    #[test]
    fn pops_earliest_first() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(5), 0);
        q.push(Cycle::new(1), 1);
        q.push(Cycle::new(5), 2);
        q.push(Cycle::new(0), 3);
        assert_eq!(drain(&mut q), vec![(0, 3), (1, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn ties_break_by_push_order() {
        let mut q = CalendarQueue::new();
        for v in [10, 2, 7] {
            q.push(Cycle::new(3), v);
        }
        assert_eq!(drain(&mut q), vec![(3, 10), (3, 2), (3, 7)]);
    }

    #[test]
    fn far_future_events_take_the_overflow_path_and_migrate_back() {
        let mut q = CalendarQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.push(Cycle::new(far), 1);
        q.push(Cycle::new(2), 2);
        assert_eq!(q.stats().overflow_pushes, 1);
        assert_eq!(q.pop(), Some((Cycle::new(2), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(far), 1)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().migrated, 1);
    }

    #[test]
    fn same_slot_different_rotations_stay_ordered() {
        // Times t and t + WHEEL_SLOTS share a slot; the overflow horizon
        // must keep them apart.
        let mut q = CalendarQueue::new();
        let t = 100u64;
        q.push(Cycle::new(t + WHEEL_SLOTS as u64), 1);
        q.push(Cycle::new(t), 2);
        assert_eq!(drain(&mut q), vec![(t, 2), (t + WHEEL_SLOTS as u64, 1)]);
    }

    #[test]
    #[should_panic(expected = "event pushed at cycle 10 before the queue's cursor at cycle 50")]
    fn push_before_cursor_is_refused() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(50), 1);
        assert_eq!(q.pop(), Some((Cycle::new(50), 1)));
        q.push(Cycle::new(60), 2);
        q.push(Cycle::new(10), 3);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(9), 1);
        q.push(Cycle::new(4), 2);
        q.push(Cycle::new(WHEEL_SLOTS as u64 * 2), 3);
        while let Some(t) = q.peek_time() {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(t, pt);
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_until_takes_the_head_only_up_to_the_limit() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.pop_until(Cycle::new(u64::MAX)), Head::Empty);
        let far = WHEEL_SLOTS as u64 + 40;
        q.push(Cycle::new(7), 1);
        q.push(Cycle::new(far), 2);
        assert_eq!(q.pop_until(Cycle::new(6)), Head::Later(Cycle::new(7)));
        assert_eq!(q.len(), 2, "a later head stays queued");
        assert_eq!(q.pop_until(Cycle::new(7)), Head::Due(Cycle::new(7), 1));
        // The wheel is empty and the next event waits in the overflow heap:
        // probing short of it must not move the window.
        assert_eq!(
            q.pop_until(Cycle::new(far - 1)),
            Head::Later(Cycle::new(far))
        );
        q.push(Cycle::new(8), 3);
        assert_eq!(q.pop_until(Cycle::new(far)), Head::Due(Cycle::new(8), 3));
        assert_eq!(q.pop_until(Cycle::new(far)), Head::Due(Cycle::new(far), 2));
        assert_eq!(q.stats().migrated, 1);
        assert_eq!(q.pop_until(Cycle::new(far)), Head::Empty);
    }

    #[test]
    fn interleaved_push_pop_preserves_global_order() {
        let mut q = CalendarQueue::new();
        q.push(Cycle::new(3), 0);
        q.push(Cycle::new(3), 1);
        assert_eq!(q.pop(), Some((Cycle::new(3), 0)));
        // Pushing at the still-draining time queues behind the remainder.
        q.push(Cycle::new(3), 2);
        q.push(Cycle::new(4), 3);
        assert_eq!(q.pop(), Some((Cycle::new(3), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(3), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(4), 3)));
    }

    #[test]
    fn len_counts_both_regions() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        q.push(Cycle::new(1), 0);
        q.push(Cycle::new(WHEEL_SLOTS as u64 + 1), 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
