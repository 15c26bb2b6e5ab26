//! The one table every controller keeps what is open on a block in.

use std::collections::hash_map::Entry;
use std::ops::Deref;

use xg_mem::{BlockAddr, IdMap, Recycle, Spares};
use xg_sim::{CheckDigest, Cycle};

use crate::Parked;

/// Everything open on one block.
#[derive(Debug)]
pub struct Record<T, M> {
    /// The controller's transaction; its `Default` is nothing open.
    pub txn: T,
    /// The cycle [`Records::open`] last opened it at.
    pub since: Cycle,
    /// Messages parked behind it, in arrival order.
    pub queue: Parked<M>,
}

xg_sim::clone_in_place!(impl[T: Clone, M: Clone] for Record<T, M> { txn, since, queue });

impl<T, M> Record<T, M> {
    fn new(txn: T, since: Cycle) -> Self {
        let queue = Parked::default();
        Record { txn, since, queue }
    }

    /// The queue if anything is parked in it, as a [`Records::digest`] pick.
    pub fn parked(&self) -> Option<&Parked<M>> {
        Some(&self.queue).filter(|q| !q.is_empty())
    }
}

/// What [`Records::next`] did.
#[derive(Debug, PartialEq, Eq)]
pub enum Next<M> {
    /// Took out the earliest parked message the caller admits.
    Run(M),
    /// Admitted nothing; the record stays (or there is none).
    Hold,
    /// Admitted nothing, and closed the record: nothing open or parked.
    Closed,
}

/// A transaction that may hold a buffer `B` lent by its table's
/// [`loans`](Records::loans) pool. Every transaction borrows `()`, which
/// is nothing.
pub trait Borrows<B> {
    /// The buffer the transaction holds, if any.
    fn borrowed(&mut self) -> Option<&mut B>;
}

impl<T> Borrows<()> for T {
    fn borrowed(&mut self) -> Option<&mut ()> {
        None
    }
}

/// One [`Record`] per block with something open, read through the map it
/// derefs to, the pool its queues borrow buffers from, and the pool its
/// transactions borrow `B` buffers from. A record leaves whole by
/// [`close`](Records::close), or by [`next`](Records::next), the one drain
/// rule, once its transaction is back to its default and its queue is
/// empty.
#[derive(Debug)]
pub struct Records<T, M, B = ()> {
    map: IdMap<BlockAddr, Record<T, M>>,
    spares: Pool<M>,
    loans: Spares<B>,
}

/// The pool a table's queues borrow their buffers from.
type Pool<M> = Spares<Parked<M>>;

/// An open record, with the pools its queue and its transaction borrow from.
type WithPools<'a, T, M, B> = (&'a mut Record<T, M>, &'a mut Pool<M>, &'a mut Spares<B>);

impl<T: Clone + Borrows<B>, M: Clone, B: Recycle> Clone for Records<T, M, B> {
    fn clone(&self) -> Self {
        let (map, spares, loans) = (self.map.clone(), self.spares.clone(), self.loans.clone());
        Records { map, spares, loans }
    }

    /// A restore drops every record it overwrites: the buffers its queue
    /// and its transaction borrowed go back to their pools first, so
    /// neither counts as lent a buffer that is gone, nor keeps more than
    /// were ever open at once.
    fn clone_from(&mut self, source: &Self) {
        for record in self.map.values_mut() {
            std::mem::take(&mut record.queue).release(&mut self.spares);
            if let Some(buf) = Borrows::<B>::borrowed(&mut record.txn) {
                give_back(&mut self.loans, std::mem::take(buf));
            }
        }
        self.map.clone_from(&source.map);
    }
}

/// Hands `buf` back to `loans`, if it holds an allocation: one without was
/// never lent, or went back already.
fn give_back<B: Recycle>(loans: &mut Spares<B>, buf: B) {
    if buf.capacity() > 0 {
        loans.put(buf);
    }
}

impl<T, M, B> Default for Records<T, M, B> {
    fn default() -> Self {
        let (map, spares, loans) = Default::default();
        Records { map, spares, loans }
    }
}

impl<T, M, B> Deref for Records<T, M, B> {
    type Target = IdMap<BlockAddr, Record<T, M>>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

impl<T, M, B: Recycle> Records<T, M, B> {
    /// The pool transactions borrow from. What one borrowed goes back by
    /// [`give_back`](Records::give_back), or when a restore overwrites it.
    pub fn loans(&mut self) -> &mut Spares<B> {
        &mut self.loans
    }

    /// Hands back a buffer a transaction borrowed. One that holds no
    /// allocation was never lent, or went back already, and is dropped.
    pub fn give_back(&mut self, buf: B) {
        give_back(&mut self.loans, buf);
    }
}

impl<T, M, B> Records<T, M, B> {
    /// The record open on `addr`, to change its transaction in place.
    pub fn get_mut(&mut self, addr: &BlockAddr) -> Option<&mut Record<T, M>> {
        self.map.get_mut(addr)
    }

    /// Opens `txn` on `addr` at `now`, `waiter` parked behind it: a new
    /// record, or the open one, whose queue stays.
    pub fn open(&mut self, addr: BlockAddr, txn: T, now: Cycle, waiter: Option<M>) {
        let record = match self.map.entry(addr) {
            Entry::Occupied(slot) => {
                let record = slot.into_mut();
                (record.txn, record.since) = (txn, now);
                record
            }
            Entry::Vacant(slot) => slot.insert(Record::new(txn, now)),
        };
        if let Some(msg) = waiter {
            record.queue.park(msg, &mut self.spares);
        }
    }

    /// The record open on `addr`, the pool its queue parks with and the
    /// pool its transaction borrows from.
    pub fn get_mut_with_spares(&mut self, addr: &BlockAddr) -> Option<WithPools<'_, T, M, B>> {
        Some((self.map.get_mut(addr)?, &mut self.spares, &mut self.loans))
    }

    /// Parks `msg` behind the record open on `addr`; `false` (dropped) if none.
    #[must_use]
    pub fn park(&mut self, addr: BlockAddr, msg: M) -> bool {
        let Some(record) = self.map.get_mut(&addr) else {
            return false;
        };
        record.queue.park(msg, &mut self.spares);
        true
    }

    /// Takes the record open on `addr` out whole, queue and all.
    pub fn close(&mut self, addr: BlockAddr) -> Option<Record<T, M>> {
        self.map.remove(&addr)
    }

    /// Puts back, as it was, a record [`close`](Records::close) took out of
    /// `addr`.
    pub fn put_back(&mut self, addr: BlockAddr, record: Record<T, M>) {
        let replaced = self.map.insert(addr, record);
        debug_assert!(replaced.is_none(), "put back over an open record");
    }

    /// The pool, for a closed record's queue or a controller-wide one.
    pub fn spares(&mut self) -> &mut Pool<M> {
        &mut self.spares
    }

    /// Folds what `pick` takes from the records into a state digest, in
    /// address-role order: how many it took, then each one's block and
    /// what `fold` writes of it.
    pub fn digest<'a, X: 'a>(
        &'a self,
        out: &mut CheckDigest,
        pick: impl Fn(&'a Record<T, M>) -> Option<&'a X>,
        mut fold: impl FnMut(&'a X, &mut CheckDigest),
    ) {
        // A drained state mostly has no record open: skip the sort buffer.
        if self.map.is_empty() {
            return out.write_u64(0);
        }
        let picked = self.map.iter().filter(|(_, r)| pick(r).is_some());
        let addrs = out.sorted_by_addr_role(picked.map(|(a, _)| a.as_u64()));
        out.write_u64(addrs.len() as u64);
        for &a in &addrs {
            if let Some(x) = pick(&self.map[&BlockAddr::new(a)]) {
                out.write_addr(a);
                fold(x, out);
            }
        }
        out.recycle(addrs);
    }
}

impl<T: Default + PartialEq, M, B> Records<T, M, B> {
    /// The record open on `addr`, opened with nothing open if there is
    /// none: for a transaction whose parts open one at a time.
    pub fn entry(&mut self, addr: BlockAddr) -> &mut Record<T, M> {
        (self.map.entry(addr)).or_insert_with(|| Record::new(T::default(), Cycle::ZERO))
    }

    /// Parks `msg` behind the record on `addr`, opened with nothing open if
    /// there is none: a stall never loses its message.
    pub fn park_or_open(&mut self, addr: BlockAddr, msg: M) {
        let record = self.map.entry(addr);
        let record = record.or_insert_with(|| Record::new(T::default(), Cycle::ZERO));
        record.queue.park(msg, &mut self.spares);
    }

    /// The one drain rule: the earliest message parked on `addr` that `admit`
    /// accepts, else the record closed if nothing is open or parked.
    pub fn next(&mut self, addr: BlockAddr, mut admit: impl FnMut(&T, &M) -> bool) -> Next<M> {
        let Some(Record { txn, queue, .. }) = self.map.get_mut(&addr) else {
            return Next::Hold;
        };
        if let Some(msg) = queue.pop_first(&mut self.spares, |msg| admit(txn, msg)) {
            return Next::Run(msg);
        }
        if *txn != T::default() || !queue.is_empty() {
            return Next::Hold;
        }
        self.map.remove(&addr);
        Next::Closed
    }
}
