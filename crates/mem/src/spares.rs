//! Recycled buffers for per-transaction queues.

/// A growable buffer that can be emptied while keeping its allocation.
pub trait Recycle: Default {
    /// Drops the contents, keeps the capacity.
    fn clear(&mut self);
    /// Elements the buffer can hold without allocating.
    fn capacity(&self) -> usize;
}

impl<T> Recycle for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }
}

/// Emptied buffers kept for reuse, so that a controller which opens and
/// closes a queue per transaction (core ops parked behind a miss, requests
/// stalled behind a busy block) allocates only until the pool has grown to
/// the controller's working set of open transactions.
///
/// Spares are capacity, not state: a clone starts with none, so checkpoint
/// copies of a controller carry nothing for them, and `clone_from` leaves
/// the destination's own pool alone, so a controller overwritten from a
/// checkpoint keeps the buffers it has grown.
///
/// The pool takes back only as many buffers as it has lent. A controller
/// restored from a checkpoint taken in the middle of a transaction holds a
/// buffer the pool never lent (the restore cloned it into the open
/// record); keeping that one too when the transaction closes would grow
/// the pool by a buffer per restore, without bound, in a model checker
/// that forks mid-step. A restore that drops a queue holding a loan hands
/// its buffer back first (`xg_fsm::Records` does), or the pool would go on
/// counting a loan that is gone. So the pool plus its buffers on loan never
/// outnumber the most the controller ever had open at once.
///
/// ```rust
/// use xg_mem::Spares;
/// let mut spares: Spares<Vec<u32>> = Spares::default();
/// let mut q = spares.take();
/// q.extend([1, 2, 3]);
/// let capacity = q.capacity();
/// spares.put(q);
/// let q = spares.take();
/// assert!(q.is_empty() && q.capacity() == capacity);
/// ```
#[derive(Debug)]
pub struct Spares<B> {
    bufs: Vec<B>,
    /// Buffers handed out by [`take`](Spares::take) and not yet
    /// [`put`](Spares::put) back.
    lent: usize,
}

impl<B: Recycle> Spares<B> {
    /// An empty buffer: a recycled one if any is kept, else a fresh one
    /// (which allocates nothing until something is pushed).
    pub fn take(&mut self) -> B {
        self.lent += 1;
        self.bufs.pop().unwrap_or_default()
    }

    /// Returns a buffer [`take`](Spares::take) lent, emptied, for a later
    /// `take` — if it owns an allocation; a buffer nothing was ever pushed
    /// into is worth no more than a fresh one, and records that open and
    /// close without queueing anything must not grow the pool. With nothing
    /// on loan, `buf` is not one of the pool's (see above) and is dropped.
    pub fn put(&mut self, mut buf: B) {
        let Some(lent) = self.lent.checked_sub(1) else {
            return;
        };
        self.lent = lent;
        if buf.capacity() > 0 {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

impl<B> Default for Spares<B> {
    fn default() -> Self {
        Spares {
            bufs: Vec::new(),
            lent: 0,
        }
    }
}

impl<B> Clone for Spares<B> {
    fn clone(&self) -> Self {
        Self::default()
    }

    fn clone_from(&mut self, _source: &Self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_has_no_spares_and_clone_from_keeps_its_own() {
        let mut pool: Spares<Vec<u8>> = Spares::default();
        let mut lent = pool.take();
        lent.reserve_exact(16);
        pool.put(lent);
        assert_eq!(pool.clone().take().capacity(), 0);
        pool.clone_from(&Spares::default());
        assert_eq!(pool.take().capacity(), 16);
    }

    #[test]
    fn the_pool_keeps_no_more_than_it_lent() {
        let mut pool: Spares<Vec<u8>> = Spares::default();
        // A buffer the pool never lent (a checkpoint restore cloned it into
        // an open record) is dropped when its record closes.
        pool.put(vec![1, 2, 3]);
        let fresh = pool.take();
        assert_eq!(fresh.capacity(), 0);
        pool.put(fresh);
        // Three on loan, returned with two strangers among them: the pool
        // keeps three, and a fourth take starts from nothing.
        let mut out: Vec<Vec<u8>> = (0..3).map(|_| pool.take()).collect();
        out.iter_mut().for_each(|b| b.push(7));
        for buf in out.into_iter().chain([vec![8], vec![9]]) {
            pool.put(buf);
        }
        let again: Vec<Vec<u8>> = (0..4).map(|_| pool.take()).collect();
        let kept = again.iter().filter(|b| b.capacity() > 0).count();
        assert_eq!(kept, 3);
    }
}
