//! Recycled buffers for per-transaction queues.

use std::collections::VecDeque;

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

impl<T> Recycle for VecDeque<T> {
    fn clear(&mut self) {
        VecDeque::clear(self);
    }
    fn capacity(&self) -> usize {
        VecDeque::capacity(self)
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
}

impl<B: Recycle> Spares<B> {
    /// An empty buffer: a recycled one if any is kept, else a fresh one
    /// (which allocates nothing until something is pushed).
    pub fn take(&mut self) -> B {
        self.bufs.pop().unwrap_or_default()
    }

    /// Gives `buf` a recycled allocation if it has none of its own — for a
    /// queue that is created empty with its record and only sometimes used.
    pub fn equip(&mut self, buf: &mut B) {
        if buf.capacity() == 0 {
            *buf = self.take();
        }
    }

    /// Empties `buf` and keeps it for a later [`take`](Spares::take) — if
    /// it owns an allocation; a buffer nothing was ever pushed into is
    /// worth no more than a fresh one, and records that open and close
    /// without queueing anything must not grow the pool.
    pub fn put(&mut self, mut buf: B) {
        if buf.capacity() > 0 {
            buf.clear();
            self.bufs.push(buf);
        }
    }
}

impl<B> Default for Spares<B> {
    fn default() -> Self {
        Spares { bufs: Vec::new() }
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
        pool.put(Vec::with_capacity(16));
        assert_eq!(pool.clone().take().capacity(), 0);
        pool.clone_from(&Spares::default());
        assert_eq!(pool.take().capacity(), 16);
    }
}
