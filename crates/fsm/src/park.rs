//! The one queue every controller parks messages in.

use std::collections::VecDeque;

use xg_mem::{Recycle, Spares};
use xg_sim::CheckDigest;

/// Messages parked behind an open record or a busy resource, in arrival
/// order. Every drain is one rule: re-dispatch what
/// [`pop_first`](Parked::pop_first) admits until it admits nothing;
/// admitting everything is FIFO. A queue holds a buffer from the
/// controller's [`Spares`] only while something is parked in it.
#[derive(Debug)]
pub struct Parked<M> {
    queue: VecDeque<M>,
}

xg_sim::clone_in_place!(impl[M: Clone] for Parked<M> { queue });

impl<M> Default for Parked<M> {
    fn default() -> Self {
        Parked {
            queue: VecDeque::new(),
        }
    }
}

impl<M> Recycle for Parked<M> {
    fn clear(&mut self) {
        self.queue.clear();
    }
    fn capacity(&self) -> usize {
        self.queue.capacity()
    }
}

impl<M> Parked<M> {
    /// Messages parked.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The parked messages, earliest first.
    pub fn iter(&self) -> impl Iterator<Item = &M> + '_ {
        self.queue.iter()
    }

    /// Parks `msg` behind every message parked so far.
    pub fn park(&mut self, msg: M, spares: &mut Spares<Self>) {
        if self.capacity() == 0 {
            *self = spares.take();
        }
        self.queue.push_back(msg);
    }

    /// Parks `msgs`, in their order, ahead of every message parked so far:
    /// a re-parked waiter goes before every later arrival.
    pub fn park_ahead(&mut self, mut msgs: Self, spares: &mut Spares<Self>) {
        if self.is_empty() {
            std::mem::swap(self, &mut msgs);
        }
        while let Some(msg) = msgs.queue.pop_back() {
            self.queue.push_front(msg);
        }
        msgs.release(spares);
    }

    /// Takes out the earliest parked message `admit` accepts.
    pub fn pop_first(
        &mut self,
        spares: &mut Spares<Self>,
        admit: impl FnMut(&M) -> bool,
    ) -> Option<M> {
        let msg = match self.queue.iter().position(admit)? {
            0 => self.queue.pop_front(),
            i => self.queue.remove(i),
        };
        if self.is_empty() {
            std::mem::take(self).release(spares);
        }
        msg
    }

    /// Hands an emptied buffer back; a queue nothing was parked in has none.
    pub(crate) fn release(self, spares: &mut Spares<Self>) {
        if self.capacity() > 0 {
            spares.put(self);
        }
    }

    /// Folds the queue into a state digest: its length, each message by
    /// `item`, earliest first, and one obligation per message.
    pub fn digest(&self, out: &mut CheckDigest, mut item: impl FnMut(&M, &mut CheckDigest)) {
        out.write_u64(self.len() as u64);
        self.queue.iter().for_each(|msg| item(msg, out));
        out.obligation(self.len() as u64);
    }
}
