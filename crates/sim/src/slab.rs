//! A slab allocator with free-list recycling for in-flight message
//! payloads.
//!
//! The scheduler's hot path moves every queued event several times: into
//! the effect buffer, through the router, into a wheel slot, and back out
//! at dispatch. When events carried their message payload inline, each of
//! those moves copied the full message enum (~100 bytes for the coherence
//! `Message` type) — and, because Rust enums are max-variant sized, even
//! payload-free timer wake-ups paid the same copy. Parking payloads in a
//! slab and threading a 4-byte [`SlabId`] through the kernel instead
//! shrinks every queued event to a few dozen bytes and reduces a payload's
//! lifetime to exactly two moves: one into its slot, one out.
//!
//! Slots are recycled through a LIFO free list, so a steady-state
//! simulation reuses the same few dozen cache-hot slots forever and the
//! slab performs **zero heap traffic per hop** — allocation only happens
//! when the in-flight high-water mark grows.
//!
//! Determinism: ids are handed out purely by free-list order, which is a
//! function of the simulation's own alloc/free sequence — no addresses,
//! no hashing — so a seeded run allocates the identical id sequence every
//! time. (Nothing in the kernel orders on ids anyway; event order is the
//! scheduler's `(time, seq)`.)

/// Handle to a value parked in a [`Slab`].
///
/// Plain data: the slab does not track ownership, so a stale id (used
/// after [`Slab::take`]) is a logic error the slab panics on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabId(u32);

impl SlabId {
    /// The raw slot index (diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A slab of `T` values with free-list slot recycling. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Indices of vacant slots, reused LIFO (the most recently freed slot
    /// is the most likely to still be in cache).
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `value`, returning its handle. Reuses a free slot when one
    /// exists; grows only when every slot is occupied.
    #[inline]
    pub fn insert(&mut self, value: T) -> SlabId {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(value);
                SlabId(idx)
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("slab exhausted u32 ids");
                self.slots.push(Some(value));
                SlabId(idx)
            }
        }
    }

    /// Removes and returns the value at `id`, recycling its slot.
    ///
    /// # Panics
    /// Panics if `id` is vacant (double-take) or out of range.
    #[inline]
    pub fn take(&mut self, id: SlabId) -> T {
        let slot = &mut self.slots[id.0 as usize];
        assert!(slot.is_some(), "slab id taken twice");
        // Free the id first: nothing may sit between moving the value out
        // and handing it to the caller, or it is staged on the stack twice.
        self.free.push(id.0);
        slot.take().expect("occupied, checked above")
    }

    /// Reads the value at `id` without freeing it (a checkpoint clones the
    /// payloads in flight; `run_until` shows one to its predicate).
    ///
    /// # Panics
    /// Panics if `id` is vacant or out of range.
    #[inline]
    pub fn get(&self, id: SlabId) -> &T {
        self.slots[id.0 as usize].as_ref().expect("vacant slab id")
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every parked value. An already-empty slab is left untouched,
    /// so its recycled slots stay cache-hot.
    pub fn clear(&mut self) {
        if !self.is_empty() {
            self.slots.clear();
            self.free.clear();
        }
    }

    /// Total slots ever allocated (the in-flight high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("alpha");
        let b = slab.insert("beta");
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert_eq!(*slab.get(a), "alpha");
        assert_eq!(slab.take(a), "alpha");
        assert_eq!(slab.take(b), "beta");
        assert!(slab.is_empty());
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let _b = slab.insert(2);
        slab.take(a);
        let c = slab.insert(3);
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(slab.capacity(), 2, "no growth while free slots exist");
    }

    #[test]
    fn grows_only_past_the_high_water_mark() {
        let mut slab = Slab::new();
        let ids: Vec<_> = (0..8).map(|i| slab.insert(i)).collect();
        for &id in &ids {
            slab.take(id);
        }
        for i in 0..8 {
            slab.insert(i);
        }
        assert_eq!(slab.capacity(), 8);
    }

    #[test]
    fn clear_drops_parked_values_and_allows_reuse() {
        let mut slab = Slab::new();
        slab.insert(1);
        let b = slab.insert(2);
        slab.take(b);
        slab.clear();
        assert!(slab.is_empty());
        let c = slab.insert(3);
        assert_eq!(*slab.get(c), 3);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut slab = Slab::new();
        let a = slab.insert(7);
        slab.take(a);
        slab.take(a);
    }

    #[test]
    fn id_sequence_is_deterministic() {
        let run = || {
            let mut slab = Slab::new();
            let mut log = Vec::new();
            let a = slab.insert(0);
            let b = slab.insert(1);
            log.push(a);
            slab.take(a);
            log.push(slab.insert(2));
            log.push(b);
            slab.take(b);
            log.push(slab.insert(3));
            log
        };
        assert_eq!(run(), run());
    }
}
