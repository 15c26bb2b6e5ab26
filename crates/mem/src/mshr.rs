//! Miss-status holding registers / transaction buffers.

use std::error::Error;
use std::fmt;

use crate::addr::BlockAddr;
use crate::idmap::IdMap;

/// Returned by [`Mshr::alloc`] when all entries are in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrFullError {
    /// The configured capacity that was exhausted.
    pub capacity: usize,
}

impl fmt::Display for MshrFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} MSHR entries in use", self.capacity)
    }
}

impl Error for MshrFullError {}

/// A bounded table of in-flight transactions, keyed by block address.
///
/// At most one transaction per block address may be live — the same
/// invariant Crossing Guard enforces on the accelerator (Guarantee 1b) and
/// that all our controllers maintain internally.
///
/// ```rust
/// use xg_mem::{BlockAddr, Mshr};
/// let mut m: Mshr<&str> = Mshr::new(2);
/// m.alloc(BlockAddr::new(1), "getS").unwrap();
/// assert!(m.contains(BlockAddr::new(1)));
/// assert_eq!(m.remove(BlockAddr::new(1)), Some("getS"));
/// ```
#[derive(Debug)]
pub struct Mshr<V> {
    entries: IdMap<BlockAddr, V>,
    capacity: usize,
}

// By hand for a field-wise `clone_from` (see `SetAssocCache`): the table
// keeps its allocation, and `HashMap::clone_from` gives it the source's
// slot layout, so the copy iterates exactly as a `clone` would.
impl<V: Clone> Clone for Mshr<V> {
    fn clone(&self) -> Self {
        Mshr {
            entries: self.entries.clone(),
            capacity: self.capacity,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Mshr { entries, capacity } = source;
        self.entries.clone_from(entries);
        self.capacity = *capacity;
    }
}

impl<V> Mshr<V> {
    /// Creates a table with room for `capacity` simultaneous transactions.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        Mshr {
            entries: IdMap::default(),
            capacity,
        }
    }

    /// Allocates an entry for `addr`.
    ///
    /// # Errors
    /// Returns [`MshrFullError`] if the table is full.
    ///
    /// # Panics
    /// Panics if an entry for `addr` already exists — controllers must
    /// check [`contains`](Mshr::contains) first; a duplicate allocation is a
    /// protocol bug.
    pub fn alloc(&mut self, addr: BlockAddr, value: V) -> Result<&mut V, MshrFullError> {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&addr) {
            return Err(MshrFullError {
                capacity: self.capacity,
            });
        }
        assert!(
            !self.entries.contains_key(&addr),
            "duplicate MSHR allocation for {addr}"
        );
        Ok(self.entries.entry(addr).or_insert(value))
    }

    /// Whether a transaction for `addr` is live.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Borrows the transaction for `addr`.
    pub fn get(&self, addr: BlockAddr) -> Option<&V> {
        self.entries.get(&addr)
    }

    /// Mutably borrows the transaction for `addr`.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut V> {
        self.entries.get_mut(&addr)
    }

    /// Completes (removes) the transaction for `addr`.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<V> {
        self.entries.remove(&addr)
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no transactions are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over live transactions (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_remove() {
        let mut m: Mshr<u32> = Mshr::new(4);
        *m.alloc(BlockAddr::new(5), 1).unwrap() += 1;
        assert_eq!(m.get(BlockAddr::new(5)), Some(&2));
        *m.get_mut(BlockAddr::new(5)).unwrap() = 7;
        assert_eq!(m.remove(BlockAddr::new(5)), Some(7));
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut m: Mshr<()> = Mshr::new(2);
        m.alloc(BlockAddr::new(1), ()).unwrap();
        m.alloc(BlockAddr::new(2), ()).unwrap();
        let err = m.alloc(BlockAddr::new(3), ()).unwrap_err();
        assert_eq!(err.capacity, 2);
        assert_eq!(err.to_string(), "all 2 MSHR entries in use");
        m.remove(BlockAddr::new(1));
        assert!(m.alloc(BlockAddr::new(3), ()).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate MSHR allocation")]
    fn duplicate_alloc_panics() {
        let mut m: Mshr<()> = Mshr::new(2);
        m.alloc(BlockAddr::new(1), ()).unwrap();
        let _ = m.alloc(BlockAddr::new(1), ());
    }

    #[test]
    fn iter_sees_all() {
        let mut m: Mshr<u8> = Mshr::new(8);
        for i in 0..5 {
            m.alloc(BlockAddr::new(i), i as u8).unwrap();
        }
        let mut seen: Vec<_> = m.iter().map(|(a, &v)| (a.as_u64(), v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(m.len(), 5);
        assert_eq!(m.capacity(), 8);
    }
}
