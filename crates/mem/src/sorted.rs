//! A small ordered set for sharer lists.

/// A set kept as a sorted `Vec`: iterates in ascending order like a
/// `BTreeSet`, but a set that empties and refills — a sharer list across
/// invalidation rounds — keeps its allocation instead of freeing a tree
/// node on `clear` and allocating one on the next `insert`.
///
/// ```rust
/// use xg_mem::SortedSet;
/// let mut s = SortedSet::new();
/// assert!(s.insert(7) && s.insert(3) && !s.insert(7));
/// assert_eq!(s.iter().copied().collect::<Vec<_>>(), [3, 7]);
/// assert!(s.remove(&3) && !s.contains(&3) && s.len() == 1);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct SortedSet<T>(Vec<T>);

impl<T: Clone> Clone for SortedSet<T> {
    fn clone(&self) -> Self {
        SortedSet(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl<T: Ord> SortedSet<T> {
    /// An empty set (allocates nothing).
    pub fn new() -> Self {
        SortedSet(Vec::new())
    }

    /// Adds `value`; false if it was already present.
    pub fn insert(&mut self, value: T) -> bool {
        match self.0.binary_search(&value) {
            Ok(_) => false,
            Err(at) => {
                self.0.insert(at, value);
                true
            }
        }
    }

    /// Removes `value`; false if it was not present.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.0.binary_search(value) {
            Ok(at) => {
                self.0.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `value` is a member.
    pub fn contains(&self, value: &T) -> bool {
        self.0.binary_search(value).is_ok()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<T: Ord> Default for SortedSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, T: Ord> IntoIterator for &'a SortedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}
