//! A set-associative tag array with least-recently-used replacement.

use crate::addr::BlockAddr;

/// Replacement policy for a [`SetAssocCache`]: least-recently-used, the
/// one policy the array has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Evict the least-recently-used line.
    Lru,
}

#[derive(Debug)]
struct Line<E> {
    addr: BlockAddr,
    entry: E,
    last_used: u64,
}

// `Clone` by hand so that `clone_from` goes field by field, down to the
// entry: restoring a checkpoint into a live cache (`CloneComponent::restore_into`)
// reuses the sets and whatever the entries own. Each `clone_from` below
// destructures exhaustively — a new field does not compile until it is
// copied too. (`xg_sim::clone_in_place!` is this pattern as a macro; this
// crate sits beside `xg-sim`, not above it.)
impl<E: Clone> Clone for Line<E> {
    fn clone(&self) -> Self {
        Line {
            addr: self.addr,
            entry: self.entry.clone(),
            last_used: self.last_used,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Line {
            addr,
            entry,
            last_used,
        } = source;
        self.addr = *addr;
        self.entry.clone_from(entry);
        self.last_used = *last_used;
    }
}

/// A set-associative cache array mapping [`BlockAddr`]s to entries of type
/// `E` (protocol state + data, typically).
///
/// By convention in this workspace, controllers keep only *stable*-state
/// lines in the array; in-flight transactions live in a record table.
/// That convention means any line is always a legal eviction victim.
///
/// ```rust
/// use xg_mem::{BlockAddr, Replacement, SetAssocCache};
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(2, 2, Replacement::Lru, 0);
/// assert!(c.insert(BlockAddr::new(0), 10).is_none());
/// assert!(c.insert(BlockAddr::new(2), 20).is_none()); // same set (2 sets)
/// c.touch(BlockAddr::new(0)); // make block 0 the most recently used
/// let (victim, entry) = c.insert(BlockAddr::new(4), 30).unwrap();
/// assert_eq!((victim, entry), (BlockAddr::new(2), 20));
/// ```
#[derive(Debug)]
pub struct SetAssocCache<E> {
    sets: Vec<Vec<Line<E>>>,
    ways: usize,
    clock: u64,
}

impl<E: Clone> Clone for SetAssocCache<E> {
    fn clone(&self) -> Self {
        SetAssocCache {
            sets: self.sets.clone(),
            ways: self.ways,
            clock: self.clock,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let SetAssocCache { sets, ways, clock } = source;
        self.sets.clone_from(sets);
        self.ways = *ways;
        self.clock = *clock;
    }
}

impl<E> SetAssocCache<E> {
    /// Creates a cache with `sets × ways` lines. `Replacement` has the one
    /// policy, and `seed` is unused: no victim choice draws.
    ///
    /// # Panics
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize, _policy: Replacement, _seed: u64) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        SetAssocCache {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            clock: 0,
        }
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    fn set_index(&self, addr: BlockAddr) -> usize {
        (addr.as_u64() % self.sets.len() as u64) as usize
    }

    /// Whether `addr` is resident.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.get(addr).is_some()
    }

    /// Looks up `addr` without updating recency.
    pub fn get(&self, addr: BlockAddr) -> Option<&E> {
        let set = &self.sets[self.set_index(addr)];
        set.iter().find(|l| l.addr == addr).map(|l| &l.entry)
    }

    /// Looks up `addr` mutably and marks it most-recently-used.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut E> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        set.iter_mut().find(|l| l.addr == addr).map(|l| {
            l.last_used = clock;
            &mut l.entry
        })
    }

    /// Finds the line for `addr` with one scan of its set and hands back a
    /// handle on it, for handlers that must look at the entry before they
    /// know whether to use it, change it or drop it. Recency is untouched
    /// until [`Resident::touch`].
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<Resident<'_, E>> {
        let set = self.set_index(addr);
        let way = self.sets[set].iter().position(|l| l.addr == addr)?;
        Some(Resident {
            cache: self,
            set,
            way,
        })
    }

    /// Marks `addr` most-recently-used if resident.
    pub fn touch(&mut self, addr: BlockAddr) {
        let _ = self.get_mut(addr);
    }

    /// Whether inserting `addr` (not already resident) would require
    /// evicting a victim.
    pub fn needs_eviction(&self, addr: BlockAddr) -> bool {
        let set = &self.sets[self.set_index(addr)];
        set.len() >= self.ways && !set.iter().any(|l| l.addr == addr)
    }

    /// Whether `addr` (not already resident) could be inserted now: its set
    /// has a free way, or a line `eligible` accepts as the victim.
    pub fn has_room_where(
        &self,
        addr: BlockAddr,
        mut eligible: impl FnMut(BlockAddr, &E) -> bool,
    ) -> bool {
        let set = &self.sets[self.set_index(addr)];
        !self.needs_eviction(addr) || set.iter().any(|l| eligible(l.addr, &l.entry))
    }

    /// Removes and returns the line that would be evicted to make room for
    /// `addr`, if the set is full. Controllers call this *before* `insert`
    /// so they can run the victim's writeback transaction first.
    pub fn take_victim(&mut self, addr: BlockAddr) -> Option<(BlockAddr, E)> {
        self.take_victim_where(addr, |_, _| true)
    }

    /// Like [`take_victim`](Self::take_victim), but only lines for which
    /// `eligible` returns true may be chosen (e.g. an inclusive L2 must not
    /// evict a line with a recall already in flight). Returns `None` either
    /// if no eviction is needed or if no line is eligible. `eligible` is
    /// called once per line of the set, in way order.
    pub fn take_victim_where(
        &mut self,
        addr: BlockAddr,
        eligible: impl FnMut(BlockAddr, &E) -> bool,
    ) -> Option<(BlockAddr, E)> {
        if !self.needs_eviction(addr) {
            return None;
        }
        let idx = self.set_index(addr);
        self.evict(idx, eligible)
    }

    /// Removes and returns the least-recently-used eligible line of set
    /// `idx`: the first minimum in way order.
    fn evict(
        &mut self,
        idx: usize,
        mut eligible: impl FnMut(BlockAddr, &E) -> bool,
    ) -> Option<(BlockAddr, E)> {
        let mut oldest: Option<(u64, usize)> = None;
        for (way, l) in self.sets[idx].iter().enumerate() {
            if eligible(l.addr, &l.entry) && oldest.is_none_or(|(min, _)| l.last_used < min) {
                oldest = Some((l.last_used, way));
            }
        }
        let line = self.sets[idx].swap_remove(oldest?.1);
        Some((line.addr, line.entry))
    }

    /// Inserts (or replaces) the entry for `addr`, evicting and returning a
    /// victim line if the set was full. Replacing an existing entry never
    /// evicts.
    pub fn insert(&mut self, addr: BlockAddr, entry: E) -> Option<(BlockAddr, E)> {
        self.clock += 1;
        let clock = self.clock;
        let idx = self.set_index(addr);
        if let Some(line) = self.sets[idx].iter_mut().find(|l| l.addr == addr) {
            line.entry = entry;
            line.last_used = clock;
            return None;
        }
        let victim = if self.sets[idx].len() >= self.ways {
            self.evict(idx, |_, _| true)
        } else {
            None
        };
        self.sets[idx].push(Line {
            addr,
            entry,
            last_used: clock,
        });
        victim
    }

    /// Removes the line for `addr`, returning its entry.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<E> {
        let idx = self.set_index(addr);
        let set = &mut self.sets[idx];
        let way = set.iter().position(|l| l.addr == addr)?;
        Some(set.swap_remove(way).entry)
    }

    /// Iterates over `(addr, entry)` for every resident line (arbitrary but
    /// deterministic order).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &E)> + '_ {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|l| (l.addr, &l.entry)))
    }
}

/// A resident line found by [`SetAssocCache::lookup`]. The handle borrows
/// the cache, so the way it names cannot go stale.
#[derive(Debug)]
pub struct Resident<'a, E> {
    cache: &'a mut SetAssocCache<E>,
    set: usize,
    way: usize,
}

impl<E> Resident<'_, E> {
    /// The entry.
    pub fn get(&self) -> &E {
        &self.cache.sets[self.set][self.way].entry
    }

    /// The entry, mutably, without marking it used.
    pub fn get_mut(&mut self) -> &mut E {
        &mut self.cache.sets[self.set][self.way].entry
    }

    /// Marks the line most-recently-used, as [`SetAssocCache::get_mut`]
    /// does.
    pub fn touch(&mut self) {
        self.cache.clock += 1;
        self.cache.sets[self.set][self.way].last_used = self.cache.clock;
    }

    /// Removes the line, returning its entry.
    pub fn remove(self) -> E {
        self.cache.sets[self.set].swap_remove(self.way).entry
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn cache() -> SetAssocCache<u64> {
        SetAssocCache::new(4, 2, Replacement::Lru, 99)
    }

    /// Addresses 0, 4, 8, ... all map to set 0 of a 4-set cache.
    fn same_set(i: u64) -> BlockAddr {
        BlockAddr::new(i * 4)
    }

    #[test]
    fn clone_from_is_clone_whatever_the_destination_held() {
        let mut source = cache();
        source.insert(same_set(0), 10);
        source.insert(same_set(1), 11);
        source.insert(BlockAddr::new(1), 12);
        source.touch(same_set(0));
        let mut fuller = cache();
        for i in 0..8 {
            fuller.insert(BlockAddr::new(i), 100 + i);
        }
        for mut copy in [cache(), fuller] {
            copy.clone_from(&source);
            assert!(copy.iter().eq(source.iter()));
            // Recency came along: both evict the line `touch` passed over.
            let evicted = copy.insert(same_set(2), 13);
            assert_eq!(evicted, source.clone().insert(same_set(2), 13));
            assert_eq!(evicted, Some((same_set(1), 11)));
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut c = cache();
        assert!(c.insert(BlockAddr::new(1), 10).is_none());
        assert_eq!(c.get(BlockAddr::new(1)), Some(&10));
        assert_eq!(c.get(BlockAddr::new(2)), None);
        *c.get_mut(BlockAddr::new(1)).unwrap() = 11;
        assert_eq!(c.get(BlockAddr::new(1)), Some(&11));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn replace_in_place_does_not_evict() {
        let mut c = cache();
        c.insert(same_set(0), 1);
        c.insert(same_set(1), 2);
        assert!(c.insert(same_set(0), 3).is_none());
        assert_eq!(c.get(same_set(0)), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = cache();
        c.insert(same_set(0), 1);
        c.insert(same_set(1), 2);
        c.touch(same_set(0));
        let (victim, v) = c.insert(same_set(2), 3).unwrap();
        assert_eq!((victim, v), (same_set(1), 2));
        assert!(c.contains(same_set(0)));
        assert!(c.contains(same_set(2)));
    }

    #[test]
    fn take_victim_then_insert() {
        let mut c = cache();
        c.insert(same_set(0), 1);
        c.insert(same_set(1), 2);
        assert!(c.needs_eviction(same_set(2)));
        let (victim, _) = c.take_victim(same_set(2)).unwrap();
        assert_eq!(victim, same_set(0));
        assert!(!c.needs_eviction(same_set(2)));
        assert!(c.insert(same_set(2), 3).is_none());
    }

    #[test]
    fn take_victim_where_respects_filter() {
        let mut c = cache();
        c.insert(same_set(0), 1);
        c.insert(same_set(1), 2);
        // LRU victim would be block 0, but the filter pins it.
        let (victim, _) = c
            .take_victim_where(same_set(2), |a, _| a != same_set(0))
            .unwrap();
        assert_eq!(victim, same_set(1));
        // Re-fill; nothing eligible → None even though the set is full.
        c.insert(same_set(1), 2);
        assert!(c.take_victim_where(same_set(2), |_, _| false).is_none());
        assert!(c.needs_eviction(same_set(2)));
    }

    /// The selection this file used before it became one pass: collect the
    /// eligible ways, then pick the least recently used among them.
    fn reference_victim(
        c: &SetAssocCache<u64>,
        addr: BlockAddr,
        eligible: impl Fn(BlockAddr) -> bool,
    ) -> Option<BlockAddr> {
        if !c.needs_eviction(addr) {
            return None;
        }
        let set = &c.sets[c.set_index(addr)];
        let candidates = (0..set.len()).filter(|&i| eligible(set[i].addr));
        let way = candidates.min_by_key(|&i| set[i].last_used);
        way.map(|w| set[w].addr)
    }

    #[test]
    fn one_pass_selection_picks_the_reference_victim() {
        let mut c: SetAssocCache<u64> = SetAssocCache::new(2, 4, Replacement::Lru, 5);
        let mut ops = SmallRng::seed_from_u64(11);
        for step in 0..4_000u64 {
            let addr = BlockAddr::new(ops.gen_range(0..24));
            let pinned = BlockAddr::new(ops.gen_range(0..24));
            match ops.gen_range(0..4) {
                0 => c.touch(addr),
                1 => {
                    c.remove(addr);
                }
                _ => {
                    let expected = reference_victim(&c, addr, |a| a != pinned);
                    let way_order: Vec<_> = match c.needs_eviction(addr) {
                        true => c.sets[c.set_index(addr)].iter().map(|l| l.addr).collect(),
                        false => Vec::new(),
                    };
                    let mut asked = Vec::new();
                    let got = c.take_victim_where(addr, |a, _| {
                        asked.push(a);
                        a != pinned
                    });
                    assert_eq!(got.map(|(a, _)| a), expected, "step {step}");
                    assert_eq!(asked, way_order, "once per line, in way order");
                    if !c.needs_eviction(addr) {
                        c.insert(addr, step);
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_scans_once_and_touches_on_request() {
        let mut c = cache();
        c.insert(same_set(0), 1);
        c.insert(same_set(1), 2);
        assert!(c.lookup(same_set(2)).is_none());
        // Mutating through the handle leaves recency alone: block 0 is
        // still the LRU victim.
        *c.lookup(same_set(0)).unwrap().get_mut() = 10;
        assert_eq!(c.clone().take_victim(same_set(2)).unwrap().0, same_set(0));
        // `touch` is `get_mut`'s recency update.
        let mut line = c.lookup(same_set(0)).unwrap();
        assert_eq!(*line.get(), 10);
        line.touch();
        assert_eq!(c.clone().take_victim(same_set(2)).unwrap().0, same_set(1));
        assert_eq!(c.lookup(same_set(0)).unwrap().remove(), 10);
        assert!(!c.contains(same_set(0)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn take_victim_when_not_needed_is_none() {
        let mut c = cache();
        c.insert(same_set(0), 1);
        assert!(c.take_victim(same_set(1)).is_none());
        // Resident address never needs eviction even in a full set.
        c.insert(same_set(1), 2);
        assert!(c.take_victim(same_set(0)).is_none());
    }

    #[test]
    fn remove_and_iter() {
        let mut c = cache();
        c.insert(BlockAddr::new(1), 10);
        c.insert(BlockAddr::new(2), 20);
        assert_eq!(c.remove(BlockAddr::new(1)), Some(10));
        assert_eq!(c.remove(BlockAddr::new(1)), None);
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec![(BlockAddr::new(2), &20)]);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_ways_panics() {
        let _: SetAssocCache<()> = SetAssocCache::new(4, 0, Replacement::Lru, 0);
    }
}
