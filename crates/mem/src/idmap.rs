//! Hash tables for keys that are already identifiers.
//!
//! Every controller keeps per-block bookkeeping keyed by a [`BlockAddr`],
//! a page, a word address, an op id or a core index: small integers the
//! simulation made up itself. `std`'s default SipHash guards a table
//! against keys crafted to collide, which costs tens of nanoseconds per
//! lookup and buys nothing for such keys — the worst a bad distribution
//! can do here is a slow map, never a panic or a different result.
//! [`IdMap`] and [`IdSet`] are the `std` tables over [`IdHasher`], one
//! multiply per key word. The hasher is fixed, so iteration order is a
//! function of the insert/remove history rather than of a per-process
//! random state — still not an order a handler may depend on.
//!
//! [`BlockAddr`]: crate::BlockAddr

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`IdHasher`]; construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` over [`IdHasher`]; construct with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// 2^64 / φ, odd: consecutive keys land far apart after the multiply.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply–xorshift hasher for integer-like keys.
///
/// Each word is xored into the folded state and multiplied by 2^64 / φ.
/// A multiply only carries entropy upwards — the low *k* bits of
/// `(i << k) * MUL` are zero — and hashbrown picks the bucket from the low
/// bits of the hash (the control byte from the top seven), so
/// [`finish`](Hasher::finish) folds the high half into the low half.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.finish() ^ word).wrapping_mul(MUL);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;
    use crate::BlockAddr;

    fn hash_of<T: std::hash::Hash>(key: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    /// Block-aligned and page-aligned keys are `i << s`. hashbrown indexes
    /// buckets by the low bits of the hash and tags them with the top
    /// seven; both must spread for every alignment. (A bare `key * MUL`
    /// has *one* distinct low byte from `s = 8` on.) The bounds are loose
    /// on purpose: this catches a collapse, it does not rank hashes.
    #[test]
    fn shifted_keys_spread_over_buckets_and_control_bytes() {
        for s in 0..=20 {
            let hashes: Vec<u64> = (0..256u64)
                .map(|i| hash_of(BlockAddr::new(i << s)))
                .collect();
            let buckets: IdSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
            let tags: IdSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(buckets.len() >= 64, "shift {s}: {} buckets", buckets.len());
            assert!(tags.len() >= 32, "shift {s}: {} tags", tags.len());
        }
    }

    #[test]
    fn iteration_order_is_a_function_of_the_history() {
        let build = || {
            let mut m: IdMap<BlockAddr, u64> = IdMap::default();
            for i in 0..200u64 {
                m.insert(BlockAddr::new(i * 64), i);
            }
            for i in (0..200u64).step_by(3) {
                m.remove(&BlockAddr::new(i * 64));
            }
            for i in 500..520u64 {
                m.insert(BlockAddr::new(i), i);
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.iter().eq(b.iter()), "same history, same order");
    }

    #[test]
    fn both_halves_of_a_pair_key_reach_the_hash() {
        let base = hash_of((3usize, 0x4000u64));
        assert_ne!(base, hash_of((4usize, 0x4000u64)));
        assert_ne!(base, hash_of((3usize, 0x4008u64)));
        assert_ne!(hash_of((1usize, 2u64)), hash_of((2usize, 1u64)));
    }

    #[test]
    fn byte_strings_hash_by_content() {
        // Not a message-path key shape, but `Hasher::write` is the
        // fallback every other integer width takes.
        assert_ne!(hash_of(7u8), hash_of(8u8));
        assert_ne!(hash_of("guard"), hash_of("guarc"));
        assert_eq!(hash_of("guard"), hash_of("guard"));
    }
}
