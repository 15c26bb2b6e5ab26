//! Property-based tests for the memory primitives.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

use xg_mem::{Addr, BlockAddr, DataBlock, Mshr, Replacement, SetAssocCache, BLOCK_BYTES};

/// Operations the model-based cache test applies.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Touch(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64, any::<u64>()).prop_map(|(a, v)| Op::Insert(a, v)),
        (0u64..64).prop_map(Op::Remove),
        (0u64..64).prop_map(Op::Touch),
        (0u64..64).prop_map(Op::Get),
    ]
}

proptest! {
    /// A cache never holds two lines with the same address, never exceeds
    /// per-set capacity, and a line reported evicted is really gone.
    #[test]
    fn cache_structural_invariants(
        ops in vec(op_strategy(), 1..200),
        sets in 1usize..8,
        ways in 1usize..5,
    ) {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(sets, ways, Replacement::Lru, 42);
        // Model: resident entries (an eviction removes from the model too).
        let mut model: HashMap<u64, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(a, v) => {
                    let addr = BlockAddr::new(a);
                    if let Some((victim, _)) = cache.insert(addr, v) {
                        prop_assert_ne!(victim, addr);
                        // Victim came from the same set and is gone now.
                        prop_assert_eq!(
                            victim.as_u64() % sets as u64,
                            a % sets as u64
                        );
                        prop_assert!(!cache.contains(victim));
                        model.remove(&victim.as_u64());
                    }
                    model.insert(a, v);
                }
                Op::Remove(a) => {
                    let got = cache.remove(BlockAddr::new(a));
                    prop_assert_eq!(got, model.remove(&a));
                }
                Op::Touch(a) => cache.touch(BlockAddr::new(a)),
                Op::Get(a) => {
                    prop_assert_eq!(cache.get(BlockAddr::new(a)), model.get(&a));
                }
            }
            // Structural invariants after every step.
            prop_assert_eq!(cache.len(), model.len());
            prop_assert!(cache.len() <= cache.capacity());
            let mut seen = std::collections::HashSet::new();
            let mut per_set: HashMap<u64, usize> = HashMap::new();
            for (addr, entry) in cache.iter() {
                prop_assert!(seen.insert(addr), "duplicate tag {}", addr);
                prop_assert_eq!(model.get(&addr.as_u64()), Some(entry));
                *per_set.entry(addr.as_u64() % sets as u64).or_insert(0) += 1;
            }
            for (_, count) in per_set {
                prop_assert!(count <= ways);
            }
        }
    }

    /// An MSHR never exceeds capacity and lookups match a model map.
    #[test]
    fn mshr_matches_model(
        ops in vec((0u64..16, any::<bool>()), 1..100),
        capacity in 1usize..8,
    ) {
        let mut mshr: Mshr<u64> = Mshr::new(capacity);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (i, (a, alloc)) in ops.into_iter().enumerate() {
            let addr = BlockAddr::new(a);
            if alloc && !model.contains_key(&a) {
                match mshr.alloc(addr, i as u64) {
                    Ok(_) => {
                        prop_assert!(model.len() < capacity);
                        model.insert(a, i as u64);
                    }
                    Err(e) => {
                        prop_assert_eq!(model.len(), capacity);
                        prop_assert_eq!(e.capacity, capacity);
                    }
                }
            } else if !alloc {
                prop_assert_eq!(mshr.remove(addr), model.remove(&a));
            }
            prop_assert_eq!(mshr.len(), model.len());
            for (&a, &v) in &model {
                prop_assert_eq!(mshr.get(BlockAddr::new(a)), Some(&v));
            }
        }
    }

    /// u64 reads/writes round-trip at any legal offset and leave other
    /// bytes untouched.
    #[test]
    fn datablock_word_roundtrip(offset in 0usize..=(BLOCK_BYTES as usize - 8), value: u64, fill: u8) {
        let mut d = DataBlock::splat(fill);
        d.write_u64(offset, value);
        prop_assert_eq!(d.read_u64(offset), value);
        for i in 0..BLOCK_BYTES as usize {
            if i < offset || i >= offset + 8 {
                prop_assert_eq!(d.read_u8(i), fill);
            }
        }
    }

    /// Address conversions are consistent: block and page of an address
    /// agree with each other and with base addresses.
    #[test]
    fn addr_conversions_consistent(raw: u64) {
        let raw = raw % (1 << 48);
        let a = Addr::new(raw);
        let b = a.block();
        prop_assert!(b.base().as_u64() <= raw);
        prop_assert!(raw - b.base().as_u64() < BLOCK_BYTES);
        prop_assert_eq!(b.base().as_u64() + a.block_offset() as u64, raw);
        prop_assert_eq!(b.page(), a.page());
        prop_assert_eq!(b.align_down(4).as_u64() % 4, 0);
    }
}
