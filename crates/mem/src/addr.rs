//! Byte, block, and page addresses.

use std::fmt;

/// Cache block (line) size in bytes. The paper's host systems use 64 B
/// blocks (§2.5); accelerators may use multiples of this (block-size
/// translation is handled by Crossing Guard).
pub const BLOCK_BYTES: u64 = 64;

/// Page size in bytes, the granularity of permission checks (Guarantee 0).
pub const PAGE_BYTES: u64 = 4096;

/// A byte-granularity physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Raw byte address.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The cache block containing this byte.
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 / BLOCK_BYTES)
    }

    /// The page containing this byte.
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_BYTES)
    }

    /// Offset of this byte within its cache block.
    pub const fn block_offset(self) -> usize {
        (self.0 % BLOCK_BYTES) as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block-granularity address (a block *index*, not a byte address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block index.
    pub const fn new(index: u64) -> Self {
        BlockAddr(index)
    }

    /// The block index.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte in this block.
    pub const fn base(self) -> Addr {
        Addr(self.0 * BLOCK_BYTES)
    }

    /// The page containing this block. Divides the block index, so it is
    /// exact for every index (a byte address past 2^64 would wrap).
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / (PAGE_BYTES / BLOCK_BYTES))
    }

    /// The `i`-th block after this one.
    pub const fn offset(self, i: u64) -> BlockAddr {
        BlockAddr(self.0 + i)
    }

    /// Rounds this block address down to a multiple of `blocks` — the base
    /// of the containing *accelerator* block when the accelerator block size
    /// is `blocks × 64 B` (paper §2.5 block-size translation).
    ///
    /// # Panics
    /// Panics if `blocks` is zero.
    pub fn align_down(self, blocks: u64) -> BlockAddr {
        assert!(blocks > 0, "alignment of zero blocks");
        BlockAddr(self.0 - self.0 % blocks)
    }

    /// The home bank owning this block under `banks`-way address
    /// interleaving.
    ///
    /// The hash XOR-folds the high halves of the block index down before
    /// taking the modulus, so striding access patterns (page-aligned pools,
    /// power-of-two footprints) still spread across banks while consecutive
    /// blocks stay round-robin interleaved. With one bank every block maps
    /// to bank 0, which is what keeps single-bank systems byte-identical to
    /// the pre-banking layout.
    ///
    /// # Panics
    /// Panics if `banks` is zero.
    pub fn bank(self, banks: usize) -> usize {
        assert!(banks > 0, "zero home banks");
        if banks == 1 {
            return 0;
        }
        let mut x = self.0;
        x ^= x >> 32;
        x ^= x >> 16;
        x ^= x >> 8;
        (x % banks as u64) as usize
    }
}

impl fmt::Display for BlockAddr {
    /// Writes the block's byte base address, which is what a hardware
    /// engineer expects to see in a trace.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.base().as_u64())
    }
}

/// A page-granularity address (a page *index*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page address from a page index.
    pub const fn new(index: u64) -> Self {
        PageAddr(index)
    }

    /// The page index.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte in this page.
    pub const fn base(self) -> Addr {
        Addr(self.0 * PAGE_BYTES)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.base().as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_to_block_to_page() {
        let a = Addr::new(PAGE_BYTES + 3 * BLOCK_BYTES + 5);
        assert_eq!(a.block(), BlockAddr::new(PAGE_BYTES / BLOCK_BYTES + 3));
        assert_eq!(a.page(), PageAddr::new(1));
        assert_eq!(a.block_offset(), 5);
        assert_eq!(a.block().base().as_u64(), PAGE_BYTES + 3 * BLOCK_BYTES);
        assert_eq!(a.block().page(), PageAddr::new(1));
        assert_eq!(a.page().base(), Addr::new(PAGE_BYTES));
    }

    #[test]
    fn page_of_a_block_past_2_58_does_not_wrap() {
        let per_page = PAGE_BYTES / BLOCK_BYTES;
        let high = (1u64 << 58) + 3;
        assert_eq!(BlockAddr::new(high).page(), PageAddr::new(high / per_page));
        assert_ne!(BlockAddr::new(high).page(), PageAddr::new(0));
        assert_eq!(
            BlockAddr::new(u64::MAX).page(),
            PageAddr::new(u64::MAX / per_page)
        );
    }

    #[test]
    fn block_alignment() {
        let b = BlockAddr::new(13);
        assert_eq!(b.align_down(4), BlockAddr::new(12));
        assert_eq!(b.align_down(1), b);
        assert_eq!(b.offset(3), BlockAddr::new(16));
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(BlockAddr::new(1).to_string(), "0x40");
        assert_eq!(PageAddr::new(1).to_string(), "0x1000");
    }

    #[test]
    #[should_panic(expected = "alignment of zero")]
    fn zero_alignment_panics() {
        let _ = BlockAddr::new(1).align_down(0);
    }

    #[test]
    fn single_bank_maps_everything_to_zero() {
        for i in [0u64, 1, 255, 0x4000, u64::MAX] {
            assert_eq!(BlockAddr::new(i).bank(1), 0);
        }
    }

    #[test]
    fn banks_interleave_and_cover() {
        for banks in 2..=8usize {
            let mut seen = vec![false; banks];
            for i in 0..64u64 {
                let b = BlockAddr::new(i).bank(banks);
                assert!(b < banks, "bank {b} out of range for {banks}");
                seen[b] = true;
            }
            assert!(seen.iter().all(|&s| s), "all {banks} banks reachable");
            // Consecutive small block indices stay round-robin interleaved.
            assert_ne!(BlockAddr::new(0).bank(banks), BlockAddr::new(1).bank(banks));
        }
    }

    #[test]
    fn bank_hash_folds_high_bits() {
        // Two blocks differing only in bits above the low byte still land
        // on different banks for some pair — the fold keeps page-strided
        // pools from aliasing onto one bank.
        let banks = 4;
        let hits: std::collections::BTreeSet<usize> = (0..16u64)
            .map(|i| BlockAddr::new(i << 8).bank(banks))
            .collect();
        assert!(hits.len() > 1, "high-bit strides all aliased: {hits:?}");
    }

    #[test]
    #[should_panic(expected = "zero home banks")]
    fn zero_banks_panics() {
        let _ = BlockAddr::new(1).bank(0);
    }
}
