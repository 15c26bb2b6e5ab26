//! Cache block data.

use std::fmt;

use crate::addr::BLOCK_BYTES;

/// One cache block (64 bytes) of data.
///
/// The stress tester (paper §4.1) checks *values*, not just protocol state,
/// so data must actually flow through the simulated protocols. `DataBlock`
/// reads bytes and words and writes words:
///
/// ```rust
/// use xg_mem::DataBlock;
/// let mut d = DataBlock::splat(0xAB);
/// d.write_u64(8, 0xDEADBEEF);
/// assert_eq!(d.read_u64(8), 0xDEADBEEF);
/// assert_eq!(d.read_u8(0), 0xAB);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataBlock {
    bytes: [u8; BLOCK_BYTES as usize],
}

impl DataBlock {
    /// A block of all zeroes — also what Crossing Guard fabricates when a
    /// buggy accelerator fails to supply owned data (Guarantee 2a).
    pub const fn zeroed() -> Self {
        DataBlock {
            bytes: [0; BLOCK_BYTES as usize],
        }
    }

    /// A block with every byte equal to `byte`.
    pub const fn splat(byte: u8) -> Self {
        DataBlock {
            bytes: [byte; BLOCK_BYTES as usize],
        }
    }

    /// Reads the byte at `offset`.
    ///
    /// # Panics
    /// Panics if `offset >= 64`.
    pub fn read_u8(&self, offset: usize) -> u8 {
        self.bytes[offset]
    }

    /// Reads the little-endian `u64` at byte `offset` (need not be aligned,
    /// but must fit in the block).
    ///
    /// # Panics
    /// Panics if `offset + 8 > 64`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[offset..offset + 8]);
        u64::from_le_bytes(buf)
    }

    /// Writes the little-endian `u64` at byte `offset`.
    ///
    /// # Panics
    /// Panics if `offset + 8 > 64`.
    pub fn write_u64(&mut self, offset: usize, value: u64) {
        self.bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Borrows the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Default for DataBlock {
    fn default() -> Self {
        DataBlock::zeroed()
    }
}

impl fmt::Debug for DataBlock {
    /// Compact representation: first word plus a checksum, so traces stay
    /// readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sum: u32 = self.bytes.iter().map(|&b| b as u32).sum();
        write!(f, "DataBlock[w0={:#x}, sum={}]", self.read_u64(0), sum)
    }
}

impl From<[u8; BLOCK_BYTES as usize]> for DataBlock {
    fn from(bytes: [u8; BLOCK_BYTES as usize]) -> Self {
        DataBlock { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_splat() {
        assert!(DataBlock::zeroed().as_bytes().iter().all(|&b| b == 0));
        assert!(DataBlock::splat(7).as_bytes().iter().all(|&b| b == 7));
        assert_eq!(DataBlock::default(), DataBlock::zeroed());
    }

    #[test]
    fn u64_round_trip_any_offset() {
        let mut d = DataBlock::zeroed();
        for offset in [0usize, 8, 13, 56] {
            d.write_u64(offset, 0x0123_4567_89AB_CDEF);
            assert_eq!(d.read_u64(offset), 0x0123_4567_89AB_CDEF, "at {offset}");
        }
    }

    #[test]
    fn byte_access() {
        let mut d = DataBlock::zeroed();
        d.write_u64(56, 0xFF << 56);
        assert_eq!(d.read_u8(63), 0xFF);
        assert_eq!(d.read_u8(62), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_u64_panics() {
        let d = DataBlock::zeroed();
        let _ = d.read_u64(57);
    }

    #[test]
    fn debug_is_nonempty_and_compact() {
        let s = format!("{:?}", DataBlock::splat(1));
        assert!(s.contains("sum=64"));
    }
}
