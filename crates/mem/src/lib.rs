//! # xg-mem — memory-system primitives
//!
//! Shared building blocks for every cache and directory controller in the
//! Crossing Guard reproduction:
//!
//! * [`Addr`] / [`BlockAddr`] / [`PageAddr`] — byte, cache-block (64 B), and
//!   page (4 KiB) granularity addresses with conversions between them.
//! * [`DataBlock`] — a 64-byte cache block's worth of data.
//! * [`PagePerm`] / [`PermissionTable`] — the page-permission information
//!   Crossing Guard consults to enforce Guarantee 0 (paper §3.1, following
//!   Border Control).
//! * [`SetAssocCache`] — a set-associative tag/data array with
//!   least-recently-used replacement, used by every cache controller.
//! * [`Mshr`] — a bounded transaction table; only `benchmark/` still uses it.
//! * [`IdMap`] / [`IdSet`] — `std` hash tables over [`IdHasher`], for the
//!   per-block (page, word, op id, core index) bookkeeping every controller
//!   keeps on its message path.
//! * [`Spares`] — recycled queue buffers, so opening a transaction does not
//!   allocate once a controller is warm — and [`SortedSet`], the sharer list
//!   that survives an invalidation round with its allocation.
//!
//! ```rust
//! use xg_mem::{Addr, DataBlock};
//!
//! let a = Addr::new(0x1234);
//! let b = a.block();
//! assert_eq!(b.base().as_u64(), 0x1200);
//! assert_eq!(a.block_offset(), 0x34);
//! let mut d = DataBlock::zeroed();
//! d.write_u64(0, 42);
//! assert_eq!(d.read_u64(0), 42);
//! ```

#![forbid(unsafe_code)]

mod addr;
mod cache;
mod data;
mod idmap;
mod mshr;
mod perms;
mod sorted;
mod spares;

pub use addr::{Addr, BlockAddr, PageAddr, BLOCK_BYTES, PAGE_BYTES};
pub use cache::{Replacement, Resident, SetAssocCache};
pub use data::DataBlock;
pub use idmap::{IdHasher, IdMap, IdSet};
pub use mshr::{Mshr, MshrFullError};
pub use perms::{PagePerm, PermissionTable};
pub use sorted::SortedSet;
pub use spares::{Recycle, Spares};
