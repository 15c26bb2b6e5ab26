//! # xg-accel — example accelerator cache hierarchies
//!
//! Accelerator-side caches speaking the standardized Crossing Guard
//! interface (paper §2.1). Two organizations, matching the paper's two
//! example accelerator protocols:
//!
//! * [`AccelL1`] — the **single-level MESI cache of Table 1**: four stable
//!   states (`M E S I`) plus a *single* transient state `B`. Compare with
//!   the host protocols' half-dozen transients and response counting — that
//!   gap is the paper's simplicity argument. Its dispatch is Table 1 as an
//!   `xg-fsm` table ([`l1::table`]), and the conformance test in this crate
//!   walks it entry by entry.
//! * [`AccelL2`] — a shared, inclusive accelerator L2 that coordinates
//!   sharing among several per-core [`AccelL1`]s and presents a single
//!   cache to Crossing Guard (the two-level organization of Figure 2(d)).
//!   Internally it re-uses the same standardized interface downward — a
//!   legal accelerator-designer choice (the internal protocol is invisible
//!   to host and XG alike) that also demonstrates the interface composes
//!   hierarchically.
//!
//! Accelerator block sizes that are multiples of the 64 B host block are
//! supported end-to-end ([`AccelL1Config::block_blocks`]); Crossing Guard
//! performs the merge/split (paper §2.5).

#![forbid(unsafe_code)]

pub mod l1;
pub mod l2;

#[cfg(test)]
mod tests;

pub use l1::{AccelL1, AccelL1Config, Prefetch};
pub use l2::{AccelL2, AccelL2Config};
