//! # xg-host-hammer — AMD-Hammer-like exclusive MOESI host protocol
//!
//! A broadcast-based MOESI protocol in the style of gem5's `MOESI_hammer`,
//! one of the two baseline host protocols of the Crossing Guard paper (§3).
//! Its defining features, all reproduced here:
//!
//! * **No sharer tracking.** The directory broadcasts a forward for every
//!   request to *every* peer cache; each peer responds to the requestor
//!   directly with either data or an ack, and the requestor must count the
//!   responses (the complexity the Crossing Guard interface hides from
//!   accelerators, §2.4).
//! * **Owned (O) state.** An owner answers reads with data while memory
//!   stays stale.
//! * **Two-phase writebacks.** `Put` → `WbAck`/`WbNack` → `WbData`, racing
//!   against forwards; caches need `WB`/`WB_I` transient states.
//! * **Silent eviction of shared blocks.** No `PutS` exists; Crossing Guard
//!   therefore suppresses accelerator `PutS` messages for this host (§2.1).
//!
//! One deliberate strengthening relative to gem5 (noted in `DESIGN.md`): the
//! directory tracks the *identity* of the owner, not just its existence.
//! The paper itself points at this option ("the directory maintains owner
//! information, which allows the host to determine if a Put is erroneous").
//! It is what lets the directory `WbNack` a racing or bogus `Put`.
//!
//! ## Host modifications for Transactional Crossing Guard (paper §3.2.1)
//!
//! All three published modifications are implemented; the cache's two are
//! switched off together by [`HammerConfig::strict`], so the ablation
//! experiments can measure the unmodified baseline:
//!
//! 1. a non-upgradable `GetSOnly` request (plus `FwdGetSOnly`),
//! 2. caches *sink* unexpected `WbNack`s and count an error instead of
//!    treating them as protocol violations,
//! 3. requestors count *responses* rather than asserting exactly one data
//!    message.
//!
//! ## Transition summary (cache controller)
//!
//! Stable states `M O E S I`; transients `IS ISO IM SM OM WB WB_I`.
//! See [`cache`] for the full matrix.

#![forbid(unsafe_code)]

pub mod cache;
pub mod directory;

#[cfg(test)]
mod tests;

pub use cache::{HammerCache, HammerConfig};
pub use directory::HammerDirectory;
