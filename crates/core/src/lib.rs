//! # xg-core — Crossing Guard
//!
//! The paper's primary contribution: trusted host hardware that sits
//! between an untrusted accelerator cache hierarchy and the host coherence
//! protocol, exposing the small standardized interface of `xg_proto::XgiMsg`
//! to the accelerator while speaking the host's native protocol on the
//! other side. To the host it looks like just another cache (a private
//! L1/L2 for the Hammer protocol, a private L1 for inclusive MESI); to the
//! accelerator it is the *entire* host.
//!
//! ## What lives where
//!
//! * [`CrossingGuard`] — the component itself: guarantee enforcement
//!   (Figure 1, as the `xg_full` and `xg_tx` tables), grant/put
//!   bookkeeping, invalidation forwarding, timeout recovery, rate limiting,
//!   and block-size translation.
//! * [`XgVariant::FullState`] — tracks the stable state of **every** block
//!   the accelerator holds (a trusted inclusive directory, paper §2.3.1),
//!   enabling Guarantees 1a/2a locally and letting many host demands be
//!   answered without ever bothering the accelerator.
//! * [`XgVariant::Transactional`] — tracks **only open transactions**
//!   (paper §2.3.2): far less storage, but Guarantees 1a/2a devolve to the
//!   host protocol, which must be (slightly) modified to tolerate any
//!   plausible message — exactly the host modifications implemented in
//!   `xg-host-hammer` and `xg-host-mesi`.
//! * [`hammer_side`] / [`mesi_side`] — the host *personas*: the per-host
//!   protocol state machines that absorb all the ack counting, broadcast
//!   responses, two-phase writebacks, and races the accelerator never sees
//!   (paper §2.4: the complexity is shifted to Crossing Guard, which only
//!   needs to be designed once per host protocol).
//! * [`Os`] — the OS model that receives error reports and applies a
//!   policy (report-only or disable-the-accelerator, paper §2.2).
//! * [`TokenBucket`] — request-rate limiting against denial-of-service by
//!   a flooding accelerator (paper §2.5).
//!
//! ## Safety stance
//!
//! Crossing Guard **never panics on accelerator input** and never forwards
//! a message the host could not tolerate. Violations are converted into
//! [`xg_proto::XgError`] reports to the OS; the host side always receives a
//! safe (possibly zero-data) response, and the accelerator side receives
//! exactly one response per request whenever it is behaving well enough to
//! deserve one.

#![forbid(unsafe_code)]

pub mod config;
pub mod guard;
pub mod hammer_side;
pub mod mesi_side;
pub mod os;
mod persona;
pub mod rate_limit;

#[cfg(test)]
mod tests;

pub use config::{OsPolicy, RateLimit, XgConfig, XgVariant};
pub use guard::CrossingGuard;
pub use os::Os;
pub use rate_limit::TokenBucket;

/// The validated transition tables of this crate's table-driven machines,
/// gathered for the table-dump and golden-table tooling.
pub mod tables {
    pub use crate::guard::full_table as xg_full;
    pub use crate::guard::tx_table as xg_tx;
    pub use crate::hammer_side::table as hammer_persona;
    pub use crate::mesi_side::table as mesi_persona;
}
