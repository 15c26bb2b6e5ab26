//! # xg-proto — shared protocol message vocabulary
//!
//! Every controller in the Crossing Guard system exchanges values of one
//! [`Message`] enum. Think of this crate as the set of wire formats:
//!
//! * [`CoreMsg`] — a processing core's load/store interface to its cache.
//! * [`HammerMsg`] — the AMD-Hammer-like exclusive MOESI host protocol
//!   (implemented in `xg-host-hammer`).
//! * [`MesiMsg`] — the inclusive two-level MESI host protocol (implemented
//!   in `xg-host-mesi`).
//! * [`XgiMsg`] — **the Crossing Guard interface** (paper §2.1): the
//!   standardized, minimal message set an accelerator uses. Five requests,
//!   four responses, one host-initiated request, three responses to it.
//! * [`OsMsg`] — error reports Crossing Guard raises to the OS (paper §2.2).
//!
//! [`host_l1`] sits beside the vocabulary because it needs all of it: the
//! host private cache both host protocols build on (core side, array,
//! MSHR), generic over what a protocol says to the network. [`hammer`]
//! holds the Hammer requestor and owner rules, shared by the Hammer host
//! cache and Crossing Guard's Hammer persona.
//!
//! Keeping all message types in one enum lets heterogeneous controllers
//! share one simulator instantiation, and — crucially for the safety story —
//! lets the fuzzer hand *any* message to *any* controller, so we can test
//! that Crossing Guard tolerates arbitrary garbage while host controllers
//! merely count (rather than crash on) impossible events.

#![forbid(unsafe_code)]

mod error;
pub mod hammer;
pub mod host_l1;
mod messages;

pub use error::{XgError, XgErrorKind};
pub use messages::{
    CoreKind, CoreMsg, HammerKind, HammerMsg, MesiKind, MesiMsg, Message, OsMsg, XgData, XgiKind,
    XgiMsg, XgiTag,
};

/// The set of home-node banks a client routes coherence requests over.
///
/// With sharded home nodes (`SystemConfig::home_banks > 1`) the single
/// Hammer directory / MESI L2 becomes M address-interleaved banks, and
/// every component that used to hold one `home: NodeId` holds a `HomeMap`
/// instead: [`for_block`](HomeMap::for_block) picks the owning bank by the
/// XOR-fold hash in `xg_mem::BlockAddr::bank`, so requestor and responder
/// always agree on which bank homes a block. A single-bank map routes every
/// block to its one node, which keeps the M=1 system identical to the
/// pre-banking layout.
#[derive(Debug, PartialEq, Eq)]
pub struct HomeMap {
    banks: Vec<xg_sim::NodeId>,
}

xg_sim::clone_in_place!(impl[] for HomeMap { banks });

impl HomeMap {
    /// Creates a map over the given bank nodes, in bank order.
    ///
    /// # Panics
    /// Panics if `banks` is empty.
    pub fn new(banks: Vec<xg_sim::NodeId>) -> Self {
        assert!(!banks.is_empty(), "home map needs at least one bank");
        HomeMap { banks }
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Whether the map is empty (never true for a constructed map).
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// The bank nodes in bank order.
    pub fn nodes(&self) -> &[xg_sim::NodeId] {
        &self.banks
    }

    /// The home bank owning `block`.
    pub fn for_block(&self, block: xg_mem::BlockAddr) -> xg_sim::NodeId {
        self.banks[block.bank(self.banks.len())]
    }

    /// Whether `node` is one of the banks (i.e. "did this come from home?").
    pub fn contains(&self, node: xg_sim::NodeId) -> bool {
        self.banks.contains(&node)
    }
}

impl From<xg_sim::NodeId> for HomeMap {
    /// A single-bank map — the pre-banking "one home node" shape.
    fn from(home: xg_sim::NodeId) -> Self {
        HomeMap { banks: vec![home] }
    }
}

/// Simulator specialized to the system message type.
pub type Sim = xg_sim::Simulator<Message>;
/// Simulation builder specialized to the system message type.
pub type SimBuilder = xg_sim::SimBuilder<Message>;
/// Component context specialized to the system message type.
pub type Ctx<'a> = xg_sim::Ctx<'a, Message>;
