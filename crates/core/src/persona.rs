//! Shared vocabulary between the guard core and its host personas.
//!
//! A *persona* is the host-facing half of a Crossing Guard instance: the
//! state machine that makes Crossing Guard look like an ordinary cache to
//! one particular host protocol. The guard core is protocol-agnostic and
//! talks to its persona through the small vocabulary in this module; the
//! personas (`hammer_side`, `mesi_side`) translate it to and from wire
//! messages, absorbing ack counting, broadcast responses, two-phase
//! writebacks, and every race along the way.

use xg_mem::{BlockAddr, DataBlock};
use xg_proto::{Ctx, HammerMsg, MesiMsg};
use xg_sim::{CheckDigest, FsmRows, Histogram, NodeId, Report};

/// What a completed host Get granted us.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GrantState {
    S,
    E,
    M,
}

/// A host request the guard can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GetReq {
    /// Ordinary read; the host may answer with exclusive data.
    S,
    /// Non-upgradable read (never grants ownership).
    SOnly,
    /// Write.
    M,
}

/// A relinquish the guard can issue. (`PutS` suppression happens in the
/// guard; a persona is only asked to put what its host protocol wants.)
#[derive(Debug, Clone)]
pub(crate) enum PutReq {
    /// Evict a shared copy (MESI host only — Hammer drops S silently).
    S,
    /// Return owned data; `dirty` says whether memory must be updated.
    Owned { data: DataBlock, dirty: bool },
}

/// A host demand, normalized across protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DemandKind {
    /// Another cache wants to read. `to_owner`: the host believes we own
    /// the block (so a data response is expected).
    Read { to_owner: bool },
    /// Another cache wants a non-upgradable read.
    ReadOnly { to_owner: bool },
    /// Another cache wants to write; our copy must die.
    Write { to_owner: bool },
    /// The host wants the block back entirely (inclusive L2 eviction).
    Recall,
}

impl DemandKind {
    /// Whether the host expects data from us for this demand.
    pub(crate) fn expects_data(self) -> bool {
        match self {
            DemandKind::Read { to_owner }
            | DemandKind::ReadOnly { to_owner }
            | DemandKind::Write { to_owner } => to_owner,
            DemandKind::Recall => true,
        }
    }

    /// Folds this demand kind into a canonical state digest.
    pub(crate) fn digest(self, out: &mut CheckDigest) {
        let (tag, to_owner) = match self {
            DemandKind::Read { to_owner } => (0u64, to_owner),
            DemandKind::ReadOnly { to_owner } => (1, to_owner),
            DemandKind::Write { to_owner } => (2, to_owner),
            DemandKind::Recall => (3, true),
        };
        out.write_u64(tag);
        out.write_u64(u64::from(to_owner));
    }
}

impl GrantState {
    /// Canonical digest tag.
    pub(crate) fn digest_tag(self) -> u64 {
        match self {
            GrantState::S => 0,
            GrantState::E => 1,
            GrantState::M => 2,
        }
    }
}

impl GetReq {
    /// Canonical digest tag.
    pub(crate) fn digest_tag(self) -> u64 {
        match self {
            GetReq::S => 0,
            GetReq::SOnly => 1,
            GetReq::M => 2,
        }
    }
}

/// The guard's answer to a [`DemandKind`], handed back to the persona for
/// wire translation.
#[derive(Debug, Clone)]
pub(crate) enum DemandResponse {
    /// The accelerator holds nothing.
    NoCopy,
    /// The accelerator holds (or just relinquished) only a shared copy.
    SharedCopy,
    /// Owned data returned. `keep_shared` says the guard retains a
    /// shared/shadow copy (the requestor must not take exclusivity).
    Data {
        data: DataBlock,
        dirty: bool,
        keep_shared: bool,
    },
}

/// Events a persona reports to the guard core.
#[derive(Debug, Clone)]
pub(crate) enum PersonaEvent {
    /// A previously-issued Get completed.
    Granted {
        h: BlockAddr,
        state: GrantState,
        data: DataBlock,
        dirty: bool,
    },
    /// A previously-issued Put completed (acked or consumed by a race).
    PutDone { h: BlockAddr },
    /// The host demands the block; the guard must eventually call
    /// `respond_demand(h, ...)` exactly once.
    Demand { h: BlockAddr, kind: DemandKind },
}

/// Per-persona statistics the guard folds into its report.
#[derive(Debug, Default)]
pub(crate) struct PersonaStats {
    /// Messages sent to the host network.
    pub sent: u64,
    /// Put-class messages sent to the host network.
    pub puts_sent: u64,
    /// Messages received from the host network.
    pub received: u64,
    /// Impossible events (desync with a trusted host = bug; nonzero only
    /// under deliberately broken configurations).
    pub violations: u64,
    /// Host-transaction round-trip times: cycles from issuing a Get/Put on
    /// the host network to its completion at the persona.
    pub host_rtt: Histogram,
}

xg_sim::clone_in_place!(impl[] for PersonaStats { sent, puts_sent, received, violations, host_rtt });

/// Node id placeholder used in demand contexts that answer to the host
/// controller itself rather than a sibling cache.
pub(crate) type Requestor = NodeId;

/// The host-facing half of a Crossing Guard, behind a dyn-compatible
/// interface so the guard core stays protocol-agnostic.
///
/// Exactly one of [`handle_hammer`](HostPersona::handle_hammer) /
/// [`handle_mesi`](HostPersona::handle_mesi) is overridden per persona;
/// the other keeps its default and returns `false`, which the guard
/// reports as a malformed (wrong-protocol) message.
pub(crate) trait HostPersona: Send {
    /// Issues a host Get for one host block.
    fn issue_get(&mut self, h: BlockAddr, kind: GetReq, ctx: &mut Ctx<'_>);
    /// Issues a host Put for one host block.
    fn issue_put(&mut self, h: BlockAddr, put: PutReq, ctx: &mut Ctx<'_>);
    /// Answers a previously-surfaced [`PersonaEvent::Demand`].
    fn respond_demand(&mut self, h: BlockAddr, resp: DemandResponse, ctx: &mut Ctx<'_>);
    /// Open host transactions + pending demands (storage accounting).
    fn open_txns(&self) -> usize;
    /// Whether this persona speaks the inclusive MESI protocol.
    fn is_mesi(&self) -> bool;
    /// The persona's statistics, folded into the guard's report.
    fn stats(&self) -> &PersonaStats;
    /// Handles a Hammer-protocol host message; `false` = wrong protocol.
    fn handle_hammer(
        &mut self,
        msg: &HammerMsg,
        events: &mut Vec<PersonaEvent>,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        let _ = (msg, events, ctx);
        false
    }
    /// Handles a MESI-protocol host message; `false` = wrong protocol.
    fn handle_mesi(
        &mut self,
        msg: &MesiMsg,
        events: &mut Vec<PersonaEvent>,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        let _ = (msg, events, ctx);
        false
    }
    /// Folds the persona's transition coverage into the report.
    fn record_machine(&self, out: &mut Report);
    /// The persona's machine, dense (see [`xg_sim::Component::visit_fired`]).
    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64]));
    /// A deep copy, so the guard that owns this persona can be cloned.
    fn box_clone(&self) -> Box<dyn HostPersona>;
    /// Overwrites this persona with `saved` in place (field-wise
    /// `clone_from`) if `saved` is the same persona; `false` otherwise.
    fn restore_from(&mut self, saved: &dyn HostPersona) -> bool;
    /// Upcast, so `restore_from` can recognise its own type.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Folds the persona's protocol-relevant state into a canonical digest
    /// (see [`CheckDigest`]): open transactions and pending demands, sorted
    /// by address role, timestamps excluded; each open item also counts as
    /// one [`CheckDigest::obligation`].
    fn check_state(&self, out: &mut CheckDigest);
}

/// [`HostPersona::restore_from`] for a persona that is `Clone`:
/// `dst.clone_from(saved)` if `saved` is a `T`, else `false`.
pub(crate) fn restore_in_place<T: Clone + 'static>(dst: &mut T, saved: &dyn HostPersona) -> bool {
    match saved.as_any().downcast_ref::<T>() {
        Some(saved) => {
            dst.clone_from(saved);
            true
        }
        None => false,
    }
}

impl Clone for Box<dyn HostPersona> {
    fn clone(&self) -> Self {
        self.box_clone()
    }

    fn clone_from(&mut self, source: &Self) {
        if !self.restore_from(&**source) {
            *self = source.box_clone();
        }
    }
}
