//! The guard's host half: its vocabulary, its shell, and the closed set of
//! personas.
//!
//! A *persona* is the host-facing half of a Crossing Guard instance: the
//! state machine that makes Crossing Guard look like an ordinary cache to
//! one particular host protocol. The guard core is protocol-agnostic and
//! talks to its persona through the small vocabulary in this module; the
//! personas translate it to and from wire messages, absorbing ack counting,
//! broadcast responses, two-phase writebacks, and every race along the way.
//!
//! Both personas are the same machine around a different table: open
//! transactions and pending demands keyed by host block, a table-driven
//! dispatch of every host message, round-trip accounting, and a canonical
//! digest. [`HostSide`] is that machine, written once; what a host protocol
//! says on the wire it supplies as a [`Protocol`] (`hammer_side`,
//! `mesi_side`). There are exactly two, fixed when the guard is built, so
//! the guard holds them as the closed [`Persona`] enum: every call is a
//! two-arm match, and a checkpoint restores in place.

use xg_fsm::{Alphabet, Controller, Machine, Step, Table};
use xg_mem::{BlockAddr, DataBlock, IdMap};
use xg_proto::{Ctx, HomeMap, Message};
use xg_sim::{CheckDigest, Cycle, FsmRows, Histogram, NodeId};

use crate::hammer_side::Hammer;
use crate::mesi_side::Mesi;

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

/// What differs between the personas: the host side of one protocol.
pub(crate) trait Protocol: Sized + 'static {
    /// Abstract per-block transaction states (the table's rows).
    type State: Alphabet;
    /// Classified host stimuli (the table's columns).
    type Event: Alphabet;
    /// Symbolic actions.
    type Action: Alphabet;
    /// A wire message kind.
    type Kind: Copy + std::fmt::Debug;
    /// An open host transaction.
    type Txn: Clone + std::fmt::Debug + Send;
    /// What answering a surfaced demand needs remembered.
    type Demand: Clone + Send;

    /// The label trace lines carry.
    const TRACE: &'static str;

    /// The validated transition table.
    fn table() -> &'static Table<Self::State, Self::Event, Self::Action>;
    /// Wraps `kind` as a message about `addr`.
    fn wire(addr: BlockAddr, kind: Self::Kind) -> Message;
    /// Whether `kind` is Put-class (counted as `host_puts_sent`).
    fn is_put(kind: &Self::Kind) -> bool;
    /// Abstract state of `h` for table dispatch.
    fn p_state(side: &HostSide<Self>, h: BlockAddr) -> Self::State;
    /// Refines a wire message into a table event.
    fn classify(side: &HostSide<Self>, h: BlockAddr, kind: &Self::Kind) -> Self::Event;
    /// Interprets one symbolic action.
    fn apply(side: &mut HostSide<Self>, action: Self::Action, cx: &mut Cx<'_, '_, '_, Self::Kind>);
    /// Keeps the host safe after the (already counted) violation `event`.
    fn violated(side: &mut HostSide<Self>, event: Self::Event, cx: &mut Cx<'_, '_, '_, Self::Kind>);
    /// Folds an open transaction into the state digest, timestamps
    /// excluded.
    fn digest_txn(txn: &Self::Txn, out: &mut CheckDigest);
    /// Folds a pending demand into the state digest.
    fn digest_demand(demand: &Self::Demand, out: &mut CheckDigest);
}

/// Per-dispatch context for action interpretation: the host message being
/// handled and where its effects go.
pub(crate) struct Cx<'a, 'b, 'e, K> {
    pub(crate) ctx: &'a mut Ctx<'b>,
    pub(crate) events: &'e mut Vec<PersonaEvent>,
    pub(crate) h: BlockAddr,
    pub(crate) kind: K,
}

/// Crossing Guard's host half, speaking protocol `P`.
pub(crate) struct HostSide<P: Protocol> {
    /// The host's home node(s): directory banks or shared L2.
    pub(crate) home: HomeMap,
    pub(crate) txns: IdMap<BlockAddr, P::Txn>,
    pub(crate) demands: IdMap<BlockAddr, P::Demand>,
    pub(crate) stats: PersonaStats,
    machine: Machine<P::State, P::Event, P::Action>,
}

xg_sim::clone_in_place!(impl[P: Protocol] for HostSide<P> { home, txns, demands, stats, machine });

impl<P: Protocol> HostSide<P> {
    pub(crate) fn new(home: HomeMap) -> Self {
        HostSide {
            home,
            txns: IdMap::default(),
            demands: IdMap::default(),
            stats: PersonaStats::default(),
            machine: Machine::new(P::table()),
        }
    }

    pub(crate) fn send(&mut self, to: NodeId, addr: BlockAddr, kind: P::Kind, ctx: &mut Ctx<'_>) {
        ctx.trace(addr.as_u64(), P::TRACE, "Send", || {
            format!("{kind:?} -> {to}")
        });
        self.stats.sent += 1;
        if P::is_put(&kind) {
            self.stats.puts_sent += 1;
        }
        ctx.send(to, P::wire(addr, kind));
    }

    /// Sends `kind` to the home node of `addr`.
    pub(crate) fn send_home(&mut self, addr: BlockAddr, kind: P::Kind, ctx: &mut Ctx<'_>) {
        self.send(self.home.for_block(addr), addr, kind, ctx);
    }

    /// Handles one host message of this persona's protocol.
    fn handle_host(
        &mut self,
        h: BlockAddr,
        kind: P::Kind,
        events: &mut Vec<PersonaEvent>,
        ctx: &mut Ctx<'_>,
    ) {
        self.stats.received += 1;
        ctx.trace(h.as_u64(), P::TRACE, "Recv", || {
            format!("{kind:?} (txn {:?})", self.txns.get(&h))
        });
        let state = P::p_state(self, h);
        let event = P::classify(self, h, &kind);
        let mut cx = Cx {
            ctx,
            events,
            h,
            kind,
        };
        self.dispatch(state, event, &mut cx);
    }

    /// Records the round trip of the transaction on `h`, opened at
    /// `started` and completed now.
    pub(crate) fn closed(&mut self, h: BlockAddr, started: Cycle, ctx: &mut Ctx<'_>) {
        self.stats
            .host_rtt
            .record(ctx.now().saturating_since(started));
        ctx.span(h.as_u64(), "host_rtt", started);
    }

    /// Open host transactions + pending demands (storage accounting).
    fn open_txns(&self) -> usize {
        self.txns.len() + self.demands.len()
    }

    /// Folds the protocol-relevant state into a canonical digest (see
    /// [`CheckDigest`]): the table's name, then open transactions and
    /// pending demands, sorted by address role; each open item also counts
    /// as one [`CheckDigest::obligation`].
    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str(self.machine.table().name());
        digest_by_role(&self.txns, out, P::digest_txn);
        digest_by_role(&self.demands, out, P::digest_demand);
        out.obligation(self.open_txns() as u64);
    }
}

/// Folds an address-keyed table into `out` in address-role order, in the
/// digest's own sort buffer.
fn digest_by_role<V>(
    map: &IdMap<BlockAddr, V>,
    out: &mut CheckDigest,
    digest: fn(&V, &mut CheckDigest),
) {
    let addrs = out.sorted_by_addr_role(map.keys().map(|a| a.as_u64()));
    out.write_u64(addrs.len() as u64);
    for &a in &addrs {
        out.write_addr(a);
        digest(&map[&BlockAddr::new(a)], out);
    }
    out.recycle(addrs);
}

impl<'a, 'b, 'e, P: Protocol> Controller<P::State, P::Event, P::Action, Cx<'a, 'b, 'e, P::Kind>>
    for HostSide<P>
{
    fn machine(&mut self) -> &mut Machine<P::State, P::Event, P::Action> {
        &mut self.machine
    }

    fn apply(
        &mut self,
        action: P::Action,
        _step: Step<P::State, P::Event>,
        cx: &mut Cx<'a, 'b, 'e, P::Kind>,
    ) {
        P::apply(self, action, cx);
    }

    fn stalled(&mut self, _step: Step<P::State, P::Event>, _cx: &mut Cx<'a, 'b, 'e, P::Kind>) {
        // A persona never stalls: the host serializes per block, and races
        // are resolved, not deferred.
    }

    fn violated(&mut self, step: Step<P::State, P::Event>, cx: &mut Cx<'a, 'b, 'e, P::Kind>) {
        self.stats.violations += 1;
        P::violated(self, step.event, cx);
    }
}

/// The host-facing half of a Crossing Guard: one of the two personas, fixed
/// when the guard is built.
pub(crate) enum Persona {
    Hammer(HostSide<Hammer>),
    Mesi(HostSide<Mesi>),
}

/// Evaluates `$body` with `$side` bound to whichever persona `$persona` is.
macro_rules! on_side {
    ($persona:expr, $side:ident => $body:expr) => {
        match $persona {
            Persona::Hammer($side) => $body,
            Persona::Mesi($side) => $body,
        }
    };
}

impl Persona {
    /// Issues a host Get for one host block.
    pub(crate) fn issue_get(&mut self, h: BlockAddr, kind: GetReq, ctx: &mut Ctx<'_>) {
        on_side!(self, side => side.issue_get(h, kind, ctx))
    }

    /// Issues a host Put for one host block.
    pub(crate) fn issue_put(&mut self, h: BlockAddr, put: PutReq, ctx: &mut Ctx<'_>) {
        on_side!(self, side => side.issue_put(h, put, ctx))
    }

    /// Answers a previously-surfaced [`PersonaEvent::Demand`].
    pub(crate) fn respond_demand(&mut self, h: BlockAddr, resp: DemandResponse, ctx: &mut Ctx<'_>) {
        on_side!(self, side => side.respond_demand(h, resp, ctx))
    }

    /// Handles a host message; `false` = it is of the other protocol,
    /// which the guard reports as malformed.
    pub(crate) fn handle(
        &mut self,
        msg: &Message,
        events: &mut Vec<PersonaEvent>,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        match (self, msg) {
            (Persona::Hammer(side), Message::Hammer(m)) => {
                side.handle_host(m.addr, m.kind, events, ctx)
            }
            (Persona::Mesi(side), Message::Mesi(m)) => {
                side.handle_host(m.addr, m.kind, events, ctx)
            }
            _ => return false,
        }
        true
    }

    /// Whether this persona speaks the inclusive MESI protocol.
    pub(crate) fn is_mesi(&self) -> bool {
        matches!(self, Persona::Mesi(_))
    }

    /// Open host transactions + pending demands (storage accounting).
    pub(crate) fn open_txns(&self) -> usize {
        on_side!(self, side => side.open_txns())
    }

    /// The persona's statistics, folded into the guard's report.
    pub(crate) fn stats(&self) -> &PersonaStats {
        on_side!(self, side => &side.stats)
    }

    /// The persona's machine, dense (see [`xg_sim::Component::visit_fired`]).
    pub(crate) fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        on_side!(self, side => side.machine.visit_fired(visit))
    }

    /// Folds the persona's state into a canonical digest.
    pub(crate) fn check_state(&self, out: &mut CheckDigest) {
        on_side!(self, side => side.check_state(out))
    }
}

impl Clone for Persona {
    fn clone(&self) -> Self {
        match self {
            Persona::Hammer(side) => Persona::Hammer(side.clone()),
            Persona::Mesi(side) => Persona::Mesi(side.clone()),
        }
    }

    /// Field-wise for a same-persona pair, so restoring a checkpoint keeps
    /// every table and buffer of the destination (a derived `clone_from`
    /// would free and reallocate them per checker expansion).
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Persona::Hammer(dst), Persona::Hammer(src)) => dst.clone_from(src),
            (Persona::Mesi(dst), Persona::Mesi(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}
