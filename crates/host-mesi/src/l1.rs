//! The MESI private L1 cache controller: the network side of an
//! [`xg_proto::host_l1::HostL1`], which serves the core and keeps the array
//! and the open records for it. Of the matrix below the shell runs the
//! `Load`, `Store` and `Repl` columns — asking this module which request
//! opens a Get, what an eviction sends, and for the copy `SM_AD` still
//! reads from — and everything else is handled here.
//!
//! ## Transition matrix
//!
//! Stable: `M E S I`. Transients: `IS_D` (read miss, waiting data; with an
//! `ISI` flavor when an invalidation overtakes the grant), `IM_AD` (write
//! miss, waiting data + acks), `IM_A` (data arrived, still counting acks),
//! `SM_AD` (upgrade in flight, shared copy retained), `WB` (writeback
//! pending), `WB_I` (writeback pending, copy already surrendered to a
//! racing request), `WB_N` (writeback nacked before the demand that
//! explains the nack arrived; the data is held to serve that demand).
//!
//! | state | Load | Store | Repl | Inv | FwdGetS | FwdGetM | Recall | grant/acks | WbAck | WbNack |
//! |-------|------|-------|------|-----|---------|---------|--------|------------|-------|--------|
//! | M     | hit  | hit   | PutM/WB | ack (stale) | data+OwnerWb → S | data → I | data → I | — | — | — |
//! | E     | hit  | hit→M | PutE/WB | ack (stale) | data+OwnerWb → S | data → I | data → I | — | — | — |
//! | S     | hit  | GetM/SM_AD | PutS/WB | ack → I | — | — | — | — | — | — |
//! | I     | GetS/IS_D | GetM/IM_AD | — | ack | — | — | — | — | — | — |
//! | IS_D  | queue | queue | — | ack, poison | — | — | — | data → use once, I (if poisoned) else S/E | — | — |
//! | IM_AD | queue | queue | — | ack (stale) | defer | defer | defer | collect → M (+serve deferred) | — | — |
//! | IM_A  | queue | queue | — | ack (stale) | defer | defer | defer | acks → M | — | — |
//! | SM_AD | hit  | queue | — | ack, drop copy → IM_AD | — | — | — | collect → M | — | — |
//! | WB    | queue | queue | — | ack → WB_I (PutS) | data+OwnerWb, Put demotes to PutS | data → WB_I | data → WB_I | — | → I | sink → I |
//! | WB_I  | queue | queue | — | ack | — | — | — | — | → I† | → I |
//! | WB_N  | queue | queue | — | ack → I (PutS) | data+OwnerWb, Put demotes to PutS | data → I | data → I | — | → I† | stays |
//!
//! † Impossible among trusted controllers (the L2 nacks a Put whose copy
//! it already took back); the L1 completes the writeback all the same.
//!
//! "defer" queues the forward until the write completes — the requestor is
//! already the owner from the L2's point of view before it has data, a
//! textbook MESI race that the accelerator protocols behind Crossing Guard
//! never see.

use xg_fsm::Parked;
use xg_mem::{BlockAddr, DataBlock, Replacement, SetAssocCache, Spares};
use xg_proto::host_l1::{self, HostL1, L1Protocol};
use xg_proto::{CoreKind, CoreMsg, Ctx, MesiKind, MesiMsg, Message};
use xg_sim::{alphabet, Alphabet, CheckDigest, NodeId, Report};

/// Configuration for a [`MesiL1`].
#[derive(Debug, Clone)]
pub struct MesiL1Config {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Maximum simultaneous transactions.
    pub mshr_entries: usize,
}

impl Default for MesiL1Config {
    fn default() -> Self {
        MesiL1Config {
            sets: 64,
            ways: 8,
            mshr_entries: 16,
        }
    }
}

alphabet! {
    /// Protocol state of one block, as the module table's rows name it:
    /// the state coverage is keyed by and [`MesiL1::probe_state`] reports.
    pub enum CState {
        M,
        E,
        S,
        I,
        IsD = "IS_D",
        ImAd = "IM_AD",
        ImA = "IM_A",
        SmAd = "SM_AD",
        Wb = "WB",
        WbI = "WB_I",
        WbN = "WB_N",
    }
}

alphabet! {
    /// The module table's columns.
    pub enum CEvent {
        Load,
        Store,
        Repl,
        DataS,
        DataE,
        DataM,
        FwdData,
        InvAck,
        Inv,
        FwdGetS,
        FwdGetM,
        Recall,
        WbAck,
        WbNack,
    }
}

/// Stable states of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1State {
    M,
    E,
    S,
}

impl From<L1State> for CState {
    fn from(state: L1State) -> CState {
        match state {
            L1State::M => CState::M,
            L1State::E => CState::E,
            L1State::S => CState::S,
        }
    }
}

type Line = host_l1::Line<L1State>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GetKind {
    S,
    M,
}

/// A forward that arrived while our own write was still completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deferred {
    FwdGetS(NodeId),
    FwdGetM(NodeId),
    Recall,
}

impl Deferred {
    fn event(self) -> CEvent {
        match self {
            Deferred::FwdGetS(_) => CEvent::FwdGetS,
            Deferred::FwdGetM(_) => CEvent::FwdGetM,
            Deferred::Recall => CEvent::Recall,
        }
    }
}

/// An open MESI transaction.
#[derive(Debug, Clone)]
pub enum Txn {
    Get(Get),
    Wb {
        /// The state the line left: which Put announced the writeback.
        kind: L1State,
        data: DataBlock,
        dirty: bool,
        invalidated: bool,
        /// A WbNack overtook the demand that explains it on the unordered
        /// network; hold the data until that demand arrives and serve it.
        nacked: bool,
    },
}

/// An open Get: what has been collected so far.
#[derive(Debug, Clone)]
pub struct Get {
    kind: GetKind,
    /// Grant received (data plus the state it grants).
    grant: Option<(DataBlock, L1State, bool)>, // (data, state, dirty)
    /// Acks still outstanding (`None` until the grant tells us).
    acks_expected: Option<u32>,
    acks_got: u32,
    /// Shared copy retained during an SM_AD upgrade.
    local: Option<DataBlock>,
    /// An invalidation hit us mid-flight (ISI): use data once, then I.
    poisoned: bool,
    deferred: Parked<Deferred>,
}

impl Get {
    /// The grant is in and every ack it announced has arrived.
    fn complete(&self) -> bool {
        self.grant.is_some() && self.acks_expected.is_some_and(|acks| self.acks_got >= acks)
    }
}

/// The MESI side of a [`HostL1`]: recycled `Get::deferred` buffers and the
/// counters only this protocol has.
#[derive(Debug, Default)]
pub struct Mesi {
    spare_deferred: Spares<Parked<Deferred>>,
    isi_races: u64,
    deferred_fwds: u64,
}

xg_sim::clone_in_place!(impl[] for Mesi { spare_deferred, isi_races, deferred_fwds });

impl Mesi {
    /// Number of ISI races survived (invalidation overtook a grant).
    pub fn isi_races(&self) -> u64 {
        self.isi_races
    }
}

/// A private MESI L1 cache serving one core.
pub type MesiL1 = HostL1<Mesi>;

impl L1Protocol for Mesi {
    type Config = MesiL1Config;
    type Stable = L1State;
    type State = CState;
    type Event = CEvent;
    type Txn = Txn;

    const FAMILY: &'static str = "mesi_l1";
    const INVALID: CState = CState::I;
    const LOAD: CEvent = CEvent::Load;
    const STORE: CEvent = CEvent::Store;
    const REPL: CEvent = CEvent::Repl;

    fn build(cfg: MesiL1Config) -> (SetAssocCache<Line>, usize, Self) {
        let cache = SetAssocCache::new(cfg.sets, cfg.ways, Replacement::Lru, 0);
        (cache, cfg.mshr_entries, Mesi::default())
    }

    #[inline]
    fn txn_state(txn: &Txn) -> CState {
        match txn {
            Txn::Get(get) if get.kind == GetKind::S => CState::IsD,
            Txn::Get(get) if get.local.is_some() => CState::SmAd,
            Txn::Get(get) if get.grant.is_none() => CState::ImAd,
            Txn::Get(_) => CState::ImA,
            Txn::Wb { nacked: true, .. } => CState::WbN,
            Txn::Wb { invalidated, .. } if *invalidated => CState::WbI,
            Txn::Wb { .. } => CState::Wb,
        }
    }

    #[inline]
    fn store_hit(state: L1State) -> Option<L1State> {
        matches!(state, L1State::M | L1State::E).then_some(L1State::M)
    }

    /// One special case keeps SM_AD useful: loads still hit on the
    /// retained shared copy.
    fn readable_copy(txn: &Txn) -> Option<&DataBlock> {
        match txn {
            Txn::Get(get) => get.local.as_ref(),
            Txn::Wb { .. } => None,
        }
    }

    #[inline]
    fn open_get(&mut self, addr: BlockAddr, store: bool, copy: Option<Line>) -> (Txn, Message) {
        let (kind, req) = if store {
            (GetKind::M, MesiKind::GetM)
        } else {
            (GetKind::S, MesiKind::GetS)
        };
        let txn = Txn::Get(Get {
            kind,
            grant: None,
            acks_expected: None,
            acks_got: 0,
            local: copy.map(|copy| copy.data),
            poisoned: false,
            deferred: Parked::default(),
        });
        (txn, MesiMsg::new(addr, req).into())
    }

    #[inline]
    fn evict(&mut self, addr: BlockAddr, line: &Line) -> Option<(Txn, Message)> {
        let req = match line.state {
            L1State::S => MesiKind::PutS,
            L1State::E => MesiKind::PutE { data: line.data },
            L1State::M => MesiKind::PutM { data: line.data },
        };
        let txn = Txn::Wb {
            kind: line.state,
            data: line.data,
            dirty: line.dirty,
            invalidated: false,
            nacked: false,
        };
        Some((txn, MesiMsg::new(addr, req).into()))
    }

    #[inline]
    fn handle_net(l1: &mut MesiL1, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) -> u64 {
        let Message::Mesi(msg) = msg else {
            l1.violation("foreign protocol message");
            return u64::MAX;
        };
        let addr = msg.addr.as_u64();
        handle_mesi(l1, from, msg, ctx);
        addr
    }

    fn digest_txn(txn: &Txn, out: &mut CheckDigest) {
        match txn {
            Txn::Get(Get {
                kind,
                grant,
                acks_expected,
                acks_got,
                local,
                poisoned,
                deferred,
            }) => {
                out.write_str("get");
                out.write_str(match kind {
                    GetKind::S => "S",
                    GetKind::M => "M",
                });
                match grant {
                    Some((data, state, dirty)) => {
                        out.write_bytes(data.as_bytes());
                        out.write_str(CState::from(*state).label());
                        out.write_u64(u64::from(*dirty));
                    }
                    None => out.write_str("no-grant"),
                }
                out.write_u64(acks_expected.map_or(u64::MAX, u64::from));
                out.write_u64(u64::from(*acks_got));
                match local {
                    Some(data) => out.write_bytes(data.as_bytes()),
                    None => out.write_str("no-local"),
                }
                out.write_u64(u64::from(*poisoned));
                deferred.digest(out, |d, out| {
                    out.write_str(d.event().label());
                    if let Deferred::FwdGetS(r) | Deferred::FwdGetM(r) = d {
                        out.write_node(*r);
                    }
                });
            }
            Txn::Wb {
                kind,
                data,
                dirty,
                invalidated,
                nacked,
            } => {
                out.write_str("wb");
                out.write_str(CState::from(*kind).label());
                out.write_bytes(data.as_bytes());
                out.write_u64(u64::from(*dirty));
                out.write_u64(u64::from(*invalidated));
                out.write_u64(u64::from(*nacked));
            }
        }
    }

    fn report(&self, n: &str, out: &mut Report) {
        out.add(format_args!("{n}.isi_races"), self.isi_races);
        out.add(format_args!("{n}.deferred_fwds"), self.deferred_fwds);
    }
}

fn handle_mesi(l1: &mut MesiL1, from: NodeId, msg: MesiMsg, ctx: &mut Ctx<'_>) {
    let addr = msg.addr;
    ctx.trace(addr.as_u64(), "mesi-l1", "Recv", || {
        format!(
            "{:?} from {from} (state {})",
            msg.kind,
            l1.probe_state(addr)
        )
    });
    match msg.kind {
        MesiKind::DataS { data } => {
            grant(l1, addr, CEvent::DataS, (data, L1State::S, false), 0, ctx);
        }
        MesiKind::DataE { data } => {
            grant(l1, addr, CEvent::DataE, (data, L1State::E, false), 0, ctx);
        }
        MesiKind::DataM { data, acks } => {
            grant(
                l1,
                addr,
                CEvent::DataM,
                (data, L1State::M, false),
                acks,
                ctx,
            );
        }
        MesiKind::FwdData {
            data,
            dirty,
            exclusive,
        } => {
            let state = if exclusive { L1State::M } else { L1State::S };
            grant(l1, addr, CEvent::FwdData, (data, state, dirty), 0, ctx);
        }
        MesiKind::InvAck => {
            let Some(Txn::Get(get)) = l1.txn_for(addr, CEvent::InvAck) else {
                return l1.violation("InvAck without transaction");
            };
            get.acks_got += 1;
            if get.complete() {
                complete_get(l1, addr, CEvent::InvAck, ctx);
            }
        }
        MesiKind::Inv { requestor } => handle_inv(l1, addr, requestor, ctx),
        MesiKind::FwdGetS { requestor } => {
            handle_demand(l1, addr, Deferred::FwdGetS(requestor), false, ctx);
        }
        MesiKind::FwdGetM { requestor } => {
            handle_demand(l1, addr, Deferred::FwdGetM(requestor), false, ctx);
        }
        MesiKind::Recall => handle_demand(l1, addr, Deferred::Recall, false, ctx),
        MesiKind::WbAck => match l1.txn_for(addr, CEvent::WbAck) {
            Some(Txn::Wb { .. }) => {
                l1.wrote_back();
                close_writeback(l1, addr, ctx);
            }
            _ => l1.violation("WbAck without writeback"),
        },
        MesiKind::WbNack => match l1.txn_for(addr, CEvent::WbNack) {
            Some(Txn::Wb {
                invalidated: true, ..
            }) => close_writeback(l1, addr, ctx),
            // The Nack overtook the demand that explains it (an
            // Inv, FwdGetM, or Recall already in flight on the
            // unordered network). Hold the data in WB_N and serve
            // that demand when it lands.
            Some(Txn::Wb { nacked, .. }) => *nacked = true,
            _ => l1.violation("WbNack without writeback"),
        },
        _ => l1.violation("request kind delivered to an L1"),
    }
}

/// A data response: `grant` is the `(data, state, dirty)` it confers,
/// `acks` how many invalidation acks the requestor must still collect.
fn grant(
    l1: &mut MesiL1,
    addr: BlockAddr,
    event: CEvent,
    grant: (DataBlock, L1State, bool),
    acks: u32,
    ctx: &mut Ctx<'_>,
) {
    let Some(Txn::Get(get @ Get { grant: None, .. })) = l1.txn_for(addr, event) else {
        return l1.violation("grant without matching transaction");
    };
    get.grant = Some(grant);
    get.acks_expected = Some(acks);
    if get.complete() {
        complete_get(l1, addr, event, ctx);
    }
}

fn handle_inv(l1: &mut MesiL1, addr: BlockAddr, requestor: NodeId, ctx: &mut Ctx<'_>) {
    // Universal rule: always ack the requestor, then drop any shared
    // copy we hold. An Inv can be stale (sent at our old S copy and
    // reordered past its own epoch); acking is correct in every case.
    ctx.send(requestor, MesiMsg::new(addr, MesiKind::InvAck).into());
    if let Some(line) = l1.cache.lookup(addr) {
        let state = line.get().state;
        l1.seen.visit(state.into(), CEvent::Inv);
        if state == L1State::S {
            line.remove();
        }
        return;
    }
    let Some(open) = l1.mshr.get_mut(&addr) else {
        return l1.seen.visit(CState::I, CEvent::Inv);
    };
    l1.seen.visit(Mesi::txn_state(&open.txn), CEvent::Inv);
    match &mut open.txn {
        Txn::Get(Get {
            kind: GetKind::S,
            poisoned,
            ..
        }) => {
            // ISI: the grant in flight is already stale.
            *poisoned = true;
            l1.proto.isi_races += 1;
        }
        Txn::Get(Get { local, .. }) if local.is_some() => {
            // SM_AD loses its shared copy → IM_AD.
            *local = None;
            l1.proto.isi_races += 1;
        }
        Txn::Wb {
            kind: L1State::S,
            invalidated,
            nacked,
            ..
        } => {
            if *nacked {
                // The explaining demand arrived; the transaction is
                // fully resolved.
                close_writeback(l1, addr, ctx);
            } else {
                *invalidated = true;
            }
        }
        _ => {}
    }
}

/// FwdGetS / FwdGetM / Recall: demands that only an owner receives.
/// `replayed` marks a demand deferred behind our own write and served
/// now that it completed; its arrival was already recorded.
fn handle_demand(
    l1: &mut MesiL1,
    addr: BlockAddr,
    demand: Deferred,
    replayed: bool,
    ctx: &mut Ctx<'_>,
) {
    let l2 = l1.home(addr);
    let recall_data = |data, dirty| MesiMsg::new(addr, MesiKind::RecallData { data, dirty }).into();
    // What an owner holding `(data, dirty)` sends to serve the demand.
    let serve = |ctx: &mut Ctx<'_>, data, dirty| {
        let (requestor, exclusive) = match demand {
            Deferred::FwdGetS(requestor) => (requestor, false),
            Deferred::FwdGetM(requestor) => (requestor, true),
            Deferred::Recall => return ctx.send(l2, recall_data(data, dirty)),
        };
        let kind = MesiKind::FwdData {
            data,
            dirty,
            exclusive,
        };
        ctx.send(requestor, MesiMsg::new(addr, kind).into());
        if !exclusive {
            let kind = MesiKind::OwnerWb { data, dirty };
            ctx.send(l2, MesiMsg::new(addr, kind).into());
        }
    };
    let read = matches!(demand, Deferred::FwdGetS(_));
    let mut cover = |state: CState| {
        if !replayed {
            l1.seen.visit(state, demand.event());
        }
    };

    if let Some(mut line) = l1.cache.lookup(addr) {
        let Line { state, dirty, data } = *line.get();
        cover(state.into());
        if state == L1State::S {
            l1.violation("owner demand while in S");
            return;
        }
        serve(ctx, data, dirty);
        if read {
            // Serving a read is a use of the line.
            line.touch();
            let line = line.get_mut();
            line.state = L1State::S;
            line.dirty = false;
        } else {
            line.remove();
        }
        return;
    }
    let open = l1.mshr.get_mut(&addr);
    cover(
        open.as_ref()
            .map_or(CState::I, |open| Mesi::txn_state(&open.txn)),
    );
    match open.map(|open| &mut open.txn) {
        Some(Txn::Get(get)) => {
            // We are the owner-to-be but have no data yet: defer.
            l1.proto.deferred_fwds += 1;
            get.deferred.park(demand, &mut l1.proto.spare_deferred);
        }
        Some(Txn::Wb {
            kind: kind @ (L1State::E | L1State::M),
            data,
            dirty,
            invalidated: invalidated @ false,
            nacked,
        }) => {
            serve(ctx, *data, *dirty);
            if read {
                // Our in-flight Put demotes to a PutS at the L2 (it will
                // see a non-owner sharer). Record the demotion so a later
                // Inv treats the writeback as a shared-copy eviction.
                *kind = L1State::S;
                return;
            }
            *invalidated = true;
            if *nacked {
                // This demand explains the earlier Nack; all done.
                close_writeback(l1, addr, ctx);
            }
        }
        _ => {
            // Nothing held: only reachable with a misbehaving peer.
            l1.violation("owner demand without a copy");
            if let Deferred::Recall = demand {
                ctx.send(l2, recall_data(DataBlock::zeroed(), false));
            }
        }
    }
}

/// Closes a finished writeback and re-handles the ops parked behind it.
fn close_writeback(l1: &mut MesiL1, addr: BlockAddr, ctx: &mut Ctx<'_>) {
    if let Some(open) = l1.mshr.close(addr) {
        l1.release(open.queue, ctx);
    }
}

/// Closes a Get whose grant and acks are all in. `event` is the response
/// that completed it.
fn complete_get(l1: &mut MesiL1, addr: BlockAddr, event: CEvent, ctx: &mut Ctx<'_>) {
    let Some((before, Txn::Get(get), mut waiting)) = l1.close_get(addr, ctx) else {
        return l1.violation("completing Get changed underfoot");
    };
    let Some((data, state, dirty)) = get.grant else {
        return l1.violation("completing Get changed underfoot");
    };

    if get.poisoned {
        // ISI: satisfy the loads that were already waiting with the
        // granted (coherent-at-grant-time) data, then drop the block.
        MesiL1::trace_change(ctx, addr, (before, event, CState::I), Some(&data));
        let load = |(_, msg): &(NodeId, CoreMsg)| matches!(msg.kind, CoreKind::Load);
        while let Some((from, msg)) = waiting.pop_first(l1.mshr.spares(), load) {
            let value = data.read_u64(msg.addr.block_offset() & !7);
            ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
        }
        l1.release(waiting, ctx);
        return;
    }

    l1.install_line(addr, Line { state, dirty, data }, (before, event), ctx);
    // Serve demands that raced ahead of our own completion.
    let mut deferred = get.deferred;
    while let Some(demand) = deferred.pop_first(&mut l1.proto.spare_deferred, |_| true) {
        handle_demand(l1, addr, demand, true, ctx);
    }
    l1.release(waiting, ctx);
}
