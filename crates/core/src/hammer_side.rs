//! The Hammer-protocol persona: Crossing Guard as a private L1/L2.
//!
//! This module is where the broadcast protocol's complexity lands so the
//! accelerator never sees it (paper §2.4): counting peer responses against
//! the directory-announced expectation, choosing among stale memory data /
//! owner data / multiple data copies, two-phase writebacks racing against
//! forwards, and answering the forward broadcast for every transaction in
//! the system — including blocks neither the guard nor the accelerator has
//! ever touched. The rules themselves are [`xg_proto::hammer`]'s, the
//! same ones the host's own Hammer caches follow; this module maps the
//! guard's vocabulary onto them.
//!
//! The host-facing dispatch is table-driven (see [`table`]): per-block
//! transaction state abstracts to a [`PState`], each wire message refines
//! to a [`PEvent`] (a forward racing our writeback is a different event
//! than one opening a demand), and the `xg-fsm` table decides legality.

use xg_fsm::{alphabet, Table, TableBuilder};
use xg_mem::{BlockAddr, DataBlock};
use xg_proto::hammer::{self, Collect, GetKind, Grant, Held};
use xg_proto::{Ctx, HammerKind, HammerMsg, Message};
use xg_sim::{CheckDigest, Cycle, NodeId};

use crate::persona::{
    Cx, DemandKind, DemandResponse, GetReq, GrantState, HostSide, PersonaEvent, Protocol, PutReq,
    Requestor,
};

alphabet! {
    /// Abstract per-block transaction state of the Hammer persona.
    pub enum PState {
        /// No host transaction open for the block.
        Idle,
        /// A Get is collecting `MemData` + peer responses.
        Get,
        /// A two-phase Put awaiting `WbAck`, copy still live.
        PutClean = "Put_Clean",
        /// A Put whose copy a forward already consumed.
        PutInvd = "Put_Invd",
    }
}

alphabet! {
    /// Classified host stimulus. Forwards racing our own writeback and
    /// forwards colliding with a still-open demand refine to their own
    /// events; everything else keeps its wire identity.
    pub enum PEvent {
        /// `FwdGetS` (someone reads; owner may keep a copy).
        FwdRead,
        /// `FwdGetSOnly` (non-upgradable read; owner keeps a copy).
        FwdReadOnly,
        /// `FwdGetM` (someone writes; our copy must die).
        FwdWrite,
        /// Any forward while a demand for the block is already open —
        /// the directory serializes per block, so this is desync.
        FwdDesync,
        MemData,
        RespData,
        RespAck,
        WbAck,
        WbNack,
        /// A message kind the persona never receives.
        Stray,
    }
}

alphabet! {
    /// Symbolic persona actions.
    pub enum PAction {
        /// Record a demand and surface it to the guard.
        OpenDemand,
        /// Answer a forward from the pending writeback's data.
        AnswerFromWb,
        /// Answer a forward with "no copy" (writeback already consumed).
        AnswerNoCopy,
        /// Record a response: the directory's data and peer-response
        /// expectation, or a peer's data or ack.
        Record,
        /// Complete the Get if all responses are in.
        TryComplete,
        /// `WbAck` arrived: send the writeback data, finish the Put.
        CompletePutAck,
        /// `WbNack` arrived: finish the Put without data.
        CompletePutNack,
        /// A nack for a never-invalidated Put is a host desync; count it.
        NoteUnexpectedNack,
    }
}

/// The validated `hammer_persona` transition table.
pub fn table() -> &'static Table<PState, PEvent, PAction> {
    static T: std::sync::OnceLock<Table<PState, PEvent, PAction>> = std::sync::OnceLock::new();
    T.get_or_init(|| {
        use PAction::*;
        use PEvent::*;
        use PState::*;
        let mut b = TableBuilder::new("hammer_persona");
        // The broadcast reaches every cache; blocks we know nothing about
        // still get demands surfaced (answered "no copy" by the guard).
        for s in [Idle, Get] {
            for e in [FwdRead, FwdReadOnly, FwdWrite] {
                b.on(s, e, &[OpenDemand], s);
            }
        }
        // A forward racing our writeback is resolved here, from the
        // writeback data — the accelerator already gave the block up. We
        // are still the owner: a read leaves the writeback pending, and
        // only a write consumes it.
        b.on(PutClean, FwdRead, &[AnswerFromWb], PutClean);
        b.on(PutClean, FwdReadOnly, &[AnswerFromWb], PutClean);
        b.on(PutClean, FwdWrite, &[AnswerFromWb], PutInvd);
        for e in [FwdRead, FwdReadOnly, FwdWrite] {
            b.on(PutInvd, e, &[AnswerNoCopy], PutInvd);
        }
        for e in [MemData, RespData, RespAck] {
            b.on_dyn(Get, e, &[Record, TryComplete]);
        }
        b.on(PutClean, WbAck, &[CompletePutAck], Idle);
        b.on(PutInvd, WbAck, &[CompletePutAck], Idle);
        b.on(
            PutClean,
            WbNack,
            &[NoteUnexpectedNack, CompletePutNack],
            Idle,
        );
        b.on(PutInvd, WbNack, &[CompletePutNack], Idle);
        b.violation_rest();
        b.build()
            .expect("hammer_persona table is deterministic and total")
    })
}

#[derive(Debug, Clone)]
pub(crate) enum Txn {
    Get {
        kind: GetKind,
        got: Collect,
        started: Cycle,
    },
    Put {
        data: DataBlock,
        dirty: bool,
        invalidated: bool,
        started: Cycle,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct DemandCtx {
    requestor: Requestor,
}

/// The Hammer protocol, as the guard's host side speaks it: Crossing Guard
/// is a `HostSide<Hammer>`.
pub(crate) struct Hammer;

type PCx<'a, 'b, 'e> = Cx<'a, 'b, 'e, HammerKind>;

/// `(requestor, demand kind)` of a forward message.
fn fwd_parts(kind: &HammerKind) -> Option<(NodeId, DemandKind)> {
    match *kind {
        HammerKind::FwdGetS {
            requestor,
            to_owner,
        } => Some((requestor, DemandKind::Read { to_owner })),
        HammerKind::FwdGetSOnly {
            requestor,
            to_owner,
        } => Some((requestor, DemandKind::ReadOnly { to_owner })),
        HammerKind::FwdGetM {
            requestor,
            to_owner,
        } => Some((requestor, DemandKind::Write { to_owner })),
        _ => None,
    }
}

impl Protocol for Hammer {
    type State = PState;
    type Event = PEvent;
    type Action = PAction;
    type Kind = HammerKind;
    type Txn = Txn;
    type Demand = DemandCtx;

    const TRACE: &'static str = "hammer-persona";

    fn table() -> &'static Table<PState, PEvent, PAction> {
        table()
    }

    fn wire(addr: BlockAddr, kind: HammerKind) -> Message {
        HammerMsg::new(addr, kind).into()
    }

    fn is_put(kind: &HammerKind) -> bool {
        matches!(kind, HammerKind::Put | HammerKind::WbData { .. })
    }

    fn p_state(side: &HostSide<Self>, h: BlockAddr) -> PState {
        match side.txns.get(&h) {
            Some(Txn::Get { .. }) => PState::Get,
            Some(Txn::Put {
                invalidated: false, ..
            }) => PState::PutClean,
            Some(Txn::Put {
                invalidated: true, ..
            }) => PState::PutInvd,
            None => PState::Idle,
        }
    }

    fn classify(side: &HostSide<Self>, h: BlockAddr, kind: &HammerKind) -> PEvent {
        match kind {
            HammerKind::FwdGetS { .. }
            | HammerKind::FwdGetSOnly { .. }
            | HammerKind::FwdGetM { .. } => {
                // A racing Put answers the forward itself; otherwise a
                // second forward while one demand is open means desync.
                if !matches!(side.txns.get(&h), Some(Txn::Put { .. }))
                    && side.demands.contains_key(&h)
                {
                    return PEvent::FwdDesync;
                }
                match kind {
                    HammerKind::FwdGetS { .. } => PEvent::FwdRead,
                    HammerKind::FwdGetSOnly { .. } => PEvent::FwdReadOnly,
                    _ => PEvent::FwdWrite,
                }
            }
            HammerKind::MemData { .. } => PEvent::MemData,
            HammerKind::RespData { .. } => PEvent::RespData,
            HammerKind::RespAck { .. } => PEvent::RespAck,
            HammerKind::WbAck => PEvent::WbAck,
            HammerKind::WbNack => PEvent::WbNack,
            _ => PEvent::Stray,
        }
    }

    fn apply(side: &mut HostSide<Self>, action: PAction, cx: &mut PCx<'_, '_, '_>) {
        let h = cx.h;
        match action {
            PAction::OpenDemand => {
                let Some((requestor, kind)) = fwd_parts(&cx.kind) else {
                    side.stats.violations += 1;
                    return;
                };
                side.demands.insert(h, DemandCtx { requestor });
                cx.events.push(PersonaEvent::Demand { h, kind });
            }
            PAction::AnswerFromWb => {
                let Some((requestor, kind)) = fwd_parts(&cx.kind) else {
                    side.stats.violations += 1;
                    return;
                };
                let takes = matches!(kind, DemandKind::Write { .. });
                let Some(Txn::Put {
                    data,
                    dirty,
                    invalidated,
                    ..
                }) = side.txns.get_mut(&h)
                else {
                    side.stats.violations += 1;
                    return;
                };
                *invalidated = takes;
                let owned = Held::Owned {
                    data: *data,
                    dirty: *dirty,
                };
                side.send(requestor, h, hammer::answer(owned, takes), cx.ctx);
            }
            PAction::AnswerNoCopy => {
                let Some((requestor, _)) = fwd_parts(&cx.kind) else {
                    side.stats.violations += 1;
                    return;
                };
                side.send(requestor, h, hammer::answer(Held::Nothing, false), cx.ctx);
            }
            PAction::Record => {
                let Some(Txn::Get { got, .. }) = side.txns.get_mut(&h) else {
                    return;
                };
                match cx.kind {
                    HammerKind::MemData { data, peers } => got.mem_data(data, peers),
                    HammerKind::RespData {
                        data,
                        dirty,
                        owner_keeps_copy,
                    } => {
                        // Extra copies are tolerated: the best one is kept.
                        got.resp_data(data, dirty, owner_keeps_copy);
                    }
                    HammerKind::RespAck { had_copy } => got.resp_ack(had_copy),
                    _ => {}
                }
            }
            PAction::TryComplete => side.try_complete(h, cx.events, cx.ctx),
            PAction::CompletePutAck | PAction::CompletePutNack => {
                let Some(Txn::Put {
                    data,
                    dirty,
                    started,
                    ..
                }) = side.txns.remove(&h)
                else {
                    side.stats.violations += 1;
                    return;
                };
                if action == PAction::CompletePutAck {
                    side.send_home(h, HammerKind::WbData { data, dirty }, cx.ctx);
                }
                side.closed(h, started, cx.ctx);
                cx.events.push(PersonaEvent::PutDone { h });
            }
            PAction::NoteUnexpectedNack => side.stats.violations += 1,
        }
    }

    fn violated(side: &mut HostSide<Self>, event: PEvent, cx: &mut PCx<'_, '_, '_>) {
        if event == PEvent::FwdDesync {
            // Two live demands for one block mean desync; answer safely so
            // the requestor is never left hanging.
            if let Some((requestor, _)) = fwd_parts(&cx.kind) {
                side.send(
                    requestor,
                    cx.h,
                    hammer::answer(Held::Nothing, false),
                    cx.ctx,
                );
            }
        }
    }

    fn digest_txn(txn: &Txn, out: &mut CheckDigest) {
        match txn {
            Txn::Get {
                kind,
                got,
                started: _,
            } => {
                out.write_str("get");
                out.write_u64(*kind as u64);
                got.digest(out);
            }
            Txn::Put {
                data,
                dirty,
                invalidated,
                started: _,
            } => {
                out.write_str("put");
                out.write_bytes(data.as_bytes());
                out.write_u64(u64::from(*dirty));
                out.write_u64(u64::from(*invalidated));
            }
        }
    }

    fn digest_demand(demand: &DemandCtx, out: &mut CheckDigest) {
        out.write_node(demand.requestor);
    }
}

impl HostSide<Hammer> {
    pub(crate) fn issue_get(&mut self, h: BlockAddr, req: GetReq, ctx: &mut Ctx<'_>) {
        let kind = match req {
            GetReq::S => GetKind::S,
            GetReq::SOnly => GetKind::SOnly,
            GetReq::M => GetKind::M,
        };
        let got = Collect::default();
        let started = ctx.now();
        self.txns.insert(h, Txn::Get { kind, got, started });
        self.send_home(h, kind.request(), ctx);
    }

    pub(crate) fn issue_put(&mut self, h: BlockAddr, put: PutReq, ctx: &mut Ctx<'_>) {
        match put {
            PutReq::S => {
                // Hammer has no PutS; the guard should have suppressed it.
                // Complete immediately so the guard's bookkeeping settles.
                self.stats.violations += 1;
            }
            PutReq::Owned { data, dirty } => {
                self.txns.insert(
                    h,
                    Txn::Put {
                        data,
                        dirty,
                        invalidated: false,
                        started: ctx.now(),
                    },
                );
                self.send_home(h, HammerKind::Put, ctx);
            }
        }
    }

    pub(crate) fn respond_demand(&mut self, h: BlockAddr, resp: DemandResponse, ctx: &mut Ctx<'_>) {
        let Some(DemandCtx { requestor, .. }) = self.demands.remove(&h) else {
            self.stats.violations += 1;
            return;
        };
        let (held, takes) = match resp {
            DemandResponse::NoCopy => (Held::Nothing, false),
            DemandResponse::SharedCopy => (Held::Shared, false),
            DemandResponse::Data {
                data,
                dirty,
                keep_shared,
            } => (Held::Owned { data, dirty }, !keep_shared),
        };
        self.send(requestor, h, hammer::answer(held, takes), ctx);
    }

    fn try_complete(&mut self, h: BlockAddr, events: &mut Vec<PersonaEvent>, ctx: &mut Ctx<'_>) {
        let granted = match self.txns.get(&h) {
            Some(Txn::Get { kind, got, started }) => {
                hammer::grant(*kind, got, None).map(|grant| (grant, *started))
            }
            _ => None,
        };
        // Responses are still outstanding.
        let Some(((grant, dirty, data), started)) = granted else {
            return;
        };
        self.txns.remove(&h);
        self.closed(h, started, ctx);
        self.send_home(h, grant.unblock(), ctx);
        let state = match grant {
            Grant::S => GrantState::S,
            Grant::E => GrantState::E,
            Grant::M => GrantState::M,
        };
        events.push(PersonaEvent::Granted {
            h,
            state,
            data,
            dirty,
        });
    }
}
