//! The MESI-protocol persona: Crossing Guard as a private L1.
//!
//! Absorbs the inclusive protocol's requestor-side ack counting (the L2
//! names a number of sharers; their `InvAck`s arrive directly from sibling
//! caches), owner forwarding, recalls, and the writeback/forward races —
//! none of which cross the standardized interface to the accelerator.
//!
//! The host-facing dispatch is table-driven (see [`table`]): per-block
//! transaction state abstracts to a [`PState`], and each wire message
//! refines to a [`PEvent`] — an `Inv` hitting our racing `PutS` is a
//! different event from one aimed at a live shared copy, and an owner
//! demand served from a pending writeback is distinct from one that must
//! cross to the accelerator. The `xg-fsm` table decides legality; the
//! symbolic [`PAction`]s move the data.

use xg_fsm::{alphabet, Table, TableBuilder};
use xg_mem::{BlockAddr, DataBlock};
use xg_proto::{Ctx, MesiKind, MesiMsg, Message};
use xg_sim::{CheckDigest, Cycle};

use crate::persona::{
    Cx, DemandKind, DemandResponse, GetReq, GrantState, HostSide, PersonaEvent, Protocol, PutReq,
    Requestor,
};

alphabet! {
    /// Abstract per-block transaction state of the MESI persona.
    pub enum PState {
        /// No host transaction open for the block.
        Idle,
        /// A Get awaiting its grant.
        Get,
        /// Grant received, still collecting invalidation acks.
        GetAcks = "Get_Acks",
        /// A `PutS` awaiting its ack, copy still live.
        PutShared = "Put_Shared",
        /// An owner Put (`PutE`/`PutM`) awaiting its ack, copy still live.
        PutOwned = "Put_Owned",
        /// A Put whose copy a demand already consumed.
        PutInvd = "Put_Invd",
    }
}

alphabet! {
    /// Classified host stimulus: wire kind refined by the open transaction
    /// and demand bookkeeping.
    pub enum PEvent {
        DataS,
        DataE,
        DataM,
        /// `FwdData { exclusive: false }` from a sibling owner.
        FwdDataS = "FwdData_S",
        /// `FwdData { exclusive: true }` from a sibling owner.
        FwdDataM = "FwdData_M",
        /// An `InvAck` counting toward our own `DataM { acks }` debt.
        AckIn,
        /// `Inv` aimed at a (possible) live copy; crosses to the guard.
        Inv,
        /// `Inv` racing our `PutS`.
        InvPutS = "Inv_PutS",
        /// Stale `Inv` at an owner-putter.
        InvPutOwned = "Inv_PutOwned",
        /// `Inv` while a demand is already open: desync, acked safely.
        InvDesync,
        /// `FwdGetS` that must cross to the guard.
        OwnerRead,
        /// `FwdGetM` that must cross to the guard.
        OwnerWrite,
        /// `Recall` that must cross to the guard.
        OwnerRecall,
        /// `FwdGetS` served from our pending owner writeback.
        OwnerReadPut = "OwnerRead_Put",
        /// `FwdGetM` served from our pending owner writeback.
        OwnerWritePut = "OwnerWrite_Put",
        /// `Recall` served from our pending owner writeback.
        OwnerRecallPut = "OwnerRecall_Put",
        /// An owner demand while another demand is already open: desync.
        OwnerDesync,
        WbAck,
        WbNack,
        /// A message kind the persona never receives.
        Stray,
    }
}

alphabet! {
    /// Symbolic persona actions.
    pub enum PAction {
        /// Record the grant payload and the announced ack debt.
        RecordGrant,
        /// Count one invalidation ack.
        RecordAck,
        /// Complete the Get if grant + all acks are in.
        TryComplete,
        /// Record a demand and surface it to the guard.
        OpenDemand,
        /// Park an owner demand that raced ahead of our own grant.
        DeferDemand,
        /// Ack the `Inv` racing our `PutS`; finish the Put if its nack
        /// already overtook us.
        AckInvalidatePut,
        /// Ack a stale `Inv` at an owner-putter.
        AckStaleInv,
        /// Serve a read from the pending writeback; we demote to a sharer.
        ServeReadFromPut,
        /// Surrender the pending writeback's data to a writer.
        ServeWriteFromPut,
        /// Surrender the pending writeback's data to a recall.
        ServeRecallFromPut,
        /// The Put's ack (or explained nack) arrived: finish it.
        CompletePut,
        /// A nack overtook its explaining demand; hold until it lands.
        MarkNacked,
    }
}

/// The validated `mesi_persona` transition table.
pub fn table() -> &'static Table<PState, PEvent, PAction> {
    static T: std::sync::OnceLock<Table<PState, PEvent, PAction>> = std::sync::OnceLock::new();
    T.get_or_init(|| {
        use PAction::*;
        use PEvent::*;
        use PState::*;
        let mut b = TableBuilder::new("mesi_persona");
        for e in [DataS, DataE, DataM, FwdDataS, FwdDataM] {
            b.on_dyn(Get, e, &[RecordGrant, TryComplete]);
        }
        // Acks may race ahead of the grant that announces their count.
        b.on_dyn(Get, AckIn, &[RecordAck, TryComplete]);
        b.on_dyn(GetAcks, AckIn, &[RecordAck, TryComplete]);
        for s in [Idle, Get, GetAcks] {
            b.on(s, Inv, &[OpenDemand], s);
        }
        b.on_dyn(PutShared, InvPutS, &[AckInvalidatePut]);
        b.on_dyn(PutInvd, InvPutS, &[AckInvalidatePut]);
        b.on(PutOwned, InvPutOwned, &[AckStaleInv], PutOwned);
        b.on(PutInvd, InvPutOwned, &[AckStaleInv], PutInvd);
        // Owner demands racing ahead of our own grant wait for it (the
        // textbook IM race, invisible to the accelerator).
        for s in [Get, GetAcks] {
            for e in [OwnerRead, OwnerWrite, OwnerRecall] {
                b.on(s, e, &[DeferDemand], s);
            }
        }
        for s in [Idle, PutShared, PutInvd] {
            for e in [OwnerRead, OwnerWrite, OwnerRecall] {
                b.on(s, e, &[OpenDemand], s);
            }
        }
        b.on(PutOwned, OwnerReadPut, &[ServeReadFromPut], PutShared);
        b.on_dyn(PutOwned, OwnerWritePut, &[ServeWriteFromPut]);
        b.on_dyn(PutOwned, OwnerRecallPut, &[ServeRecallFromPut]);
        for s in [PutShared, PutOwned, PutInvd] {
            b.on(s, WbAck, &[CompletePut], Idle);
        }
        b.on(PutInvd, WbNack, &[CompletePut], Idle);
        b.on(PutShared, WbNack, &[MarkNacked], PutShared);
        b.on(PutOwned, WbNack, &[MarkNacked], PutOwned);
        b.violation_rest();
        b.build()
            .expect("mesi_persona table is deterministic and total")
    })
}

#[derive(Debug, Clone)]
pub(crate) enum Txn {
    Get {
        grant: Option<(GrantState, DataBlock, bool)>,
        acks_expected: Option<u32>,
        acks_got: u32,
        /// Owner-demands that raced ahead of our own grant.
        deferred: Vec<DemandCtx>,
        started: Cycle,
    },
    Put {
        is_s: bool,
        data: DataBlock,
        dirty: bool,
        invalidated: bool,
        /// A WbNack overtook its explaining demand; hold until it lands.
        nacked: bool,
        started: Cycle,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct DemandCtx {
    /// Who to answer: a sibling L1 for `Inv`/forwards, or `None` for a
    /// Recall (answered to the L2).
    requestor: Option<Requestor>,
    kind: DemandKind,
}

impl DemandCtx {
    /// The demand a demand-bearing message carries.
    fn of(kind: &MesiKind) -> Option<DemandCtx> {
        let (requestor, kind) = match *kind {
            MesiKind::Inv { requestor } => (Some(requestor), DemandKind::Write { to_owner: false }),
            MesiKind::FwdGetS { requestor } => {
                (Some(requestor), DemandKind::Read { to_owner: true })
            }
            MesiKind::FwdGetM { requestor } => {
                (Some(requestor), DemandKind::Write { to_owner: true })
            }
            MesiKind::Recall => (None, DemandKind::Recall),
            _ => return None,
        };
        Some(DemandCtx { requestor, kind })
    }

    fn digest(&self, out: &mut CheckDigest) {
        match self.requestor {
            Some(r) => out.write_node(r),
            None => out.write_str("l2"),
        }
        self.kind.digest(out);
    }
}

/// The inclusive MESI protocol, as the guard's host side speaks it:
/// Crossing Guard is a `HostSide<Mesi>`.
pub(crate) struct Mesi;

type PCx<'a, 'b, 'e> = Cx<'a, 'b, 'e, MesiKind>;

impl Protocol for Mesi {
    type State = PState;
    type Event = PEvent;
    type Action = PAction;
    type Kind = MesiKind;
    type Txn = Txn;
    type Demand = DemandCtx;

    const TRACE: &'static str = "mesi-persona";

    fn table() -> &'static Table<PState, PEvent, PAction> {
        table()
    }

    fn wire(addr: BlockAddr, kind: MesiKind) -> Message {
        MesiMsg::new(addr, kind).into()
    }

    fn is_put(kind: &MesiKind) -> bool {
        matches!(
            kind,
            MesiKind::PutS | MesiKind::PutE { .. } | MesiKind::PutM { .. }
        )
    }

    fn p_state(side: &HostSide<Self>, h: BlockAddr) -> PState {
        match side.txns.get(&h) {
            Some(Txn::Get { grant: None, .. }) => PState::Get,
            Some(Txn::Get { grant: Some(_), .. }) => PState::GetAcks,
            Some(Txn::Put {
                invalidated: true, ..
            }) => PState::PutInvd,
            Some(Txn::Put { is_s: true, .. }) => PState::PutShared,
            Some(Txn::Put { .. }) => PState::PutOwned,
            None => PState::Idle,
        }
    }

    /// Guards mirror the pre-table dispatch conditions exactly: racing Puts
    /// by `is_s`, desync by the demand bookkeeping, grants by their wire
    /// identity.
    fn classify(side: &HostSide<Self>, h: BlockAddr, kind: &MesiKind) -> PEvent {
        match kind {
            MesiKind::DataS { .. } => PEvent::DataS,
            MesiKind::DataE { .. } => PEvent::DataE,
            MesiKind::DataM { .. } => PEvent::DataM,
            MesiKind::FwdData { exclusive, .. } => {
                if *exclusive {
                    PEvent::FwdDataM
                } else {
                    PEvent::FwdDataS
                }
            }
            MesiKind::InvAck => PEvent::AckIn,
            MesiKind::Inv { .. } => match side.txns.get(&h) {
                Some(Txn::Put { is_s: true, .. }) => PEvent::InvPutS,
                Some(Txn::Put { .. }) => PEvent::InvPutOwned,
                _ => {
                    if side.demands.contains_key(&h) {
                        PEvent::InvDesync
                    } else {
                        PEvent::Inv
                    }
                }
            },
            MesiKind::FwdGetS { .. } | MesiKind::FwdGetM { .. } | MesiKind::Recall => {
                let put = match kind {
                    MesiKind::FwdGetS { .. } => PEvent::OwnerReadPut,
                    MesiKind::FwdGetM { .. } => PEvent::OwnerWritePut,
                    _ => PEvent::OwnerRecallPut,
                };
                let plain = match kind {
                    MesiKind::FwdGetS { .. } => PEvent::OwnerRead,
                    MesiKind::FwdGetM { .. } => PEvent::OwnerWrite,
                    _ => PEvent::OwnerRecall,
                };
                match side.txns.get(&h) {
                    Some(Txn::Put { is_s: false, .. }) => put,
                    Some(Txn::Get { .. }) => plain,
                    _ => {
                        if side.demands.contains_key(&h) {
                            PEvent::OwnerDesync
                        } else {
                            plain
                        }
                    }
                }
            }
            MesiKind::WbAck => PEvent::WbAck,
            MesiKind::WbNack => PEvent::WbNack,
            _ => PEvent::Stray,
        }
    }

    fn apply(side: &mut HostSide<Self>, action: PAction, cx: &mut PCx<'_, '_, '_>) {
        let h = cx.h;
        match action {
            PAction::RecordGrant => {
                let (state, data, dirty, acks) = match cx.kind {
                    MesiKind::DataS { data } => (GrantState::S, data, false, 0),
                    MesiKind::DataE { data } => (GrantState::E, data, false, 0),
                    MesiKind::DataM { data, acks } => (GrantState::M, data, false, acks),
                    MesiKind::FwdData {
                        data,
                        dirty,
                        exclusive,
                    } => {
                        let s = if exclusive {
                            GrantState::M
                        } else {
                            GrantState::S
                        };
                        (s, data, dirty, 0)
                    }
                    _ => {
                        side.stats.violations += 1;
                        return;
                    }
                };
                if let Some(Txn::Get {
                    grant: grant @ None,
                    acks_expected,
                    ..
                }) = side.txns.get_mut(&h)
                {
                    *grant = Some((state, data, dirty));
                    *acks_expected = Some(acks);
                } else {
                    side.stats.violations += 1;
                }
            }
            PAction::RecordAck => {
                if let Some(Txn::Get { acks_got, .. }) = side.txns.get_mut(&h) {
                    *acks_got += 1;
                }
            }
            PAction::TryComplete => side.try_complete(h, cx.events, cx.ctx),
            PAction::OpenDemand => {
                let Some(demand) = DemandCtx::of(&cx.kind) else {
                    side.stats.violations += 1;
                    return;
                };
                side.open_demand(h, demand, cx.events);
            }
            PAction::DeferDemand => {
                let Some(demand) = DemandCtx::of(&cx.kind) else {
                    side.stats.violations += 1;
                    return;
                };
                if let Some(Txn::Get { deferred, .. }) = side.txns.get_mut(&h) {
                    deferred.push(demand);
                }
            }
            PAction::AckInvalidatePut => {
                // Our PutS raced the invalidation: ack, then either await
                // the Nack or (if it already overtook us) finish now.
                let MesiKind::Inv { requestor } = cx.kind else {
                    side.stats.violations += 1;
                    return;
                };
                let mut finished = false;
                if let Some(Txn::Put {
                    invalidated,
                    nacked,
                    ..
                }) = side.txns.get_mut(&h)
                {
                    finished = *nacked;
                    *invalidated = true;
                }
                side.send(requestor, h, MesiKind::InvAck, cx.ctx);
                if finished {
                    side.finish_put(h, cx.events, cx.ctx);
                }
            }
            PAction::AckStaleInv => {
                // Inv at an owner-putter is stale; ack and carry on.
                let MesiKind::Inv { requestor } = cx.kind else {
                    side.stats.violations += 1;
                    return;
                };
                side.send(requestor, h, MesiKind::InvAck, cx.ctx);
            }
            PAction::ServeReadFromPut => {
                // Serve the read; our Put demotes to a PutS at the L2 (it
                // will see a non-owner sharer). Mark the demotion so a later
                // Inv is treated as hitting a shared-copy eviction.
                let Some(Txn::Put { data, dirty, .. }) = side.txns.get(&h) else {
                    side.stats.violations += 1;
                    return;
                };
                let (data, dirty) = (*data, *dirty);
                if let MesiKind::FwdGetS { requestor } = cx.kind {
                    side.send(
                        requestor,
                        h,
                        MesiKind::FwdData {
                            data,
                            dirty,
                            exclusive: false,
                        },
                        cx.ctx,
                    );
                }
                side.send_home(h, MesiKind::OwnerWb { data, dirty }, cx.ctx);
                if let Some(Txn::Put { is_s, .. }) = side.txns.get_mut(&h) {
                    *is_s = true;
                }
            }
            PAction::ServeWriteFromPut | PAction::ServeRecallFromPut => {
                let Some(Txn::Put {
                    data,
                    dirty,
                    nacked,
                    ..
                }) = side.txns.get(&h)
                else {
                    side.stats.violations += 1;
                    return;
                };
                let (data, dirty, was_nacked) = (*data, *dirty, *nacked);
                match (action, cx.kind) {
                    (PAction::ServeWriteFromPut, MesiKind::FwdGetM { requestor }) => side.send(
                        requestor,
                        h,
                        MesiKind::FwdData {
                            data,
                            dirty,
                            exclusive: true,
                        },
                        cx.ctx,
                    ),
                    (PAction::ServeRecallFromPut, _) => {
                        side.send_home(h, MesiKind::RecallData { data, dirty }, cx.ctx)
                    }
                    _ => {}
                }
                if was_nacked {
                    // The demand explains the earlier Nack; all done.
                    side.finish_put(h, cx.events, cx.ctx);
                } else if let Some(Txn::Put { invalidated, .. }) = side.txns.get_mut(&h) {
                    *invalidated = true;
                }
            }
            PAction::CompletePut => side.finish_put(h, cx.events, cx.ctx),
            PAction::MarkNacked => {
                if let Some(Txn::Put { nacked, .. }) = side.txns.get_mut(&h) {
                    *nacked = true;
                }
            }
        }
    }

    fn violated(side: &mut HostSide<Self>, event: PEvent, cx: &mut PCx<'_, '_, '_>) {
        if event == PEvent::InvDesync {
            // Two live demands for one block mean desync; ack so the
            // requestor's count still converges.
            if let MesiKind::Inv { requestor } = cx.kind {
                side.send(requestor, cx.h, MesiKind::InvAck, cx.ctx);
            }
        }
    }

    fn digest_txn(txn: &Txn, out: &mut CheckDigest) {
        match txn {
            Txn::Get {
                grant,
                acks_expected,
                acks_got,
                deferred,
                started: _,
            } => {
                out.write_str("get");
                match grant {
                    Some((state, data, dirty)) => {
                        out.write_u64(state.digest_tag());
                        out.write_bytes(data.as_bytes());
                        out.write_u64(u64::from(*dirty));
                    }
                    None => out.write_str("no-grant"),
                }
                out.write_u64(acks_expected.map_or(u64::MAX, u64::from));
                out.write_u64(u64::from(*acks_got));
                out.write_u64(deferred.len() as u64);
                for demand in deferred {
                    demand.digest(out);
                }
            }
            Txn::Put {
                is_s,
                data,
                dirty,
                invalidated,
                nacked,
                started: _,
            } => {
                out.write_str("put");
                out.write_u64(u64::from(*is_s));
                out.write_bytes(data.as_bytes());
                out.write_u64(u64::from(*dirty));
                out.write_u64(u64::from(*invalidated));
                out.write_u64(u64::from(*nacked));
            }
        }
    }

    fn digest_demand(demand: &DemandCtx, out: &mut CheckDigest) {
        demand.digest(out);
    }
}

impl HostSide<Mesi> {
    pub(crate) fn issue_get(&mut self, h: BlockAddr, kind: GetReq, ctx: &mut Ctx<'_>) {
        self.txns.insert(
            h,
            Txn::Get {
                grant: None,
                acks_expected: None,
                acks_got: 0,
                deferred: Vec::new(),
                started: ctx.now(),
            },
        );
        let req = match kind {
            GetReq::S => MesiKind::GetS,
            GetReq::SOnly => MesiKind::GetSOnly,
            GetReq::M => MesiKind::GetM,
        };
        self.send_home(h, req, ctx);
    }

    pub(crate) fn issue_put(&mut self, h: BlockAddr, put: PutReq, ctx: &mut Ctx<'_>) {
        let (is_s, data, dirty, req) = match put {
            PutReq::S => (true, DataBlock::zeroed(), false, MesiKind::PutS),
            PutReq::Owned { data, dirty } => {
                let req = if dirty {
                    MesiKind::PutM { data }
                } else {
                    MesiKind::PutE { data }
                };
                (false, data, dirty, req)
            }
        };
        self.txns.insert(
            h,
            Txn::Put {
                is_s,
                data,
                dirty,
                invalidated: false,
                nacked: false,
                started: ctx.now(),
            },
        );
        self.send_home(h, req, ctx);
    }

    pub(crate) fn respond_demand(&mut self, h: BlockAddr, resp: DemandResponse, ctx: &mut Ctx<'_>) {
        let Some(DemandCtx { requestor, kind }) = self.demands.remove(&h) else {
            self.stats.violations += 1;
            return;
        };
        match kind {
            DemandKind::Write { to_owner: false } => {
                // An Inv aimed at our (supposed) shared copy.
                match resp {
                    DemandResponse::NoCopy | DemandResponse::SharedCopy => {
                        if let Some(r) = requestor {
                            self.send(r, h, MesiKind::InvAck, ctx);
                        }
                    }
                    DemandResponse::Data { data, dirty, .. } => {
                        // §3.2.2: the accelerator answered an Inv with data.
                        // Forward it to the L2, whose host modification acks
                        // the requestor on our behalf.
                        self.send_home(h, MesiKind::OwnerWb { data, dirty }, ctx);
                    }
                }
            }
            DemandKind::Read { .. } | DemandKind::ReadOnly { .. } => {
                // FwdGetS while we own: requestor gets shared data, L2 gets
                // a refresh copy.
                let (data, dirty) = self.owner_data(resp);
                if let Some(r) = requestor {
                    self.send(
                        r,
                        h,
                        MesiKind::FwdData {
                            data,
                            dirty,
                            exclusive: false,
                        },
                        ctx,
                    );
                }
                self.send_home(h, MesiKind::OwnerWb { data, dirty }, ctx);
            }
            DemandKind::Write { to_owner: true } => {
                let (data, dirty) = self.owner_data(resp);
                if let Some(r) = requestor {
                    self.send(
                        r,
                        h,
                        MesiKind::FwdData {
                            data,
                            dirty,
                            exclusive: true,
                        },
                        ctx,
                    );
                }
            }
            DemandKind::Recall => {
                let (data, dirty) = match resp {
                    DemandResponse::Data { data, dirty, .. } => (data, dirty),
                    DemandResponse::SharedCopy | DemandResponse::NoCopy => {
                        (DataBlock::zeroed(), false)
                    }
                };
                self.send_home(h, MesiKind::RecallData { data, dirty }, ctx);
            }
        }
    }

    /// The data an owner demand is answered with. The guard fabricates data
    /// if the accelerator failed, so NoCopy/SharedCopy are fallbacks.
    fn owner_data(&mut self, resp: DemandResponse) -> (DataBlock, bool) {
        match resp {
            DemandResponse::Data { data, dirty, .. } => (data, dirty),
            _ => {
                self.stats.violations += 1;
                (DataBlock::zeroed(), true)
            }
        }
    }

    /// Records `demand` on `h` and surfaces it to the guard.
    fn open_demand(&mut self, h: BlockAddr, demand: DemandCtx, events: &mut Vec<PersonaEvent>) {
        let kind = demand.kind;
        self.demands.insert(h, demand);
        events.push(PersonaEvent::Demand { h, kind });
    }

    /// Finishes a Put transaction: records its round trip and tells the
    /// guard.
    fn finish_put(&mut self, h: BlockAddr, events: &mut Vec<PersonaEvent>, ctx: &mut Ctx<'_>) {
        if let Some(Txn::Put { started, .. }) = self.txns.remove(&h) {
            self.closed(h, started, ctx);
        }
        events.push(PersonaEvent::PutDone { h });
    }

    fn try_complete(&mut self, h: BlockAddr, events: &mut Vec<PersonaEvent>, ctx: &mut Ctx<'_>) {
        let ready = matches!(
            self.txns.get(&h),
            Some(Txn::Get {
                grant: Some(_),
                acks_expected: Some(n),
                acks_got,
                ..
            }) if acks_got >= n
        );
        if !ready {
            return;
        }
        let Some(Txn::Get {
            grant: Some((state, data, dirty)),
            deferred,
            started,
            ..
        }) = self.txns.remove(&h)
        else {
            // `ready` above guarantees the shape; never panic on a protocol
            // path.
            self.stats.violations += 1;
            return;
        };
        self.closed(h, started, ctx);
        events.push(PersonaEvent::Granted {
            h,
            state,
            data,
            dirty,
        });
        // Demands that raced ahead of our grant surface now; the guard will
        // see them *after* the grant event, in order.
        for demand in deferred {
            if self.demands.contains_key(&h) {
                self.stats.violations += 1;
                continue;
            }
            self.open_demand(h, demand, events);
        }
    }
}
