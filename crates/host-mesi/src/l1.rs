//! The MESI private L1 cache controller.
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

use xg_mem::{BlockAddr, DataBlock, Mshr, Replacement, SetAssocCache, Spares};
use xg_proto::{CoreKind, CoreMsg, Ctx, HomeMap, MesiKind, MesiMsg, Message};
use xg_sim::{
    alphabet, Alphabet, CheckDigest, Component, CoverageGrid, Cycle, Histogram, NodeId, Report,
};

/// Configuration for a [`MesiL1`].
#[derive(Debug, Clone)]
pub struct MesiL1Config {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Maximum simultaneous transactions.
    pub mshr_entries: usize,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Seed for random replacement.
    pub seed: u64,
}

impl Default for MesiL1Config {
    fn default() -> Self {
        MesiL1Config {
            sets: 64,
            ways: 8,
            mshr_entries: 16,
            replacement: Replacement::Lru,
            seed: 0,
        }
    }
}

alphabet! {
    /// Protocol state of one block, as the module table's rows name it:
    /// the state coverage is keyed by and [`MesiL1::probe_state`] reports.
    enum CState {
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
    enum CEvent {
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
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

#[derive(Debug, Clone, Copy)]
struct Line {
    state: L1State,
    dirty: bool,
    data: DataBlock,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GetKind {
    S,
    M,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PutKind {
    S,
    E,
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

#[derive(Debug, Clone)]
enum Txn {
    Get(Get),
    Wb {
        kind: PutKind,
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
struct Get {
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
    deferred: Vec<Deferred>,
}

impl Get {
    /// The grant is in and every ack it announced has arrived.
    fn complete(&self) -> bool {
        self.grant.is_some() && self.acks_expected.is_some_and(|acks| self.acks_got >= acks)
    }
}

/// Everything open on one block — the MSHR entry: the transaction, the
/// cycle it opened (for `lat.miss`), and the core ops parked behind it.
#[derive(Debug, Clone)]
struct Open {
    txn: Txn,
    started: Cycle,
    waiting: Vec<(NodeId, CoreMsg)>,
}

impl Txn {
    fn state(&self) -> CState {
        match self {
            Txn::Get(Get {
                kind: GetKind::S, ..
            }) => CState::IsD,
            Txn::Get(Get { local: Some(_), .. }) => CState::SmAd,
            Txn::Get(Get { grant: None, .. }) => CState::ImAd,
            Txn::Get(_) => CState::ImA,
            Txn::Wb { nacked: true, .. } => CState::WbN,
            Txn::Wb {
                invalidated: false, ..
            } => CState::Wb,
            Txn::Wb {
                invalidated: true, ..
            } => CState::WbI,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Stats {
    violation_reasons: std::collections::BTreeMap<&'static str, u64>,
    loads: u64,
    stores: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    isi_races: u64,
    deferred_fwds: u64,
    mshr_stalls: u64,
    protocol_violation: u64,
    /// Cycles a Get transaction stayed open in the MSHR.
    lat_miss: Histogram,
    /// MSHR population, sampled at each new allocation.
    mshr_occupancy: Histogram,
}

/// A private MESI L1 cache serving one core.
#[derive(Clone)]
pub struct MesiL1 {
    name: String,
    l2: HomeMap,
    cache: SetAssocCache<Line>,
    mshr: Mshr<Open>,
    /// Emptied `Open::waiting` and `Get::deferred` buffers, reused by the
    /// next transaction.
    spare_waiting: Spares<Vec<(NodeId, CoreMsg)>>,
    spare_deferred: Spares<Vec<Deferred>>,
    stats: Stats,
    /// `(state, event)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<CState, CEvent>,
}

impl MesiL1 {
    /// Creates an L1 that sends its requests to the shared L2 at `l2` (a
    /// single node, or a [`HomeMap`] of address-interleaved banks).
    pub fn new(name: impl Into<String>, l2: impl Into<HomeMap>, cfg: MesiL1Config) -> Self {
        MesiL1 {
            name: name.into(),
            l2: l2.into(),
            cache: SetAssocCache::new(cfg.sets, cfg.ways, cfg.replacement, cfg.seed),
            mshr: Mshr::new(cfg.mshr_entries),
            spare_waiting: Spares::default(),
            spare_deferred: Spares::default(),
            stats: Stats::default(),
            seen: CoverageGrid::new(),
        }
    }

    /// Number of impossible events observed (zero among trusted parts).
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// Number of ISI races survived (invalidation overtook a grant).
    pub fn isi_races(&self) -> u64 {
        self.stats.isi_races
    }

    /// Protocol state name of `addr` — stable (`"M"`, `"E"`, `"S"`, `"I"`)
    /// or transient (`"IS_D"`, `"IM_AD"`, `"WB"`, ...). Read by the
    /// `xg-check` small-model checker at quiescent points for Guarantee 0
    /// cross-checks.
    pub fn probe_state(&self, addr: BlockAddr) -> &'static str {
        Self::state_given(&self.cache, addr, self.mshr.get(addr)).label()
    }

    /// Resident stable-line view of `addr`: `(data, dirty)`.
    pub fn probe_data(&self, addr: BlockAddr) -> Option<(DataBlock, bool)> {
        self.cache.get(addr).map(|l| (l.data, l.dirty))
    }

    /// State of `addr` given its MSHR record, if it has one. A block is
    /// never both resident and in flight, so handlers name the state from
    /// whichever of the two lookups they make anyway; the tag scan here is
    /// for a response that found no transaction to land on.
    fn state_given(cache: &SetAssocCache<Line>, addr: BlockAddr, open: Option<&Open>) -> CState {
        match open {
            Some(open) => open.txn.state(),
            None => cache.get(addr).map_or(CState::I, |line| line.state.into()),
        }
    }

    /// The transaction a response to `addr` lands on, recording `event`
    /// against the block's state from that one lookup.
    fn txn_for(&mut self, addr: BlockAddr, event: CEvent) -> Option<&mut Txn> {
        let open = self.mshr.get_mut(addr);
        let state = Self::state_given(&self.cache, addr, open.as_deref());
        self.seen.visit(state, event);
        open.map(|open| &mut open.txn)
    }

    fn violation(&mut self, why: &'static str) {
        self.stats.protocol_violation += 1;
        *self.stats.violation_reasons.entry(why).or_insert(0) += 1;
    }

    // ----- core side -------------------------------------------------------

    fn handle_core(&mut self, from: NodeId, msg: CoreMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr.block();
        let offset = msg.addr.block_offset() & !7;
        let (event, store) = match msg.kind {
            CoreKind::Load => {
                self.stats.loads += 1;
                (CEvent::Load, None)
            }
            CoreKind::Store { value } => {
                self.stats.stores += 1;
                (CEvent::Store, Some(value))
            }
            CoreKind::Flush => {
                // Hardware coherence makes flushes unnecessary on the host
                // side; acknowledge immediately.
                ctx.send(from, msg.reply(CoreKind::FlushResp).into());
                return;
            }
            _ => {
                self.violation("core sent a response kind");
                return;
            }
        };

        // A block is resident or in flight, never both: a hit needs the
        // tag scan alone, and only a miss goes on to probe the MSHR.
        let Some(mut line) = self.cache.lookup(addr) else {
            if let Some(open) = self.mshr.get_mut(addr) {
                self.seen.visit(open.txn.state(), event);
                // One special case keeps SM_AD useful: loads still hit on
                // the retained shared copy.
                if let (None, Txn::Get(Get { local: Some(d), .. })) = (store, &open.txn) {
                    let value = d.read_u64(offset);
                    ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
                    return;
                }
                open.waiting.push((from, msg));
                return;
            }
            self.seen.visit(CState::I, event);
            self.stats.misses += 1;
            let kind = if store.is_some() {
                GetKind::M
            } else {
                GetKind::S
            };
            return self.start_get(kind, addr, None, (from, msg), ctx);
        };
        debug_assert!(self.mshr.get(addr).is_none(), "resident and in flight");
        let state = line.get().state;
        self.seen.visit(state.into(), event);
        match store {
            None => {
                self.stats.hits += 1;
                line.touch();
                let value = line.get().data.read_u64(offset);
                ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
            }
            Some(value) if matches!(state, L1State::M | L1State::E) => {
                self.stats.hits += 1;
                line.touch();
                let line = line.get_mut();
                line.data.write_u64(offset, value);
                line.dirty = true;
                line.state = L1State::M;
                ctx.send(from, msg.reply(CoreKind::StoreResp).into());
            }
            Some(_) => {
                // An upgrade from S: the shared copy rides along in the
                // transaction.
                self.stats.misses += 1;
                let local = Some(line.remove().data);
                self.start_get(GetKind::M, addr, local, (from, msg), ctx);
            }
        }
    }

    fn start_get(
        &mut self,
        kind: GetKind,
        addr: BlockAddr,
        local: Option<DataBlock>,
        op: (NodeId, CoreMsg),
        ctx: &mut Ctx<'_>,
    ) {
        if self.mshr.len() >= self.mshr.capacity() {
            self.stats.mshr_stalls += 1;
            if let Some(data) = local {
                self.cache.insert(
                    addr,
                    Line {
                        state: L1State::S,
                        dirty: false,
                        data,
                    },
                );
            }
            let (from, msg) = op;
            ctx.redeliver(from, msg.into(), 8);
            return;
        }
        let mut waiting = self.spare_waiting.take();
        waiting.push(op);
        let open = Open {
            txn: Txn::Get(Get {
                kind,
                grant: None,
                acks_expected: None,
                acks_got: 0,
                local,
                poisoned: false,
                deferred: self.spare_deferred.take(),
            }),
            started: ctx.now(),
            waiting,
        };
        self.mshr.alloc(addr, open).expect("capacity checked");
        self.stats.mshr_occupancy.record(self.mshr.len() as u64);
        let req = match kind {
            GetKind::S => MesiKind::GetS,
            GetKind::M => MesiKind::GetM,
        };
        ctx.send(self.l2.for_block(addr), MesiMsg::new(addr, req).into());
    }

    // ----- network side ----------------------------------------------------

    fn handle_mesi(&mut self, from: NodeId, msg: MesiMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        ctx.trace(addr.as_u64(), "mesi-l1", "Recv", || {
            format!(
                "{:?} from {from} (state {})",
                msg.kind,
                self.probe_state(addr)
            )
        });
        match msg.kind {
            MesiKind::DataS { data } => {
                self.grant(addr, CEvent::DataS, (data, L1State::S, false), 0, ctx);
            }
            MesiKind::DataE { data } => {
                self.grant(addr, CEvent::DataE, (data, L1State::E, false), 0, ctx);
            }
            MesiKind::DataM { data, acks } => {
                self.grant(addr, CEvent::DataM, (data, L1State::M, false), acks, ctx);
            }
            MesiKind::FwdData {
                data,
                dirty,
                exclusive,
            } => {
                let state = if exclusive { L1State::M } else { L1State::S };
                self.grant(addr, CEvent::FwdData, (data, state, dirty), 0, ctx);
            }
            MesiKind::InvAck => {
                let Some(Txn::Get(get)) = self.txn_for(addr, CEvent::InvAck) else {
                    return self.violation("InvAck without transaction");
                };
                get.acks_got += 1;
                if get.complete() {
                    self.complete_get(addr, ctx);
                }
            }
            MesiKind::Inv { requestor } => {
                self.handle_inv(addr, requestor, ctx);
            }
            MesiKind::FwdGetS { requestor } => {
                self.handle_demand(addr, Deferred::FwdGetS(requestor), false, ctx);
            }
            MesiKind::FwdGetM { requestor } => {
                self.handle_demand(addr, Deferred::FwdGetM(requestor), false, ctx);
            }
            MesiKind::Recall => {
                self.handle_demand(addr, Deferred::Recall, false, ctx);
            }
            MesiKind::WbAck => match self.txn_for(addr, CEvent::WbAck) {
                Some(Txn::Wb { .. }) => {
                    self.stats.writebacks += 1;
                    self.close_writeback(addr, ctx);
                }
                _ => self.violation("WbAck without writeback"),
            },
            MesiKind::WbNack => match self.txn_for(addr, CEvent::WbNack) {
                Some(Txn::Wb {
                    invalidated: true, ..
                }) => self.close_writeback(addr, ctx),
                // The Nack overtook the demand that explains it (an
                // Inv, FwdGetM, or Recall already in flight on the
                // unordered network). Hold the data in WB_N and serve
                // that demand when it lands.
                Some(Txn::Wb { nacked, .. }) => *nacked = true,
                _ => self.violation("WbNack without writeback"),
            },
            _ => self.violation("request kind delivered to an L1"),
        }
    }

    /// A data response: `grant` is the `(data, state, dirty)` it confers,
    /// `acks` how many invalidation acks the requestor must still collect.
    fn grant(
        &mut self,
        addr: BlockAddr,
        event: CEvent,
        grant: (DataBlock, L1State, bool),
        acks: u32,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(Txn::Get(get @ Get { grant: None, .. })) = self.txn_for(addr, event) else {
            return self.violation("grant without matching transaction");
        };
        get.grant = Some(grant);
        get.acks_expected = Some(acks);
        if get.complete() {
            self.complete_get(addr, ctx);
        }
    }

    fn handle_inv(&mut self, addr: BlockAddr, requestor: NodeId, ctx: &mut Ctx<'_>) {
        // Universal rule: always ack the requestor, then drop any shared
        // copy we hold. An Inv can be stale (sent at our old S copy and
        // reordered past its own epoch); acking is correct in every case.
        ctx.send(requestor, MesiMsg::new(addr, MesiKind::InvAck).into());
        if let Some(line) = self.cache.lookup(addr) {
            let state = line.get().state;
            self.seen.visit(state.into(), CEvent::Inv);
            if state == L1State::S {
                line.remove();
            }
            return;
        }
        let Some(open) = self.mshr.get_mut(addr) else {
            return self.seen.visit(CState::I, CEvent::Inv);
        };
        self.seen.visit(open.txn.state(), CEvent::Inv);
        match &mut open.txn {
            Txn::Get(Get {
                kind: GetKind::S,
                poisoned,
                ..
            }) => {
                // ISI: the grant in flight is already stale.
                *poisoned = true;
                self.stats.isi_races += 1;
            }
            Txn::Get(Get { local, .. }) if local.is_some() => {
                // SM_AD loses its shared copy → IM_AD.
                *local = None;
                self.stats.isi_races += 1;
            }
            Txn::Wb {
                kind: PutKind::S,
                invalidated,
                nacked,
                ..
            } => {
                if *nacked {
                    // The explaining demand arrived; the transaction is
                    // fully resolved.
                    self.close_writeback(addr, ctx);
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
        &mut self,
        addr: BlockAddr,
        demand: Deferred,
        replayed: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let l2 = self.l2.for_block(addr);
        let fwd_data = |data, dirty, exclusive| {
            let kind = MesiKind::FwdData {
                data,
                dirty,
                exclusive,
            };
            MesiMsg::new(addr, kind).into()
        };
        let owner_wb = |data, dirty| MesiMsg::new(addr, MesiKind::OwnerWb { data, dirty }).into();
        let recall_data =
            |data, dirty| MesiMsg::new(addr, MesiKind::RecallData { data, dirty }).into();
        let mut cover = |state: CState| {
            if !replayed {
                self.seen.visit(state, demand.event());
            }
        };

        if let Some(mut line) = self.cache.lookup(addr) {
            let Line { state, dirty, data } = *line.get();
            cover(state.into());
            if state == L1State::S {
                self.violation("owner demand while in S");
                return;
            }
            match demand {
                Deferred::FwdGetS(requestor) => {
                    ctx.send(requestor, fwd_data(data, dirty, false));
                    ctx.send(l2, owner_wb(data, dirty));
                    // Serving a read is a use of the line.
                    line.touch();
                    let line = line.get_mut();
                    line.state = L1State::S;
                    line.dirty = false;
                }
                Deferred::FwdGetM(requestor) => {
                    ctx.send(requestor, fwd_data(data, dirty, true));
                    line.remove();
                }
                Deferred::Recall => {
                    ctx.send(l2, recall_data(data, dirty));
                    line.remove();
                }
            }
            return;
        }
        let open = self.mshr.get_mut(addr);
        cover(open.as_ref().map_or(CState::I, |open| open.txn.state()));
        match open.map(|open| &mut open.txn) {
            Some(Txn::Get(get)) => {
                // We are the owner-to-be but have no data yet: defer.
                self.stats.deferred_fwds += 1;
                get.deferred.push(demand);
            }
            Some(Txn::Wb {
                kind: kind @ (PutKind::E | PutKind::M),
                data,
                dirty,
                invalidated: invalidated @ false,
                nacked,
            }) => {
                let (data, dirty) = (*data, *dirty);
                match demand {
                    Deferred::FwdGetS(requestor) => {
                        // Serve the read; our in-flight Put demotes to a
                        // PutS at the L2 (it will see a non-owner sharer).
                        // Record the demotion so a later Inv treats the
                        // writeback as a shared-copy eviction.
                        ctx.send(requestor, fwd_data(data, dirty, false));
                        ctx.send(l2, owner_wb(data, dirty));
                        *kind = PutKind::S;
                        return;
                    }
                    Deferred::FwdGetM(requestor) => {
                        ctx.send(requestor, fwd_data(data, dirty, true));
                    }
                    Deferred::Recall => ctx.send(l2, recall_data(data, dirty)),
                }
                *invalidated = true;
                if *nacked {
                    // This demand explains the earlier Nack; all done.
                    self.close_writeback(addr, ctx);
                }
            }
            _ => {
                // Nothing held: only reachable with a misbehaving peer.
                self.violation("owner demand without a copy");
                if let Deferred::Recall = demand {
                    ctx.send(l2, recall_data(DataBlock::zeroed(), false));
                }
            }
        }
    }

    /// Closes a finished writeback and re-handles the ops parked behind it.
    fn close_writeback(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        if let Some(open) = self.mshr.remove(addr) {
            self.drain_waiting(open.waiting, ctx);
        }
    }

    /// Closes a Get whose grant and acks are all in.
    fn complete_get(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        let Some(Open {
            txn:
                Txn::Get(Get {
                    grant: Some((data, state, dirty)),
                    poisoned,
                    mut deferred,
                    ..
                }),
            started,
            mut waiting,
        }) = self.mshr.remove(addr)
        else {
            return self.violation("completing Get changed underfoot");
        };
        self.stats
            .lat_miss
            .record(ctx.now().saturating_since(started));
        ctx.span(addr.as_u64(), "miss", started);

        if poisoned {
            // ISI: satisfy the loads that were already waiting with the
            // granted (coherent-at-grant-time) data, then drop the block.
            waiting.retain(|&(from, msg)| {
                let CoreKind::Load = msg.kind else {
                    return true;
                };
                let value = data.read_u64(msg.addr.block_offset() & !7);
                ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
                false
            });
            ctx.note_progress();
            self.drain_waiting(waiting, ctx);
            return;
        }

        self.install_line(addr, Line { state, dirty, data }, ctx);
        ctx.note_progress();
        // Serve demands that raced ahead of our own completion.
        for demand in deferred.drain(..) {
            self.handle_demand(addr, demand, true, ctx);
        }
        self.spare_deferred.put(deferred);
        self.drain_waiting(waiting, ctx);
    }

    fn install_line(&mut self, addr: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        if let Some((victim_addr, victim)) = self.cache.take_victim(addr) {
            self.start_writeback(victim_addr, victim, ctx);
        }
        // Only `start_writeback`'s no-MSHR fallback refills the set, and a
        // fill always follows the close of its own Get, which freed a slot.
        if self.cache.insert(addr, line).is_some() {
            self.violation("fill evicted a line without a writeback");
        }
    }

    fn start_writeback(&mut self, addr: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        // The victim has left the array and has no transaction yet, which
        // is the state this event has always been recorded against.
        self.seen.visit(CState::I, CEvent::Repl);
        let (kind, req) = match line.state {
            L1State::S => (PutKind::S, MesiKind::PutS),
            L1State::E => (PutKind::E, MesiKind::PutE { data: line.data }),
            L1State::M => (PutKind::M, MesiKind::PutM { data: line.data }),
        };
        let open = Open {
            txn: Txn::Wb {
                kind,
                data: line.data,
                dirty: line.dirty,
                invalidated: false,
                nacked: false,
            },
            started: ctx.now(),
            waiting: self.spare_waiting.take(),
        };
        if self.mshr.alloc(addr, open).is_ok() {
            self.stats.mshr_occupancy.record(self.mshr.len() as u64);
            ctx.send(self.l2.for_block(addr), MesiMsg::new(addr, req).into());
        } else {
            self.stats.mshr_stalls += 1;
            self.cache.insert(addr, line);
        }
    }

    fn drain_waiting(&mut self, mut waiting: Vec<(NodeId, CoreMsg)>, ctx: &mut Ctx<'_>) {
        for (from, msg) in waiting.drain(..) {
            self.handle_core(from, msg, ctx);
        }
        self.spare_waiting.put(waiting);
    }
}

impl Component<Message> for MesiL1 {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let violations_before = self.stats.protocol_violation;
        let addr = match &msg {
            Message::Mesi(m) => m.addr.as_u64(),
            _ => u64::MAX,
        };
        match msg {
            Message::Core(c) => self.handle_core(from, c, ctx),
            Message::Mesi(m) => self.handle_mesi(from, m, ctx),
            _ => self.violation("foreign protocol message"),
        }
        if violations_before == 0 && self.stats.protocol_violation > 0 {
            ctx.flag_post_mortem(addr, format!("{}: first protocol violation", self.name));
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str("mesi_l1");
        let mut lines: Vec<_> = self.cache.iter().map(|(a, _)| a).collect();
        lines.sort_by_key(|a| out.addr_role(a.as_u64()));
        out.write_u64(lines.len() as u64);
        for a in lines {
            let line = self.cache.get(a).expect("iterated address is resident");
            out.write_addr(a.as_u64());
            out.write_str(CState::from(line.state).label());
            out.write_u64(u64::from(line.dirty));
            out.write_bytes(line.data.as_bytes());
        }
        let mut txns: Vec<_> = self.mshr.iter().collect();
        txns.sort_by_key(|(a, _)| out.addr_role(a.as_u64()));
        out.write_u64(txns.len() as u64);
        for (a, open) in txns {
            out.write_addr(a.as_u64());
            match &open.txn {
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
                    out.write_u64(deferred.len() as u64);
                    for d in deferred {
                        match d {
                            Deferred::FwdGetS(r) => {
                                out.write_str("FwdGetS");
                                out.write_node(*r);
                            }
                            Deferred::FwdGetM(r) => {
                                out.write_str("FwdGetM");
                                out.write_node(*r);
                            }
                            Deferred::Recall => out.write_str("Recall"),
                        }
                    }
                    out.obligation(deferred.len() as u64);
                }
                Txn::Wb {
                    kind,
                    data,
                    dirty,
                    invalidated,
                    nacked,
                } => {
                    out.write_str("wb");
                    out.write_str(match kind {
                        PutKind::S => "S",
                        PutKind::E => "E",
                        PutKind::M => "M",
                    });
                    out.write_bytes(data.as_bytes());
                    out.write_u64(u64::from(*dirty));
                    out.write_u64(u64::from(*invalidated));
                    out.write_u64(u64::from(*nacked));
                }
            }
            // `started` is a timestamp and excluded.
            out.write_u64(open.waiting.len() as u64);
            for (from, msg) in &open.waiting {
                msg.digest(*from, out);
            }
            out.obligation(open.waiting.len() as u64);
        }
        out.obligation(self.mshr.len() as u64);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format!("{n}.loads"), self.stats.loads);
        out.add(format!("{n}.stores"), self.stats.stores);
        out.add(format!("{n}.hits"), self.stats.hits);
        out.add(format!("{n}.misses"), self.stats.misses);
        out.add(format!("{n}.writebacks"), self.stats.writebacks);
        out.add(format!("{n}.isi_races"), self.stats.isi_races);
        out.add(format!("{n}.deferred_fwds"), self.stats.deferred_fwds);
        out.add(format!("{n}.mshr_stalls"), self.stats.mshr_stalls);
        out.add(
            format!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        for (why, count) in &self.stats.violation_reasons {
            out.add(format!("{n}.violation[{why}]"), *count);
        }
        out.record_grid(format!("mesi_l1/{n}"), &self.seen);
        out.record_hist(format!("{n}.lat.miss"), &self.stats.lat_miss);
        out.record_hist(format!("{n}.mshr_occupancy"), &self.stats.mshr_occupancy);
    }

    fn box_clone(&self) -> Option<Box<dyn Component<Message>>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
