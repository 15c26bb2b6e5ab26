//! The shared, inclusive MESI L2 with embedded directory and memory.
//!
//! Per block the L2 keeps data, a dirty bit, the exact sharer set, and the
//! owner (an L1 holding E/M). Multi-message flows serialize per block:
//!
//! * **Fetch**: miss → memory read (latency via timer) → grant. If the fill
//!   needs a way, a *recall* of an unpinned victim runs first, pulling the
//!   block back from every L1 above (inclusivity). If every way of the set
//!   is mid-transaction, the fill parks until a record closes; no timer
//!   polls for it.
//! * **FwdGetS**: owner downgrades and supplies data; the L2 stays busy
//!   until the owner's `OwnerWb` refreshes its copy.
//! * **GetM with sharers**: the L2 replies `DataM { acks }` and sends each
//!   sharer an `Inv` naming the requestor; sharers ack the requestor
//!   directly and the L2 does not block — the requestor-side counting is
//!   exactly the complexity Crossing Guard shields accelerators from.
//!
//! The §3.2.2 host modification ([`MesiL2Config::ack_data_interchange`]):
//! when an unexpected `OwnerWb` arrives from a node that was just sent an
//! `Inv` on behalf of requestor `R` (a buggy accelerator answered `Inv`
//! with data), the modified L2 acks `R` itself so `R`'s ack count still
//! converges. The unmodified baseline counts a protocol violation instead
//! (and `R` hangs — which the fuzz ablation demonstrates).
//!
//! Dispatch is table-driven (see [`table`]): each stimulus is refined into
//! an [`L2Event`] — sender identity, busy-entry match, and configuration
//! fold into the event, so e.g. an `OwnerWb` from the forwarded owner is a
//! different event than one settling an invalidation debt — and the
//! `xg-fsm` table maps `(state, event)` to transition, stall (queue), or
//! violation. Data movement lives in the symbolic [`L2Action`]s.

use xg_fsm::{
    alphabet, Alphabet, Controller, Machine, Next, Parked, Record, Records, Step, Table,
    TableBuilder,
};
use xg_mem::{BlockAddr, DataBlock, IdMap, Replacement, SetAssocCache, SortedSet, Spares};
use xg_proto::{Ctx, MesiKind, MesiMsg, Message};
use xg_sim::{
    CheckDigest, CloneComponent, Component, CoverageGrid, Cycle, FsmRows, Histogram, NodeId, Report,
};

alphabet! {
    /// Abstract per-block L2 states (stable + transient).
    pub enum L2State {
        /// Not present in the array (and no transaction in flight).
        NP = "NP",
        /// Resident, no owner, no sharers.
        Present,
        /// Resident, no owner, at least one sharer.
        Shared,
        /// Resident with an exclusive owner above.
        Owned,
        /// Memory fetch in flight.
        BusyFetch = "Busy_Fetch",
        /// Fetched data waiting for a way (victim recall running).
        BusyInstall = "Busy_Install",
        /// Waiting for the owner's `OwnerWb` after a FwdGetS.
        BusyFwdS = "Busy_FwdS",
        /// Inclusive eviction: waiting for recall responses.
        BusyRecall = "Busy_Recall",
    }
}

alphabet! {
    /// Classified stimulus: message kind refined by sender identity,
    /// busy-entry match, and configuration.
    pub enum L2Event {
        GetS,
        GetSOnly,
        /// `GetM` from anyone but the current owner.
        GetM,
        /// `GetM` from the recorded owner (redundant upgrade, §3.2.2).
        GetMOwner,
        /// Any `Put*` from the recorded owner.
        PutOwner,
        /// Any `Put*` from a recorded sharer.
        PutSharer,
        /// Any `Put*` from a node holding nothing here (nacked race).
        PutForeign,
        /// `OwnerWb` from the owner a FwdGetS is waiting on.
        OwnerWbFwd,
        /// Unsolicited `OwnerWb` explained by a `Put*`+FwdGetS demotion.
        OwnerWbDemote,
        /// Unsolicited `OwnerWb` settling an invalidation debt (§3.2.2
        /// host modification; only classified when the mod is on).
        OwnerWbDebt,
        /// `OwnerWb` with no explanation.
        OwnerWbStray,
        /// `RecallData` response to our recall.
        RecallData,
        /// `InvAck` response to our recall.
        RecallAck,
        /// Memory-fetch completion timer.
        FetchDone,
        /// Retry of a fill parked for a way, dispatched when a record
        /// closes (`MesiL2::install_parked`).
        InstallRetry,
        /// A message kind the L2 never receives.
        Stray,
    }
}

alphabet! {
    /// Wire message kinds: the events coverage is keyed by. ([`L2Event`]
    /// refines them by sender and bookkeeping for the table.)
    pub enum L2Msg {
        GetS,
        GetSOnly,
        GetM,
        PutS,
        PutE,
        PutM,
        DataS,
        DataE,
        DataM,
        WbAck,
        WbNack,
        Inv,
        FwdGetS,
        FwdGetM,
        Recall,
        InvAck,
        FwdData,
        OwnerWb,
        RecallData,
    }
}

alphabet! {
    /// Symbolic L2 actions, interpreted against concrete state.
    pub enum L2Action {
        /// Count the Get (gets/getms).
        CountGet,
        /// Miss: count the memory read, open a Fetch entry, arm the timer.
        StartFetch,
        /// Grant exclusive (`DataE`) and record the requestor as owner.
        GrantE,
        /// Grant shared (`DataS`) and add the requestor to the sharers.
        GrantS,
        /// Forward a GetS to the owner and open a FwdS entry.
        StartFwdS,
        /// Re-grant `DataM` to the existing owner (redundant GetM).
        GrantRedundantM,
        /// Forward a GetM to the old owner and record the new one.
        HandOffM,
        /// Invalidate all sharers and grant `DataM { acks }`.
        InvRoundGrantM,
        /// Count the Put.
        CountPut,
        /// Accept the owner's writeback (refresh data, clear owner, ack).
        AcceptOwnerPut,
        /// Accept a sharer's put (drop from the set, ack).
        AcceptSharerPut,
        /// Nack the put.
        NackPut,
        /// Close the FwdS entry: refresh data, demote owner to sharer.
        FinishFwdS,
        /// Refresh our copy from a demoted owner's unsolicited data.
        RefreshDemoted,
        /// §3.2.2: ack the invalidation requestor on the sender's behalf.
        AckOnBehalf,
        /// Fold one recall response in; finish the eviction at zero.
        ApplyRecallResponse,
        /// Move the completed fetch into an install-wait entry and try it.
        CompleteFetch,
        /// Re-attempt a waiting install (no-op if none is waiting).
        TryInstall,
    }
}

/// The validated `mesi_l2` transition table (shared by all instances).
pub fn table() -> &'static Table<L2State, L2Event, L2Action> {
    static T: std::sync::OnceLock<Table<L2State, L2Event, L2Action>> = std::sync::OnceLock::new();
    T.get_or_init(|| {
        use L2Action::*;
        use L2Event::*;
        use L2State::*;
        const BUSY: [L2State; 4] = [BusyFetch, BusyInstall, BusyFwdS, BusyRecall];
        let mut b = TableBuilder::new("mesi_l2");
        for e in [GetS, GetSOnly, GetM] {
            b.on(NP, e, &[CountGet, StartFetch], BusyFetch);
        }
        b.on(Present, GetS, &[CountGet, GrantE], Owned);
        b.on(Present, GetSOnly, &[CountGet, GrantS], Shared);
        b.on(Shared, GetS, &[CountGet, GrantS], Shared);
        b.on(Shared, GetSOnly, &[CountGet, GrantS], Shared);
        b.on(Owned, GetS, &[CountGet, StartFwdS], BusyFwdS);
        b.on(Owned, GetSOnly, &[CountGet, StartFwdS], BusyFwdS);
        b.on(Present, GetM, &[CountGet, InvRoundGrantM], Owned);
        b.on(Shared, GetM, &[CountGet, InvRoundGrantM], Owned);
        b.on(Owned, GetM, &[CountGet, HandOffM], Owned);
        b.on(Owned, GetMOwner, &[CountGet, GrantRedundantM], Owned);
        // The L2 serializes per block: request-shaped traffic queues behind
        // any in-flight transaction, including kinds that will turn out to
        // be violations once drained.
        for s in BUSY {
            for e in [
                GetS, GetSOnly, GetM, GetMOwner, PutOwner, PutSharer, PutForeign, Stray,
            ] {
                b.stall(s, e);
            }
        }
        for s in [NP, Present, Shared, Owned] {
            b.on(s, PutForeign, &[CountPut, NackPut], s);
        }
        b.on_dyn(Owned, PutOwner, &[CountPut, AcceptOwnerPut]);
        b.on_dyn(Shared, PutSharer, &[CountPut, AcceptSharerPut]);
        // OwnerWb and recall responses bypass the queue entirely.
        b.on_dyn(BusyFwdS, OwnerWbFwd, &[FinishFwdS]);
        b.on(Shared, OwnerWbDemote, &[RefreshDemoted], Shared);
        for s in [Present, Shared, Owned, BusyFwdS] {
            b.on(s, OwnerWbDebt, &[AckOnBehalf], s);
        }
        b.on_dyn(BusyRecall, RecallData, &[ApplyRecallResponse]);
        b.on_dyn(BusyRecall, RecallAck, &[ApplyRecallResponse]);
        b.on_dyn(BusyFetch, FetchDone, &[CompleteFetch]);
        // A retry is dispatched to parked fills only, never armed as a timer.
        b.on_dyn(BusyInstall, InstallRetry, &[TryInstall]);
        b.violation_rest();
        b.build().expect("mesi_l2 table is deterministic and total")
    })
}

/// Configuration for a [`MesiL2`].
#[derive(Debug, Clone)]
pub struct MesiL2Config {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Cycles for a memory fetch.
    pub mem_latency: u64,
    /// §3.2.2 host modification: treat data and acks as interchangeable
    /// responses to a forward, acking the requestor on the sender's behalf.
    pub ack_data_interchange: bool,
}

impl Default for MesiL2Config {
    fn default() -> Self {
        MesiL2Config {
            sets: 256,
            ways: 8,
            mem_latency: 80,
            ack_data_interchange: true,
        }
    }
}

/// Directory + data state for one resident block.
#[derive(Debug, PartialEq)]
struct L2Line {
    data: DataBlock,
    dirty: bool,
    sharers: SortedSet<NodeId>,
    owner: Option<NodeId>,
    /// Requestor of the most recent sharer-invalidation round, kept so the
    /// modified L2 can ack on behalf of a misbehaving responder (§3.2.2).
    inv_debt: Option<NodeId>,
}

xg_sim::clone_in_place!(impl[] for L2Line { data, dirty, sharers, owner, inv_debt });

impl L2Line {
    fn fresh(data: DataBlock) -> Self {
        L2Line {
            data,
            dirty: false,
            sharers: SortedSet::new(),
            owner: None,
            inv_debt: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GetKind {
    S,
    SOnly,
    M,
}

impl GetKind {
    /// The request a fetch was opened for, as message and as table event.
    fn request(self) -> (MesiKind, L2Event) {
        match self {
            GetKind::S => (MesiKind::GetS, L2Event::GetS),
            GetKind::SOnly => (MesiKind::GetSOnly, L2Event::GetSOnly),
            GetKind::M => (MesiKind::GetM, L2Event::GetM),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Busy {
    /// Memory fetch in flight for `requestor`.
    Fetch { requestor: NodeId, kind: GetKind },
    /// Fetched data waiting for a way to free up (victim recall running).
    InstallWait {
        requestor: NodeId,
        kind: GetKind,
        data: DataBlock,
    },
    /// Waiting for the owner's `OwnerWb` after a FwdGetS.
    FwdS { owner: NodeId, requestor: NodeId },
    /// Inclusive eviction: waiting for `pending` recall responses; the line
    /// has already been removed from the array into here.
    Recall { pending: u32, line: L2Line },
}

/// Everything open on one block: the transient holding it busy, the cycle
/// the episode opened (`lat.busy`; a `Fetch` and its `InstallWait` are one
/// episode) and the requests stalled behind it.
type Block = Record<Option<Busy>, (NodeId, MesiKind)>;

/// Ends `block`'s busy episode, recording how long it lasted.
fn end_busy(
    block: &mut Block,
    addr: BlockAddr,
    lat_busy: &mut Histogram,
    ctx: &mut Ctx<'_>,
) -> Option<Busy> {
    let busy = block.txn.take()?;
    lat_busy.record(ctx.now().saturating_since(block.since));
    ctx.span(addr.as_u64(), "l2_busy", block.since);
    Some(busy)
}

#[derive(Debug, Default)]
struct Stats {
    violation_reasons: std::collections::BTreeMap<&'static str, u64>,
    redundant_getms: u64,
    gets: u64,
    getms: u64,
    puts: u64,
    put_s: u64,
    nacks: u64,
    mem_reads: u64,
    mem_writes: u64,
    recalls: u64,
    fwd_gets: u64,
    inv_rounds: u64,
    mod_acks_on_behalf: u64,
    demoted_puts: u64,
    /// Fills that found every way of their set mid-transaction and parked.
    install_retries: u64,
    protocol_violation: u64,
    /// Cycles each busy (transient) entry stayed open.
    lat_busy: Histogram,
    /// Busy-table population, sampled at each new allocation.
    mshr_occupancy: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    violation_reasons,
    redundant_getms,
    gets,
    getms,
    puts,
    put_s,
    nacks,
    mem_reads,
    mem_writes,
    recalls,
    fwd_gets,
    inv_rounds,
    mod_acks_on_behalf,
    demoted_puts,
    install_retries,
    protocol_violation,
    lat_busy,
    mshr_occupancy,
});

/// Per-dispatch context for [`L2Action`] interpretation. The L2's own
/// events (`FetchDone`, `InstallRetry`) carry no message; their `kind` is
/// `None` and `from` is the L2 itself.
pub struct L2Cx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    from: NodeId,
    addr: BlockAddr,
    kind: Option<MesiKind>,
}

/// The shared inclusive L2 + directory + memory controller.
pub struct MesiL2 {
    name: String,
    cfg: MesiL2Config,
    array: SetAssocCache<L2Line>,
    /// A [`Block`] for each block busy or with requests stalled on it.
    blocks: Records<Option<Busy>, (NodeId, MesiKind)>,
    memory: IdMap<BlockAddr, DataBlock>,
    /// Blocks whose fill waits for a way (`Busy::InstallWait`).
    installs: Parked<BlockAddr>,
    spare_installs: Spares<Parked<BlockAddr>>,
    stats: Stats,
    /// `(state, message kind)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<L2State, L2Msg>,
    machine: Machine<L2State, L2Event, L2Action>,
}

xg_sim::clone_in_place!(impl[] for MesiL2 {
    name,
    cfg,
    array,
    blocks,
    memory,
    installs,
    spare_installs,
    stats,
    seen,
    machine,
});

impl MesiL2 {
    /// Creates the shared L2.
    pub fn new(name: impl Into<String>, cfg: MesiL2Config) -> Self {
        MesiL2 {
            name: name.into(),
            array: SetAssocCache::new(cfg.sets, cfg.ways, Replacement::Lru, 0),
            blocks: Records::default(),
            memory: IdMap::default(),
            cfg,
            installs: Parked::default(),
            spare_installs: Spares::default(),
            stats: Stats::default(),
            seen: CoverageGrid::new(),
            machine: Machine::new(table()),
        }
    }

    /// Pre-loads memory contents (tests / workload setup).
    pub fn write_memory(&mut self, addr: BlockAddr, data: DataBlock) {
        self.memory.insert(addr, data);
    }

    /// Reads memory contents (zero if never written).
    pub fn read_memory(&self, addr: BlockAddr) -> DataBlock {
        self.memory.get(&addr).copied().unwrap_or_default()
    }

    /// Number of impossible events observed (zero among trusted parts, and
    /// — with the host modification on — zero even with a buggy
    /// accelerator behind a Transactional Crossing Guard).
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// Times the modified L2 acked a requestor on a misbehaving responder's
    /// behalf (the §3.2.2 counter).
    pub fn acks_on_behalf(&self) -> u64 {
        self.stats.mod_acks_on_behalf
    }

    /// Data + dirty view of `addr` for invariant oracles (resident lines
    /// only).
    pub fn probe_data(&self, addr: BlockAddr) -> Option<(DataBlock, bool)> {
        self.array.get(addr).map(|l| (l.data, l.dirty))
    }

    /// Abstract state of a block given its busy transient and its line.
    fn state_given(busy: Option<&Busy>, line: Option<&L2Line>) -> L2State {
        match (busy, line) {
            (Some(Busy::Fetch { .. }), _) => L2State::BusyFetch,
            (Some(Busy::InstallWait { .. }), _) => L2State::BusyInstall,
            (Some(Busy::FwdS { .. }), _) => L2State::BusyFwdS,
            (Some(Busy::Recall { .. }), _) => L2State::BusyRecall,
            (None, Some(line)) if line.owner.is_some() => L2State::Owned,
            (None, Some(line)) if line.sharers.is_empty() => L2State::Present,
            (None, Some(_)) => L2State::Shared,
            (None, None) => L2State::NP,
        }
    }

    /// Abstract state of `addr` (timer wakes and trace lines; a message is
    /// classified by [`classify`](Self::classify)).
    fn l2_state(&self, addr: BlockAddr) -> L2State {
        let busy = self.blocks.get(&addr).and_then(|b| b.txn.as_ref());
        Self::state_given(busy, self.array.get(addr))
    }

    /// Classifies one message against its block with one record probe and
    /// one tag scan: the abstract state, and the kind refined into a table
    /// event. Guards mirror the dispatch conditions exactly: sender
    /// identity against the directory entry, busy-entry match for
    /// responses, and the §3.2.2 configuration for debt settlement.
    fn classify(&self, from: NodeId, addr: BlockAddr, kind: &MesiKind) -> (L2State, L2Event) {
        let busy = self.blocks.get(&addr).and_then(|b| b.txn.as_ref());
        let line = self.array.get(addr);
        let event = match kind {
            MesiKind::GetS => L2Event::GetS,
            MesiKind::GetSOnly => L2Event::GetSOnly,
            MesiKind::GetM => match line {
                Some(l) if l.owner == Some(from) => L2Event::GetMOwner,
                _ => L2Event::GetM,
            },
            MesiKind::PutS | MesiKind::PutE { .. } | MesiKind::PutM { .. } => match line {
                Some(l) if l.owner == Some(from) => L2Event::PutOwner,
                Some(l) if l.sharers.contains(&from) => L2Event::PutSharer,
                _ => L2Event::PutForeign,
            },
            MesiKind::OwnerWb { .. } => match (busy, line) {
                (Some(Busy::FwdS { owner, .. }), _) if *owner == from => L2Event::OwnerWbFwd,
                (_, Some(l)) if l.owner.is_none() && l.sharers.contains(&from) => {
                    L2Event::OwnerWbDemote
                }
                (_, Some(l))
                    if l.inv_debt.is_some()
                        && l.owner != Some(from)
                        && self.cfg.ack_data_interchange =>
                {
                    L2Event::OwnerWbDebt
                }
                _ => L2Event::OwnerWbStray,
            },
            MesiKind::RecallData { .. } => L2Event::RecallData,
            MesiKind::InvAck => L2Event::RecallAck,
            _ => L2Event::Stray,
        };
        (Self::state_given(busy, line), event)
    }

    fn violation(&mut self, why: &'static str) {
        self.stats.protocol_violation += 1;
        *self.stats.violation_reasons.entry(why).or_insert(0) += 1;
    }

    /// Opens a busy episode on `addr`.
    fn open_busy(&mut self, addr: BlockAddr, busy: Busy, now: Cycle) {
        self.blocks.open(addr, Some(busy), now, None);
        // Between handlers every record is busy, and `addr`'s just became so.
        debug_assert!(self.blocks.values().all(|b| b.txn.is_some()));
        self.stats.mshr_occupancy.record(self.blocks.len() as u64);
    }

    fn handle_mesi(&mut self, from: NodeId, addr: BlockAddr, kind: MesiKind, ctx: &mut Ctx<'_>) {
        ctx.trace(addr.as_u64(), "mesi-l2", "Recv", || {
            format!(
                "{kind:?} from {from} (state {})",
                self.l2_state(addr).label()
            )
        });
        self.process(from, addr, kind, ctx);
    }

    /// Classifies one message — once, for the recorder and the table alike
    /// — and dispatches it. Busy states stall request-shaped events into
    /// the per-block queue; responses (`OwnerWb*`, recall responses) have
    /// explicit rows and bypass the queue.
    fn process(&mut self, from: NodeId, addr: BlockAddr, kind: MesiKind, ctx: &mut Ctx<'_>) {
        let (state, event) = self.classify(from, addr, &kind);
        self.seen.visit(state, msg_kind(&kind));
        let mut cx = L2Cx {
            ctx,
            from,
            addr,
            kind: Some(kind),
        };
        self.dispatch(state, event, &mut cx);
    }

    fn recall_response(
        &mut self,
        addr: BlockAddr,
        data: Option<(DataBlock, bool)>,
        ctx: &mut Ctx<'_>,
    ) {
        // The table only routes recall responses here in Busy_Recall.
        let Some(block) = self.blocks.get_mut(&addr) else {
            return self.violation("recall response without recall");
        };
        let Some(Busy::Recall { pending, line }) = &mut block.txn else {
            return self.violation("recall response without recall");
        };
        if let Some((d, dirty)) = data {
            line.data = d;
            line.dirty |= dirty;
        }
        *pending -= 1;
        if *pending == 0 {
            let Some(Busy::Recall { line, .. }) =
                end_busy(block, addr, &mut self.stats.lat_busy, ctx)
            else {
                return;
            };
            self.finish_eviction(addr, line, ctx);
        }
    }

    fn finish_eviction(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        if line.dirty {
            self.stats.mem_writes += 1;
            self.memory.insert(addr, line.data);
        }
        // Anything queued behind the eviction restarts from scratch.
        self.drain(addr, ctx);
    }

    /// Retries the fills parked for a way while one has room; a way is a
    /// victim only while its block has no record, so a record just closed.
    fn install_parked(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let (array, blocks) = (&self.array, &self.blocks);
            let room = |&a: &BlockAddr| array.has_room_where(a, |v, _| !blocks.contains_key(&v));
            let Some(addr) = self.installs.pop_first(&mut self.spare_installs, room) else {
                return;
            };
            let me = ctx.self_id();
            let mut cx = L2Cx {
                ctx,
                from: me,
                addr,
                kind: None,
            };
            self.dispatch(L2State::BusyInstall, L2Event::InstallRetry, &mut cx);
        }
    }

    /// Installs `addr`'s fetched fill, recalling a victim first if the set
    /// is full. `false` when every candidate way is mid-transaction: the
    /// fill parks in `installs` until a record closes.
    fn try_install(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) -> bool {
        let Some(Some(Busy::InstallWait { .. })) = self.blocks.get(&addr).map(|b| &b.txn) else {
            return true;
        };
        if self.array.needs_eviction(addr) {
            // A block with a record is mid-transaction: not a victim.
            let blocks = &self.blocks;
            let victim = self
                .array
                .take_victim_where(addr, |a, _| !blocks.contains_key(&a));
            let Some((victim_addr, line)) = victim else {
                return false;
            };
            self.start_recall(victim_addr, line, ctx);
        }
        // The victim had no record, so even a recall that completes at once
        // drains nothing and leaves this block's record alone.
        let Some(block) = self.blocks.get_mut(&addr) else {
            return true;
        };
        let Some(Busy::InstallWait {
            requestor,
            kind,
            data,
        }) = block.txn
        else {
            return true;
        };
        end_busy(block, addr, &mut self.stats.lat_busy, ctx);
        self.array.insert(addr, L2Line::fresh(data));
        // Don't double-count the request statistics for the replay.
        self.stats.gets = self
            .stats
            .gets
            .saturating_sub(u64::from(kind != GetKind::M));
        self.stats.getms = self
            .stats
            .getms
            .saturating_sub(u64::from(kind == GetKind::M));
        // Grant through the table: the request was recorded when it
        // arrived, and its block is now a fresh line nobody holds.
        let (get, event) = kind.request();
        let mut cx = L2Cx {
            ctx,
            from: requestor,
            addr,
            kind: Some(get),
        };
        self.dispatch(L2State::Present, event, &mut cx);
        self.drain(addr, ctx);
        true
    }

    fn start_recall(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        self.stats.recalls += 1;
        let mut pending = 0u32;
        if let Some(owner) = line.owner {
            ctx.send(owner, MesiMsg::new(addr, MesiKind::Recall).into());
            pending += 1;
        }
        let me = ctx.self_id();
        for &sharer in &line.sharers {
            ctx.send(
                sharer,
                MesiMsg::new(addr, MesiKind::Inv { requestor: me }).into(),
            );
            pending += 1;
        }
        if pending == 0 {
            self.finish_eviction(addr, line, ctx);
        } else {
            self.open_busy(addr, Busy::Recall { pending, line }, ctx.now());
        }
    }

    /// Re-handles the requests parked on `addr` while it is free; once the
    /// record closes, a way may be a victim again.
    fn drain(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        loop {
            match self.blocks.next(addr, |busy, _| busy.is_none()) {
                Next::Run((from, kind)) => self.process(from, addr, kind, ctx),
                Next::Closed => return self.install_parked(ctx),
                Next::Hold => return,
            }
        }
    }
}

impl<'a, 'b> Controller<L2State, L2Event, L2Action, L2Cx<'a, 'b>> for MesiL2 {
    fn machine(&mut self) -> &mut Machine<L2State, L2Event, L2Action> {
        &mut self.machine
    }

    fn apply(&mut self, action: L2Action, _step: Step<L2State, L2Event>, cx: &mut L2Cx<'a, 'b>) {
        let (from, addr) = (cx.from, cx.addr);
        match action {
            L2Action::CountGet => {
                if matches!(cx.kind, Some(MesiKind::GetM)) {
                    self.stats.getms += 1;
                } else {
                    self.stats.gets += 1;
                }
            }
            L2Action::StartFetch => {
                let kind = match cx.kind {
                    Some(MesiKind::GetS) => GetKind::S,
                    Some(MesiKind::GetSOnly) => GetKind::SOnly,
                    _ => GetKind::M,
                };
                self.stats.mem_reads += 1;
                let busy = Busy::Fetch {
                    requestor: from,
                    kind,
                };
                self.open_busy(addr, busy, cx.ctx.now());
                cx.ctx.wake_in(self.cfg.mem_latency.max(1), addr.as_u64());
            }
            L2Action::GrantE => {
                if let Some(line) = self.array.get_mut(addr) {
                    line.owner = Some(from);
                    let data = line.data;
                    cx.ctx
                        .send(from, MesiMsg::new(addr, MesiKind::DataE { data }).into());
                }
            }
            L2Action::GrantS => {
                if let Some(line) = self.array.get_mut(addr) {
                    line.sharers.insert(from);
                    let data = line.data;
                    cx.ctx
                        .send(from, MesiMsg::new(addr, MesiKind::DataS { data }).into());
                }
            }
            L2Action::StartFwdS => {
                let Some(owner) = self.array.get(addr).and_then(|l| l.owner) else {
                    return;
                };
                self.stats.fwd_gets += 1;
                let busy = Busy::FwdS {
                    owner,
                    requestor: from,
                };
                self.open_busy(addr, busy, cx.ctx.now());
                cx.ctx.send(
                    owner,
                    MesiMsg::new(addr, MesiKind::FwdGetS { requestor: from }).into(),
                );
            }
            L2Action::GrantRedundantM => {
                if let Some(line) = self.array.get(addr) {
                    // Trusted L1s upgrade silently, but a Transactional
                    // Crossing Guard may forward a redundant GetM on a
                    // misbehaving accelerator's behalf (Guarantee 1a is the
                    // host's to tolerate, §3.2.2). Grant it — the requestor
                    // already owns the block, so this is harmless.
                    let data = line.data;
                    self.stats.redundant_getms += 1;
                    cx.ctx.send(
                        from,
                        MesiMsg::new(addr, MesiKind::DataM { data, acks: 0 }).into(),
                    );
                }
            }
            L2Action::HandOffM => {
                let Some(line) = self.array.get_mut(addr) else {
                    return;
                };
                let Some(owner) = line.owner else { return };
                cx.ctx.send(
                    owner,
                    MesiMsg::new(addr, MesiKind::FwdGetM { requestor: from }).into(),
                );
                line.owner = Some(from);
                line.inv_debt = None;
            }
            L2Action::InvRoundGrantM => {
                let Some(line) = self.array.get_mut(addr) else {
                    return;
                };
                let mut acks = 0;
                for &sharer in line.sharers.iter().filter(|&&s| s != from) {
                    cx.ctx.send(
                        sharer,
                        MesiMsg::new(addr, MesiKind::Inv { requestor: from }).into(),
                    );
                    acks += 1;
                }
                self.stats.inv_rounds += u64::from(acks > 0);
                line.sharers.clear();
                line.owner = Some(from);
                line.inv_debt = Some(from);
                let data = line.data;
                cx.ctx.send(
                    from,
                    MesiMsg::new(addr, MesiKind::DataM { data, acks }).into(),
                );
            }
            L2Action::CountPut => {
                self.stats.puts += 1;
            }
            L2Action::AcceptOwnerPut => {
                let (data, dirty) = put_payload(&cx.kind);
                if let Some(line) = self.array.get_mut(addr) {
                    if let Some(d) = data {
                        line.data = d;
                        line.dirty |= dirty;
                    }
                    line.owner = None;
                    cx.ctx
                        .send(from, MesiMsg::new(addr, MesiKind::WbAck).into());
                }
            }
            L2Action::AcceptSharerPut => {
                let (data, _) = put_payload(&cx.kind);
                if let Some(line) = self.array.get_mut(addr) {
                    // PutS, or a PutE/PutM demoted by a racing FwdGetS
                    // (§ l1 docs).
                    line.sharers.remove(&from);
                    if data.is_some() {
                        self.stats.demoted_puts += 1;
                    } else {
                        self.stats.put_s += 1;
                    }
                    cx.ctx
                        .send(from, MesiMsg::new(addr, MesiKind::WbAck).into());
                }
            }
            L2Action::NackPut => {
                self.stats.nacks += 1;
                cx.ctx
                    .send(from, MesiMsg::new(addr, MesiKind::WbNack).into());
            }
            L2Action::FinishFwdS => {
                let Some(block) = self.blocks.get_mut(&addr) else {
                    return;
                };
                let Some(Busy::FwdS { requestor, .. }) = block.txn else {
                    return;
                };
                end_busy(block, addr, &mut self.stats.lat_busy, cx.ctx);
                let (data, dirty) = put_payload(&cx.kind);
                if let Some(line) = self.array.get_mut(addr) {
                    if let Some(d) = data {
                        line.data = d;
                    }
                    line.dirty |= dirty;
                    line.sharers.insert(from);
                    line.sharers.insert(requestor);
                    line.owner = None;
                } else {
                    self.violation("FwdS busy without a line");
                }
                self.drain(addr, cx.ctx);
            }
            L2Action::RefreshDemoted => {
                let (data, dirty) = put_payload(&cx.kind);
                if let Some(line) = self.array.get_mut(addr) {
                    // Plausible demotion: refresh our copy.
                    if let Some(d) = data {
                        line.data = d;
                    }
                    line.dirty |= dirty;
                }
            }
            L2Action::AckOnBehalf => {
                let Some(requestor) = self.array.get(addr).and_then(|l| l.inv_debt) else {
                    return;
                };
                // Host mod: ack the requestor on behalf of the sender;
                // discard the untrusted data (it came from a cache that was
                // told to *invalidate*).
                cx.ctx
                    .send(requestor, MesiMsg::new(addr, MesiKind::InvAck).into());
                self.stats.mod_acks_on_behalf += 1;
            }
            L2Action::ApplyRecallResponse => {
                let data = match cx.kind {
                    Some(MesiKind::RecallData { data, dirty }) => Some((data, dirty)),
                    _ => None,
                };
                self.recall_response(addr, data, cx.ctx);
            }
            L2Action::CompleteFetch => {
                let Some(block) = self.blocks.get_mut(&addr) else {
                    return;
                };
                let Some(Busy::Fetch { requestor, kind }) = block.txn else {
                    return;
                };
                let data = self.memory.get(&addr).copied().unwrap_or_default();
                // Same busy episode: `since` keeps timing from the fetch.
                block.txn = Some(Busy::InstallWait {
                    requestor,
                    kind,
                    data,
                });
                if !self.try_install(addr, cx.ctx) {
                    self.stats.install_retries += 1;
                    self.installs.park(addr, &mut self.spare_installs);
                }
            }
            L2Action::TryInstall => {
                self.try_install(addr, cx.ctx);
            }
        }
    }

    /// Only busy states stall, and a busy block has a record.
    fn stalled(&mut self, _step: Step<L2State, L2Event>, cx: &mut L2Cx<'a, 'b>) {
        if let Some(kind) = cx.kind {
            if !self.blocks.park(cx.addr, (cx.from, kind)) {
                self.violation("stall without a busy entry");
            }
        }
    }

    fn violated(&mut self, step: Step<L2State, L2Event>, cx: &mut L2Cx<'a, 'b>) {
        match step.event {
            L2Event::OwnerWbFwd
            | L2Event::OwnerWbDemote
            | L2Event::OwnerWbDebt
            | L2Event::OwnerWbStray => {
                let (from, addr) = (cx.from, cx.addr);
                cx.ctx
                    .trace(addr.as_u64(), "mesi-l2", "UnsolicitedOwnerWb", || {
                        format!(
                            "from {from} line={:?}",
                            self.array
                                .get(addr)
                                .map(|l| (l.owner, l.sharers.clone(), l.inv_debt))
                        )
                    });
                self.violation("unsolicited OwnerWb");
            }
            L2Event::RecallData | L2Event::RecallAck => {
                self.violation("recall response without recall");
            }
            L2Event::FetchDone => self.violation("fetch completion without fetch"),
            _ => self.violation("unexpected kind at L2"),
        }
    }
}

/// Extracts the data payload of a `Put*`/`OwnerWb`/`RecallData` kind:
/// `(data, dirty)` with `data: None` for the data-less `PutS`.
fn put_payload(kind: &Option<MesiKind>) -> (Option<DataBlock>, bool) {
    match kind {
        Some(MesiKind::PutE { data }) => (Some(*data), false),
        Some(MesiKind::PutM { data }) => (Some(*data), true),
        Some(MesiKind::OwnerWb { data, dirty }) => (Some(*data), *dirty),
        Some(MesiKind::RecallData { data, dirty }) => (Some(*data), *dirty),
        _ => (None, false),
    }
}

fn msg_kind(kind: &MesiKind) -> L2Msg {
    match kind {
        MesiKind::GetS => L2Msg::GetS,
        MesiKind::GetSOnly => L2Msg::GetSOnly,
        MesiKind::GetM => L2Msg::GetM,
        MesiKind::PutS => L2Msg::PutS,
        MesiKind::PutE { .. } => L2Msg::PutE,
        MesiKind::PutM { .. } => L2Msg::PutM,
        MesiKind::DataS { .. } => L2Msg::DataS,
        MesiKind::DataE { .. } => L2Msg::DataE,
        MesiKind::DataM { .. } => L2Msg::DataM,
        MesiKind::WbAck => L2Msg::WbAck,
        MesiKind::WbNack => L2Msg::WbNack,
        MesiKind::Inv { .. } => L2Msg::Inv,
        MesiKind::FwdGetS { .. } => L2Msg::FwdGetS,
        MesiKind::FwdGetM { .. } => L2Msg::FwdGetM,
        MesiKind::Recall => L2Msg::Recall,
        MesiKind::InvAck => L2Msg::InvAck,
        MesiKind::FwdData { .. } => L2Msg::FwdData,
        MesiKind::OwnerWb { .. } => L2Msg::OwnerWb,
        MesiKind::RecallData { .. } => L2Msg::RecallData,
    }
}

impl Component<Message> for MesiL2 {
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
            Message::Mesi(m) => self.handle_mesi(from, m.addr, m.kind, ctx),
            _ => self.violation("foreign protocol message"),
        }
        if violations_before == 0 && self.stats.protocol_violation > 0 {
            ctx.flag_post_mortem(addr, format!("{}: first protocol violation", self.name));
        }
    }

    /// The one timer: a memory fetch's latency.
    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let addr = BlockAddr::new(token);
        let state = self.l2_state(addr);
        ctx.trace(addr.as_u64(), "mesi-l2", "Wake", || {
            format!("fetch done (state {})", state.label())
        });
        let me = ctx.self_id();
        let mut cx = L2Cx {
            ctx,
            from: me,
            addr,
            kind: None,
        };
        self.dispatch(state, L2Event::FetchDone, &mut cx);
    }

    fn check_state(&self, out: &mut CheckDigest) {
        fn digest_line(line: &L2Line, out: &mut CheckDigest) {
            out.write_bytes(line.data.as_bytes());
            out.write_u64(u64::from(line.dirty));
            let sharers = out.sorted_node_roles(line.sharers.iter().copied());
            out.write_u64(sharers.len() as u64);
            for &role in &sharers {
                out.write_u64(role);
            }
            out.recycle(sharers);
            match line.owner {
                Some(o) => out.write_node(o),
                None => out.write_str("no-owner"),
            }
            match line.inv_debt {
                Some(r) => out.write_node(r),
                None => out.write_str("no-debt"),
            }
        }
        fn kind_label(kind: GetKind) -> &'static str {
            match kind {
                GetKind::S => "S",
                GetKind::SOnly => "SOnly",
                GetKind::M => "M",
            }
        }
        out.write_str("mesi_l2");
        // Resident lines, sorted by address role. Replacement recency is
        // excluded: the checker's small-model configuration is effectively
        // direct-mapped, so it never branches behavior.
        let lines = out.sorted_by_addr_role(self.array.iter().map(|(a, _)| a.as_u64()));
        out.write_u64(lines.len() as u64);
        for &a in &lines {
            let line = self.array.get(BlockAddr::new(a));
            out.write_addr(a);
            digest_line(line.expect("iterated address is resident"), out);
        }
        out.recycle(lines);
        // Open blocks, sorted by address role: first the busy (transient)
        // entries, one obligation each (`since` is a timestamp and
        // excluded), then the stall queues.
        let busy: fn(&Block) -> Option<&Busy> = |b| b.txn.as_ref();
        self.blocks.digest(out, busy, |busy, out| {
            out.obligation(1);
            match busy {
                Busy::Fetch { requestor, kind } => {
                    out.write_str("fetch");
                    out.write_node(*requestor);
                    out.write_str(kind_label(*kind));
                }
                Busy::InstallWait {
                    requestor,
                    kind,
                    data,
                } => {
                    out.write_str("install-wait");
                    out.write_node(*requestor);
                    out.write_str(kind_label(*kind));
                    out.write_bytes(data.as_bytes());
                }
                Busy::FwdS { owner, requestor } => {
                    out.write_str("fwd-s");
                    out.write_node(*owner);
                    out.write_node(*requestor);
                }
                Busy::Recall { pending, line } => {
                    out.write_str("recall");
                    out.write_u64(u64::from(*pending));
                    digest_line(line, out);
                }
            }
        });
        // Per-block stall queues: each queued stimulus is an obligation.
        self.blocks.digest(out, Record::parked, |queue, out| {
            queue.digest(out, |(from, kind), out| {
                out.write_node(*from);
                out.write_str(msg_kind(kind).label());
            });
        });
        // Memory: entries holding zeroed data are indistinguishable from
        // absent ones (`read_memory` defaults to zero), so filter them.
        let written = self
            .memory
            .iter()
            .filter(|(_, d)| **d != DataBlock::default());
        let mem = out.sorted_by_addr_role(written.map(|(a, _)| a.as_u64()));
        out.write_u64(mem.len() as u64);
        for &a in &mem {
            out.write_addr(a);
            out.write_bytes(self.memory[&BlockAddr::new(a)].as_bytes());
        }
        out.recycle(mem);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.gets"), self.stats.gets);
        out.add(format_args!("{n}.getms"), self.stats.getms);
        out.add(format_args!("{n}.puts"), self.stats.puts);
        out.add(format_args!("{n}.put_s"), self.stats.put_s);
        out.add(format_args!("{n}.nacks"), self.stats.nacks);
        out.add(format_args!("{n}.mem_reads"), self.stats.mem_reads);
        out.add(format_args!("{n}.mem_writes"), self.stats.mem_writes);
        out.add(format_args!("{n}.recalls"), self.stats.recalls);
        out.add(format_args!("{n}.fwd_gets"), self.stats.fwd_gets);
        out.add(format_args!("{n}.inv_rounds"), self.stats.inv_rounds);
        out.add(
            format_args!("{n}.redundant_getms"),
            self.stats.redundant_getms,
        );
        out.add(
            format_args!("{n}.acks_on_behalf"),
            self.stats.mod_acks_on_behalf,
        );
        out.add(format_args!("{n}.demoted_puts"), self.stats.demoted_puts);
        out.add(
            format_args!("{n}.install_retries"),
            self.stats.install_retries,
        );
        out.record_hist(format_args!("{n}.lat.busy"), &self.stats.lat_busy);
        out.record_hist(
            format_args!("{n}.mshr_occupancy"),
            &self.stats.mshr_occupancy,
        );
        out.add(
            format_args!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        for (why, count) in &self.stats.violation_reasons {
            out.add(format_args!("{n}.violation[{why}]"), *count);
        }
        out.record_grid(format_args!("mesi_l2/{n}"), &self.seen);
    }

    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }

    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        self.machine.visit_fired(visit);
    }
}
