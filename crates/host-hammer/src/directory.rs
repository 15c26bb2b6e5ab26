//! The Hammer directory + memory controller.
//!
//! The directory serializes transactions per block (a blocking directory),
//! broadcasts forwards to every peer cache (it keeps no sharer list), and
//! tracks the identity of the current owner so it can accept or `WbNack` a
//! `Put`. Memory lives behind the directory and is read on every request
//! (`MemData` also tells the requestor how many peer responses to expect).
//!
//! Dispatch is table-driven (see [`table`]): the controller classifies each
//! message into a [`DirEvent`] against its abstract [`DirState`], and the
//! `xg-fsm` table decides transition/stall/violation. Concrete bookkeeping
//! (owner identity, queue contents, memory) stays here, interpreted through
//! the symbolic [`DirAction`]s.

use xg_fsm::{alphabet, Alphabet, Controller, Machine, Next, Records, Step, Table, TableBuilder};
use xg_mem::{BlockAddr, DataBlock, IdMap};
use xg_proto::{Ctx, HammerKind, HammerMsg, Message};
use xg_sim::{
    CheckDigest, CloneComponent, Component, CoverageGrid, FsmRows, Histogram, NodeId, Report,
};

alphabet! {
    /// Abstract per-block directory states (paper §2.3 naming).
    pub enum DirState {
        /// Memory owns the block (no cache owner recorded).
        Omem = "O_mem",
        /// Some cache owns the block.
        NO = "NO",
        /// A Get is outstanding; waiting for the requestor's `Unblock`.
        BusyGet = "Busy_Get",
        /// A writeback was acked; waiting for `WbData`.
        BusyWb = "Busy_Wb",
    }
}

alphabet! {
    /// Classified stimulus: message kind refined by sender identity and
    /// transaction bookkeeping (e.g. a `Put` from the recorded owner is a
    /// different event than one from anybody else).
    pub enum DirEvent {
        GetS,
        GetSOnly,
        GetM,
        /// `Put` from the recorded owner.
        PutOwner,
        /// `Put` from a non-owner (legal race; nacked).
        PutForeign,
        /// `WbData` from the putter of the in-flight writeback.
        WbDataPutter,
        /// `WbData` from anyone else, or with no writeback in flight.
        WbDataStray,
        /// `Unblock{new_owner: true}` from the in-flight requestor.
        UnblockOwn,
        /// `Unblock{new_owner: false}` from the in-flight requestor.
        UnblockShare,
        /// `Unblock` from anyone else, or with no Get in flight.
        UnblockStray,
        /// A message kind the directory never receives (forwards, data
        /// responses, wb acks).
        Stray,
    }
}

alphabet! {
    /// Wire message kinds: the events coverage is keyed by. ([`DirEvent`]
    /// refines them by sender for the table.)
    pub enum DirMsg {
        GetS,
        GetSOnly,
        GetM,
        Put,
        WbData,
        Unblock,
        FwdGetS,
        FwdGetSOnly,
        FwdGetM,
        MemData,
        RespData,
        RespAck,
        WbAck,
        WbNack,
    }
}

alphabet! {
    /// Symbolic directory actions, interpreted against concrete state.
    pub enum DirAction {
        /// Mark the block busy on a Get and stamp `since`.
        SetBusyGet,
        /// Count the Get (gets/getms) and the memory read it triggers.
        CountGet,
        /// Broadcast the matching forward to every peer except the
        /// requestor, tagging the current owner.
        Broadcast,
        /// Send `MemData` (with expected peer count) after `mem_latency`.
        SendMemData,
        /// Count the Put.
        CountPut,
        /// Accept the writeback: mark busy and send `WbAck`.
        AckWb,
        /// Reject the writeback: count and send `WbNack`.
        NackWb,
        /// Commit `WbData` to memory if dirty.
        WriteBackMem,
        /// Forget the cache owner (memory owns again).
        ClearOwner,
        /// Record the unblocking requestor as the new owner.
        RecordOwner,
        /// Clear busy and record the busy-latency sample.
        FinishBusy,
        /// Re-handle queued requests until one re-busies the block.
        Drain,
    }
}

/// The validated `hammer_dir` transition table (shared by all instances).
pub fn table() -> &'static Table<DirState, DirEvent, DirAction> {
    static T: std::sync::OnceLock<Table<DirState, DirEvent, DirAction>> =
        std::sync::OnceLock::new();
    T.get_or_init(|| {
        use DirAction::*;
        use DirEvent::*;
        use DirState::*;
        let mut b = TableBuilder::new("hammer_dir");
        const GET: &[DirAction] = &[SetBusyGet, CountGet, Broadcast, SendMemData];
        for s in [Omem, NO] {
            b.on(s, GetS, GET, BusyGet);
            b.on(s, GetSOnly, GET, BusyGet);
            b.on(s, GetM, GET, BusyGet);
        }
        // The directory is blocking: anything request-shaped waits its turn.
        for s in [BusyGet, BusyWb] {
            for e in [GetS, GetSOnly, GetM, PutOwner, PutForeign] {
                b.stall(s, e);
            }
        }
        b.on(NO, PutOwner, &[CountPut, AckWb], BusyWb);
        b.on(NO, PutForeign, &[CountPut, NackWb], NO);
        // A Put racing ahead of the owner change it lost to: legal, nacked.
        b.on(Omem, PutForeign, &[CountPut, NackWb], Omem);
        b.on(
            BusyWb,
            WbDataPutter,
            &[WriteBackMem, ClearOwner, FinishBusy, Drain],
            Omem,
        );
        b.on(BusyGet, UnblockOwn, &[RecordOwner, FinishBusy, Drain], NO);
        // Owner is untouched on a shared unblock, so the successor depends
        // on whether a cache owner was recorded before the Get.
        b.on_dyn(BusyGet, UnblockShare, &[FinishBusy, Drain]);
        b.violation_rest();
        b.build()
            .expect("hammer_dir table is deterministic and total")
    })
}

/// A block's recorded owner and the transaction holding it busy. A block
/// with neither is memory's, and has no record.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct DirEntry {
    owner: Option<NodeId>,
    busy: Option<Busy>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Busy {
    /// A Get is outstanding; waiting for the requestor's `Unblock`.
    Get { requestor: NodeId },
    /// A writeback was acked; waiting for `WbData`.
    Wb { putter: NodeId },
}

impl DirEntry {
    /// Abstract state for table dispatch and coverage. A block without a
    /// record is a default entry: memory owns it.
    fn state(&self) -> DirState {
        match (self.busy, self.owner) {
            (Some(Busy::Get { .. }), _) => DirState::BusyGet,
            (Some(Busy::Wb { .. }), _) => DirState::BusyWb,
            (None, Some(_)) => DirState::NO,
            (None, None) => DirState::Omem,
        }
    }

    /// Refines a message kind into a table event using sender identity and
    /// the in-flight transaction bookkeeping.
    fn classify(&self, from: NodeId, kind: &HammerKind) -> DirEvent {
        match kind {
            HammerKind::GetS => DirEvent::GetS,
            HammerKind::GetSOnly => DirEvent::GetSOnly,
            HammerKind::GetM => DirEvent::GetM,
            HammerKind::Put if self.owner == Some(from) => DirEvent::PutOwner,
            HammerKind::Put => DirEvent::PutForeign,
            HammerKind::WbData { .. } if self.busy == Some(Busy::Wb { putter: from }) => {
                DirEvent::WbDataPutter
            }
            HammerKind::WbData { .. } => DirEvent::WbDataStray,
            HammerKind::Unblock { new_owner }
                if self.busy == Some(Busy::Get { requestor: from }) =>
            {
                if *new_owner {
                    DirEvent::UnblockOwn
                } else {
                    DirEvent::UnblockShare
                }
            }
            HammerKind::Unblock { .. } => DirEvent::UnblockStray,
            _ => DirEvent::Stray,
        }
    }
}

#[derive(Debug, Default)]
struct Stats {
    gets: u64,
    getms: u64,
    puts: u64,
    nacks: u64,
    mem_reads: u64,
    mem_writes: u64,
    protocol_violation: u64,
    /// Cycles each directory transaction held its block busy.
    lat_busy: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    gets,
    getms,
    puts,
    nacks,
    mem_reads,
    mem_writes,
    protocol_violation,
    lat_busy,
});

/// Per-dispatch context for [`DirAction`] interpretation.
pub struct DirCx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    from: NodeId,
    addr: BlockAddr,
    kind: HammerKind,
    /// The block's entry when the message was classified.
    entry: DirEntry,
    /// How many peers `Broadcast` forwarded to: the response count
    /// `SendMemData` announces.
    peers: u32,
}

/// The directory/memory controller of the Hammer-like protocol.
pub struct HammerDirectory {
    name: String,
    caches: Vec<NodeId>,
    memory: IdMap<BlockAddr, DataBlock>,
    /// Owned or busy blocks and their stalled requests; `since` times `lat.busy`.
    blocks: Records<DirEntry, (NodeId, HammerKind)>,
    mem_latency: u64,
    stats: Stats,
    /// `(state, message kind)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<DirState, DirMsg>,
    machine: Machine<DirState, DirEvent, DirAction>,
}

xg_sim::clone_in_place!(impl[] for HammerDirectory {
    name,
    caches,
    memory,
    blocks,
    mem_latency,
    stats,
    seen,
    machine,
});

impl HammerDirectory {
    /// Creates a directory serving the given set of peer caches (every
    /// cache controller in the system, including any Crossing Guard, which
    /// appears here as just another cache). `mem_latency` is added to every
    /// memory read response.
    pub fn new(name: impl Into<String>, caches: Vec<NodeId>, mem_latency: u64) -> Self {
        HammerDirectory {
            name: name.into(),
            caches,
            memory: IdMap::default(),
            blocks: Records::default(),
            mem_latency,
            stats: Stats::default(),
            seen: CoverageGrid::new(),
            machine: Machine::new(table()),
        }
    }

    /// Pre-loads memory contents (for tests and workload setup).
    pub fn write_memory(&mut self, addr: BlockAddr, data: DataBlock) {
        self.memory.insert(addr, data);
    }

    /// Reads current memory contents (zero if never written).
    pub fn read_memory(&self, addr: BlockAddr) -> DataBlock {
        self.memory.get(&addr).copied().unwrap_or_default()
    }

    /// Number of `WbNack`s issued (legal-race or erroneous puts).
    pub fn nacks(&self) -> u64 {
        self.stats.nacks
    }

    /// Number of impossible events observed. Zero among trusted caches.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// Classifies one request against its block — the one lookup the
    /// recorder and the table share — and dispatches it.
    fn handle_request(
        &mut self,
        from: NodeId,
        addr: BlockAddr,
        kind: HammerKind,
        ctx: &mut Ctx<'_>,
    ) {
        let record = self.blocks.get(&addr);
        let entry = record.map_or_else(DirEntry::default, |r| r.txn);
        if ctx.trace_active() {
            let detail = format!(
                "{:?} from {from} (owner={:?} busy={:?} qlen={})",
                kind,
                entry.owner,
                entry.busy,
                record.map_or(0, |r| r.queue.len())
            );
            ctx.trace(addr.as_u64(), "hammer-dir", "Recv", || detail);
        }
        let state = entry.state();
        let event = entry.classify(from, &kind);
        self.seen.visit(state, msg_kind(&kind));
        let mut cx = DirCx {
            ctx,
            from,
            addr,
            kind,
            entry,
            peers: 0,
        };
        self.dispatch(state, event, &mut cx);
    }
}

impl<'a, 'b> Controller<DirState, DirEvent, DirAction, DirCx<'a, 'b>> for HammerDirectory {
    fn machine(&mut self) -> &mut Machine<DirState, DirEvent, DirAction> {
        &mut self.machine
    }

    fn apply(
        &mut self,
        action: DirAction,
        _step: Step<DirState, DirEvent>,
        cx: &mut DirCx<'a, 'b>,
    ) {
        match action {
            DirAction::SetBusyGet => {
                let busy = Some(Busy::Get { requestor: cx.from });
                self.blocks
                    .open(cx.addr, DirEntry { busy, ..cx.entry }, cx.ctx.now(), None);
            }
            DirAction::CountGet => {
                if matches!(cx.kind, HammerKind::GetM) {
                    self.stats.getms += 1;
                } else {
                    self.stats.gets += 1;
                }
                self.stats.mem_reads += 1;
            }
            DirAction::Broadcast => {
                for &peer in self.caches.iter().filter(|&&c| c != cx.from) {
                    let to_owner = cx.entry.owner == Some(peer);
                    let fwd = match cx.kind {
                        HammerKind::GetS => HammerKind::FwdGetS {
                            requestor: cx.from,
                            to_owner,
                        },
                        HammerKind::GetSOnly => HammerKind::FwdGetSOnly {
                            requestor: cx.from,
                            to_owner,
                        },
                        HammerKind::GetM => HammerKind::FwdGetM {
                            requestor: cx.from,
                            to_owner,
                        },
                        // The table only runs Broadcast on Get rows.
                        _ => {
                            self.stats.protocol_violation += 1;
                            return;
                        }
                    };
                    cx.ctx.send(peer, HammerMsg::new(cx.addr, fwd).into());
                    cx.peers += 1;
                }
            }
            DirAction::SendMemData => {
                let data = self.memory.get(&cx.addr).copied().unwrap_or_default();
                let peers = cx.peers;
                cx.ctx.send_after(
                    cx.from,
                    HammerMsg::new(cx.addr, HammerKind::MemData { data, peers }).into(),
                    self.mem_latency,
                );
            }
            DirAction::CountPut => {
                self.stats.puts += 1;
            }
            DirAction::AckWb => {
                let busy = Some(Busy::Wb { putter: cx.from });
                self.blocks
                    .open(cx.addr, DirEntry { busy, ..cx.entry }, cx.ctx.now(), None);
                cx.ctx
                    .send(cx.from, HammerMsg::new(cx.addr, HammerKind::WbAck).into());
            }
            DirAction::NackWb => {
                self.stats.nacks += 1;
                cx.ctx
                    .send(cx.from, HammerMsg::new(cx.addr, HammerKind::WbNack).into());
            }
            DirAction::WriteBackMem => {
                if let HammerKind::WbData { data, dirty } = cx.kind {
                    if dirty {
                        self.stats.mem_writes += 1;
                        self.memory.insert(cx.addr, data);
                    }
                } else {
                    // The table only runs WriteBackMem on WbData rows.
                    self.stats.protocol_violation += 1;
                }
            }
            // The three run only in busy states, which have a record.
            DirAction::ClearOwner | DirAction::RecordOwner | DirAction::FinishBusy => {
                let Some(record) = self.blocks.get_mut(&cx.addr) else {
                    return;
                };
                match action {
                    DirAction::ClearOwner => record.txn.owner = None,
                    DirAction::RecordOwner => record.txn.owner = Some(cx.from),
                    _ => {
                        if record.txn.busy.take().is_some() {
                            let busy = cx.ctx.now().saturating_since(record.since);
                            self.stats.lat_busy.record(busy);
                        }
                    }
                }
            }
            // Re-handles queued requests until one makes the block busy
            // again; a block left with no owner closes.
            DirAction::Drain => {
                while let Next::Run((from, kind)) =
                    self.blocks.next(cx.addr, |entry, _| entry.busy.is_none())
                {
                    self.handle_request(from, cx.addr, kind, cx.ctx);
                }
            }
        }
    }

    /// Only busy blocks stall, and a busy block has a record.
    fn stalled(&mut self, _step: Step<DirState, DirEvent>, cx: &mut DirCx<'a, 'b>) {
        if !self.blocks.park(cx.addr, (cx.from, cx.kind)) {
            self.stats.protocol_violation += 1;
        }
    }

    fn violated(&mut self, _step: Step<DirState, DirEvent>, _cx: &mut DirCx<'a, 'b>) {
        self.stats.protocol_violation += 1;
    }
}

/// Folds a queued host request into a state digest (requests only carry a
/// data payload on `WbData`, which can never be queued, so the kind tag
/// alone is complete).
fn digest_queued(from: NodeId, kind: &HammerKind, out: &mut CheckDigest) {
    out.write_node(from);
    out.write_str(msg_kind(kind).label());
    if let HammerKind::WbData { data, dirty } = kind {
        out.write_bytes(data.as_bytes());
        out.write_u64(u64::from(*dirty));
    }
}

fn msg_kind(kind: &HammerKind) -> DirMsg {
    match kind {
        HammerKind::GetS => DirMsg::GetS,
        HammerKind::GetSOnly => DirMsg::GetSOnly,
        HammerKind::GetM => DirMsg::GetM,
        HammerKind::Put => DirMsg::Put,
        HammerKind::WbData { .. } => DirMsg::WbData,
        HammerKind::Unblock { .. } => DirMsg::Unblock,
        HammerKind::FwdGetS { .. } => DirMsg::FwdGetS,
        HammerKind::FwdGetSOnly { .. } => DirMsg::FwdGetSOnly,
        HammerKind::FwdGetM { .. } => DirMsg::FwdGetM,
        HammerKind::MemData { .. } => DirMsg::MemData,
        HammerKind::RespData { .. } => DirMsg::RespData,
        HammerKind::RespAck { .. } => DirMsg::RespAck,
        HammerKind::WbAck => DirMsg::WbAck,
        HammerKind::WbNack => DirMsg::WbNack,
    }
}

impl Component<Message> for HammerDirectory {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let violations_before = self.stats.protocol_violation;
        let addr = match &msg {
            Message::Hammer(h) => h.addr.as_u64(),
            _ => u64::MAX,
        };
        match msg {
            Message::Hammer(h) => self.handle_request(from, h.addr, h.kind, ctx),
            _ => {
                self.stats.protocol_violation += 1;
            }
        }
        if violations_before == 0 && self.stats.protocol_violation > 0 {
            ctx.flag_post_mortem(addr, format!("{}: first protocol violation", self.name));
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str("hammer_dir");
        // Memory contents. A never-written block reads as zeroes, so
        // zero-valued entries are indistinguishable from absent ones and
        // must be skipped — otherwise "wrote zeroes" and "never wrote"
        // would digest as different states with identical behavior.
        let zero = DataBlock::default();
        let written = self.memory.iter().filter(|(_, d)| **d != zero);
        let mem = out.sorted_by_addr_role(written.map(|(a, _)| a.as_u64()));
        out.write_u64(mem.len() as u64);
        for &a in &mem {
            out.write_addr(a);
            out.write_bytes(self.memory[&BlockAddr::new(a)].as_bytes());
        }
        out.recycle(mem);
        // Per-block directory state: a block with a record.
        self.blocks.digest(out, Some, |record, out| {
            let b = &record.txn;
            match b.owner {
                Some(owner) => out.write_node(owner),
                None => out.write_str("mem"),
            }
            match b.busy {
                Some(Busy::Get { requestor }) => {
                    out.write_str("busy-get");
                    out.write_node(requestor);
                    out.obligation(1);
                }
                Some(Busy::Wb { putter }) => {
                    out.write_str("busy-wb");
                    out.write_node(putter);
                    out.obligation(1);
                }
                None => out.write_str("idle"),
            }
            record
                .queue
                .digest(out, |(from, kind), out| digest_queued(*from, kind, out));
        });
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.gets"), self.stats.gets);
        out.add(format_args!("{n}.getms"), self.stats.getms);
        out.add(format_args!("{n}.puts"), self.stats.puts);
        out.add(format_args!("{n}.nacks"), self.stats.nacks);
        out.add(format_args!("{n}.mem_reads"), self.stats.mem_reads);
        out.add(format_args!("{n}.mem_writes"), self.stats.mem_writes);
        out.add(
            format_args!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        out.record_grid(format_args!("hammer_dir/{n}"), &self.seen);
        out.record_hist(format_args!("{n}.lat.busy"), &self.stats.lat_busy);
    }

    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }

    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        self.machine.visit_fired(visit);
    }
}
