//! The shared, inclusive accelerator L2 (two-level organization).
//!
//! Sits between several [`crate::AccelL1`]s and one Crossing Guard,
//! coordinating sharing among the L1s so data can move between accelerator
//! cores *without* crossing into the host (paper §2.4). It speaks the
//! standardized interface in both directions:
//!
//! * **Downward** it plays the Crossing Guard role for its L1s: grants
//!   `DataS`/`DataE`/`DataM`, acks every `Put`, and issues `Inv` when it
//!   needs a block back (sharing, host demand, or inclusive eviction).
//! * **Upward** it is an ordinary accelerator cache: `GetS`/`GetM`/`Put*`
//!   requests, `Inv` demands answered with `InvAck`/`CleanWb`/`DirtyWb`.
//!
//! Per block it tracks the host-granted state (S/E/M), a dirty bit, the L1
//! sharer set, and the owning L1. Multi-step flows (recalls before grants,
//! host invalidations, inclusive evictions) serialize per block. Every
//! message, on arrival or drained from a block's queue, runs its row of the
//! `accel_l2` table ([`table`], dumped to `docs/tables/accel_l2.md`) in the
//! state one lookup gives: the block's record, else its array line.

use std::sync::OnceLock;

use xg_fsm::{
    alphabet, Alphabet, Controller, Machine, Next, Parked, Records, Step, Table, TableBuilder,
};
use xg_mem::{BlockAddr, Replacement, SetAssocCache, SortedSet, Spares};
use xg_proto::{Ctx, Message, XgData, XgiKind, XgiMsg, XgiTag};
use xg_sim::{CloneComponent, Component, FsmRows, Histogram, NodeId, Report};

/// Configuration for an [`AccelL2`].
#[derive(Debug, Clone)]
pub struct AccelL2Config {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Accelerator block size in host blocks (must match the L1s).
    pub block_blocks: usize,
    /// Weak internal sharing (paper §2.1): a writing L1 does **not**
    /// invalidate its siblings' shared copies; their reads may return
    /// stale data until they flush. The host side stays fully coherent —
    /// only intra-accelerator visibility is relaxed, and the programming
    /// model demands explicit flushes for cross-core handoff.
    pub weak_sharing: bool,
}

impl Default for AccelL2Config {
    fn default() -> Self {
        AccelL2Config {
            sets: 128,
            ways: 8,
            block_blocks: 1,
            weak_sharing: false,
        }
    }
}

alphabet! {
    /// The `accel_l2` table's rows: what the array holds (`NP`, `Present`,
    /// `Shared`, `Owned`), or the transaction holding the block busy (the
    /// six `Busy_` states, one per `Busy` kind).
    pub enum L2State {
        NP = "NP",
        Present,
        Shared,
        Owned,
        BusyFetch = "Busy_Fetch",
        BusyInstall = "Busy_Install",
        BusyRecall = "Busy_Recall",
        BusyHostInv = "Busy_HostInv",
        BusyEvictRecall = "Busy_EvictRecall",
        BusyEvictPut = "Busy_EvictPut",
    }
}

alphabet! {
    /// Symbolic actions, one flow each, interpreted against the array, the
    /// block's record and the message in [`L2Cx`].
    pub enum L2Action {
        /// An L1 Get: grant, recall the other holders first, or fetch.
        Get,
        /// An L1 Put: take the owner's data, drop the L1, ack.
        TakePut,
        /// An L1's answer to a recall; the last one finishes the recall.
        Recalled,
        /// The guard's grant for the block's fetch: upgrade or install.
        Fill,
        /// The guard's `WbAck` for an eviction's Put: the block is free.
        Retire,
        /// A guard `Inv`: recall the L1 holders, then answer.
        Invalidate,
        /// Answer a guard `Inv` with `InvAck`.
        AckInv,
        /// Answer a guard `Inv` with the parked grant, and fetch again.
        Surrender,
    }
}

/// The validated `accel_l2` table.
pub fn table() -> &'static Table<L2State, XgiTag, L2Action> {
    static T: OnceLock<Table<L2State, XgiTag, L2Action>> = OnceLock::new();
    T.get_or_init(|| {
        use L2Action::*;
        use L2State::*;
        use XgiTag::*;
        let mut b = TableBuilder::new("accel_l2");
        b.note(
            "The shared inclusive accelerator L2 of the two-level organization \
             (§2.4, Figure 2(d)): four stable states, what the array holds, and \
             six busy states, the transaction a block's record holds. Requests \
             and `Inv` answers come from the L1s, grants, `WbAck` and `Inv` from \
             the guard; a kind from the wrong side, or a payload of the wrong \
             size, is a violation before any row.",
        );
        b.note(
            "A stall parks the message in the block's queue, to run again when \
             the record closes (a guard `Inv` also while the block waits on the \
             guard). A Put never parks, and is a violation where no L1 can hold \
             a copy. Two-level stress fires every legal row but Gets parked in \
             `Busy_Install` or `Busy_Recall`, a second `Inv` in `Busy_HostInv`, \
             a Put in `Busy_Fetch`, `PutS` in `Owned` and `PutE`/`PutM` in `Shared`.",
        );
        let busy = &L2State::ALL[4..]; // the six `Busy_` states
        for e in [GetS, GetM] {
            b.on(NP, e, &[Get], BusyFetch);
            for s in [Present, Shared, Owned] {
                b.on_dyn(s, e, &[Get]);
            }
            for &s in busy {
                b.stall(s, e);
            }
        }
        for e in [PutS, PutE, PutM] {
            b.on_dyn(Shared, e, &[TakePut]);
            b.on_dyn(Owned, e, &[TakePut]);
            for s in [BusyFetch, BusyRecall, BusyHostInv, BusyEvictRecall] {
                b.on(s, e, &[TakePut], s);
            }
        }
        for s in [BusyRecall, BusyHostInv, BusyEvictRecall] {
            for e in [InvAck, CleanWb, DirtyWb] {
                b.on_dyn(s, e, &[Recalled]);
            }
            b.stall(s, Inv);
        }
        for e in [DataS, DataE, DataM] {
            b.on_dyn(BusyFetch, e, &[Fill]);
        }
        b.on(BusyEvictPut, WbAck, &[Retire], NP);
        b.on(NP, Inv, &[Invalidate], NP);
        b.on(Present, Inv, &[Invalidate], NP);
        b.on(Shared, Inv, &[Invalidate], BusyHostInv);
        b.on(Owned, Inv, &[Invalidate], BusyHostInv);
        // Our Get, or our eviction's Put, crossed the Inv: nothing is held
        // for the guard yet, or any more.
        b.on(BusyFetch, Inv, &[AckInv], BusyFetch);
        b.on(BusyEvictPut, Inv, &[AckInv], BusyEvictPut);
        b.on(BusyInstall, Inv, &[Surrender], BusyFetch);
        b.violation_rest();
        b.build()
            .expect("accel_l2 table is deterministic and total")
    })
}

/// Host-granted state of a resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Host {
    S,
    E,
    M,
}

#[derive(Debug, PartialEq)]
struct L2Line {
    data: XgData,
    dirty: bool,
    host: Host,
    sharers: SortedSet<NodeId>,
    owner: Option<NodeId>,
}

xg_sim::clone_in_place!(impl[] for L2Line { data, dirty, host, sharers, owner });

impl L2Line {
    /// The L1s holding a copy: the owner first, then the sharers.
    fn holders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.owner.into_iter().chain(self.sharers.iter().copied())
    }
}

/// Sends `addr`'s `Inv` to each of `l1s`; returns how many were sent.
fn recall(l1s: impl Iterator<Item = NodeId>, addr: BlockAddr, ctx: &mut Ctx<'_>) -> u32 {
    let mut sent = 0;
    for l1 in l1s {
        ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
        sent += 1;
    }
    sent
}

#[derive(Debug, Clone, PartialEq)]
enum Busy {
    /// Upward Get in flight.
    Fetch { requestor: NodeId, want_m: bool },
    /// Fetched data parked until a way frees.
    InstallWait {
        requestor: NodeId,
        want_m: bool,
        data: XgData,
        host: Host,
    },
    /// Invalidating L1 holders before granting to `requestor`.
    RecallForGrant {
        requestor: NodeId,
        want_m: bool,
        pending: u32,
    },
    /// Invalidating L1 holders before answering a host `Inv`.
    HostInv { pending: u32 },
    /// Invalidating L1 holders before an inclusive eviction; the line has
    /// been pulled out of the array into here.
    EvictRecall { pending: u32, line: L2Line },
    /// Upward Put in flight for an evicted block.
    EvictPut,
}

#[derive(Debug, Default)]
struct Stats {
    l1_gets: u64,
    l1_getms: u64,
    l1_puts: u64,
    up_gets: u64,
    up_puts: u64,
    recalls: u64,
    host_invs: u64,
    /// Grants that found every way of their set mid-transaction and parked.
    install_retries: u64,
    protocol_violation: u64,
    /// Cycles from issuing an upward Get to its grant arriving.
    lat_up_get: Histogram,
    /// Busy-table (MSHR) population, sampled at each new allocation.
    mshr_occupancy: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    l1_gets, l1_getms, l1_puts, up_gets, up_puts, recalls, host_invs, install_retries,
    protocol_violation, lat_up_get, mshr_occupancy,
});

/// The shared inclusive accelerator L2.
pub struct AccelL2 {
    name: String,
    below: NodeId,
    cfg: AccelL2Config,
    array: SetAssocCache<L2Line>,
    /// The transaction holding each block busy (`since` times `lat.up_get`)
    /// and the L1 Gets and guard `Inv`s, which carry no data, parked behind it.
    blocks: Records<Option<Busy>, (NodeId, XgiTag)>,
    /// Blocks whose grant waits for a way (`Busy::InstallWait`).
    installs: Parked<BlockAddr>,
    spare_installs: Spares<Parked<BlockAddr>>,
    stats: Stats,
    machine: Machine<L2State, XgiTag, L2Action>,
}

xg_sim::clone_in_place!(impl[] for AccelL2 {
    name, below, cfg, array, blocks, installs, spare_installs, stats, machine,
});

/// Per-dispatch context for [`L2Action`] interpretation.
pub struct L2Cx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    from: NodeId,
    addr: BlockAddr,
    /// The payload of a data-carrying kind.
    data: Option<XgData>,
}

impl AccelL2 {
    /// Creates a shared accelerator L2 above `below` (its Crossing Guard).
    ///
    /// # Panics
    /// Panics if `cfg.block_blocks` is zero.
    pub fn new(name: impl Into<String>, below: NodeId, cfg: AccelL2Config) -> Self {
        assert!(cfg.block_blocks >= 1, "block_blocks must be at least 1");
        AccelL2 {
            name: name.into(),
            below,
            array: SetAssocCache::new(cfg.sets, cfg.ways, Replacement::Lru, 0),
            blocks: Records::default(),
            cfg,
            installs: Parked::default(),
            spare_installs: Spares::default(),
            stats: Stats::default(),
            machine: Machine::new(table()),
        }
    }

    /// Impossible-event counter; stays zero against conforming L1s and XG.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    fn violation(&mut self) {
        self.stats.protocol_violation += 1;
    }

    /// Table state of `addr`: the transaction holding it busy, else what
    /// the array holds.
    fn state(&self, addr: BlockAddr) -> L2State {
        match self.blocks.get(&addr).and_then(|b| b.txn.as_ref()) {
            Some(Busy::Fetch { .. }) => L2State::BusyFetch,
            Some(Busy::InstallWait { .. }) => L2State::BusyInstall,
            Some(Busy::RecallForGrant { .. }) => L2State::BusyRecall,
            Some(Busy::HostInv { .. }) => L2State::BusyHostInv,
            Some(Busy::EvictRecall { .. }) => L2State::BusyEvictRecall,
            Some(Busy::EvictPut) => L2State::BusyEvictPut,
            None => match self.array.get(addr) {
                None => L2State::NP,
                Some(line) if line.owner.is_some() => L2State::Owned,
                Some(line) if line.sharers.is_empty() => L2State::Present,
                Some(_) => L2State::Shared,
            },
        }
    }

    /// Runs the table's row for `event` in `addr`'s state: the one path of
    /// every message, on arrival or drained from the block's queue.
    fn run(
        &mut self,
        from: NodeId,
        addr: BlockAddr,
        event: XgiTag,
        data: Option<XgData>,
        ctx: &mut Ctx<'_>,
    ) {
        let mut cx = L2Cx {
            ctx,
            from,
            addr,
            data,
        };
        self.dispatch(self.state(addr), event, &mut cx);
    }

    /// Issues an upward Get on behalf of `requestor` and holds `addr` busy
    /// until the grant arrives.
    fn start_fetch(&mut self, addr: BlockAddr, requestor: NodeId, want_m: bool, ctx: &mut Ctx<'_>) {
        self.stats.up_gets += 1;
        let busy = Some(Busy::Fetch { requestor, want_m });
        self.blocks.open(addr, busy, ctx.now(), None);
        // Between handlers every record is busy, and `addr`'s just became so.
        debug_assert!(self.blocks.iter().all(|(_, b)| b.txn.is_some()));
        self.stats.mshr_occupancy.record(self.blocks.len() as u64);
        let req = if want_m { XgiKind::GetM } else { XgiKind::GetS };
        ctx.send(self.below, XgiMsg::new(addr, req).into());
    }

    // ----- L1-side flows ----------------------------------------------------

    /// An L1 Get on a block nothing holds busy.
    fn process_l1_get(&mut self, want_m: bool, cx: &mut L2Cx<'_, '_>) {
        let (from, addr) = (cx.from, cx.addr);
        if want_m {
            self.stats.l1_getms += 1;
        } else {
            self.stats.l1_gets += 1;
        }
        let Some(line) = self.array.get(addr) else {
            return self.start_fetch(addr, from, want_m, cx.ctx);
        };

        // Who has to give the block up before we can grant? The owner,
        // unless it is the requestor itself (a confused L1), and for a
        // write every other sharer.
        let owner_rerequest = line.owner == Some(from);
        let recall_sharers = want_m && !self.cfg.weak_sharing;
        let sharers = line.sharers.iter().copied();
        let holders = (line.owner.into_iter())
            .chain(sharers.filter(|_| recall_sharers))
            .filter(|&l1| l1 != from);
        let pending = recall(holders, addr, cx.ctx);
        if owner_rerequest {
            self.violation();
        }
        if pending > 0 {
            self.stats.recalls += 1;
            let busy = Busy::RecallForGrant {
                requestor: from,
                want_m,
                pending,
            };
            self.blocks.open(addr, Some(busy), cx.ctx.now(), None);
            return;
        }
        self.grant_l1(from, addr, want_m, false, cx.ctx);
    }

    /// Grants to an L1 once no conflicting holder remains. `prefer_shared`
    /// is set when a *read* just recalled the previous owner: granting S
    /// (instead of clean-exclusive) lets a reader community form instead of
    /// ping-ponging E between alternating readers.
    fn grant_l1(
        &mut self,
        from: NodeId,
        addr: BlockAddr,
        want_m: bool,
        prefer_shared: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(line) = self.array.get_mut(addr) else {
            self.violation();
            return;
        };
        if want_m && line.host == Host::S {
            // Upgrade needed from the host before we can grant M.
            return self.start_fetch(addr, from, true, ctx);
        }
        let data = line.data.clone();
        let kind = if want_m {
            if !self.cfg.weak_sharing {
                line.sharers.clear();
            } else {
                // Weak sharing: siblings keep (possibly stale) S copies;
                // the new owner's writes become visible to them only after
                // both sides flush.
                line.sharers.remove(&from);
            }
            line.owner = Some(from);
            XgiKind::DataM { data }
        } else if !prefer_shared
            && line.sharers.is_empty()
            && line.host >= Host::E
            && line.owner.is_none()
        {
            line.owner = Some(from);
            if line.dirty || line.host == Host::M {
                XgiKind::DataM { data }
            } else {
                XgiKind::DataE { data }
            }
        } else {
            line.sharers.insert(from);
            XgiKind::DataS { data }
        };
        ctx.send(from, XgiMsg::new(addr, kind).into());
    }

    fn process_l1_put(&mut self, dirty: bool, cx: &mut L2Cx<'_, '_>) {
        let (from, addr) = (cx.from, cx.addr);
        self.stats.l1_puts += 1;
        // Puts are never queued: the interface promises exactly one
        // response, and the only race (our Inv crossing this Put) is
        // resolved by absorbing or discarding the data. An eviction's line
        // waits out its recall in the record, and takes the data there.
        let evicted = match self.blocks.get_mut(&addr).and_then(|b| b.txn.as_mut()) {
            Some(Busy::EvictRecall { line, .. }) => Some(line),
            _ => None,
        };
        if let Some(line) = evicted.or_else(|| self.array.get_mut(addr)) {
            if line.owner == Some(from) {
                if let Some(d) = cx.data.take() {
                    line.data = d;
                    line.dirty |= dirty;
                }
                line.owner = None;
            } else {
                line.sharers.remove(&from);
            }
        }
        cx.ctx.send(from, XgiMsg::new(addr, XgiKind::WbAck).into());
    }

    fn recall_response(&mut self, dirty: bool, cx: &mut L2Cx<'_, '_>) {
        let (from, addr) = (cx.from, cx.addr);
        let mut block = self.blocks.get_mut(&addr);
        let busy = block.as_mut().and_then(|b| b.txn.as_mut());
        let line = self.array.get_mut(addr);
        // Absorb returned data into wherever the line currently lives.
        match (cx.data.take(), line, busy) {
            (Some(d), Some(line), _) => {
                line.data = d;
                line.dirty |= dirty;
                line.owner = None;
                line.sharers.remove(&from);
            }
            (Some(d), None, Some(Busy::EvictRecall { line, .. })) => {
                line.data = d;
                line.dirty |= dirty;
            }
            (None, Some(line), _) => {
                line.sharers.remove(&from);
                if line.owner == Some(from) {
                    line.owner = None;
                }
            }
            _ => {}
        }

        let Some(block) = block else {
            return self.violation();
        };
        let Some(
            Busy::RecallForGrant { pending, .. }
            | Busy::HostInv { pending }
            | Busy::EvictRecall { pending, .. },
        ) = &mut block.txn
        else {
            return self.violation();
        };
        *pending -= 1;
        if *pending > 0 {
            return;
        }
        match block.txn.take() {
            Some(Busy::RecallForGrant {
                requestor, want_m, ..
            }) => {
                self.grant_l1(requestor, addr, want_m, !want_m, cx.ctx);
                // grant_l1 may have started an upgrade (busy again).
                self.drain(addr, cx.ctx);
            }
            Some(Busy::HostInv { .. }) => {
                self.respond_host_inv(addr, cx.ctx);
                self.drain(addr, cx.ctx);
            }
            Some(Busy::EvictRecall { line, .. }) => {
                self.start_evict_put(addr, line, cx.ctx);
            }
            _ => self.violation(),
        }
    }

    // ----- XG-side flows ----------------------------------------------------

    fn up_grant(&mut self, host: Host, cx: &mut L2Cx<'_, '_>) {
        let addr = cx.addr;
        let (Some(data), Some(block)) = (cx.data.take(), self.blocks.get_mut(&addr)) else {
            return self.violation();
        };
        let Some(Busy::Fetch { requestor, want_m }) = block.txn else {
            return self.violation();
        };
        let waited = cx.ctx.now().saturating_since(block.since);
        self.stats.lat_up_get.record(waited);
        if let Some(line) = self.array.get_mut(addr) {
            // Upgrade completion for a resident S line.
            block.txn = None;
            line.host = host.max(Host::E);
            line.data = data;
            self.grant_l1(requestor, addr, want_m, false, cx.ctx);
            self.drain(addr, cx.ctx);
            return;
        }
        block.txn = Some(Busy::InstallWait {
            requestor,
            want_m,
            data,
            host,
        });
        if !self.try_install(addr, cx.ctx) {
            self.stats.install_retries += 1;
            self.installs.park(addr, &mut self.spare_installs);
        }
    }

    /// Installs `addr`'s parked grant, evicting a victim first if the set is
    /// full. `false` when every candidate way is mid-transaction: the grant
    /// parks in `installs` until a record closes.
    fn try_install(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) -> bool {
        let busy = self.blocks.get(&addr).map(|b| &b.txn);
        if !matches!(busy, Some(Some(Busy::InstallWait { .. }))) {
            return true;
        }
        if self.array.needs_eviction(addr) {
            // A block with a record is mid-transaction: not a victim.
            let blocks = &self.blocks;
            let victim = self
                .array
                .take_victim_where(addr, |a, _| !blocks.contains_key(&a));
            let Some((victim_addr, line)) = victim else {
                return false;
            };
            self.start_eviction(victim_addr, line, ctx);
        }
        // Evicting the victim never touches this block's own record.
        let Some(block) = self.blocks.get_mut(&addr) else {
            return true;
        };
        match block.txn.take() {
            Some(Busy::InstallWait {
                requestor,
                want_m,
                data,
                host,
            }) => {
                self.array.insert(
                    addr,
                    L2Line {
                        data,
                        dirty: false,
                        host,
                        sharers: SortedSet::new(),
                        owner: None,
                    },
                );
                self.grant_l1(requestor, addr, want_m, false, ctx);
                self.drain(addr, ctx);
            }
            other => block.txn = other,
        }
        true
    }

    /// A guard Inv on a block nothing holds busy.
    fn process_host_inv(&mut self, cx: &mut L2Cx<'_, '_>) {
        let addr = cx.addr;
        self.stats.host_invs += 1;
        let Some(line) = self.array.get(addr) else {
            // Nothing held (e.g. our Put crossed this Inv).
            return cx
                .ctx
                .send(self.below, XgiMsg::new(addr, XgiKind::InvAck).into());
        };
        let pending = recall(line.holders(), addr, cx.ctx);
        if pending == 0 {
            return self.respond_host_inv(addr, cx.ctx);
        }
        self.stats.recalls += 1;
        let busy = Some(Busy::HostInv { pending });
        self.blocks.open(addr, busy, cx.ctx.now(), None);
    }

    /// A guard Inv on a grant parked waiting for a way outranks it: the data
    /// goes back, and the waiting L1's Get is fetched again.
    fn surrender(&mut self, cx: &mut L2Cx<'_, '_>) {
        let addr = cx.addr;
        let busy = self.blocks.get_mut(&addr).and_then(|b| b.txn.take());
        let Some(Busy::InstallWait {
            requestor,
            want_m,
            data,
            host,
        }) = busy
        else {
            return self.violation();
        };
        self.installs
            .pop_first(&mut self.spare_installs, |&a| a == addr);
        let resp = match host {
            Host::M => XgiKind::DirtyWb { data },
            Host::E => XgiKind::CleanWb { data },
            Host::S => XgiKind::InvAck,
        };
        cx.ctx.send(self.below, XgiMsg::new(addr, resp).into());
        self.start_fetch(addr, requestor, want_m, cx.ctx);
    }

    fn respond_host_inv(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        let Some(line) = self.array.remove(addr) else {
            self.violation();
            return;
        };
        let data = line.data;
        let resp = match (line.host, line.dirty) {
            (Host::M, _) | (_, true) => XgiKind::DirtyWb { data },
            (Host::E, false) => XgiKind::CleanWb { data },
            (Host::S, false) => XgiKind::InvAck,
        };
        ctx.send(self.below, XgiMsg::new(addr, resp).into());
    }

    // ----- inclusive evictions ----------------------------------------------

    fn start_eviction(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        let pending = recall(line.holders(), addr, ctx);
        if pending == 0 {
            self.start_evict_put(addr, line, ctx);
            return;
        }
        self.stats.recalls += 1;
        let busy = Some(Busy::EvictRecall { pending, line });
        self.blocks.open(addr, busy, ctx.now(), None);
    }

    fn start_evict_put(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        self.stats.up_puts += 1;
        let data = line.data;
        let req = match (line.host, line.dirty) {
            (Host::M, _) | (_, true) => XgiKind::PutM { data },
            (Host::E, false) => XgiKind::PutE { data },
            (Host::S, false) => XgiKind::PutS,
        };
        self.blocks
            .open(addr, Some(Busy::EvictPut), ctx.now(), None);
        ctx.send(self.below, XgiMsg::new(addr, req).into());
    }

    /// Installs the grants parked for a way while one has room; a way is a
    /// victim only while its block has no record, so a record just closed.
    fn install_parked(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let (array, blocks) = (&self.array, &self.blocks);
            let room = |&a: &BlockAddr| array.has_room_where(a, |v, _| !blocks.contains_key(&v));
            let Some(addr) = self.installs.pop_first(&mut self.spare_installs, room) else {
                return;
            };
            self.try_install(addr, ctx);
        }
    }

    /// Runs the messages parked on `addr` while it is free, and a guard
    /// `Inv` also while the block waits on the guard; once the record
    /// closes, a way may be a victim again.
    fn drain(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        // A guard Inv must never wait on a transaction that itself waits on
        // the guard: our request would park at the guard behind its own
        // pending Inv. An internal recall stalls a guard Inv again, so it
        // drains when the recall resolves.
        let inv = (self.below, XgiTag::Inv);
        let admit = |busy: &Option<Busy>, &m: &(NodeId, XgiTag)| match busy {
            None => true,
            Some(Busy::Fetch { .. } | Busy::InstallWait { .. } | Busy::EvictPut) => m == inv,
            Some(_) => false,
        };
        loop {
            match self.blocks.next(addr, admit) {
                Next::Run((from, event)) => self.run(from, addr, event, None, ctx),
                Next::Closed => return self.install_parked(ctx),
                Next::Hold => return,
            }
        }
    }
}

impl<'a, 'b> Controller<L2State, XgiTag, L2Action, L2Cx<'a, 'b>> for AccelL2 {
    fn machine(&mut self) -> &mut Machine<L2State, XgiTag, L2Action> {
        &mut self.machine
    }

    fn apply(&mut self, action: L2Action, step: Step<L2State, XgiTag>, cx: &mut L2Cx<'a, 'b>) {
        match action {
            L2Action::Get => self.process_l1_get(step.event == XgiTag::GetM, cx),
            L2Action::TakePut => self.process_l1_put(step.event == XgiTag::PutM, cx),
            L2Action::Recalled => self.recall_response(step.event == XgiTag::DirtyWb, cx),
            L2Action::Fill => {
                let host = match step.event {
                    XgiTag::DataM => Host::M,
                    XgiTag::DataE => Host::E,
                    _ => Host::S,
                };
                self.up_grant(host, cx);
            }
            L2Action::Retire => {
                if let Some(block) = self.blocks.get_mut(&cx.addr) {
                    block.txn = None;
                }
                self.drain(cx.addr, cx.ctx);
            }
            L2Action::Invalidate => self.process_host_inv(cx),
            L2Action::AckInv => {
                let ack = XgiMsg::new(cx.addr, XgiKind::InvAck);
                cx.ctx.send(self.below, ack.into());
            }
            L2Action::Surrender => self.surrender(cx),
        }
    }

    fn stalled(&mut self, step: Step<L2State, XgiTag>, cx: &mut L2Cx<'a, 'b>) {
        // Only busy blocks stall, and a busy block has a record.
        if !self.blocks.park(cx.addr, (cx.from, step.event)) {
            self.violation();
        }
    }

    fn violated(&mut self, _step: Step<L2State, XgiTag>, _cx: &mut L2Cx<'a, 'b>) {
        self.violation();
    }
}

impl Component<Message> for AccelL2 {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Xgi(msg) = msg else {
            return self.violation();
        };
        let addr = msg.addr;
        ctx.trace(addr.as_u64(), "accel-l2", "Recv", || {
            let side = if from == self.below { "xg" } else { "l1" };
            format!(
                "{} from {side} (busy={})",
                msg.kind,
                self.blocks.get(&addr).is_some_and(|b| b.txn.is_some())
            )
        });
        let from_l1 = msg.kind.is_accel_request() || msg.kind.is_accel_response();
        let event = msg.kind.tag();
        let data = msg.kind.into_data();
        let sized = data
            .as_ref()
            .is_none_or(|d| d.len() == self.cfg.block_blocks);
        if from_l1 == (from == self.below) || !sized {
            return self.violation();
        }
        self.run(from, addr, event, data, ctx);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.l1_gets"), self.stats.l1_gets);
        out.add(format_args!("{n}.l1_getms"), self.stats.l1_getms);
        out.add(format_args!("{n}.l1_puts"), self.stats.l1_puts);
        out.add(format_args!("{n}.up_gets"), self.stats.up_gets);
        out.add(format_args!("{n}.up_puts"), self.stats.up_puts);
        out.add(format_args!("{n}.recalls"), self.stats.recalls);
        out.add(format_args!("{n}.host_invs"), self.stats.host_invs);
        out.add(
            format_args!("{n}.install_retries"),
            self.stats.install_retries,
        );
        out.add(
            format_args!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        out.record_hist(format_args!("{n}.lat.up_get"), &self.stats.lat_up_get);
        out.record_hist(
            format_args!("{n}.mshr_occupancy"),
            &self.stats.mshr_occupancy,
        );
    }

    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }

    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        self.machine.visit_fired(visit);
    }
}
