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
//! host invalidations, inclusive evictions) serialize per block.

use std::collections::VecDeque;

use xg_mem::{BlockAddr, IdMap, Replacement, SetAssocCache, SortedSet, Spares};
use xg_proto::{Ctx, Message, XgData, XgiKind, XgiMsg, XgiTag};
use xg_sim::{alphabet, Component, CoverageGrid, Cycle, Histogram, NodeId, Report};

/// Configuration for an [`AccelL2`].
#[derive(Debug, Clone)]
pub struct AccelL2Config {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Seed for random replacement.
    pub seed: u64,
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
            replacement: Replacement::Lru,
            seed: 0,
            block_blocks: 1,
            weak_sharing: false,
        }
    }
}

alphabet! {
    /// Per-block state coverage is keyed by: what the array holds, or the
    /// transaction holding the block busy.
    enum L2State {
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

/// Host-granted state of a resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Host {
    S,
    E,
    M,
}

#[derive(Debug, Clone)]
struct L2Line {
    data: XgData,
    dirty: bool,
    host: Host,
    sharers: SortedSet<NodeId>,
    owner: Option<NodeId>,
}

impl L2Line {
    /// The L1s holding a copy: the owner first, then the sharers.
    fn holders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.owner.into_iter().chain(self.sharers.iter().copied())
    }
}

/// Coverage state of a block nothing holds busy.
fn line_state(line: Option<&L2Line>) -> L2State {
    match line {
        None => L2State::NP,
        Some(line) if line.owner.is_some() => L2State::Owned,
        Some(line) if line.sharers.is_empty() => L2State::Present,
        Some(_) => L2State::Shared,
    }
}

#[derive(Debug)]
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

impl Busy {
    fn state(&self) -> L2State {
        match self {
            Busy::Fetch { .. } => L2State::BusyFetch,
            Busy::InstallWait { .. } => L2State::BusyInstall,
            Busy::RecallForGrant { .. } => L2State::BusyRecall,
            Busy::HostInv { .. } => L2State::BusyHostInv,
            Busy::EvictRecall { .. } => L2State::BusyEvictRecall,
            Busy::EvictPut => L2State::BusyEvictPut,
        }
    }
}

/// Everything open on one block: the transaction holding it busy (if any)
/// and the requests parked behind it. A record exists only while one of the
/// two does; `drain` removes it.
#[derive(Debug, Default)]
struct Block {
    busy: Option<Busy>,
    /// Cycle `busy` was last opened; times `lat.up_get` for a `Fetch`.
    since: Cycle,
    queue: Queue,
}

type Queue = VecDeque<(NodeId, XgiKind)>;

/// Parks a request in the queue of a busy block.
fn park(queue: &mut Queue, spares: &mut Spares<Queue>, from: NodeId, kind: XgiKind) {
    spares.equip(queue);
    queue.push_back((from, kind));
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

/// The shared inclusive accelerator L2.
pub struct AccelL2 {
    name: String,
    below: NodeId,
    cfg: AccelL2Config,
    array: SetAssocCache<L2Line>,
    blocks: IdMap<BlockAddr, Block>,
    /// Emptied `Block::queue` buffers, reused by the next parked request.
    spare_queues: Spares<Queue>,
    stats: Stats,
    /// `(state, event)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<L2State, XgiTag>,
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
            array: SetAssocCache::new(cfg.sets, cfg.ways, cfg.replacement, cfg.seed),
            blocks: IdMap::default(),
            cfg,
            spare_queues: Spares::default(),
            stats: Stats::default(),
            seen: CoverageGrid::new(),
        }
    }

    /// Impossible-event counter; stays zero against conforming L1s and XG.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    fn violation(&mut self) {
        self.stats.protocol_violation += 1;
    }

    fn busy(&self, addr: BlockAddr) -> Option<&Busy> {
        self.blocks.get(&addr).and_then(|b| b.busy.as_ref())
    }

    /// Opens a busy episode on `addr`.
    fn set_busy(&mut self, addr: BlockAddr, busy: Busy, ctx: &Ctx<'_>) {
        let block = self.blocks.entry(addr).or_default();
        block.busy = Some(busy);
        block.since = ctx.now();
    }

    /// Issues an upward Get on behalf of `requestor` and holds `addr` busy
    /// until the grant arrives.
    fn start_fetch(&mut self, addr: BlockAddr, requestor: NodeId, want_m: bool, ctx: &mut Ctx<'_>) {
        self.stats.up_gets += 1;
        self.set_busy(addr, Busy::Fetch { requestor, want_m }, ctx);
        // Between handlers every record is busy, and `addr`'s just became so.
        debug_assert!(self.blocks.values().all(|b| b.busy.is_some()));
        self.stats.mshr_occupancy.record(self.blocks.len() as u64);
        let req = if want_m { XgiKind::GetM } else { XgiKind::GetS };
        ctx.send(self.below, XgiMsg::new(addr, req).into());
    }

    /// Coverage state of `addr` given its record: the transaction holding
    /// it busy, else what the array holds. Handlers name the state from the
    /// record or line they look up anyway; this is for the paths (a
    /// violation, mostly) that have neither in hand.
    fn state_given(
        array: &SetAssocCache<L2Line>,
        addr: BlockAddr,
        block: Option<&Block>,
    ) -> L2State {
        match block.and_then(|b| b.busy.as_ref()) {
            Some(busy) => busy.state(),
            None => line_state(array.get(addr)),
        }
    }

    /// Counts a message no handler has a use for, against the block's state.
    fn stray(&mut self, addr: BlockAddr, event: XgiTag) {
        let state = Self::state_given(&self.array, addr, self.blocks.get(&addr));
        self.seen.visit(state, event);
        self.violation();
    }

    /// The payload of a data message, if it has the configured size.
    fn xg_data(&mut self, data: XgData) -> Option<XgData> {
        if data.len() == self.cfg.block_blocks {
            Some(data)
        } else {
            self.violation();
            None
        }
    }

    // ----- dispatch ---------------------------------------------------------

    fn handle_xgi(&mut self, from: NodeId, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        ctx.trace(addr.as_u64(), "accel-l2", "Recv", || {
            let side = if from == self.below { "xg" } else { "l1" };
            format!(
                "{} from {side} (busy={})",
                msg.kind,
                self.busy(addr).is_some()
            )
        });
        if from == self.below {
            self.handle_from_xg(addr, msg.kind, ctx);
        } else {
            self.handle_from_l1(from, addr, msg.kind, ctx);
        }
    }

    fn handle_from_l1(&mut self, from: NodeId, addr: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        let event = kind.tag();
        match kind {
            XgiKind::GetS | XgiKind::GetM => match self.blocks.get_mut(&addr) {
                Some(Block {
                    busy: Some(busy),
                    queue,
                    ..
                }) => {
                    self.seen.visit(busy.state(), event);
                    park(queue, &mut self.spare_queues, from, kind);
                }
                _ => self.process_l1_get(from, addr, matches!(kind, XgiKind::GetM), ctx),
            },
            XgiKind::PutS => self.process_l1_put(from, addr, event, None, false, ctx),
            XgiKind::PutE { data } => {
                let d = self.xg_data(data);
                self.process_l1_put(from, addr, event, d, false, ctx);
            }
            XgiKind::PutM { data } => {
                let d = self.xg_data(data);
                self.process_l1_put(from, addr, event, d, true, ctx);
            }
            // Responses to our own recalls.
            XgiKind::InvAck => self.recall_response(from, addr, event, None, false, ctx),
            XgiKind::CleanWb { data } => {
                let d = self.xg_data(data);
                self.recall_response(from, addr, event, d, false, ctx);
            }
            XgiKind::DirtyWb { data } => {
                let d = self.xg_data(data);
                self.recall_response(from, addr, event, d, true, ctx);
            }
            _ => self.stray(addr, event),
        }
    }

    fn handle_from_xg(&mut self, addr: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        let event = kind.tag();
        match kind {
            XgiKind::DataS { data } => self.up_grant(addr, event, data, Host::S, ctx),
            XgiKind::DataE { data } => self.up_grant(addr, event, data, Host::E, ctx),
            XgiKind::DataM { data } => self.up_grant(addr, event, data, Host::M, ctx),
            XgiKind::WbAck => match self.blocks.get_mut(&addr) {
                Some(block) if matches!(block.busy, Some(Busy::EvictPut)) => {
                    self.seen.visit(L2State::BusyEvictPut, event);
                    block.busy = None;
                    self.drain(addr, ctx);
                }
                _ => self.stray(addr, event),
            },
            XgiKind::Inv => {
                // Invariant: a guard Inv must never end up waiting on a
                // transaction that itself waits on the guard — that is a
                // deadlock cycle (our request parks at the guard behind its
                // own pending Inv). Transactions that depend on the guard
                // are answered immediately; only guard-independent internal
                // recalls may briefly queue the Inv (and the drain pulls
                // guard Invs out with priority).
                let below = self.below;
                let Some(Block {
                    busy: Some(busy),
                    queue,
                    ..
                }) = self.blocks.get_mut(&addr)
                else {
                    // No record, or mid-drain with the block no longer busy.
                    return self.process_host_inv(addr, ctx);
                };
                self.seen.visit(busy.state(), event);
                match busy {
                    // Our own Get crossed this Inv on the ordered link: we
                    // hold nothing yet (the Table 1 `B + Inv → InvAck` rule
                    // lifted to the L2). Or our eviction's Put crossed it:
                    // the guard will consume the Put's data (the interface's
                    // one legal race) and the ordered link guarantees it
                    // sees the Put before this ack.
                    Busy::Fetch { .. } | Busy::EvictPut => {
                        ctx.send(below, XgiMsg::new(addr, XgiKind::InvAck).into());
                    }
                    // A grant arrived but is parked waiting for a way: the
                    // Inv outranks it. Surrender the parked data and
                    // re-fetch for the waiting L1.
                    Busy::InstallWait {
                        requestor,
                        want_m,
                        data,
                        host,
                    } => {
                        let (requestor, want_m) = (*requestor, *want_m);
                        let data = std::mem::take(data);
                        let resp = match host {
                            Host::M => XgiKind::DirtyWb { data },
                            Host::E => XgiKind::CleanWb { data },
                            Host::S => XgiKind::InvAck,
                        };
                        ctx.send(below, XgiMsg::new(addr, resp).into());
                        self.start_fetch(addr, requestor, want_m, ctx);
                    }
                    // Internal recalls resolve without the guard.
                    _ => park(queue, &mut self.spare_queues, below, XgiKind::Inv),
                }
            }
            _ => self.stray(addr, event),
        }
    }

    // ----- L1-side flows ----------------------------------------------------

    /// An L1 Get on a block nothing holds busy.
    fn process_l1_get(&mut self, from: NodeId, addr: BlockAddr, want_m: bool, ctx: &mut Ctx<'_>) {
        let event = if want_m {
            self.stats.l1_getms += 1;
            XgiTag::GetM
        } else {
            self.stats.l1_gets += 1;
            XgiTag::GetS
        };
        let line = self.array.get(addr);
        self.seen.visit(line_state(line), event);
        let Some(line) = line else {
            return self.start_fetch(addr, from, want_m, ctx);
        };

        // Who has to give the block up before we can grant? The owner,
        // unless it is the requestor itself (a confused L1), and for a
        // write every other sharer.
        let owner_rerequest = line.owner == Some(from);
        let recall_sharers = want_m && !self.cfg.weak_sharing;
        let sharers = line.sharers.iter().copied();
        let recall = (line.owner.into_iter())
            .chain(sharers.filter(|_| recall_sharers))
            .filter(|&l1| l1 != from);
        let mut pending = 0;
        for l1 in recall {
            ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
            pending += 1;
        }
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
            return self.set_busy(addr, busy, ctx);
        }
        self.grant_l1(from, addr, want_m, false, ctx);
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

    fn process_l1_put(
        &mut self,
        from: NodeId,
        addr: BlockAddr,
        event: XgiTag,
        data: Option<XgData>,
        dirty: bool,
        ctx: &mut Ctx<'_>,
    ) {
        self.stats.l1_puts += 1;
        let busy = self.busy(addr).map(Busy::state);
        let line = self.array.get_mut(addr);
        self.seen
            .visit(busy.unwrap_or_else(|| line_state(line.as_deref())), event);
        // Puts are never queued: the interface promises exactly one
        // response, and the only race (our Inv crossing this Put) is
        // resolved by absorbing or discarding the data.
        if let Some(line) = line {
            if line.owner == Some(from) {
                if let Some(d) = data {
                    line.data = d;
                    line.dirty |= dirty;
                }
                line.owner = None;
            } else {
                line.sharers.remove(&from);
            }
        }
        ctx.send(from, XgiMsg::new(addr, XgiKind::WbAck).into());
    }

    fn recall_response(
        &mut self,
        from: NodeId,
        addr: BlockAddr,
        event: XgiTag,
        data: Option<XgData>,
        dirty: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let mut block = self.blocks.get_mut(&addr);
        let busy = block.as_mut().and_then(|b| b.busy.as_mut());
        let line = self.array.get_mut(addr);
        let state = match &busy {
            Some(busy) => busy.state(),
            None => line_state(line.as_deref()),
        };
        self.seen.visit(state, event);
        // Absorb returned data into wherever the line currently lives.
        match (data, line, busy) {
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
        ) = &mut block.busy
        else {
            return self.violation();
        };
        *pending -= 1;
        if *pending > 0 {
            return;
        }
        match block.busy.take() {
            Some(Busy::RecallForGrant {
                requestor, want_m, ..
            }) => {
                self.grant_l1(requestor, addr, want_m, !want_m, ctx);
                // grant_l1 may have started an upgrade (busy again).
                self.drain(addr, ctx);
            }
            Some(Busy::HostInv { .. }) => {
                self.respond_host_inv(addr, ctx);
                self.drain(addr, ctx);
            }
            Some(Busy::EvictRecall { line, .. }) => {
                self.start_evict_put(addr, line, ctx);
            }
            _ => self.violation(),
        }
    }

    // ----- XG-side flows ----------------------------------------------------

    fn up_grant(
        &mut self,
        addr: BlockAddr,
        event: XgiTag,
        data: XgData,
        host: Host,
        ctx: &mut Ctx<'_>,
    ) {
        let block = self.blocks.get_mut(&addr);
        let state = Self::state_given(&self.array, addr, block.as_deref());
        self.seen.visit(state, event);
        if data.len() != self.cfg.block_blocks {
            return self.violation();
        }
        let Some(block) = block else {
            return self.violation();
        };
        let Some(Busy::Fetch { requestor, want_m }) = block.busy else {
            return self.violation();
        };
        self.stats
            .lat_up_get
            .record(ctx.now().saturating_since(block.since));
        if let Some(line) = self.array.get_mut(addr) {
            // Upgrade completion for a resident S line.
            block.busy = None;
            line.host = host.max(Host::E);
            line.data = data;
            self.grant_l1(requestor, addr, want_m, false, ctx);
            self.drain(addr, ctx);
            return;
        }
        block.busy = Some(Busy::InstallWait {
            requestor,
            want_m,
            data,
            host,
        });
        if !self.try_install(addr, ctx) {
            self.stats.install_retries += 1;
        }
    }

    /// Installs `addr`'s parked grant, evicting a victim first if the set is
    /// full. `false` when every candidate way is mid-transaction: the grant
    /// stays parked, and [`retry_installs`](Self::retry_installs) tries
    /// again when a record closes.
    fn try_install(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) -> bool {
        if !matches!(self.busy(addr), Some(Busy::InstallWait { .. })) {
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
        match block.busy.take() {
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
            other => block.busy = other,
        }
        true
    }

    /// Retries every parked grant, in `blocks` order. Called where a record
    /// closes: a way is a victim candidate only while its block has no
    /// record, so that is the one event that can unblock a parked grant.
    fn retry_installs(&mut self, ctx: &mut Ctx<'_>) {
        // Empty, and so not allocated, unless a fill is parked.
        let waiting: Vec<BlockAddr> = self
            .blocks
            .iter()
            .filter(|(_, b)| matches!(b.busy, Some(Busy::InstallWait { .. })))
            .map(|(&a, _)| a)
            .collect();
        for addr in waiting {
            self.try_install(addr, ctx);
        }
    }

    /// A guard Inv on a block nothing holds busy.
    fn process_host_inv(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        self.stats.host_invs += 1;
        let line = self.array.get(addr);
        self.seen.visit(line_state(line), XgiTag::Inv);
        let Some(line) = line else {
            // Nothing held (e.g. our Put crossed this Inv).
            ctx.send(self.below, XgiMsg::new(addr, XgiKind::InvAck).into());
            return;
        };
        let mut pending = 0;
        for l1 in line.holders() {
            ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
            pending += 1;
        }
        if pending == 0 {
            self.respond_host_inv(addr, ctx);
            return;
        }
        self.stats.recalls += 1;
        self.set_busy(addr, Busy::HostInv { pending }, ctx);
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
        let mut pending = 0;
        for l1 in line.holders() {
            ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
            pending += 1;
        }
        if pending == 0 {
            self.start_evict_put(addr, line, ctx);
            return;
        }
        self.stats.recalls += 1;
        self.set_busy(addr, Busy::EvictRecall { pending, line }, ctx);
    }

    fn start_evict_put(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        self.stats.up_puts += 1;
        let data = line.data;
        let req = match (line.host, line.dirty) {
            (Host::M, _) | (_, true) => XgiKind::PutM { data },
            (Host::E, false) => XgiKind::PutE { data },
            (Host::S, false) => XgiKind::PutS,
        };
        self.set_busy(addr, Busy::EvictPut, ctx);
        ctx.send(self.below, XgiMsg::new(addr, req).into());
    }

    fn drain(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        let below = self.below;
        loop {
            let Some(block) = self.blocks.get_mut(&addr) else {
                return;
            };
            let next = match block.busy {
                None => block.queue.pop_front(),
                // Guard Invs drain with priority even when a new busy state
                // has started, so they can never be trapped behind an L1
                // request that turned into an upward fetch (see
                // handle_from_xg::Inv).
                Some(Busy::Fetch { .. } | Busy::InstallWait { .. } | Busy::EvictPut) => block
                    .queue
                    .iter()
                    .position(|(from, kind)| *from == below && matches!(kind, XgiKind::Inv))
                    .and_then(|i| block.queue.remove(i)),
                // Only the guard-dependent states answer a guard Inv at
                // once. An internal recall re-queues it, so pulling it out
                // here would spin inside this call forever; it drains when
                // the recall resolves.
                Some(_) => return,
            };
            let Some((from, kind)) = next else {
                if block.busy.is_none() {
                    if let Some(block) = self.blocks.remove(&addr) {
                        self.spare_queues.unequip(block.queue);
                    }
                    self.retry_installs(ctx);
                }
                return;
            };
            if from == self.below {
                self.handle_from_xg(addr, kind, ctx);
            } else {
                match kind {
                    XgiKind::GetS | XgiKind::GetM => {
                        self.process_l1_get(from, addr, matches!(kind, XgiKind::GetM), ctx)
                    }
                    _ => self.stray(addr, kind.tag()),
                }
            }
        }
    }
}

impl Component<Message> for AccelL2 {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        match msg {
            Message::Xgi(x) => self.handle_xgi(from, x, ctx),
            _ => self.violation(),
        }
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format!("{n}.l1_gets"), self.stats.l1_gets);
        out.add(format!("{n}.l1_getms"), self.stats.l1_getms);
        out.add(format!("{n}.l1_puts"), self.stats.l1_puts);
        out.add(format!("{n}.up_gets"), self.stats.up_gets);
        out.add(format!("{n}.up_puts"), self.stats.up_puts);
        out.add(format!("{n}.recalls"), self.stats.recalls);
        out.add(format!("{n}.host_invs"), self.stats.host_invs);
        out.add(format!("{n}.install_retries"), self.stats.install_retries);
        out.add(
            format!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        out.record_grid(format!("accel_l2/{n}"), &self.seen);
        out.record_hist(format!("{n}.lat.up_get"), &self.stats.lat_up_get);
        out.record_hist(format!("{n}.mshr_occupancy"), &self.stats.mshr_occupancy);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
