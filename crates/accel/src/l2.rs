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

use std::collections::{BTreeSet, VecDeque};

use xg_mem::{BlockAddr, DataBlock, IdMap, Replacement, SetAssocCache};
use xg_proto::{Ctx, Message, XgData, XgiKind, XgiMsg};
use xg_sim::{Component, CoverageSet, Cycle, Histogram, NodeId, Report};

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

/// Host-granted state of a resident block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Host {
    S,
    E,
    M,
}

#[derive(Debug, Clone)]
struct L2Line {
    data: Vec<DataBlock>,
    dirty: bool,
    host: Host,
    sharers: BTreeSet<NodeId>,
    owner: Option<NodeId>,
}

#[derive(Debug)]
enum Busy {
    /// Upward Get in flight.
    Fetch { requestor: NodeId, want_m: bool },
    /// Fetched data parked until a way frees.
    InstallWait {
        requestor: NodeId,
        want_m: bool,
        data: Vec<DataBlock>,
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

/// Everything open on one block: the transaction holding it busy (if any)
/// and the requests parked behind it. A record exists only while one of the
/// two does; `drain` removes it.
#[derive(Debug, Default)]
struct Block {
    busy: Option<Busy>,
    /// Cycle `busy` was last opened; times `lat.up_get` for a `Fetch`.
    since: Cycle,
    queue: VecDeque<(NodeId, XgiKind)>,
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
    stats: Stats,
    coverage: CoverageSet,
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
            stats: Stats::default(),
            coverage: CoverageSet::new(),
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

    fn state_name(&self, addr: BlockAddr) -> &'static str {
        if let Some(b) = self.busy(addr) {
            match b {
                Busy::Fetch { .. } => "Busy_Fetch",
                Busy::InstallWait { .. } => "Busy_Install",
                Busy::RecallForGrant { .. } => "Busy_Recall",
                Busy::HostInv { .. } => "Busy_HostInv",
                Busy::EvictRecall { .. } => "Busy_EvictRecall",
                Busy::EvictPut => "Busy_EvictPut",
            }
        } else if let Some(line) = self.array.get(addr) {
            if line.owner.is_some() {
                "Owned"
            } else if line.sharers.is_empty() {
                "Present"
            } else {
                "Shared"
            }
        } else {
            "NP"
        }
    }

    fn cover(&mut self, addr: BlockAddr, event: &'static str) {
        let state = self.state_name(addr);
        self.coverage.visit(state, event);
    }

    fn xg_data(&mut self, data: &XgData) -> Option<Vec<DataBlock>> {
        if data.len() == self.cfg.block_blocks {
            Some(data.blocks().to_vec())
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
        self.cover(addr, kind_event(&msg.kind));
        if from == self.below {
            self.handle_from_xg(addr, msg.kind, ctx);
        } else {
            self.handle_from_l1(from, addr, msg.kind, ctx);
        }
    }

    fn handle_from_l1(&mut self, from: NodeId, addr: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        match kind {
            XgiKind::GetS | XgiKind::GetM => match self.blocks.get_mut(&addr) {
                Some(block) if block.busy.is_some() => block.queue.push_back((from, kind)),
                _ => self.process_l1_get(from, addr, matches!(kind, XgiKind::GetM), ctx),
            },
            XgiKind::PutS => self.process_l1_put(from, addr, None, false, ctx),
            XgiKind::PutE { data } => {
                let d = self.xg_data(&data);
                self.process_l1_put(from, addr, d, false, ctx);
            }
            XgiKind::PutM { data } => {
                let d = self.xg_data(&data);
                self.process_l1_put(from, addr, d, true, ctx);
            }
            // Responses to our own recalls.
            XgiKind::InvAck => self.recall_response(from, addr, None, false, ctx),
            XgiKind::CleanWb { data } => {
                let d = self.xg_data(&data);
                self.recall_response(from, addr, d, false, ctx);
            }
            XgiKind::DirtyWb { data } => {
                let d = self.xg_data(&data);
                self.recall_response(from, addr, d, true, ctx);
            }
            _ => self.violation(),
        }
    }

    fn handle_from_xg(&mut self, addr: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        match kind {
            XgiKind::DataS { data } => self.up_grant(addr, data, Host::S, ctx),
            XgiKind::DataE { data } => self.up_grant(addr, data, Host::E, ctx),
            XgiKind::DataM { data } => self.up_grant(addr, data, Host::M, ctx),
            XgiKind::WbAck => match self.blocks.get_mut(&addr) {
                Some(block) if matches!(block.busy, Some(Busy::EvictPut)) => {
                    block.busy = None;
                    self.drain(addr, ctx);
                }
                _ => self.violation(),
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
                let Some(block) = self.blocks.get_mut(&addr) else {
                    return self.process_host_inv(addr, ctx);
                };
                match &mut block.busy {
                    // Our own Get crossed this Inv on the ordered link: we
                    // hold nothing yet (the Table 1 `B + Inv → InvAck` rule
                    // lifted to the L2). Or our eviction's Put crossed it:
                    // the guard will consume the Put's data (the interface's
                    // one legal race) and the ordered link guarantees it
                    // sees the Put before this ack.
                    Some(Busy::Fetch { .. } | Busy::EvictPut) => {
                        ctx.send(below, XgiMsg::new(addr, XgiKind::InvAck).into());
                    }
                    // A grant arrived but is parked waiting for a way: the
                    // Inv outranks it. Surrender the parked data and
                    // re-fetch for the waiting L1.
                    Some(Busy::InstallWait {
                        requestor,
                        want_m,
                        data,
                        host,
                    }) => {
                        let (requestor, want_m) = (*requestor, *want_m);
                        let data = XgData::from_blocks(std::mem::take(data));
                        let resp = match host {
                            Host::M => XgiKind::DirtyWb { data },
                            Host::E => XgiKind::CleanWb { data },
                            Host::S => XgiKind::InvAck,
                        };
                        ctx.send(below, XgiMsg::new(addr, resp).into());
                        self.start_fetch(addr, requestor, want_m, ctx);
                    }
                    // Internal recalls resolve without the guard.
                    Some(_) => block.queue.push_back((below, XgiKind::Inv)),
                    // Mid-drain: the block just stopped being busy.
                    None => self.process_host_inv(addr, ctx),
                }
            }
            _ => self.violation(),
        }
    }

    // ----- L1-side flows ----------------------------------------------------

    fn process_l1_get(&mut self, from: NodeId, addr: BlockAddr, want_m: bool, ctx: &mut Ctx<'_>) {
        if want_m {
            self.stats.l1_getms += 1;
        } else {
            self.stats.l1_gets += 1;
        }
        let Some(line) = self.array.get(addr) else {
            return self.start_fetch(addr, from, want_m, ctx);
        };

        // Who has to give the block up before we can grant?
        let mut recall: Vec<NodeId> = Vec::new();
        let mut owner_rerequest = false;
        if let Some(owner) = line.owner {
            if owner != from {
                recall.push(owner);
            } else {
                // An owner re-requesting is a confused L1.
                owner_rerequest = true;
            }
        }
        if want_m && !self.cfg.weak_sharing {
            recall.extend(line.sharers.iter().copied().filter(|&s| s != from));
        }
        if owner_rerequest {
            self.violation();
        }
        if !recall.is_empty() {
            self.stats.recalls += 1;
            let pending = recall.len() as u32;
            for l1 in recall {
                ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
            }
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
        let data = XgData::from_blocks(line.data.clone());
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
        data: Option<Vec<DataBlock>>,
        dirty: bool,
        ctx: &mut Ctx<'_>,
    ) {
        self.stats.l1_puts += 1;
        // Puts are never queued: the interface promises exactly one
        // response, and the only race (our Inv crossing this Put) is
        // resolved by absorbing or discarding the data.
        if let Some(line) = self.array.get_mut(addr) {
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
        data: Option<Vec<DataBlock>>,
        dirty: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let mut block = self.blocks.get_mut(&addr);
        // Absorb returned data into wherever the line currently lives.
        if let Some(d) = data {
            if let Some(line) = self.array.get_mut(addr) {
                line.data = d;
                line.dirty |= dirty;
                line.owner = None;
                line.sharers.remove(&from);
            } else if let Some(Busy::EvictRecall { line, .. }) =
                block.as_mut().and_then(|b| b.busy.as_mut())
            {
                line.data = d;
                line.dirty |= dirty;
            }
        } else if let Some(line) = self.array.get_mut(addr) {
            line.sharers.remove(&from);
            if line.owner == Some(from) {
                line.owner = None;
            }
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

    fn up_grant(&mut self, addr: BlockAddr, data: XgData, host: Host, ctx: &mut Ctx<'_>) {
        let Some(data) = self.xg_data(&data) else {
            return;
        };
        let Some(block) = self.blocks.get_mut(&addr) else {
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
        self.try_install(addr, ctx);
    }

    fn try_install(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        if !matches!(self.busy(addr), Some(Busy::InstallWait { .. })) {
            return;
        }
        if self.array.needs_eviction(addr) {
            // A block with a record is mid-transaction: not a victim.
            let blocks = &self.blocks;
            match self
                .array
                .take_victim_where(addr, |a, _| !blocks.contains_key(&a))
            {
                Some((victim_addr, line)) => self.start_eviction(victim_addr, line, ctx),
                None => {
                    self.stats.install_retries += 1;
                    ctx.wake_in(4, addr.as_u64());
                    return;
                }
            }
        }
        // Evicting the victim never touches this block's own record.
        let Some(block) = self.blocks.get_mut(&addr) else {
            return;
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
                        sharers: BTreeSet::new(),
                        owner: None,
                    },
                );
                self.grant_l1(requestor, addr, want_m, false, ctx);
                self.drain(addr, ctx);
            }
            other => block.busy = other,
        }
    }

    fn process_host_inv(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        self.stats.host_invs += 1;
        let Some(line) = self.array.get(addr) else {
            // Nothing held (e.g. our Put crossed this Inv).
            ctx.send(self.below, XgiMsg::new(addr, XgiKind::InvAck).into());
            return;
        };
        let holders: Vec<NodeId> = line
            .owner
            .iter()
            .copied()
            .chain(line.sharers.iter().copied())
            .collect();
        if holders.is_empty() {
            self.respond_host_inv(addr, ctx);
            return;
        }
        self.stats.recalls += 1;
        let pending = holders.len() as u32;
        self.set_busy(addr, Busy::HostInv { pending }, ctx);
        for l1 in holders {
            ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
        }
    }

    fn respond_host_inv(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        let Some(line) = self.array.remove(addr) else {
            self.violation();
            return;
        };
        let data = XgData::from_blocks(line.data);
        let resp = match (line.host, line.dirty) {
            (Host::M, _) | (_, true) => XgiKind::DirtyWb { data },
            (Host::E, false) => XgiKind::CleanWb { data },
            (Host::S, false) => XgiKind::InvAck,
        };
        ctx.send(self.below, XgiMsg::new(addr, resp).into());
        ctx.note_progress();
    }

    // ----- inclusive evictions ----------------------------------------------

    fn start_eviction(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        let holders: Vec<NodeId> = line
            .owner
            .iter()
            .copied()
            .chain(line.sharers.iter().copied())
            .collect();
        if holders.is_empty() {
            self.start_evict_put(addr, line, ctx);
            return;
        }
        self.stats.recalls += 1;
        for &l1 in &holders {
            ctx.send(l1, XgiMsg::new(addr, XgiKind::Inv).into());
        }
        let pending = holders.len() as u32;
        self.set_busy(addr, Busy::EvictRecall { pending, line }, ctx);
    }

    fn start_evict_put(&mut self, addr: BlockAddr, line: L2Line, ctx: &mut Ctx<'_>) {
        self.stats.up_puts += 1;
        let data = XgData::from_blocks(line.data);
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
                    self.blocks.remove(&addr);
                }
                return;
            };
            self.cover(addr, kind_event(&kind));
            if from == self.below {
                self.handle_from_xg(addr, kind, ctx);
            } else {
                match kind {
                    XgiKind::GetS | XgiKind::GetM => {
                        self.process_l1_get(from, addr, matches!(kind, XgiKind::GetM), ctx)
                    }
                    _ => self.violation(),
                }
            }
        }
    }
}

fn kind_event(kind: &XgiKind) -> &'static str {
    kind.mnemonic()
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

    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        self.try_install(BlockAddr::new(token), ctx);
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
        out.record_coverage(format!("accel_l2/{n}"), &self.coverage);
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
