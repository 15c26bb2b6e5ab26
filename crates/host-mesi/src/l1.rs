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

use xg_mem::{BlockAddr, DataBlock, Mshr, Replacement, SetAssocCache};
use xg_proto::{CoreKind, CoreMsg, Ctx, HomeMap, MesiKind, MesiMsg, Message};
use xg_sim::{CheckDigest, Component, CoverageSet, Cycle, Histogram, NodeId, Report};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L1State {
    M,
    E,
    S,
}

impl L1State {
    fn name(self) -> &'static str {
        match self {
            L1State::M => "M",
            L1State::E => "E",
            L1State::S => "S",
        }
    }
}

#[derive(Debug, Clone)]
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

#[derive(Debug, Clone)]
enum Txn {
    Get {
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
    },
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

/// Everything open on one block — the MSHR entry: the transaction, the
/// cycle it opened (for `lat.miss`), and the core ops parked behind it.
#[derive(Debug, Clone)]
struct Open {
    txn: Txn,
    started: Cycle,
    waiting: Vec<(NodeId, CoreMsg)>,
}

impl Txn {
    fn state_name(&self) -> &'static str {
        match self {
            Txn::Get {
                kind: GetKind::S, ..
            } => "IS_D",
            Txn::Get { local: Some(_), .. } => "SM_AD",
            Txn::Get { grant: None, .. } => "IM_AD",
            Txn::Get { .. } => "IM_A",
            Txn::Wb { nacked: true, .. } => "WB_N",
            Txn::Wb {
                invalidated: false, ..
            } => "WB",
            Txn::Wb {
                invalidated: true, ..
            } => "WB_I",
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
    stats: Stats,
    coverage: CoverageSet,
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
            stats: Stats::default(),
            coverage: CoverageSet::new(),
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
        self.state_name(addr)
    }

    /// Resident stable-line view of `addr`: `(data, dirty)`.
    pub fn probe_data(&self, addr: BlockAddr) -> Option<(DataBlock, bool)> {
        self.cache.get(addr).map(|l| (l.data, l.dirty))
    }

    fn state_name(&self, addr: BlockAddr) -> &'static str {
        if let Some(line) = self.cache.get(addr) {
            line.state.name()
        } else if let Some(open) = self.mshr.get(addr) {
            open.txn.state_name()
        } else {
            "I"
        }
    }

    fn txn_mut(&mut self, addr: BlockAddr) -> Option<&mut Txn> {
        self.mshr.get_mut(addr).map(|open| &mut open.txn)
    }

    fn cover(&mut self, addr: BlockAddr, event: &'static str) {
        let state = self.state_name(addr);
        self.coverage.visit(state, event);
    }

    fn violation(&mut self, why: &'static str) {
        self.stats.protocol_violation += 1;
        *self.stats.violation_reasons.entry(why).or_insert(0) += 1;
    }

    // ----- core side -------------------------------------------------------

    fn handle_core(&mut self, from: NodeId, msg: CoreMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr.block();
        let offset = msg.addr.block_offset() & !7;
        match msg.kind {
            CoreKind::Load => {
                self.cover(addr, "Load");
                self.stats.loads += 1;
            }
            CoreKind::Store { .. } => {
                self.cover(addr, "Store");
                self.stats.stores += 1;
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
        }

        if let Some(open) = self.mshr.get_mut(addr) {
            // One special case keeps SM_AD useful: loads still hit on the
            // retained shared copy.
            if let (CoreKind::Load, Txn::Get { local: Some(d), .. }) = (&msg.kind, &open.txn) {
                let value = d.read_u64(offset);
                ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
                return;
            }
            open.waiting.push((from, msg));
            return;
        }

        match msg.kind {
            CoreKind::Load => {
                if let Some(line) = self.cache.get_mut(addr) {
                    self.stats.hits += 1;
                    let value = line.data.read_u64(offset);
                    ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
                } else {
                    self.stats.misses += 1;
                    self.start_get(GetKind::S, addr, None, (from, msg), ctx);
                }
            }
            CoreKind::Store { value } => match self.cache.get_mut(addr) {
                Some(line) if matches!(line.state, L1State::M | L1State::E) => {
                    self.stats.hits += 1;
                    line.data.write_u64(offset, value);
                    line.dirty = true;
                    line.state = L1State::M;
                    ctx.send(from, msg.reply(CoreKind::StoreResp).into());
                }
                _ => {
                    // Miss, or an upgrade from S: the shared copy rides
                    // along in the transaction.
                    self.stats.misses += 1;
                    let local = self.cache.remove(addr).map(|line| line.data);
                    self.start_get(GetKind::M, addr, local, (from, msg), ctx);
                }
            },
            _ => self.violation("core sent a response kind"),
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
        let open = Open {
            txn: Txn::Get {
                kind,
                grant: None,
                acks_expected: None,
                acks_got: 0,
                local,
                poisoned: false,
                deferred: Vec::new(),
            },
            started: ctx.now(),
            waiting: vec![op],
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
                self.state_name(addr)
            )
        });
        match msg.kind {
            MesiKind::DataS { data } => {
                self.cover(addr, "DataS");
                self.grant(addr, data, L1State::S, false, 0, ctx);
            }
            MesiKind::DataE { data } => {
                self.cover(addr, "DataE");
                self.grant(addr, data, L1State::E, false, 0, ctx);
            }
            MesiKind::DataM { data, acks } => {
                self.cover(addr, "DataM");
                self.grant(addr, data, L1State::M, false, acks, ctx);
            }
            MesiKind::FwdData {
                data,
                dirty,
                exclusive,
            } => {
                self.cover(addr, "FwdData");
                let state = if exclusive { L1State::M } else { L1State::S };
                self.grant(addr, data, state, dirty, 0, ctx);
            }
            MesiKind::InvAck => {
                self.cover(addr, "InvAck");
                let Some(Txn::Get { acks_got, .. }) = self.txn_mut(addr) else {
                    return self.violation("InvAck without transaction");
                };
                *acks_got += 1;
                self.try_complete_get(addr, ctx);
            }
            MesiKind::Inv { requestor } => {
                self.cover(addr, "Inv");
                self.handle_inv(addr, requestor, ctx);
            }
            MesiKind::FwdGetS { requestor } => {
                self.cover(addr, "FwdGetS");
                self.handle_demand(addr, Deferred::FwdGetS(requestor), ctx);
            }
            MesiKind::FwdGetM { requestor } => {
                self.cover(addr, "FwdGetM");
                self.handle_demand(addr, Deferred::FwdGetM(requestor), ctx);
            }
            MesiKind::Recall => {
                self.cover(addr, "Recall");
                self.handle_demand(addr, Deferred::Recall, ctx);
            }
            MesiKind::WbAck => {
                self.cover(addr, "WbAck");
                match self.txn_mut(addr) {
                    Some(Txn::Wb { .. }) => {
                        self.stats.writebacks += 1;
                        self.close_writeback(addr, ctx);
                    }
                    _ => self.violation("WbAck without writeback"),
                }
            }
            MesiKind::WbNack => {
                self.cover(addr, "WbNack");
                match self.txn_mut(addr) {
                    Some(Txn::Wb {
                        invalidated: true, ..
                    }) => self.close_writeback(addr, ctx),
                    // The Nack overtook the demand that explains it (an
                    // Inv, FwdGetM, or Recall already in flight on the
                    // unordered network). Hold the data in WB_N and serve
                    // that demand when it lands.
                    Some(Txn::Wb { nacked, .. }) => *nacked = true,
                    _ => self.violation("WbNack without writeback"),
                }
            }
            _ => self.violation("request kind delivered to an L1"),
        }
        let _ = from;
    }

    fn grant(
        &mut self,
        addr: BlockAddr,
        data: DataBlock,
        state: L1State,
        dirty: bool,
        acks: u32,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(Txn::Get {
            grant: grant @ None,
            acks_expected,
            ..
        }) = self.txn_mut(addr)
        else {
            return self.violation("grant without matching transaction");
        };
        *grant = Some((data, state, dirty));
        *acks_expected = Some(acks);
        self.try_complete_get(addr, ctx);
    }

    fn handle_inv(&mut self, addr: BlockAddr, requestor: NodeId, ctx: &mut Ctx<'_>) {
        // Universal rule: always ack the requestor, then drop any shared
        // copy we hold. An Inv can be stale (sent at our old S copy and
        // reordered past its own epoch); acking is correct in every case.
        ctx.send(requestor, MesiMsg::new(addr, MesiKind::InvAck).into());
        if let Some(line) = self.cache.get(addr) {
            if line.state == L1State::S {
                self.cache.remove(addr);
            }
            return;
        }
        match self.txn_mut(addr) {
            Some(Txn::Get {
                kind: GetKind::S,
                poisoned,
                ..
            }) => {
                // ISI: the grant in flight is already stale.
                *poisoned = true;
                self.stats.isi_races += 1;
            }
            Some(Txn::Get { local, .. }) if local.is_some() => {
                // SM_AD loses its shared copy → IM_AD.
                *local = None;
                self.stats.isi_races += 1;
            }
            Some(Txn::Wb {
                kind: PutKind::S,
                invalidated,
                nacked,
                ..
            }) => {
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
    fn handle_demand(&mut self, addr: BlockAddr, demand: Deferred, ctx: &mut Ctx<'_>) {
        if let Some(line) = self.cache.get(addr) {
            if line.state == L1State::S {
                self.violation("owner demand while in S");
                return;
            }
            let (data, dirty) = (line.data, line.dirty);
            match demand {
                Deferred::FwdGetS(requestor) => {
                    ctx.send(
                        requestor,
                        MesiMsg::new(
                            addr,
                            MesiKind::FwdData {
                                data,
                                dirty,
                                exclusive: false,
                            },
                        )
                        .into(),
                    );
                    ctx.send(
                        self.l2.for_block(addr),
                        MesiMsg::new(addr, MesiKind::OwnerWb { data, dirty }).into(),
                    );
                    // Serving a read is a use of the line: downgrade through
                    // the recency-marking lookup.
                    if let Some(line) = self.cache.get_mut(addr) {
                        line.state = L1State::S;
                        line.dirty = false;
                    }
                }
                Deferred::FwdGetM(requestor) => {
                    ctx.send(
                        requestor,
                        MesiMsg::new(
                            addr,
                            MesiKind::FwdData {
                                data,
                                dirty,
                                exclusive: true,
                            },
                        )
                        .into(),
                    );
                    self.cache.remove(addr);
                }
                Deferred::Recall => {
                    ctx.send(
                        self.l2.for_block(addr),
                        MesiMsg::new(addr, MesiKind::RecallData { data, dirty }).into(),
                    );
                    self.cache.remove(addr);
                }
            }
            return;
        }
        match self.mshr.get_mut(addr).map(|open| &mut open.txn) {
            Some(Txn::Get { deferred, .. }) => {
                // We are the owner-to-be but have no data yet: defer.
                self.stats.deferred_fwds += 1;
                deferred.push(demand);
            }
            Some(Txn::Wb {
                kind: kind @ (PutKind::E | PutKind::M),
                data,
                dirty,
                invalidated: invalidated @ false,
                nacked,
            }) => {
                let was_nacked = *nacked;
                let (data, dirty) = (*data, *dirty);
                match demand {
                    Deferred::FwdGetS(requestor) => {
                        // Serve the read; our in-flight Put demotes to a
                        // PutS at the L2 (it will see a non-owner sharer).
                        // Record the demotion so a later Inv treats the
                        // writeback as a shared-copy eviction.
                        ctx.send(
                            requestor,
                            MesiMsg::new(
                                addr,
                                MesiKind::FwdData {
                                    data,
                                    dirty,
                                    exclusive: false,
                                },
                            )
                            .into(),
                        );
                        ctx.send(
                            self.l2.for_block(addr),
                            MesiMsg::new(addr, MesiKind::OwnerWb { data, dirty }).into(),
                        );
                        *kind = PutKind::S;
                        return;
                    }
                    Deferred::FwdGetM(requestor) => {
                        ctx.send(
                            requestor,
                            MesiMsg::new(
                                addr,
                                MesiKind::FwdData {
                                    data,
                                    dirty,
                                    exclusive: true,
                                },
                            )
                            .into(),
                        );
                        *invalidated = true;
                    }
                    Deferred::Recall => {
                        ctx.send(
                            self.l2.for_block(addr),
                            MesiMsg::new(addr, MesiKind::RecallData { data, dirty }).into(),
                        );
                        *invalidated = true;
                    }
                }
                if was_nacked {
                    // This demand explains the earlier Nack; all done.
                    self.close_writeback(addr, ctx);
                }
            }
            _ => {
                // Nothing held: only reachable with a misbehaving peer.
                self.violation("owner demand without a copy");
                if let Deferred::Recall = demand {
                    ctx.send(
                        self.l2.for_block(addr),
                        MesiMsg::new(
                            addr,
                            MesiKind::RecallData {
                                data: DataBlock::zeroed(),
                                dirty: false,
                            },
                        )
                        .into(),
                    );
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

    fn try_complete_get(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        // Complete once the grant is in and every ack it announced arrived.
        let Some(Txn::Get {
            grant: Some(_),
            acks_expected: Some(acks),
            acks_got,
            ..
        }) = self.mshr.get(addr).map(|open| &open.txn)
        else {
            return;
        };
        if acks_got < acks {
            return;
        }
        let Some(Open {
            txn:
                Txn::Get {
                    grant: Some((data, state, dirty)),
                    poisoned,
                    deferred,
                    ..
                },
            started,
            waiting,
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
            let mut rest = Vec::new();
            for (from, msg) in waiting {
                match msg.kind {
                    CoreKind::Load => {
                        let offset = msg.addr.block_offset() & !7;
                        let value = data.read_u64(offset);
                        ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
                    }
                    _ => rest.push((from, msg)),
                }
            }
            ctx.note_progress();
            self.drain_waiting(rest, ctx);
            return;
        }

        self.install_line(addr, Line { state, dirty, data }, ctx);
        ctx.note_progress();
        // Serve demands that raced ahead of our own completion.
        for demand in deferred {
            self.handle_demand(addr, demand, ctx);
        }
        self.drain_waiting(waiting, ctx);
    }

    fn install_line(&mut self, addr: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        if let Some((victim_addr, victim)) = self.cache.take_victim(addr) {
            self.start_writeback(victim_addr, victim, ctx);
        }
        let evicted = self.cache.insert(addr, line);
        debug_assert!(evicted.is_none(), "victim was taken first");
    }

    fn start_writeback(&mut self, addr: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        self.cover(addr, "Repl");
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
            waiting: Vec::new(),
        };
        if self.mshr.alloc(addr, open).is_ok() {
            self.stats.mshr_occupancy.record(self.mshr.len() as u64);
            ctx.send(self.l2.for_block(addr), MesiMsg::new(addr, req).into());
        } else {
            self.stats.mshr_stalls += 1;
            self.cache.insert(addr, line);
        }
    }

    fn drain_waiting(&mut self, waiting: Vec<(NodeId, CoreMsg)>, ctx: &mut Ctx<'_>) {
        for (from, msg) in waiting {
            self.handle_core(from, msg, ctx);
        }
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
            out.write_str(line.state.name());
            out.write_u64(u64::from(line.dirty));
            out.write_bytes(line.data.as_bytes());
        }
        let mut txns: Vec<_> = self.mshr.iter().collect();
        txns.sort_by_key(|(a, _)| out.addr_role(a.as_u64()));
        out.write_u64(txns.len() as u64);
        for (a, open) in txns {
            out.write_addr(a.as_u64());
            match &open.txn {
                Txn::Get {
                    kind,
                    grant,
                    acks_expected,
                    acks_got,
                    local,
                    poisoned,
                    deferred,
                } => {
                    out.write_str("get");
                    out.write_str(match kind {
                        GetKind::S => "S",
                        GetKind::M => "M",
                    });
                    match grant {
                        Some((data, state, dirty)) => {
                            out.write_bytes(data.as_bytes());
                            out.write_str(state.name());
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
        out.record_coverage(format!("mesi_l1/{n}"), &self.coverage);
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
