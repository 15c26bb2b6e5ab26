//! The single-level accelerator L1 of the paper's Table 1.
//!
//! ## Transition matrix (Table 1, reproduced by this implementation)
//!
//! | state | Load | Store | Replacement | Invalidate | DataM | DataE | DataS | WbAck |
//! |-------|------|-------|-------------|------------|-------|-------|-------|-------|
//! | M     | hit  | hit   | issue PutM / B | send DirtyWb / I | — | — | — | — |
//! | E     | hit  | hit / M | issue PutE / B | send CleanWb / I | — | — | — | — |
//! | S     | hit  | issue GetM / B | issue PutS / B | send InvAck / I | — | — | — | — |
//! | I     | issue GetS / B | issue GetM / B | — | send InvAck | — | — | — | — |
//! | B     | stall | stall | stall | send InvAck | / M | / E | / S | / I |
//!
//! Four stable states and **one** transient state; the accelerator never
//! counts acks, never sees another cache, and never handles a race other
//! than its own Put crossing an Invalidate (resolved by answering `InvAck`
//! from `B` and awaiting the guaranteed `WbAck`). The `tests` module holds
//! a conformance test that walks this table entry by entry.

use xg_mem::{BlockAddr, IdMap, Replacement, SetAssocCache, Spares};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, XgData, XgiKind, XgiMsg};
use xg_sim::{
    alphabet, Alphabet, Component, CoverageGrid, CoverageSet, Cycle, Histogram, NodeId, Report,
};

/// Coherence sophistication of an [`AccelL1`] (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccelMode {
    /// Full MESI — the Table 1 protocol.
    #[default]
    Mesi,
    /// MSI: treat `DataE` as `DataM` and send only dirty writebacks.
    Msi,
    /// VI: issue only `GetM`; every resident block is writable.
    Vi,
}

/// Next-line prefetching (paper §1: "an accelerator that performs mostly
/// streaming accesses may prefetch aggressively"). On every demand miss
/// the cache also requests the following `degree` accelerator blocks —
/// perfectly legal interface traffic, since prefetches are ordinary
/// `GetS`/`GetM` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Prefetch {
    /// No prefetching.
    #[default]
    Off,
    /// Fetch the next `degree` sequential blocks on each demand miss.
    NextLine {
        /// How many blocks ahead to fetch.
        degree: usize,
    },
}

/// Configuration for an [`AccelL1`].
#[derive(Debug, Clone)]
pub struct AccelL1Config {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Seed for random replacement.
    pub seed: u64,
    /// Accelerator block size in host (64 B) blocks; Crossing Guard
    /// translates when this is > 1 (paper §2.5).
    pub block_blocks: usize,
    /// Protocol sophistication.
    pub mode: AccelMode,
    /// Prefetching policy.
    pub prefetch: Prefetch,
}

impl Default for AccelL1Config {
    fn default() -> Self {
        AccelL1Config {
            sets: 64,
            ways: 4,
            replacement: Replacement::Lru,
            seed: 0,
            block_blocks: 1,
            mode: AccelMode::Mesi,
            prefetch: Prefetch::Off,
        }
    }
}

alphabet! {
    /// Table 1's rows: the state coverage is keyed by and
    /// [`AccelL1::state_of`] reports.
    enum CState {
        M,
        E,
        S,
        I,
        B,
    }
}

alphabet! {
    /// Table 1's columns, plus the flush this cache also accepts.
    enum CEvent {
        Load,
        Store,
        Flush,
        Repl,
        Inv,
        DataS,
        DataE,
        DataM,
        WbAck,
    }
}

/// Stable states of the Table 1 protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AState {
    M,
    E,
    S,
}

impl From<AState> for CState {
    fn from(state: AState) -> CState {
        match state {
            AState::M => CState::M,
            AState::E => CState::E,
            AState::S => CState::S,
        }
    }
}

#[derive(Debug, Clone)]
struct Line {
    state: AState,
    data: XgData,
    /// Brought in by the prefetcher and not yet demanded.
    prefetched: bool,
}

/// The single transient state `B`: exactly one request outstanding.
#[derive(Debug)]
struct Pending {
    is_put: bool,
    is_prefetch: bool,
    waiting: Vec<(NodeId, CoreMsg)>,
    started: Cycle,
}

#[derive(Debug, Default)]
struct Stats {
    loads: u64,
    stores: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    invalidations: u64,
    stalls: u64,
    prefetches_issued: u64,
    prefetch_hits: u64,
    protocol_violation: u64,
    /// Cycles from issuing a Get below to its grant arriving.
    lat_miss: Histogram,
    /// Outstanding-miss (MSHR) population, sampled at each new allocation.
    mshr_occupancy: Histogram,
}

/// The Table 1 accelerator cache. `below` is its Crossing Guard — or, in
/// the two-level organization, the shared accelerator L2, which exposes the
/// same interface.
pub struct AccelL1 {
    name: String,
    below: NodeId,
    cfg: AccelL1Config,
    cache: SetAssocCache<Line>,
    pending: IdMap<BlockAddr, Pending>,
    /// Emptied `Pending::waiting` buffers, reused by the next request.
    spare_waiting: Spares<Vec<(NodeId, CoreMsg)>>,
    stats: Stats,
    /// `(state, event)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<CState, CEvent>,
}

impl AccelL1 {
    /// Creates an accelerator L1 above `below` (a Crossing Guard or an
    /// [`crate::AccelL2`]).
    ///
    /// # Panics
    /// Panics if `cfg.block_blocks` is zero.
    pub fn new(name: impl Into<String>, below: NodeId, cfg: AccelL1Config) -> Self {
        assert!(cfg.block_blocks >= 1, "block_blocks must be at least 1");
        AccelL1 {
            name: name.into(),
            below,
            cache: SetAssocCache::new(cfg.sets, cfg.ways, cfg.replacement, cfg.seed),
            pending: IdMap::default(),
            cfg,
            spare_waiting: Spares::default(),
            stats: Stats::default(),
            seen: CoverageGrid::new(),
        }
    }

    /// Impossible-event counter; stays zero against a conforming interface.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// Every `(state, event)` pair the paper's Table 1 defines as
    /// reachable for the full-MESI mode, in the coverage vocabulary used
    /// by this controller. `(B, Repl)` is listed as "stall" in Table 1 but
    /// is unreachable here by construction (victims are only ever chosen
    /// among stable lines), so it is excluded. The §4.1 methodology
    /// compares stress-test coverage against exactly this set.
    pub fn table1_expected() -> CoverageSet {
        use {CEvent::*, CState::*};
        let mut table = CoverageGrid::new();
        for state in [M, E, S] {
            for event in [Load, Store, Repl, Inv] {
                table.visit(state, event);
            }
        }
        for event in [Load, Store, Inv] {
            table.visit(I, event);
        }
        for event in [Load, Store, Inv, DataS, DataE, DataM, WbAck] {
            table.visit(B, event);
        }
        table.to_set()
    }

    /// The state name for `line_addr` (Table 1 vocabulary: M/E/S/I/B).
    pub fn state_of(&self, line_addr: BlockAddr) -> &'static str {
        self.state(line_addr).label()
    }

    /// Table 1 state of `la`. A block is never both pending and resident,
    /// so handlers name the state from whichever of the two lookups they
    /// make anyway and only come here on a violation.
    fn state(&self, la: BlockAddr) -> CState {
        if self.pending.contains_key(&la) {
            CState::B
        } else {
            self.cache.get(la).map_or(CState::I, |l| l.state.into())
        }
    }

    fn line_addr(&self, block: BlockAddr) -> BlockAddr {
        block.align_down(self.cfg.block_blocks as u64)
    }

    fn violation(&mut self) {
        self.stats.protocol_violation += 1;
    }

    fn send_below(&self, addr: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        ctx.send(self.below, XgiMsg::new(addr, kind).into());
    }

    // ----- core side -------------------------------------------------------

    fn handle_core(&mut self, from: NodeId, msg: CoreMsg, ctx: &mut Ctx<'_>) {
        let la = self.line_addr(msg.addr.block());
        let event = match msg.kind {
            CoreKind::Load => {
                self.stats.loads += 1;
                CEvent::Load
            }
            CoreKind::Store { .. } => {
                self.stats.stores += 1;
                CEvent::Store
            }
            CoreKind::Flush => CEvent::Flush,
            _ => {
                self.violation();
                return;
            }
        };
        let sub = (msg.addr.block().as_u64() - la.as_u64()) as usize;
        let offset = msg.addr.block_offset() & !7;
        // A block is resident or pending, never both: a hit needs the tag
        // scan alone, and only an absent block goes on to probe `pending`.
        let Some(mut line) = self.cache.lookup(la) else {
            if let Some(p) = self.pending.get_mut(&la) {
                // Table 1: B + Load/Store → stall.
                self.seen.visit(CState::B, event);
                self.stats.stalls += 1;
                p.waiting.push((from, msg));
                return;
            }
            self.seen.visit(CState::I, event);
            let req = match (msg.kind, self.cfg.mode) {
                (CoreKind::Flush, _) => {
                    return ctx.send(from, msg.reply(CoreKind::FlushResp).into());
                }
                // Table 1: I + Load → issue GetS / B; I + Store → GetM / B.
                (CoreKind::Load, AccelMode::Mesi | AccelMode::Msi) => XgiKind::GetS,
                _ => XgiKind::GetM,
            };
            self.stats.misses += 1;
            return self.start_get(la, req, (from, msg), ctx);
        };
        debug_assert!(!self.pending.contains_key(&la), "resident and pending");
        let state = line.get().state;
        self.seen.visit(state.into(), event);
        let writable = matches!(state, AState::M | AState::E);
        match msg.kind {
            CoreKind::Flush => {
                // Push the block down through the ordinary Put path;
                // answer once the WbAck lands (the flush op rides the
                // pending list and is re-handled on an absent line).
                let line = line.remove();
                self.start_put(la, line, Some((from, msg)), ctx);
            }
            CoreKind::Store { .. } if !writable => {
                // Table 1: S + Store → issue GetM / B (the S copy is
                // dropped; DataM will carry fresh data).
                self.stats.misses += 1;
                line.remove();
                self.start_get(la, XgiKind::GetM, (from, msg), ctx);
            }
            CoreKind::Store { value } => {
                self.stats.hits += 1;
                line.touch();
                let line = line.get_mut();
                if std::mem::take(&mut line.prefetched) {
                    self.stats.prefetch_hits += 1;
                }
                line.data.blocks_mut()[sub].write_u64(offset, value);
                line.state = AState::M; // Table 1: E + Store → hit / M
                ctx.send(from, msg.reply(CoreKind::StoreResp).into());
            }
            _ => {
                self.stats.hits += 1;
                line.touch();
                let line = line.get_mut();
                if std::mem::take(&mut line.prefetched) {
                    self.stats.prefetch_hits += 1;
                }
                let value = line.data.blocks()[sub].read_u64(offset);
                ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
            }
        }
    }

    fn start_get(&mut self, la: BlockAddr, req: XgiKind, op: (NodeId, CoreMsg), ctx: &mut Ctx<'_>) {
        let mut waiting = self.spare_waiting.take();
        waiting.push(op);
        self.pending.insert(
            la,
            Pending {
                is_put: false,
                is_prefetch: false,
                waiting,
                started: ctx.now(),
            },
        );
        self.stats.mshr_occupancy.record(self.pending.len() as u64);
        self.send_below(la, req.clone(), ctx);
        // A demand miss trains the next-line prefetcher.
        if let Prefetch::NextLine { degree } = self.cfg.prefetch {
            for i in 1..=degree as u64 {
                let next = la.offset(i * self.cfg.block_blocks as u64);
                if self.cache.contains(next) || self.pending.contains_key(&next) {
                    continue;
                }
                self.pending.insert(
                    next,
                    Pending {
                        is_put: false,
                        is_prefetch: true,
                        waiting: self.spare_waiting.take(),
                        started: ctx.now(),
                    },
                );
                self.stats.prefetches_issued += 1;
                self.send_below(next, req.clone(), ctx);
            }
        }
    }

    // ----- interface side ---------------------------------------------------

    fn handle_xgi(&mut self, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        let la = msg.addr;
        ctx.trace(la.as_u64(), "accel-l1", "RecvXg", || {
            format!("{} (state {})", msg.kind, self.state_of(la))
        });
        match msg.kind {
            XgiKind::DataS { data } => {
                let state = match self.cfg.mode {
                    AccelMode::Vi => AState::M,
                    _ => AState::S,
                };
                self.grant(la, CEvent::DataS, data, state, ctx);
            }
            XgiKind::DataE { data } => {
                let state = match self.cfg.mode {
                    AccelMode::Mesi => AState::E,
                    AccelMode::Msi | AccelMode::Vi => AState::M,
                };
                self.grant(la, CEvent::DataE, data, state, ctx);
            }
            XgiKind::DataM { data } => {
                self.grant(la, CEvent::DataM, data, AState::M, ctx);
            }
            XgiKind::WbAck => match self.take_pending(la, CEvent::WbAck) {
                Some(p) if p.is_put => {
                    self.stats.writebacks += 1;
                    self.drain(p.waiting, ctx);
                }
                Some(p) => {
                    self.pending.insert(la, p);
                    self.violation();
                }
                None => self.violation(),
            },
            XgiKind::Inv => {
                self.stats.invalidations += 1;
                self.handle_inv(la, ctx);
            }
            _ => self.violation(),
        }
    }

    /// Takes the request a response to `la` answers out of the pending
    /// table, recording `event` against the block's state on the way.
    fn take_pending(&mut self, la: BlockAddr, event: CEvent) -> Option<Pending> {
        let pending = self.pending.remove(&la);
        let state = match pending {
            Some(_) => CState::B,
            None => self.cache.get(la).map_or(CState::I, |l| l.state.into()),
        };
        self.seen.visit(state, event);
        pending
    }

    fn grant(
        &mut self,
        la: BlockAddr,
        event: CEvent,
        data: XgData,
        state: AState,
        ctx: &mut Ctx<'_>,
    ) {
        if data.len() != self.cfg.block_blocks {
            self.seen.visit(self.state(la), event);
            self.violation();
            return;
        }
        match self.take_pending(la, event) {
            Some(p) if !p.is_put => {
                self.stats
                    .lat_miss
                    .record(ctx.now().saturating_since(p.started));
                ctx.span(la.as_u64(), "miss", p.started);
                let line = Line {
                    state,
                    data,
                    prefetched: p.is_prefetch,
                };
                self.install(la, line, ctx);
                self.drain(p.waiting, ctx);
            }
            Some(p) => {
                self.pending.insert(la, p);
                self.violation();
            }
            None => self.violation(),
        }
    }

    fn handle_inv(&mut self, la: BlockAddr, ctx: &mut Ctx<'_>) {
        if let Some(line) = self.cache.remove(la) {
            self.seen.visit(line.state.into(), CEvent::Inv);
            let data = line.data;
            let resp = match (line.state, self.cfg.mode) {
                // MSI/VI modes hold no clean-exclusive state; everything
                // owned is written back dirty.
                (AState::M, _) => XgiKind::DirtyWb { data },
                (AState::E, AccelMode::Mesi) => XgiKind::CleanWb { data },
                (AState::E, _) => XgiKind::DirtyWb { data },
                (AState::S, _) => XgiKind::InvAck,
            };
            self.send_below(la, resp, ctx);
        } else {
            // I or B: Table 1 says InvAck, no further action. A pending
            // request stays pending — its one response is still owed.
            let pending = self.pending.contains_key(&la);
            let state = if pending { CState::B } else { CState::I };
            self.seen.visit(state, CEvent::Inv);
            self.send_below(la, XgiKind::InvAck, ctx);
        }
    }

    fn install(&mut self, la: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        if let Some((victim_addr, victim)) = self
            .cache
            .take_victim_where(la, |a, _| !self.pending.contains_key(&a))
        {
            self.start_put(victim_addr, victim, None, ctx);
        }
        if self.cache.needs_eviction(la) {
            // Every way is mid-transaction; extremely small caches only.
            // Forward progress is preserved by serving the request straight
            // from the in-flight data without caching it.
            self.stats.stalls += 1;
            return;
        }
        let evicted = self.cache.insert(la, line);
        debug_assert!(evicted.is_none());
    }

    /// Opens a Put for a line already pulled out of the array; `flush` is
    /// the core op that asked for it, answered once the `WbAck` lands.
    fn start_put(
        &mut self,
        la: BlockAddr,
        line: Line,
        flush: Option<(NodeId, CoreMsg)>,
        ctx: &mut Ctx<'_>,
    ) {
        // Record the replacement against the victim's true stable state.
        self.seen.visit(line.state.into(), CEvent::Repl);
        let data = line.data;
        let req = match (line.state, self.cfg.mode) {
            (AState::M, _) => XgiKind::PutM { data },
            (AState::E, AccelMode::Mesi) => XgiKind::PutE { data },
            (AState::E, _) => XgiKind::PutM { data },
            (AState::S, _) => XgiKind::PutS,
        };
        let mut waiting = self.spare_waiting.take();
        waiting.extend(flush);
        self.pending.insert(
            la,
            Pending {
                is_put: true,
                is_prefetch: false,
                waiting,
                started: ctx.now(),
            },
        );
        self.stats.mshr_occupancy.record(self.pending.len() as u64);
        self.send_below(la, req, ctx);
    }

    fn drain(&mut self, mut waiting: Vec<(NodeId, CoreMsg)>, ctx: &mut Ctx<'_>) {
        for (from, msg) in waiting.drain(..) {
            self.handle_core(from, msg, ctx);
        }
        self.spare_waiting.put(waiting);
    }
}

impl Component<Message> for AccelL1 {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        match msg {
            Message::Core(c) => self.handle_core(from, c, ctx),
            Message::Xgi(x) => {
                if from == self.below {
                    self.handle_xgi(x, ctx);
                } else {
                    self.violation();
                }
            }
            _ => self.violation(),
        }
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format!("{n}.loads"), self.stats.loads);
        out.add(format!("{n}.stores"), self.stats.stores);
        out.add(format!("{n}.hits"), self.stats.hits);
        out.add(format!("{n}.misses"), self.stats.misses);
        out.add(format!("{n}.writebacks"), self.stats.writebacks);
        out.add(format!("{n}.invalidations"), self.stats.invalidations);
        out.add(format!("{n}.stalls"), self.stats.stalls);
        out.add(
            format!("{n}.prefetches_issued"),
            self.stats.prefetches_issued,
        );
        out.add(format!("{n}.prefetch_hits"), self.stats.prefetch_hits);
        out.add(
            format!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        out.record_grid(format!("accel_l1/{n}"), &self.seen);
        out.record_hist(format!("{n}.lat.miss"), &self.stats.lat_miss);
        out.record_hist(format!("{n}.mshr_occupancy"), &self.stats.mshr_occupancy);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
