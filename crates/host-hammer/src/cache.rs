//! The Hammer cache controller (combined private L1/L2, as in gem5).
//!
//! ## Transition matrix
//!
//! Stable states: `M` (modified, owner), `O` (owned, shared+responsible),
//! `E` (clean exclusive, owner), `S` (shared), `I` (invalid/absent).
//! Transients: `IS`/`ISO`/`IM` (requesting, no prior copy), `SM`/`OM`
//! (upgrading while holding a copy), `WB` (writeback pending),
//! `WB_I` (writeback pending, ownership already handed to a racing
//! requestor).
//!
//! | state | Load | Store | Repl | FwdGetS(Only) | FwdGetM | MemData/Resp* | WbAck | WbNack |
//! |-------|------|-------|------|----------------|---------|----------------|-------|--------|
//! | M     | hit  | hit   | Put/WB | Data(keep)/O | Data(xfer)/I | —        | —     | —      |
//! | O     | hit  | GetM/OM | Put/WB | Data(keep)/O | Data(xfer)/I | —      | —     | —      |
//! | E     | hit  | hit/M | Put/WB | Data(keep)/O | Data(xfer)/I | —        | —     | —      |
//! | S     | hit  | GetM/SM | silent/I | Ack(had)/S | Ack(had)/I | —        | —     | —      |
//! | I     | GetS/IS | GetM/IM | — | Ack/I        | Ack/I    | —             | —     | —      |
//! | IS,ISO,IM | queue | queue | — | Ack/·        | Ack/·    | collect; done→stable | — | — |
//! | SM    | queue | queue | —  | Ack(had)/SM    | Ack(had)/IM | collect    | —     | —      |
//! | OM    | queue | queue | —  | Data(keep)/OM  | Data(xfer)/IM | collect | —     | —      |
//! | WB    | queue | queue | —  | Data(keep)/WB or Data(xfer)/WB_I | Data(xfer)/WB_I | — | WbData/I | sink†/I |
//! | WB_I  | queue | queue | —  | Ack/WB_I       | Ack/WB_I | —             | —     | /I     |
//!
//! † An unexpected `WbNack` in `WB` is impossible among trusted caches; it
//! can be provoked by an erroneous accelerator `Put` reaching the directory
//! (paper §3.2.1). With [`HammerConfig::sink_nacks`] the cache sinks it and
//! counts `unexpected_nack`; otherwise it counts a `protocol_violation`
//! (the unmodified-baseline behavior the ablation measures).
//!
//! This is exactly the complexity budget the paper quotes for a host
//! private cache — four host requests, seven host responses, and transient
//! bookkeeping with dirty bits and response counters — against which the
//! five-state accelerator cache of Table 1 is compared.

use xg_mem::{BlockAddr, DataBlock, Mshr, Replacement, SetAssocCache, Spares, BLOCK_BYTES};
use xg_proto::{CoreKind, CoreMsg, Ctx, HammerKind, HammerMsg, HomeMap, Message};
use xg_sim::{
    alphabet, Alphabet, CheckDigest, Component, CoverageGrid, Cycle, Histogram, NodeId, Report,
};

/// Configuration for a [`HammerCache`].
#[derive(Debug, Clone)]
pub struct HammerConfig {
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
    /// Baseline ack-counting behavior: receiving more than one data
    /// response for a transaction is a protocol violation. Turn **off** for
    /// the Transactional-Crossing-Guard host modification that counts
    /// responses and tolerates zero or multiple data copies (paper §3.2.1).
    pub strict_data: bool,
    /// Host modification: sink unexpected `WbNack`s (count them) instead of
    /// flagging a protocol violation.
    pub sink_nacks: bool,
}

impl Default for HammerConfig {
    fn default() -> Self {
        HammerConfig {
            sets: 64,
            ways: 8,
            mshr_entries: 16,
            replacement: Replacement::Lru,
            seed: 0,
            strict_data: false,
            sink_nacks: true,
        }
    }
}

alphabet! {
    /// Protocol state of one block, as the module table's rows name it:
    /// the state coverage is keyed by and [`HammerCache::probe_state`]
    /// reports.
    enum CState {
        M,
        O,
        E,
        S,
        I,
        Is = "IS",
        Iso = "ISO",
        Im = "IM",
        Sm = "SM",
        Om = "OM",
        Wb = "WB",
        WbI = "WB_I",
    }
}

alphabet! {
    /// The module table's columns.
    enum CEvent {
        Load,
        Store,
        Repl,
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

/// Stable states of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HState {
    M,
    O,
    E,
    S,
}

impl HState {
    fn is_owner(self) -> bool {
        matches!(self, HState::M | HState::O | HState::E)
    }
}

impl From<HState> for CState {
    fn from(state: HState) -> CState {
        match state {
            HState::M => CState::M,
            HState::O => CState::O,
            HState::E => CState::E,
            HState::S => CState::S,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    state: HState,
    dirty: bool,
    data: DataBlock,
}

/// What kind of Get a transaction is performing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GetKind {
    S,
    SOnly,
    M,
}

#[derive(Debug, Clone)]
enum Txn {
    Get(Get),
    Wb {
        data: DataBlock,
        dirty: bool,
        invalidated: bool,
    },
}

/// An open Get: what has been collected so far.
#[derive(Debug, Clone)]
struct Get {
    kind: GetKind,
    peers_expected: Option<u32>,
    resps: u32,
    mem_data: Option<DataBlock>,
    peer_data: Option<(DataBlock, bool, bool)>, // (data, dirty, owner_keeps_copy)
    data_msgs: u32,
    had_copy: bool,
    /// The copy retained while upgrading (SM/OM states).
    local: Option<Line>,
    lost_local: bool,
}

impl Get {
    /// Memory has answered and every peer it announced has responded.
    fn complete(&self) -> bool {
        self.mem_data.is_some() && self.peers_expected.is_some_and(|peers| self.resps >= peers)
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
                kind, local: None, ..
            }) => match kind {
                GetKind::S => CState::Is,
                GetKind::SOnly => CState::Iso,
                GetKind::M => CState::Im,
            },
            Txn::Get(Get { local: Some(l), .. }) => {
                if l.state.is_owner() {
                    CState::Om
                } else {
                    CState::Sm
                }
            }
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
    silent_drops: u64,
    mshr_stalls: u64,
    unexpected_nack: u64,
    protocol_violation: u64,
    multi_data: u64,
    /// Cycles a Get transaction stayed open in the MSHR.
    lat_miss: Histogram,
    /// MSHR population, sampled at each new allocation.
    mshr_occupancy: Histogram,
}

/// A private Hammer-protocol cache serving one core's loads and stores.
///
/// Also used directly as the *accelerator-side cache* of configuration (a)
/// in Figure 2 — an accelerator that speaks the raw host protocol — and, on
/// the host side of the chip, as the *host-side cache* of configuration (b).
#[derive(Clone)]
pub struct HammerCache {
    name: String,
    dir: HomeMap,
    cfg: HammerConfig,
    cache: SetAssocCache<Line>,
    mshr: Mshr<Open>,
    /// Emptied `Open::waiting` buffers, reused by the next transaction.
    spare_waiting: Spares<Vec<(NodeId, CoreMsg)>>,
    stats: Stats,
    /// `(state, event)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<CState, CEvent>,
}

impl HammerCache {
    /// Creates a cache that sends its protocol requests to directory `dir`
    /// (a single node, or a [`HomeMap`] of address-interleaved banks).
    pub fn new(name: impl Into<String>, dir: impl Into<HomeMap>, cfg: HammerConfig) -> Self {
        HammerCache {
            name: name.into(),
            dir: dir.into(),
            cache: SetAssocCache::new(cfg.sets, cfg.ways, cfg.replacement, cfg.seed),
            mshr: Mshr::new(cfg.mshr_entries),
            cfg,
            spare_waiting: Spares::default(),
            stats: Stats::default(),
            seen: CoverageGrid::new(),
        }
    }

    /// Number of protocol violations observed (impossible events). Zero in
    /// any correctly-assembled system; nonzero when the unmodified baseline
    /// faces a misbehaving accelerator.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// Number of unexpected `WbNack`s sunk (the §3.2.1 host-mod counter).
    pub fn unexpected_nacks(&self) -> u64 {
        self.stats.unexpected_nack
    }

    /// Protocol state name of `addr` — stable (`"M"`, `"O"`, `"E"`, `"S"`,
    /// `"I"`) or transient (`"IS"`, `"IM"`, `"WB"`, ...). Read by the
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
    /// for a message that found no transaction to land on.
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

    /// Traces one state change of `addr`: the state before, the event that
    /// moved it, the state after, and the words now held — the line's, or
    /// the in-flight data's. With tracing off this is `Ctx::trace`'s one
    /// branch: everything that formats sits in the `detail` closure.
    #[inline]
    fn trace_change(
        ctx: &mut Ctx<'_>,
        addr: BlockAddr,
        (before, event, after): (CState, CEvent, CState),
        data: Option<&DataBlock>,
    ) {
        ctx.trace(addr.as_u64(), before.label(), event.label(), || {
            let words = data.map_or_else(String::new, |data| {
                let words: Vec<String> = (0..BLOCK_BYTES as usize / 8)
                    .map(|w| data.read_u64(w * 8).to_string())
                    .collect();
                format!(" words=[{}]", words.join(" "))
            });
            format!("-> {}{words}", after.label())
        });
    }

    // ----- core-side ------------------------------------------------------

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
            Some(value) if matches!(state, HState::M | HState::E) => {
                self.stats.hits += 1;
                line.touch();
                let line = line.get_mut();
                line.data.write_u64(offset, value);
                line.dirty = true;
                line.state = HState::M; // silent E→M upgrade
                let change = (state.into(), event, CState::M);
                Self::trace_change(ctx, addr, change, Some(&line.data));
                ctx.send(from, msg.reply(CoreKind::StoreResp).into());
            }
            Some(_) => {
                // An upgrade from O/S: the resident copy rides along in
                // the transaction.
                self.stats.misses += 1;
                let local = Some(line.remove());
                self.start_get(GetKind::M, addr, local, (from, msg), ctx);
            }
        }
    }

    fn start_get(
        &mut self,
        kind: GetKind,
        addr: BlockAddr,
        local: Option<Line>,
        op: (NodeId, CoreMsg),
        ctx: &mut Ctx<'_>,
    ) {
        if self.mshr.len() >= self.mshr.capacity() {
            // All MSHRs busy: reinstall any copy we pulled out, and retry
            // the core op a little later.
            self.stats.mshr_stalls += 1;
            if let Some(copy) = local {
                self.cache.insert(addr, copy);
            }
            let (from, msg) = op;
            ctx.redeliver(from, msg.into(), 8);
            return;
        }
        let txn = Txn::Get(Get {
            kind,
            peers_expected: None,
            resps: 0,
            mem_data: None,
            peer_data: None,
            data_msgs: 0,
            had_copy: false,
            local,
            lost_local: false,
        });
        let before = local.map_or(CState::I, |copy| copy.state.into());
        let event = match kind {
            GetKind::M => CEvent::Store,
            GetKind::S | GetKind::SOnly => CEvent::Load,
        };
        let held = local.as_ref().map(|copy| &copy.data);
        Self::trace_change(ctx, addr, (before, event, txn.state()), held);
        let mut waiting = self.spare_waiting.take();
        waiting.push(op);
        let open = Open {
            txn,
            started: ctx.now(),
            waiting,
        };
        self.mshr.alloc(addr, open).expect("capacity checked above");
        self.stats.mshr_occupancy.record(self.mshr.len() as u64);
        let req = match kind {
            GetKind::S => HammerKind::GetS,
            GetKind::SOnly => HammerKind::GetSOnly,
            GetKind::M => HammerKind::GetM,
        };
        ctx.send(self.dir.for_block(addr), HammerMsg::new(addr, req).into());
    }

    // ----- network-side ---------------------------------------------------

    fn handle_hammer(&mut self, msg: HammerMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        match msg.kind {
            HammerKind::FwdGetS { requestor, .. } => {
                self.handle_fwd(addr, requestor, FwdKind::GetS, ctx);
            }
            HammerKind::FwdGetSOnly { requestor, .. } => {
                self.handle_fwd(addr, requestor, FwdKind::GetSOnly, ctx);
            }
            HammerKind::FwdGetM { requestor, .. } => {
                self.handle_fwd(addr, requestor, FwdKind::GetM, ctx);
            }
            HammerKind::MemData { data, peers } => {
                let Some(Txn::Get(get)) = self.txn_for(addr, CEvent::MemData) else {
                    return self.violation("MemData without transaction");
                };
                get.peers_expected = Some(peers);
                get.mem_data = Some(data);
                if get.complete() {
                    self.complete_get(addr, CEvent::MemData, ctx);
                }
            }
            HammerKind::RespData {
                data,
                dirty,
                owner_keeps_copy,
            } => {
                let Some(Txn::Get(get)) = self.txn_for(addr, CEvent::RespData) else {
                    return self.violation("RespData without transaction");
                };
                get.resps += 1;
                get.data_msgs += 1;
                let multiple = get.peer_data.is_some();
                // Prefer dirty data; otherwise first writer wins.
                let replace = match get.peer_data {
                    None => true,
                    Some((_, old_dirty, _)) => dirty && !old_dirty,
                };
                if replace {
                    get.peer_data = Some((data, dirty, owner_keeps_copy));
                }
                let complete = get.complete();
                if multiple {
                    self.stats.multi_data += 1;
                    if self.cfg.strict_data {
                        self.violation("multiple data responses");
                    }
                }
                if complete {
                    self.complete_get(addr, CEvent::RespData, ctx);
                }
            }
            HammerKind::RespAck { had_copy } => {
                let Some(Txn::Get(get)) = self.txn_for(addr, CEvent::RespAck) else {
                    return self.violation("RespAck without transaction");
                };
                get.resps += 1;
                get.had_copy |= had_copy;
                if get.complete() {
                    self.complete_get(addr, CEvent::RespAck, ctx);
                }
            }
            HammerKind::WbAck => {
                let open = self.mshr.remove(addr);
                let state = Self::state_given(&self.cache, addr, open.as_ref());
                self.seen.visit(state, CEvent::WbAck);
                match open {
                    Some(Open {
                        txn: Txn::Wb { data, dirty, .. },
                        waiting,
                        ..
                    }) => {
                        self.stats.writebacks += 1;
                        let change = (state, CEvent::WbAck, CState::I);
                        Self::trace_change(ctx, addr, change, Some(&data));
                        ctx.send(
                            self.dir.for_block(addr),
                            HammerMsg::new(addr, HammerKind::WbData { data, dirty }).into(),
                        );
                        self.drain_waiting(waiting, ctx);
                    }
                    other => {
                        self.restore(addr, other);
                        self.violation("WbAck without writeback");
                    }
                }
            }
            HammerKind::WbNack => {
                let open = self.mshr.remove(addr);
                let state = Self::state_given(&self.cache, addr, open.as_ref());
                self.seen.visit(state, CEvent::WbNack);
                match open {
                    Some(Open {
                        txn: Txn::Wb { invalidated, .. },
                        waiting,
                        ..
                    }) => {
                        Self::trace_change(ctx, addr, (state, CEvent::WbNack, CState::I), None);
                        if !invalidated {
                            if self.cfg.sink_nacks {
                                self.stats.unexpected_nack += 1;
                            } else {
                                self.violation("unexpected WbNack");
                            }
                        }
                        self.drain_waiting(waiting, ctx);
                    }
                    other => {
                        self.restore(addr, other);
                        self.violation("WbNack without writeback");
                    }
                }
            }
            // Requests only a directory should receive.
            HammerKind::GetS
            | HammerKind::GetSOnly
            | HammerKind::GetM
            | HammerKind::Put
            | HammerKind::WbData { .. }
            | HammerKind::Unblock { .. } => {
                self.violation("request kind delivered to a cache");
            }
        }
    }

    /// Puts back a record a handler removed and found was not its own.
    fn restore(&mut self, addr: BlockAddr, open: Option<Open>) {
        if let Some(open) = open {
            self.mshr.alloc(addr, open).expect("slot was just freed");
        }
    }

    fn handle_fwd(&mut self, addr: BlockAddr, requestor: NodeId, fwd: FwdKind, ctx: &mut Ctx<'_>) {
        let event = match fwd {
            FwdKind::GetS => CEvent::FwdGetS,
            FwdKind::GetSOnly => CEvent::FwdGetSOnly,
            FwdKind::GetM => CEvent::FwdGetM,
        };
        let resp_data = |data, dirty, owner_keeps_copy| {
            let kind = HammerKind::RespData {
                data,
                dirty,
                owner_keeps_copy,
            };
            HammerMsg::new(addr, kind).into()
        };
        let resp_ack = |had_copy| HammerMsg::new(addr, HammerKind::RespAck { had_copy }).into();
        // Resident stable line?
        if let Some(mut line) = self.cache.lookup(addr) {
            let Line { state, dirty, data } = *line.get();
            self.seen.visit(state.into(), event);
            let after = match (state, fwd) {
                (HState::M | HState::O | HState::E, FwdKind::GetS | FwdKind::GetSOnly) => {
                    ctx.send(requestor, resp_data(data, dirty, true));
                    // Serving a read is a use of the line.
                    line.touch();
                    line.get_mut().state = HState::O;
                    CState::O
                }
                (HState::M | HState::O | HState::E, FwdKind::GetM) => {
                    ctx.send(requestor, resp_data(data, dirty, false));
                    line.remove();
                    CState::I
                }
                (HState::S, FwdKind::GetS | FwdKind::GetSOnly) => {
                    ctx.send(requestor, resp_ack(true));
                    CState::S
                }
                (HState::S, FwdKind::GetM) => {
                    ctx.send(requestor, resp_ack(true));
                    line.remove();
                    CState::I
                }
            };
            if after != state.into() {
                Self::trace_change(ctx, addr, (state.into(), event, after), Some(&data));
            }
            return;
        }
        // In-flight transaction?
        let Some(open) = self.mshr.get_mut(addr) else {
            self.seen.visit(CState::I, event);
            return ctx.send(requestor, resp_ack(false));
        };
        let before = open.txn.state();
        self.seen.visit(before, event);
        let resp = match &mut open.txn {
            Txn::Get(get) => match &get.local {
                Some(copy) if copy.state.is_owner() => {
                    let resp = resp_data(copy.data, copy.dirty, fwd != FwdKind::GetM);
                    if fwd == FwdKind::GetM {
                        get.local = None;
                        get.lost_local = true;
                    }
                    resp
                }
                Some(_) => {
                    // Shared copy retained during an upgrade (SM).
                    if fwd == FwdKind::GetM {
                        get.local = None;
                        get.lost_local = true;
                    }
                    resp_ack(true)
                }
                None => resp_ack(false),
            },
            Txn::Wb {
                invalidated: true, ..
            } => resp_ack(false),
            Txn::Wb {
                data,
                dirty,
                invalidated,
            } => {
                // A non-upgradable read leaves us the owner, so memory
                // still gets our data; any other forward takes the block.
                *invalidated = fwd != FwdKind::GetSOnly;
                resp_data(*data, *dirty, !*invalidated)
            }
        };
        let after = open.txn.state();
        if after != before {
            Self::trace_change(ctx, addr, (before, event, after), None);
        }
        ctx.send(requestor, resp);
    }

    /// Closes a Get that memory and every peer have answered.
    /// `event` is the response that completed it.
    fn complete_get(&mut self, addr: BlockAddr, event: CEvent, ctx: &mut Ctx<'_>) {
        let open = self.mshr.remove(addr);
        let before = open.as_ref().map_or(CState::I, |open| open.txn.state());
        let Some(Open {
            txn:
                Txn::Get(Get {
                    kind,
                    mem_data: Some(mem),
                    peer_data,
                    had_copy,
                    local,
                    lost_local,
                    ..
                }),
            started,
            waiting,
        }) = open
        else {
            return self.violation("completing Get changed underfoot");
        };
        self.stats
            .lat_miss
            .record(ctx.now().saturating_since(started));
        ctx.span(addr.as_u64(), "miss", started);

        let (state, dirty, data) = match kind {
            GetKind::M => {
                let (data, dirty) = if let Some((d, dirty, _)) = peer_data {
                    (d, dirty)
                } else if let (Some(copy), false) = (&local, lost_local) {
                    (copy.data, copy.dirty)
                } else {
                    (mem, false)
                };
                (HState::M, dirty, data)
            }
            GetKind::S | GetKind::SOnly => {
                if let Some((d, dirty, keeps)) = peer_data {
                    if keeps || kind == GetKind::SOnly {
                        (HState::S, false, d)
                    } else if dirty {
                        (HState::M, true, d)
                    } else {
                        (HState::E, false, d)
                    }
                } else if had_copy || kind == GetKind::SOnly {
                    (HState::S, false, mem)
                } else {
                    (HState::E, false, mem)
                }
            }
        };

        let new_owner = state.is_owner();
        Self::trace_change(ctx, addr, (before, event, state.into()), Some(&data));
        self.install_line(addr, Line { state, dirty, data }, ctx);
        ctx.send(
            self.dir.for_block(addr),
            HammerMsg::new(addr, HammerKind::Unblock { new_owner }).into(),
        );
        ctx.note_progress();
        self.drain_waiting(waiting, ctx);
    }

    /// Inserts a finished line, evicting (and writing back) a victim if the
    /// set is full. Capacity is reclaimed at fill time, which is when the
    /// conflict actually materializes.
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
        let before = line.state.into();
        match line.state {
            HState::S => {
                // Hammer evicts shared blocks silently.
                self.stats.silent_drops += 1;
                let change = (before, CEvent::Repl, CState::I);
                Self::trace_change(ctx, addr, change, Some(&line.data));
            }
            HState::M | HState::O | HState::E => {
                let open = Open {
                    txn: Txn::Wb {
                        data: line.data,
                        dirty: line.dirty,
                        invalidated: false,
                    },
                    started: ctx.now(),
                    waiting: self.spare_waiting.take(),
                };
                if self.mshr.alloc(addr, open).is_ok() {
                    self.stats.mshr_occupancy.record(self.mshr.len() as u64);
                    let change = (before, CEvent::Repl, CState::Wb);
                    Self::trace_change(ctx, addr, change, Some(&line.data));
                    ctx.send(
                        self.dir.for_block(addr),
                        HammerMsg::new(addr, HammerKind::Put).into(),
                    );
                } else {
                    // No MSHR for the victim: reinstall it and evict nothing.
                    // The fill below will replace a different way next time.
                    self.stats.mshr_stalls += 1;
                    self.cache.insert(addr, line);
                }
            }
        }
    }

    fn drain_waiting(&mut self, mut waiting: Vec<(NodeId, CoreMsg)>, ctx: &mut Ctx<'_>) {
        for (from, msg) in waiting.drain(..) {
            self.handle_core(from, msg, ctx);
        }
        self.spare_waiting.put(waiting);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FwdKind {
    GetS,
    GetSOnly,
    GetM,
}

impl Component<Message> for HammerCache {
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
            Message::Core(c) => self.handle_core(from, c, ctx),
            Message::Hammer(h) => self.handle_hammer(h, ctx),
            _ => self.violation("foreign protocol message"),
        }
        // The first impossible event is the symptom worth dissecting; flag
        // it so a traced replay dumps this block's history.
        if violations_before == 0 && self.stats.protocol_violation > 0 {
            ctx.flag_post_mortem(addr, format!("{}: first protocol violation", self.name));
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str("hammer_cache");
        // Stable lines, sorted by address role. Replacement/recency
        // metadata is excluded: in the checker's direct-mapped small-model
        // configuration it never branches behavior.
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
        // Open MSHR transactions (each one an obligation).
        let mut txns: Vec<_> = self.mshr.iter().collect();
        txns.sort_by_key(|(a, _)| out.addr_role(a.as_u64()));
        out.write_u64(txns.len() as u64);
        for (a, open) in txns {
            out.write_addr(a.as_u64());
            match &open.txn {
                Txn::Get(Get {
                    kind,
                    peers_expected,
                    resps,
                    mem_data,
                    peer_data,
                    data_msgs,
                    had_copy,
                    local,
                    lost_local,
                }) => {
                    out.write_str("get");
                    out.write_str(match kind {
                        GetKind::S => "S",
                        GetKind::SOnly => "SOnly",
                        GetKind::M => "M",
                    });
                    out.write_u64(peers_expected.map_or(u64::MAX, u64::from));
                    out.write_u64(u64::from(*resps));
                    match mem_data {
                        Some(d) => out.write_bytes(d.as_bytes()),
                        None => out.write_str("no-mem"),
                    }
                    match peer_data {
                        Some((d, dirty, keeps)) => {
                            out.write_bytes(d.as_bytes());
                            out.write_u64(u64::from(*dirty));
                            out.write_u64(u64::from(*keeps));
                        }
                        None => out.write_str("no-peer"),
                    }
                    out.write_u64(u64::from(*data_msgs));
                    out.write_u64(u64::from(*had_copy));
                    match local {
                        Some(copy) => {
                            out.write_str(CState::from(copy.state).label());
                            out.write_u64(u64::from(copy.dirty));
                            out.write_bytes(copy.data.as_bytes());
                        }
                        None => out.write_str("no-local"),
                    }
                    out.write_u64(u64::from(*lost_local));
                }
                Txn::Wb {
                    data,
                    dirty,
                    invalidated,
                } => {
                    out.write_str("wb");
                    out.write_bytes(data.as_bytes());
                    out.write_u64(u64::from(*dirty));
                    out.write_u64(u64::from(*invalidated));
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
        out.add(format!("{n}.silent_drops"), self.stats.silent_drops);
        out.add(format!("{n}.mshr_stalls"), self.stats.mshr_stalls);
        out.add(format!("{n}.unexpected_nack"), self.stats.unexpected_nack);
        out.add(
            format!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        for (why, count) in &self.stats.violation_reasons {
            out.add(format!("{n}.violation[{why}]"), *count);
        }
        out.add(format!("{n}.multi_data"), self.stats.multi_data);
        out.record_grid(format!("hammer_cache/{n}"), &self.seen);
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
