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

use xg_mem::{BlockAddr, DataBlock, Mshr, Replacement, SetAssocCache};
use xg_proto::{CoreKind, CoreMsg, Ctx, HammerKind, HammerMsg, HomeMap, Message};
use xg_sim::{CheckDigest, Component, CoverageSet, Cycle, Histogram, NodeId, Report};

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

/// Stable states of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HState {
    M,
    O,
    E,
    S,
}

impl HState {
    fn name(self) -> &'static str {
        match self {
            HState::M => "M",
            HState::O => "O",
            HState::E => "E",
            HState::S => "S",
        }
    }

    fn is_owner(self) -> bool {
        matches!(self, HState::M | HState::O | HState::E)
    }
}

#[derive(Debug, Clone)]
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

/// A copy retained while upgrading (SM/OM states).
#[derive(Debug, Clone)]
struct LocalCopy {
    state: HState,
    dirty: bool,
    data: DataBlock,
}

#[derive(Debug, Clone)]
enum Txn {
    Get {
        kind: GetKind,
        peers_expected: Option<u32>,
        resps: u32,
        mem_data: Option<DataBlock>,
        peer_data: Option<(DataBlock, bool, bool)>, // (data, dirty, owner_keeps_copy)
        data_msgs: u32,
        had_copy: bool,
        local: Option<LocalCopy>,
        lost_local: bool,
    },
    Wb {
        data: DataBlock,
        dirty: bool,
        invalidated: bool,
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
                kind, local: None, ..
            } => match kind {
                GetKind::S => "IS",
                GetKind::SOnly => "ISO",
                GetKind::M => "IM",
            },
            Txn::Get { local: Some(l), .. } => {
                if l.state.is_owner() {
                    "OM"
                } else {
                    "SM"
                }
            }
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
    stats: Stats,
    coverage: CoverageSet,
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
            stats: Stats::default(),
            coverage: CoverageSet::new(),
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

    // ----- core-side ------------------------------------------------------

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
                Some(line) if matches!(line.state, HState::M | HState::E) => {
                    self.stats.hits += 1;
                    line.data.write_u64(offset, value);
                    line.dirty = true;
                    line.state = HState::M; // silent E→M upgrade
                    ctx.send(from, msg.reply(CoreKind::StoreResp).into());
                }
                _ => {
                    // Miss, or an upgrade from O/S: a resident copy rides
                    // along in the transaction.
                    self.stats.misses += 1;
                    let local = self.cache.remove(addr).map(|line| LocalCopy {
                        state: line.state,
                        dirty: line.dirty,
                        data: line.data,
                    });
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
        local: Option<LocalCopy>,
        op: (NodeId, CoreMsg),
        ctx: &mut Ctx<'_>,
    ) {
        if self.mshr.len() >= self.mshr.capacity() {
            // All MSHRs busy: reinstall any copy we pulled out, and retry
            // the core op a little later.
            self.stats.mshr_stalls += 1;
            if let Some(copy) = local {
                self.cache.insert(
                    addr,
                    Line {
                        state: copy.state,
                        dirty: copy.dirty,
                        data: copy.data,
                    },
                );
            }
            let (from, msg) = op;
            ctx.redeliver(from, msg.into(), 8);
            return;
        }
        let txn = Txn::Get {
            kind,
            peers_expected: None,
            resps: 0,
            mem_data: None,
            peer_data: None,
            data_msgs: 0,
            had_copy: false,
            local,
            lost_local: false,
        };
        let open = Open {
            txn,
            started: ctx.now(),
            waiting: vec![op],
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

    fn handle_hammer(&mut self, from: NodeId, msg: HammerMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr;
        match msg.kind {
            HammerKind::FwdGetS { requestor, .. } => {
                self.cover(addr, "FwdGetS");
                self.handle_fwd(addr, requestor, FwdKind::GetS, ctx);
            }
            HammerKind::FwdGetSOnly { requestor, .. } => {
                self.cover(addr, "FwdGetSOnly");
                self.handle_fwd(addr, requestor, FwdKind::GetSOnly, ctx);
            }
            HammerKind::FwdGetM { requestor, .. } => {
                self.cover(addr, "FwdGetM");
                self.handle_fwd(addr, requestor, FwdKind::GetM, ctx);
            }
            HammerKind::MemData { data, peers } => {
                self.cover(addr, "MemData");
                let Some(Txn::Get {
                    peers_expected,
                    mem_data,
                    ..
                }) = self.txn_mut(addr)
                else {
                    return self.violation("MemData without transaction");
                };
                *peers_expected = Some(peers);
                *mem_data = Some(data);
                self.try_complete_get(addr, ctx);
            }
            HammerKind::RespData {
                data,
                dirty,
                owner_keeps_copy,
            } => {
                self.cover(addr, "RespData");
                let Some(Txn::Get {
                    resps,
                    peer_data,
                    data_msgs,
                    ..
                }) = self.txn_mut(addr)
                else {
                    return self.violation("RespData without transaction");
                };
                *resps += 1;
                *data_msgs += 1;
                let multiple = peer_data.is_some();
                // Prefer dirty data; otherwise first writer wins.
                let replace = match peer_data {
                    None => true,
                    Some((_, old_dirty, _)) => dirty && !*old_dirty,
                };
                if replace {
                    *peer_data = Some((data, dirty, owner_keeps_copy));
                }
                if multiple {
                    self.stats.multi_data += 1;
                    if self.cfg.strict_data {
                        self.violation("multiple data responses");
                    }
                }
                self.try_complete_get(addr, ctx);
            }
            HammerKind::RespAck { had_copy } => {
                self.cover(addr, "RespAck");
                let Some(Txn::Get {
                    resps,
                    had_copy: hc,
                    ..
                }) = self.txn_mut(addr)
                else {
                    return self.violation("RespAck without transaction");
                };
                *resps += 1;
                *hc |= had_copy;
                self.try_complete_get(addr, ctx);
            }
            HammerKind::WbAck => {
                self.cover(addr, "WbAck");
                match self.mshr.remove(addr) {
                    Some(Open {
                        txn: Txn::Wb { data, dirty, .. },
                        waiting,
                        ..
                    }) => {
                        self.stats.writebacks += 1;
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
                self.cover(addr, "WbNack");
                match self.mshr.remove(addr) {
                    Some(Open {
                        txn: Txn::Wb { invalidated, .. },
                        waiting,
                        ..
                    }) => {
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
        let _ = from;
    }

    /// Puts back a record a handler removed and found was not its own.
    fn restore(&mut self, addr: BlockAddr, open: Option<Open>) {
        if let Some(open) = open {
            self.mshr.alloc(addr, open).expect("slot was just freed");
        }
    }

    fn handle_fwd(&mut self, addr: BlockAddr, requestor: NodeId, fwd: FwdKind, ctx: &mut Ctx<'_>) {
        // Resident stable line?
        if let Some(line) = self.cache.get(addr) {
            let (state, dirty, data) = (line.state, line.dirty, line.data);
            match (state, fwd) {
                (HState::M | HState::O | HState::E, FwdKind::GetS | FwdKind::GetSOnly) => {
                    ctx.send(
                        requestor,
                        HammerMsg::new(
                            addr,
                            HammerKind::RespData {
                                data,
                                dirty,
                                owner_keeps_copy: true,
                            },
                        )
                        .into(),
                    );
                    // Serving a read is a use of the line: downgrade through
                    // the recency-marking lookup.
                    if let Some(line) = self.cache.get_mut(addr) {
                        line.state = HState::O;
                    }
                }
                (HState::M | HState::O | HState::E, FwdKind::GetM) => {
                    ctx.send(
                        requestor,
                        HammerMsg::new(
                            addr,
                            HammerKind::RespData {
                                data,
                                dirty,
                                owner_keeps_copy: false,
                            },
                        )
                        .into(),
                    );
                    self.cache.remove(addr);
                }
                (HState::S, FwdKind::GetS | FwdKind::GetSOnly) => {
                    self.send_ack(requestor, addr, true, ctx);
                }
                (HState::S, FwdKind::GetM) => {
                    self.send_ack(requestor, addr, true, ctx);
                    self.cache.remove(addr);
                }
            }
            return;
        }
        // In-flight transaction?
        let mut ack_had_copy: Option<bool> = None;
        let mut resp_data: Option<(DataBlock, bool, bool)> = None;
        match self.txn_mut(addr) {
            Some(Txn::Get {
                local, lost_local, ..
            }) => match local {
                Some(copy) if copy.state.is_owner() => match fwd {
                    FwdKind::GetS | FwdKind::GetSOnly => {
                        resp_data = Some((copy.data, copy.dirty, true));
                    }
                    FwdKind::GetM => {
                        resp_data = Some((copy.data, copy.dirty, false));
                        *local = None;
                        *lost_local = true;
                    }
                },
                Some(_) => {
                    // Shared copy retained during an upgrade (SM).
                    ack_had_copy = Some(true);
                    if fwd == FwdKind::GetM {
                        *local = None;
                        *lost_local = true;
                    }
                }
                None => ack_had_copy = Some(false),
            },
            Some(Txn::Wb {
                data,
                dirty,
                invalidated,
                ..
            }) => {
                if *invalidated {
                    ack_had_copy = Some(false);
                } else {
                    match fwd {
                        FwdKind::GetSOnly => {
                            // Keep ownership so memory still gets our data.
                            resp_data = Some((*data, *dirty, true));
                        }
                        FwdKind::GetS | FwdKind::GetM => {
                            resp_data = Some((*data, *dirty, false));
                            *invalidated = true;
                        }
                    }
                }
            }
            None => ack_had_copy = Some(false),
        }
        if let Some((data, dirty, owner_keeps_copy)) = resp_data {
            ctx.send(
                requestor,
                HammerMsg::new(
                    addr,
                    HammerKind::RespData {
                        data,
                        dirty,
                        owner_keeps_copy,
                    },
                )
                .into(),
            );
        } else if let Some(had_copy) = ack_had_copy {
            self.send_ack(requestor, addr, had_copy, ctx);
        }
    }

    fn send_ack(&mut self, requestor: NodeId, addr: BlockAddr, had_copy: bool, ctx: &mut Ctx<'_>) {
        ctx.send(
            requestor,
            HammerMsg::new(addr, HammerKind::RespAck { had_copy }).into(),
        );
    }

    fn try_complete_get(&mut self, addr: BlockAddr, ctx: &mut Ctx<'_>) {
        // Complete once memory has answered and every peer has responded.
        let Some(Txn::Get {
            peers_expected: Some(peers),
            resps,
            mem_data: Some(_),
            ..
        }) = self.mshr.get(addr).map(|open| &open.txn)
        else {
            return;
        };
        if resps < peers {
            return;
        }
        let Some(Open {
            txn:
                Txn::Get {
                    kind,
                    mem_data: Some(mem),
                    peer_data,
                    had_copy,
                    local,
                    lost_local,
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
        let evicted = self.cache.insert(addr, line);
        debug_assert!(evicted.is_none(), "victim should have been taken first");
    }

    fn start_writeback(&mut self, addr: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        self.cover(addr, "Repl");
        match line.state {
            HState::S => {
                // Hammer evicts shared blocks silently.
                self.stats.silent_drops += 1;
            }
            HState::M | HState::O | HState::E => {
                let open = Open {
                    txn: Txn::Wb {
                        data: line.data,
                        dirty: line.dirty,
                        invalidated: false,
                    },
                    started: ctx.now(),
                    waiting: Vec::new(),
                };
                if self.mshr.alloc(addr, open).is_ok() {
                    self.stats.mshr_occupancy.record(self.mshr.len() as u64);
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

    fn drain_waiting(&mut self, waiting: Vec<(NodeId, CoreMsg)>, ctx: &mut Ctx<'_>) {
        for (from, msg) in waiting {
            self.handle_core(from, msg, ctx);
        }
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
            Message::Hammer(h) => self.handle_hammer(from, h, ctx),
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
            out.write_str(line.state.name());
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
                Txn::Get {
                    kind,
                    peers_expected,
                    resps,
                    mem_data,
                    peer_data,
                    data_msgs,
                    had_copy,
                    local,
                    lost_local,
                } => {
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
                            out.write_str(copy.state.name());
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
        out.record_coverage(format!("hammer_cache/{n}"), &self.coverage);
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
