//! The single-level accelerator L1 of the paper's Table 1.
//!
//! Dispatch is table-driven, and the table is Table 1 (see [`table`],
//! dumped to `docs/tables/accel_l1.md`): each core op, interface message
//! and replacement is classified into an `(L1State, L1Event)` pair from the
//! one array or `pending` lookup its handler makes, and the `xg-fsm` table
//! decides transition, stall or violation. Four stable states and **one**
//! transient state, `B`: the accelerator never counts acks, never sees
//! another cache, and never handles a race other than its own request
//! crossing an Invalidate (answered with `InvAck` from `B` while the
//! request's one response is still owed). Messages of another family, or
//! from anyone but `below`, are no Table 1 stimulus and count as violations
//! before classification.

use std::sync::OnceLock;

use xg_fsm::{
    alphabet, Alphabet, Controller, Machine, Parked, Record, Records, Step, Table, TableBuilder,
};
use xg_mem::{BlockAddr, Replacement, SetAssocCache};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, XgData, XgiKind, XgiMsg};
use xg_sim::{CloneComponent, Component, CoverageGrid, Cycle, FsmRows, Histogram, NodeId, Report};

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
    /// Accelerator block size in host (64 B) blocks; Crossing Guard
    /// translates when this is > 1 (paper §2.5).
    pub block_blocks: usize,
    /// Prefetching policy.
    pub prefetch: Prefetch,
}

impl Default for AccelL1Config {
    fn default() -> Self {
        AccelL1Config {
            sets: 64,
            ways: 4,
            block_blocks: 1,
            prefetch: Prefetch::Off,
        }
    }
}

alphabet! {
    /// Table 1's rows: the states the table and the coverage grid are keyed
    /// by and [`AccelL1::state_of`] reports. `B`, the one transient state,
    /// is a block with a request outstanding.
    pub enum L1State { M, E, S, I, B }
}

alphabet! {
    /// Table 1's columns, then the flush this cache also accepts and the
    /// one refinement a block's outstanding request decides.
    pub enum L1Event {
        Load, Store,
        /// Replacement: a line leaves the array as a victim or for a flush.
        Repl,
        Inv, DataM, DataE, DataS, WbAck,
        /// A core flush: not a Table 1 column.
        Flush,
        /// A response the block's outstanding request does not expect: a
        /// grant while it is a Put or whose payload is not one accelerator
        /// block, a `WbAck` while it is a Get. The coverage grid records
        /// the message's own column.
        Unasked,
    }
}

alphabet! {
    /// Symbolic actions, interpreted against the array, `pending` and the
    /// stimulus in [`L1Cx`].
    pub enum L1Action {
        /// Load hit: answer from the line.
        Read,
        /// Store hit: write the line, which becomes M.
        Write,
        /// Take the line out of the array.
        Remove,
        /// Open a `GetS` for the op, and prefetch.
        IssueGetS,
        /// Open a `GetM` for the op, and prefetch.
        IssueGetM,
        /// Open a Put of the removed line; a flush waits for its `WbAck`.
        IssuePutM, IssuePutE, IssuePutS,
        /// Run the state's `Repl` row on the removed line.
        Replace,
        /// Answer the flush of a block the cache does not hold.
        AckFlush,
        /// Answer an `Inv` with the removed line's data, or with a bare ack.
        SendDirtyWb, SendCleanWb, SendInvAck,
        /// Complete the Get: install the grant as S, as E, as M. A victim
        /// runs its `Repl` row first.
        FillS, FillE, FillM,
        /// Complete the Put: count the writeback.
        Retire,
        /// Re-handle the core ops that waited for the completed request.
        Drain,
    }
}

/// The validated `accel_l1` table: the paper's Table 1, row for row.
pub fn table() -> &'static Table<L1State, L1Event, L1Action> {
    static T: OnceLock<Table<L1State, L1Event, L1Action>> = OnceLock::new();
    T.get_or_init(|| {
        use L1Action::*;
        use L1Event::*;
        use L1State::*;
        let mut b = TableBuilder::new("accel_l1");
        b.note(
            "The paper's Table 1 (§2.1): four stable states and one transient \
             state, `B`, a block with exactly one request outstanding.",
        );
        b.note(
            "Outside Table 1: the `Flush` column, a core flush, which writes \
             a held line back through its `Repl` row, and `Unasked`, a \
             response the block's request does not expect, which is always a \
             violation. `(B, Repl)` is Table 1's stall but unreachable: victims \
             are resident lines, and a resident block is never in `B`.",
        );
        for s in [M, E, S] {
            b.on(s, Load, &[Read], s);
        }
        b.on(M, Store, &[Write], M);
        b.on(E, Store, &[Write], M);
        // The S copy is dropped; `DataM` brings the data back.
        b.on(S, Store, &[Remove, IssueGetM], B);
        b.on(I, Load, &[IssueGetS], B);
        b.on(I, Store, &[IssueGetM], B);
        // A victim is already out of the array when its row runs.
        b.on(M, Repl, &[IssuePutM], B);
        b.on(E, Repl, &[IssuePutE], B);
        b.on(S, Repl, &[IssuePutS], B);
        b.on(M, Inv, &[Remove, SendDirtyWb], I);
        b.on(E, Inv, &[Remove, SendCleanWb], I);
        b.on(S, Inv, &[Remove, SendInvAck], I);
        b.on(I, Inv, &[SendInvAck], I);
        // The one race: our request crossed the Inv. It stays open; its one
        // response is still owed.
        b.on(B, Inv, &[SendInvAck], B);
        for e in [Load, Store, Repl, Flush] {
            b.stall(B, e);
        }
        b.on(B, DataM, &[FillM, Drain], M);
        b.on(B, DataE, &[FillE, Drain], E);
        b.on(B, DataS, &[FillS, Drain], S);
        b.on(B, WbAck, &[Retire, Drain], I);
        for s in [M, E, S] {
            b.on(s, Flush, &[Remove, Replace], B);
        }
        b.on(I, Flush, &[AckFlush], I);
        b.violation_rest();
        b.build()
            .expect("accel_l1 table is deterministic and total")
    })
}

#[derive(Debug)]
struct Line {
    /// M, E or S: the array holds stable lines only.
    state: L1State,
    data: XgData,
    /// Brought in by the prefetcher and not yet demanded.
    prefetched: bool,
}

xg_sim::clone_in_place!(impl[] for Line { state, data, prefetched });

/// A block's one outstanding request, what `B` is: a core op's Get, a
/// prefetch's Get, or a replaced line's Put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Get,
    Prefetch,
    Put,
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
    /// Outstanding-request (MSHR) population, sampled at each new request.
    mshr_occupancy: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    loads, stores, hits, misses, writebacks, invalidations, stalls, prefetches_issued,
    prefetch_hits, protocol_violation, lat_miss, mshr_occupancy,
});

/// Per-dispatch context for [`L1Action`] interpretation.
pub struct L1Cx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    la: BlockAddr,
    /// The core op the row serves: answered, parked, or waiting on the
    /// request the row opens.
    op: Option<(NodeId, CoreMsg)>,
    /// A grant's payload, or the data of the line `Remove` took out of the
    /// array or of the victim a `Repl` row writes back.
    data: Option<XgData>,
    /// The core ops waiting for the request a response completed.
    released: Parked<(NodeId, CoreMsg)>,
}

impl<'a, 'b> L1Cx<'a, 'b> {
    fn new(
        ctx: &'a mut Ctx<'b>,
        la: BlockAddr,
        op: Option<(NodeId, CoreMsg)>,
        data: Option<XgData>,
    ) -> Self {
        L1Cx {
            ctx,
            la,
            op,
            data,
            released: Parked::default(),
        }
    }
}

/// The Table 1 accelerator cache. `below` is its Crossing Guard — or, in
/// the two-level organization, the shared accelerator L2, which exposes the
/// same interface.
pub struct AccelL1 {
    name: String,
    below: NodeId,
    cfg: AccelL1Config,
    cache: SetAssocCache<Line>,
    /// Each block's one outstanding request and the core ops waiting for it.
    pending: Records<Pending, (NodeId, CoreMsg)>,
    stats: Stats,
    /// `(state, column)` pairs visited, by index; named in `report`.
    seen: CoverageGrid<L1State, L1Event>,
    machine: Machine<L1State, L1Event, L1Action>,
}

xg_sim::clone_in_place!(impl[] for AccelL1 {
    name, below, cfg, cache, pending, stats, seen, machine,
});

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
            cache: SetAssocCache::new(cfg.sets, cfg.ways, Replacement::Lru, 0),
            pending: Records::default(),
            cfg,
            stats: Stats::default(),
            seen: CoverageGrid::new(),
            machine: Machine::new(table()),
        }
    }

    /// Impossible-event counter; stays zero against a conforming interface.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// The state name for `line_addr` (Table 1 vocabulary: M/E/S/I/B).
    pub fn state_of(&self, line_addr: BlockAddr) -> &'static str {
        self.state(line_addr).label()
    }

    /// Table 1 state of `la`. A block is resident or pending, never both,
    /// so a hit needs the tag scan alone.
    fn state(&self, la: BlockAddr) -> L1State {
        match self.cache.get(la) {
            Some(line) => line.state,
            None if self.pending.contains_key(&la) => L1State::B,
            None => L1State::I,
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

    /// Records `(state, column)` in the coverage grid and runs the table's
    /// `(state, event)` row: the one path of every core op, interface
    /// message and replacement. `event` differs from `column` only when it
    /// is [`L1Event::Unasked`].
    fn run(&mut self, state: L1State, column: L1Event, event: L1Event, cx: &mut L1Cx<'_, '_>) {
        self.seen.visit(state, column);
        self.dispatch(state, event, cx);
    }

    fn handle_core(&mut self, from: NodeId, msg: CoreMsg, ctx: &mut Ctx<'_>) {
        let event = match msg.kind {
            CoreKind::Load => {
                self.stats.loads += 1;
                L1Event::Load
            }
            CoreKind::Store { .. } => {
                self.stats.stores += 1;
                L1Event::Store
            }
            CoreKind::Flush => L1Event::Flush,
            _ => return self.violation(),
        };
        let la = self.line_addr(msg.addr.block());
        let state = self.state(la);
        let mut cx = L1Cx::new(ctx, la, Some((from, msg)), None);
        self.run(state, event, event, &mut cx);
    }

    fn handle_xgi(&mut self, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        let la = msg.addr;
        ctx.trace(la.as_u64(), "accel-l1", "RecvXg", || {
            format!("{} (state {})", msg.kind, self.state_of(la))
        });
        let (event, data) = match msg.kind {
            XgiKind::DataS { data } => (L1Event::DataS, Some(data)),
            XgiKind::DataE { data } => (L1Event::DataE, Some(data)),
            XgiKind::DataM { data } => (L1Event::DataM, Some(data)),
            XgiKind::WbAck => (L1Event::WbAck, None),
            XgiKind::Inv => {
                self.stats.invalidations += 1;
                (L1Event::Inv, None)
            }
            _ => return self.violation(),
        };
        // A response must answer the block's one request, and a grant must
        // carry one accelerator block.
        let fits = data
            .as_ref()
            .is_none_or(|d| d.len() == self.cfg.block_blocks);
        let (state, row) = match self.pending.get(&la).map(|p| p.txn == Pending::Put) {
            Some(put) if event == L1Event::Inv || (put == (event == L1Event::WbAck) && fits) => {
                (L1State::B, event)
            }
            Some(_) => (L1State::B, L1Event::Unasked),
            None => (self.state(la), event),
        };
        let mut cx = L1Cx::new(ctx, la, None, data);
        self.run(state, event, row, &mut cx);
    }

    /// Opens `la`'s one outstanding request, `op` waiting for it.
    fn open(&mut self, la: BlockAddr, txn: Pending, op: Option<(NodeId, CoreMsg)>, now: Cycle) {
        self.pending.open(la, txn, now, op);
        self.stats.mshr_occupancy.record(self.pending.len() as u64);
    }

    /// A demand miss trains the next-line prefetcher: the following blocks
    /// the cache neither holds nor awaits are requested with `req` too.
    fn prefetch(&mut self, la: BlockAddr, req: XgiKind, ctx: &mut Ctx<'_>) {
        let Prefetch::NextLine { degree } = self.cfg.prefetch else {
            return;
        };
        for i in 1..=degree as u64 {
            let next = la.offset(i * self.cfg.block_blocks as u64);
            if self.cache.contains(next) || self.pending.contains_key(&next) {
                continue;
            }
            self.open(next, Pending::Prefetch, None, ctx.now());
            self.stats.prefetches_issued += 1;
            self.send_below(next, req.clone(), ctx);
        }
    }

    /// Puts a granted line in the array. Lines in the array are never
    /// pending, so any of them may be the victim; it runs its `Repl` row
    /// before the grant takes its way.
    fn install(&mut self, la: BlockAddr, line: Line, ctx: &mut Ctx<'_>) {
        if let Some((victim_addr, victim)) = self.cache.take_victim(la) {
            let mut cx = L1Cx::new(ctx, victim_addr, None, Some(victim.data));
            self.run(victim.state, L1Event::Repl, L1Event::Repl, &mut cx);
        }
        let evicted = self.cache.insert(la, line);
        debug_assert!(evicted.is_none(), "the victim left first");
    }
}

impl<'a, 'b> Controller<L1State, L1Event, L1Action, L1Cx<'a, 'b>> for AccelL1 {
    fn machine(&mut self) -> &mut Machine<L1State, L1Event, L1Action> {
        &mut self.machine
    }

    fn apply(&mut self, action: L1Action, step: Step<L1State, L1Event>, cx: &mut L1Cx<'a, 'b>) {
        let la = cx.la;
        match action {
            L1Action::Read | L1Action::Write => {
                let (Some((from, msg)), Some(line)) = (cx.op.take(), self.cache.get_mut(la)) else {
                    return self.violation();
                };
                self.stats.hits += 1;
                if std::mem::take(&mut line.prefetched) {
                    self.stats.prefetch_hits += 1;
                }
                let sub = (msg.addr.block().as_u64() - la.as_u64()) as usize;
                let offset = msg.addr.block_offset() & !7;
                let block = &mut line.data.blocks_mut()[sub];
                let reply = match (action, msg.kind) {
                    (L1Action::Write, CoreKind::Store { value }) => {
                        block.write_u64(offset, value);
                        line.state = L1State::M;
                        CoreKind::StoreResp
                    }
                    _ => CoreKind::LoadResp {
                        value: block.read_u64(offset),
                    },
                };
                cx.ctx.send(from, msg.reply(reply).into());
            }
            L1Action::Remove => cx.data = self.cache.remove(la).map(|line| line.data),
            L1Action::IssueGetS | L1Action::IssueGetM => {
                let req = match action {
                    L1Action::IssueGetS => XgiKind::GetS,
                    _ => XgiKind::GetM,
                };
                self.stats.misses += 1;
                self.open(la, Pending::Get, cx.op.take(), cx.ctx.now());
                self.send_below(la, req.clone(), cx.ctx);
                self.prefetch(la, req, cx.ctx);
            }
            L1Action::IssuePutM | L1Action::IssuePutE | L1Action::IssuePutS => {
                let Some(data) = cx.data.take() else {
                    return self.violation();
                };
                let req = match action {
                    L1Action::IssuePutM => XgiKind::PutM { data },
                    L1Action::IssuePutE => XgiKind::PutE { data },
                    _ => XgiKind::PutS,
                };
                self.open(la, Pending::Put, cx.op.take(), cx.ctx.now());
                self.send_below(la, req, cx.ctx);
            }
            L1Action::Replace => self.run(step.state, L1Event::Repl, L1Event::Repl, cx),
            L1Action::AckFlush => {
                let Some((from, msg)) = cx.op.take() else {
                    return self.violation();
                };
                cx.ctx.send(from, msg.reply(CoreKind::FlushResp).into());
            }
            L1Action::SendDirtyWb | L1Action::SendCleanWb => {
                let Some(data) = cx.data.take() else {
                    return self.violation();
                };
                let resp = match action {
                    L1Action::SendDirtyWb => XgiKind::DirtyWb { data },
                    _ => XgiKind::CleanWb { data },
                };
                self.send_below(la, resp, cx.ctx);
            }
            L1Action::SendInvAck => self.send_below(la, XgiKind::InvAck, cx.ctx),
            L1Action::FillS | L1Action::FillE | L1Action::FillM => {
                let (Some(data), Some(p)) = (cx.data.take(), self.pending.close(la)) else {
                    return self.violation();
                };
                let now = cx.ctx.now();
                self.stats.lat_miss.record(now.saturating_since(p.since));
                cx.ctx.span(la.as_u64(), "miss", p.since);
                let state = match action {
                    L1Action::FillM => L1State::M,
                    L1Action::FillE => L1State::E,
                    _ => L1State::S,
                };
                let line = Line {
                    state,
                    data,
                    prefetched: p.txn == Pending::Prefetch,
                };
                self.install(la, line, cx.ctx);
                cx.released = p.queue;
            }
            L1Action::Retire => {
                let Some(Record { queue, .. }) = self.pending.close(la) else {
                    return self.violation();
                };
                self.stats.writebacks += 1;
                cx.released = queue;
            }
            L1Action::Drain => {
                while let Some((from, msg)) = cx.released.pop_first(self.pending.spares(), |_| true)
                {
                    self.handle_core(from, msg, cx.ctx);
                }
            }
        }
    }

    fn stalled(&mut self, _step: Step<L1State, L1Event>, cx: &mut L1Cx<'a, 'b>) {
        // Only core ops stall: `(B, Repl)` never runs, as victims are
        // resident and a resident block is never pending.
        match cx.op.take() {
            Some(op) if self.pending.park(cx.la, op) => self.stats.stalls += 1,
            _ => self.violation(),
        }
    }

    fn violated(&mut self, _step: Step<L1State, L1Event>, _cx: &mut L1Cx<'a, 'b>) {
        self.violation();
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
        out.add(format_args!("{n}.loads"), self.stats.loads);
        out.add(format_args!("{n}.stores"), self.stats.stores);
        out.add(format_args!("{n}.hits"), self.stats.hits);
        out.add(format_args!("{n}.misses"), self.stats.misses);
        out.add(format_args!("{n}.writebacks"), self.stats.writebacks);
        out.add(format_args!("{n}.invalidations"), self.stats.invalidations);
        out.add(format_args!("{n}.stalls"), self.stats.stalls);
        out.add(
            format_args!("{n}.prefetches_issued"),
            self.stats.prefetches_issued,
        );
        out.add(format_args!("{n}.prefetch_hits"), self.stats.prefetch_hits);
        out.add(
            format_args!("{n}.protocol_violation"),
            self.stats.protocol_violation,
        );
        out.record_grid(format_args!("accel_l1/{n}"), &self.seen);
        out.record_hist(format_args!("{n}.lat.miss"), &self.stats.lat_miss);
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
