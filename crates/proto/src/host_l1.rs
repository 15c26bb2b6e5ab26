//! The host private cache both host protocols share.
//!
//! Toward its core a Hammer cache and a MESI L1 are the same machine: a
//! set-associative array of stable lines, one [`Record`] per block in
//! flight, loads and stores that hit, miss, upgrade, park behind an open
//! block or wait in order for a free MSHR, fills that write their victim
//! back, and a digest, a report and probes over all of it.
//! [`HostL1`] is that machine, written once. What a protocol says to the
//! network — its states, its transactions, its requests and the handler of
//! everything that is not a core op — it supplies as an [`L1Protocol`];
//! the shell is generic over it, so nothing on the message path is `dyn`.
//!
//! A block is resident or in flight, never both. The shell keeps that on
//! the core side; a protocol's network handler keeps it by moving a line
//! out of [`HostL1::cache`] before it opens a record in [`HostL1::mshr`],
//! and by filling through [`HostL1::install_line`] only after it closed one.

use xg_fsm::{Borrows, Parked, Record, Records};
use xg_mem::{BlockAddr, DataBlock, Recycle, SetAssocCache, BLOCK_BYTES};
use xg_sim::{Alphabet, CheckDigest, Component, CoverageGrid, Histogram, NodeId, Report};

use crate::{CoreKind, CoreMsg, Ctx, HomeMap, Message};

/// A resident line in stable state `S`.
#[derive(Debug, Clone, Copy)]
pub struct Line<S> {
    /// The protocol's stable state.
    pub state: S,
    /// Whether the data differs from the home node's copy.
    pub dirty: bool,
    /// The block's bytes.
    pub data: DataBlock,
}

/// Core ops parked behind an open block or a full MSHR, in arrival order.
pub type Waiting = Parked<(NodeId, CoreMsg)>;

/// What differs between the host L1s: the network side of one protocol.
pub trait L1Protocol: Clone + Send + Sized + 'static {
    /// The public configuration [`HostL1::new`] takes.
    type Config;
    /// Stable states of a resident line.
    type Stable: Copy + Send + Into<Self::State> + 'static;
    /// Every state of a block, stable and transient: the coverage rows and
    /// the vocabulary of [`HostL1::probe_state`].
    type State: Alphabet;
    /// The coverage columns.
    type Event: Alphabet;
    /// An open transaction.
    type Txn: Clone + Send + Borrows<Self::Loan>;
    /// The buffer an open transaction borrows from [`HostL1::mshr`]'s loan
    /// pool; `()` where none borrows one.
    type Loan: Recycle + Send + 'static;

    /// Tag of the state digest and family of the coverage key.
    const FAMILY: &'static str;
    /// The state of a block that is neither resident nor in flight.
    const INVALID: Self::State;
    /// A core load.
    const LOAD: Self::Event;
    /// A core store.
    const STORE: Self::Event;
    /// A line chosen as the victim of a fill.
    const REPL: Self::Event;

    /// The array and MSHR capacity `cfg` asks for, and the protocol's own
    /// part of it.
    fn build(cfg: Self::Config) -> (SetAssocCache<Line<Self::Stable>>, usize, Self);

    /// The transient state `txn` puts its block in.
    fn txn_state(txn: &Self::Txn) -> Self::State;

    /// The state a store leaves a line of `state` in when it may hit
    /// there; `None` where the store has to upgrade first.
    fn store_hit(state: Self::Stable) -> Option<Self::Stable>;

    /// The copy `txn` retained and still serves loads from, if the
    /// protocol allows that.
    fn readable_copy(_txn: &Self::Txn) -> Option<&DataBlock> {
        None
    }

    /// Opens a Get for a store (or a load) to `addr`: the transaction and
    /// the request that goes to the home node. `copy` is the resident line
    /// an upgrade pulled out of the array to ride along.
    fn open_get(
        &mut self,
        addr: BlockAddr,
        store: bool,
        copy: Option<Line<Self::Stable>>,
    ) -> (Self::Txn, Message);

    /// Evicts the victim `line` of a fill: the writeback transaction and
    /// the request that announces it, or `None` for a silent drop.
    fn evict(&mut self, addr: BlockAddr, line: &Line<Self::Stable>)
        -> Option<(Self::Txn, Message)>;

    /// Handles a message that is not a core op. Returns the block it
    /// concerned (`u64::MAX` for a message of another protocol): the one a
    /// first violation flags for the post-mortem.
    fn handle_net(l1: &mut HostL1<Self>, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) -> u64;

    /// Folds `txn` into the state digest.
    fn digest_txn(txn: &Self::Txn, out: &mut CheckDigest);

    /// Reports the protocol's own counters under the cache's `name`.
    fn report(&self, name: &str, out: &mut Report);
}

#[derive(Debug, Default)]
struct Stats {
    violation_reasons: std::collections::BTreeMap<&'static str, u64>,
    loads: u64,
    stores: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    mshr_stalls: u64,
    protocol_violation: u64,
    /// Cycles a Get transaction stayed open in the MSHR.
    lat_miss: Histogram,
    /// MSHR population, sampled at each new allocation.
    mshr_occupancy: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    violation_reasons,
    loads,
    stores,
    hits,
    misses,
    writebacks,
    mshr_stalls,
    protocol_violation,
    lat_miss,
    mshr_occupancy,
});

/// A private host cache serving one core's loads and stores, speaking
/// protocol `P` to the network.
pub struct HostL1<P: L1Protocol> {
    name: String,
    home: HomeMap,
    /// Resident stable lines.
    pub cache: SetAssocCache<Line<P::Stable>>,
    /// One record per block in flight: the protocol's transaction, the cycle
    /// it opened (`lat.miss`) and the core ops that arrived meanwhile. Its
    /// pool lends `stalled` its buffer too.
    pub mshr: Records<P::Txn, (NodeId, CoreMsg), P::Loan>,
    /// The most records `mshr` holds at once.
    mshr_entries: usize,
    /// Core ops that found every MSHR taken, and every core op that
    /// arrived behind them, in arrival order. Every op parked behind a
    /// record arrived before all of them. Drained while a slot is free
    /// after each network message, so after the ops of a record it closed.
    stalled: Waiting,
    stats: Stats,
    /// `(state, event)` pairs visited, by index; named in `report`.
    pub seen: CoverageGrid<P::State, P::Event>,
    /// The protocol's configuration, buffers and counters.
    pub proto: P,
}

xg_sim::clone_in_place!(impl[P: L1Protocol] for HostL1<P> {
    name,
    home,
    cache,
    mshr,
    mshr_entries,
    stalled,
    stats,
    seen,
    proto,
});

impl<P: L1Protocol> HostL1<P> {
    /// Creates a cache that sends its protocol requests to `home` (a
    /// single node, or a [`HomeMap`] of address-interleaved banks).
    pub fn new(name: impl Into<String>, home: impl Into<HomeMap>, cfg: P::Config) -> Self {
        let (cache, mshr_entries, proto) = P::build(cfg);
        HostL1 {
            name: name.into(),
            home: home.into(),
            cache,
            mshr: Records::default(),
            mshr_entries,
            stalled: Waiting::default(),
            stats: Stats::default(),
            seen: CoverageGrid::new(),
            proto,
        }
    }

    /// Number of protocol violations observed (impossible events). Zero in
    /// any correctly-assembled system; nonzero when an unmodified host
    /// faces a misbehaving accelerator.
    pub fn protocol_violations(&self) -> u64 {
        self.stats.protocol_violation
    }

    /// Protocol state name of `addr`, stable or transient, in the
    /// vocabulary of the protocol's module table. Read by the `xg-check`
    /// small-model checker at quiescent points for Guarantee 0
    /// cross-checks.
    pub fn probe_state(&self, addr: BlockAddr) -> &'static str {
        let txn = self.mshr.get(&addr).map(|open| &open.txn);
        Self::state_given(&self.cache, addr, txn).label()
    }

    /// Resident stable-line view of `addr`: `(data, dirty)`.
    pub fn probe_data(&self, addr: BlockAddr) -> Option<(DataBlock, bool)> {
        self.cache.get(addr).map(|l| (l.data, l.dirty))
    }

    /// The home node of `addr`.
    pub fn home(&self, addr: BlockAddr) -> NodeId {
        self.home.for_block(addr)
    }

    /// State of `addr` given its open transaction, if it has one. A block
    /// is never both resident and in flight, so handlers name the state
    /// from whichever of the two lookups they make anyway; the tag scan
    /// here is for a message that found no transaction to land on.
    pub fn state_given(
        cache: &SetAssocCache<Line<P::Stable>>,
        addr: BlockAddr,
        txn: Option<&P::Txn>,
    ) -> P::State {
        match txn {
            Some(txn) => P::txn_state(txn),
            None => cache.get(addr).map_or(P::INVALID, |line| line.state.into()),
        }
    }

    /// The transaction a response to `addr` lands on, recording `event`
    /// against the block's state from that one lookup.
    pub fn txn_for(&mut self, addr: BlockAddr, event: P::Event) -> Option<&mut P::Txn> {
        let txn = self.mshr.get_mut(&addr).map(|open| &mut open.txn);
        let state = Self::state_given(&self.cache, addr, txn.as_deref());
        self.seen.visit(state, event);
        txn
    }

    /// Counts an impossible event under the reason `why`.
    pub fn violation(&mut self, why: &'static str) {
        self.stats.protocol_violation += 1;
        *self.stats.violation_reasons.entry(why).or_insert(0) += 1;
    }

    /// Traces one state change of `addr`: the state before, the event that
    /// moved it, the state after, and the words now held — the line's, or
    /// the in-flight data's. With tracing off this is `Ctx::trace`'s one
    /// branch: everything that formats sits in the `detail` closure.
    #[inline]
    pub fn trace_change(
        ctx: &mut Ctx<'_>,
        addr: BlockAddr,
        (before, event, after): (P::State, P::Event, P::State),
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

    fn handle_core(&mut self, from: NodeId, msg: CoreMsg, ctx: &mut Ctx<'_>) {
        let addr = msg.addr.block();
        let offset = msg.addr.block_offset() & !7;
        let (event, store) = match msg.kind {
            CoreKind::Load => {
                self.stats.loads += 1;
                (P::LOAD, None)
            }
            CoreKind::Store { value } => {
                self.stats.stores += 1;
                (P::STORE, Some(value))
            }
            CoreKind::Flush => {
                // Hardware coherence makes flushes unnecessary on the host
                // side; acknowledge immediately.
                return ctx.send(from, msg.reply(CoreKind::FlushResp).into());
            }
            _ => return self.violation("core sent a response kind"),
        };

        // A block is resident or in flight, never both: a hit needs the
        // tag scan alone, and only a miss goes on to probe the MSHR.
        let Some(mut line) = self.cache.lookup(addr) else {
            if let Some((open, spares, _)) = self.mshr.get_mut_with_spares(&addr) {
                self.seen.visit(P::txn_state(&open.txn), event);
                if let (None, Some(copy)) = (store, P::readable_copy(&open.txn)) {
                    let value = copy.read_u64(offset);
                    return ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
                }
                return open.queue.park((from, msg), spares);
            }
            self.seen.visit(P::INVALID, event);
            self.stats.misses += 1;
            return self.start_get(store.is_some(), addr, None, (from, msg), ctx);
        };
        debug_assert!(self.mshr.get(&addr).is_none(), "resident and in flight");
        let state = line.get().state;
        self.seen.visit(state.into(), event);
        match (store, P::store_hit(state)) {
            (None, _) => {
                self.stats.hits += 1;
                line.touch();
                let value = line.get().data.read_u64(offset);
                ctx.send(from, msg.reply(CoreKind::LoadResp { value }).into());
            }
            (Some(value), Some(after)) => {
                self.stats.hits += 1;
                line.touch();
                let line = line.get_mut();
                line.data.write_u64(offset, value);
                line.dirty = true;
                line.state = after; // a silent upgrade where it differs
                let change = (state.into(), event, after.into());
                Self::trace_change(ctx, addr, change, Some(&line.data));
                ctx.send(from, msg.reply(CoreKind::StoreResp).into());
            }
            (Some(_), None) => {
                // An upgrade: the resident copy rides along in the
                // transaction.
                self.stats.misses += 1;
                let copy = Some(line.remove());
                self.start_get(true, addr, copy, (from, msg), ctx);
            }
        }
    }

    fn start_get(
        &mut self,
        store: bool,
        addr: BlockAddr,
        copy: Option<Line<P::Stable>>,
        op: (NodeId, CoreMsg),
        ctx: &mut Ctx<'_>,
    ) {
        if self.mshr.len() >= self.mshr_entries {
            // All MSHRs busy: reinstall any copy we pulled out, and wait
            // for a record to close.
            if let Some(copy) = copy {
                self.cache.insert(addr, copy);
            }
            self.stats.mshr_stalls += 1;
            return self.stalled.park(op, self.mshr.spares());
        }
        let (txn, request) = self.proto.open_get(addr, store, copy);
        let before = copy.map_or(P::INVALID, |copy| copy.state.into());
        let event = if store { P::STORE } else { P::LOAD };
        let held = copy.as_ref().map(|copy| &copy.data);
        Self::trace_change(ctx, addr, (before, event, P::txn_state(&txn)), held);
        debug_assert!(!self.mshr.contains_key(&addr), "a second Get in flight");
        self.mshr.open(addr, txn, ctx.now(), Some(op));
        self.stats.mshr_occupancy.record(self.mshr.len() as u64);
        ctx.send(self.home(addr), request);
    }

    /// Closes the record open on `addr` as a finished Get: the state it
    /// left the block in, its transaction and the ops parked behind it.
    pub fn close_get(
        &mut self,
        addr: BlockAddr,
        ctx: &mut Ctx<'_>,
    ) -> Option<(P::State, P::Txn, Waiting)> {
        let Record { txn, since, queue } = self.mshr.close(addr)?;
        let waited = ctx.now().saturating_since(since);
        self.stats.lat_miss.record(waited);
        ctx.span(addr.as_u64(), "miss", since);
        Some((P::txn_state(&txn), txn, queue))
    }

    /// Counts a writeback the home node accepted.
    pub fn wrote_back(&mut self) {
        self.stats.writebacks += 1;
    }

    /// Inserts a finished line, evicting (and writing back) a victim if the
    /// set is full. Capacity is reclaimed at fill time, which is when the
    /// conflict actually materializes. `(before, event)` is the transient
    /// state the fill closes and the response that completed it.
    pub fn install_line(
        &mut self,
        addr: BlockAddr,
        line: Line<P::Stable>,
        (before, event): (P::State, P::Event),
        ctx: &mut Ctx<'_>,
    ) {
        let change = (before, event, line.state.into());
        Self::trace_change(ctx, addr, change, Some(&line.data));
        if let Some((victim_addr, victim)) = self.cache.take_victim(addr) {
            self.start_writeback(victim_addr, victim, ctx);
        }
        // Only `start_writeback`'s no-MSHR fallback refills the set, and a
        // fill always follows the close of its own Get, which freed a slot.
        if self.cache.insert(addr, line).is_some() {
            self.violation("fill evicted a line without a writeback");
        }
    }

    fn start_writeback(&mut self, addr: BlockAddr, line: Line<P::Stable>, ctx: &mut Ctx<'_>) {
        // The victim has left the array and has no transaction yet, which
        // is the state this event has always been recorded against.
        self.seen.visit(P::INVALID, P::REPL);
        let before = line.state.into();
        let Some((txn, put)) = self.proto.evict(addr, &line) else {
            let change = (before, P::REPL, P::INVALID);
            return Self::trace_change(ctx, addr, change, Some(&line.data));
        };
        let change = (before, P::REPL, P::txn_state(&txn));
        if self.mshr.len() < self.mshr_entries {
            debug_assert!(!self.mshr.contains_key(&addr), "resident and in flight");
            self.mshr.open(addr, txn, ctx.now(), None);
            self.stats.mshr_occupancy.record(self.mshr.len() as u64);
            Self::trace_change(ctx, addr, change, Some(&line.data));
            ctx.send(self.home(addr), put);
        } else {
            // No MSHR for the victim: reinstall it and evict nothing.
            // The fill below will replace a different way next time.
            self.stats.mshr_stalls += 1;
            self.cache.insert(addr, line);
        }
    }

    /// Re-handles, in order, the core ops parked behind a record now
    /// closed. They arrived before every op waiting for an MSHR: one that
    /// finds every MSHR taken goes, with the ops behind it, ahead of those.
    pub fn release(&mut self, mut waiting: Waiting, ctx: &mut Ctx<'_>) {
        let later = std::mem::take(&mut self.stalled);
        while let Some((from, msg)) =
            waiting.pop_first(self.mshr.spares(), |_| self.stalled.is_empty())
        {
            self.handle_core(from, msg, ctx);
        }
        waiting.park_ahead(std::mem::take(&mut self.stalled), self.mshr.spares());
        self.stalled = later;
        self.stalled.park_ahead(waiting, self.mshr.spares());
    }
}

impl<P: L1Protocol> Component<Message> for HostL1<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let violations_before = self.stats.protocol_violation;
        let addr = match msg {
            Message::Core(c) => {
                // Behind a stalled op, a core op waits its turn; a response
                // kind is a violation wherever it arrives.
                let op = matches!(
                    c.kind,
                    CoreKind::Load | CoreKind::Store { .. } | CoreKind::Flush
                );
                if op && !self.stalled.is_empty() {
                    self.stalled.park((from, c), self.mshr.spares());
                } else {
                    self.handle_core(from, c, ctx);
                }
                c.addr.block().as_u64()
            }
            other => {
                let addr = P::handle_net(self, from, other, ctx);
                // Stalled ops run in order while an MSHR is free; each takes
                // at most the one slot it finds, so none stalls again.
                loop {
                    let free = self.mshr.len() < self.mshr_entries;
                    let Some((from, msg)) = self.stalled.pop_first(self.mshr.spares(), |_| free)
                    else {
                        break;
                    };
                    self.handle_core(from, msg, ctx);
                }
                addr
            }
        };
        // The first impossible event is the symptom worth dissecting; flag
        // it so a traced replay dumps this block's history.
        if violations_before == 0 && self.stats.protocol_violation > 0 {
            ctx.flag_post_mortem(addr, format!("{}: first protocol violation", self.name));
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str(P::FAMILY);
        // Stable lines, sorted by address role. Replacement/recency
        // metadata is excluded: in the checker's direct-mapped small-model
        // configuration it never branches behavior.
        let lines = out.sorted_by_addr_role(self.cache.iter().map(|(a, _)| a.as_u64()));
        out.write_u64(lines.len() as u64);
        for &a in &lines {
            let line = self.cache.get(BlockAddr::new(a));
            let line = line.expect("iterated address is resident");
            out.write_addr(a);
            out.write_str(line.state.into().label());
            out.write_u64(u64::from(line.dirty));
            out.write_bytes(line.data.as_bytes());
        }
        out.recycle(lines);
        // Open MSHR transactions, each an obligation (`since` is excluded).
        self.mshr.digest(out, Some, |open, out| {
            P::digest_txn(&open.txn, out);
            open.queue
                .digest(out, |(from, msg), out| msg.digest(*from, out));
        });
        // Stalled ops are obligations too. A drained state has none, so an
        // empty queue adds nothing to the digest.
        if !self.stalled.is_empty() {
            self.stalled
                .digest(out, |(from, msg), out| msg.digest(*from, out));
        }
        out.obligation(self.mshr.len() as u64);
    }

    fn report(&self, out: &mut Report) {
        let (n, stats) = (&self.name, &self.stats);
        out.add(format_args!("{n}.loads"), stats.loads);
        out.add(format_args!("{n}.stores"), stats.stores);
        out.add(format_args!("{n}.hits"), stats.hits);
        out.add(format_args!("{n}.misses"), stats.misses);
        out.add(format_args!("{n}.writebacks"), stats.writebacks);
        out.add(format_args!("{n}.mshr_stalls"), stats.mshr_stalls);
        out.add(
            format_args!("{n}.protocol_violation"),
            stats.protocol_violation,
        );
        for (why, count) in &stats.violation_reasons {
            out.add(format_args!("{n}.violation[{why}]"), *count);
        }
        self.proto.report(n, out);
        out.record_grid(format_args!("{}/{n}", P::FAMILY), &self.seen);
        out.record_hist(format_args!("{n}.lat.miss"), &stats.lat_miss);
        out.record_hist(format_args!("{n}.mshr_occupancy"), &stats.mshr_occupancy);
    }

    fn box_clone(&self) -> Option<Box<dyn Component<Message>>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, saved: &dyn Component<Message>) -> bool {
        xg_sim::restore_in_place(self, saved)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests;
