//! The Hammer cache controller (combined private L1/L2, as in gem5): the
//! network side of an [`xg_proto::host_l1::HostL1`], which serves the core
//! and keeps the array and the open records for it. Of the matrix below the
//! shell runs the `Load`, `Store` and `Repl` columns — asking this module
//! which request opens a Get and what an eviction sends — and everything
//! else is handled here, by the rules of [`xg_proto::hammer`]: what a Get
//! collects and installs, and what an owner answers a forward with.
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
//! | WB    | queue | queue | —  | Data(keep)/WB  | Data(xfer)/WB_I | —      | WbData/I | sink†/I |
//! | WB_I  | queue | queue | —  | Ack/WB_I       | Ack/WB_I | —             | —     | /I     |
//!
//! Every owner — stable, `OM` or `WB` — keeps its copy on a read, so the
//! reader installs `S`: an `O` owner may have sharers, and an exclusive
//! copy beside them would break single-writer-or-multiple-readers.
//!
//! † An unexpected `WbNack` in `WB` is impossible among trusted caches; it
//! can be provoked by an erroneous accelerator `Put` reaching the directory
//! (paper §3.2.1). By default the cache sinks it and counts
//! `unexpected_nack`; with [`HammerConfig::strict`] it counts a
//! `protocol_violation` (the unmodified-baseline behavior the ablation
//! measures).
//!
//! This is exactly the complexity budget the paper quotes for a host
//! private cache — four host requests, seven host responses, and transient
//! bookkeeping with dirty bits and response counters — against which the
//! five-state accelerator cache of Table 1 is compared.

use xg_fsm::Record;
use xg_mem::{BlockAddr, DataBlock, Replacement, SetAssocCache};
use xg_proto::hammer::{self, Collect, GetKind, Grant, Held};
use xg_proto::host_l1::{self, HostL1, L1Protocol};
use xg_proto::{Ctx, HammerKind, HammerMsg, Message};
use xg_sim::{alphabet, Alphabet, CheckDigest, NodeId, Report};

/// Configuration for a [`HammerCache`].
#[derive(Debug, Clone)]
pub struct HammerConfig {
    /// Number of cache sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Maximum simultaneous transactions.
    pub mshr_entries: usize,
    /// The unmodified baseline host: a second data response for a
    /// transaction, or an unexpected `WbNack`, is a protocol violation.
    /// **Off** (the default) is the Transactional-Crossing-Guard host
    /// modification (paper §3.2.1): requestors count responses and tolerate
    /// zero or multiple data copies, and caches sink unexpected `WbNack`s
    /// and count them.
    pub strict: bool,
}

impl Default for HammerConfig {
    fn default() -> Self {
        HammerConfig {
            sets: 64,
            ways: 8,
            mshr_entries: 16,
            strict: false,
        }
    }
}

alphabet! {
    /// Protocol state of one block, as the module table's rows name it:
    /// the state coverage is keyed by and [`HammerCache::probe_state`]
    /// reports.
    pub enum CState {
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
    pub enum CEvent {
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
pub enum HState {
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

impl From<Grant> for HState {
    fn from(grant: Grant) -> HState {
        match grant {
            Grant::S => HState::S,
            Grant::E => HState::E,
            Grant::M => HState::M,
        }
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

type Line = host_l1::Line<HState>;

/// What a forward finds in a resident or retained `line`.
fn held_by(line: &Line) -> Held {
    if line.state.is_owner() {
        Held::Owned {
            data: line.data,
            dirty: line.dirty,
        }
    } else {
        Held::Shared
    }
}

/// An open Hammer transaction.
#[derive(Debug, Clone)]
pub enum Txn {
    Get(Get),
    Wb {
        data: DataBlock,
        dirty: bool,
        invalidated: bool,
    },
}

/// An open Get: its kind, what it has collected, and the copy it retained
/// while upgrading (`SM`/`OM`) until a `FwdGetM` takes it.
#[derive(Debug, Clone)]
pub struct Get {
    kind: GetKind,
    got: Collect,
    local: Option<Line>,
}

/// The Hammer side of a [`HostL1`]: the host-modification switch of
/// [`HammerConfig`] and the counters only this protocol has.
#[derive(Debug, Clone)]
pub struct Hammer {
    strict: bool,
    silent_drops: u64,
    unexpected_nack: u64,
    multi_data: u64,
}

/// A private Hammer-protocol cache serving one core's loads and stores.
///
/// Also used directly as the *accelerator-side cache* of configuration (a)
/// in Figure 2 — an accelerator that speaks the raw host protocol — and, on
/// the host side of the chip, as the *host-side cache* of configuration (b).
pub type HammerCache = HostL1<Hammer>;

impl L1Protocol for Hammer {
    type Config = HammerConfig;
    type Stable = HState;
    type State = CState;
    type Event = CEvent;
    type Txn = Txn;
    type Loan = ();

    const FAMILY: &'static str = "hammer_cache";
    const INVALID: CState = CState::I;
    const LOAD: CEvent = CEvent::Load;
    const STORE: CEvent = CEvent::Store;
    const REPL: CEvent = CEvent::Repl;

    fn build(cfg: HammerConfig) -> (SetAssocCache<Line>, usize, Self) {
        let cache = SetAssocCache::new(cfg.sets, cfg.ways, Replacement::Lru, 0);
        let proto = Hammer {
            strict: cfg.strict,
            silent_drops: 0,
            unexpected_nack: 0,
            multi_data: 0,
        };
        (cache, cfg.mshr_entries, proto)
    }

    #[inline]
    fn txn_state(txn: &Txn) -> CState {
        match txn {
            Txn::Get(get) => match (&get.local, get.kind) {
                (Some(copy), _) if copy.state.is_owner() => CState::Om,
                (Some(_), _) => CState::Sm,
                (None, GetKind::S) => CState::Is,
                (None, GetKind::SOnly) => CState::Iso,
                (None, GetKind::M) => CState::Im,
            },
            Txn::Wb { invalidated, .. } if *invalidated => CState::WbI,
            Txn::Wb { .. } => CState::Wb,
        }
    }

    #[inline]
    fn store_hit(state: HState) -> Option<HState> {
        // From E the upgrade to M is silent.
        matches!(state, HState::M | HState::E).then_some(HState::M)
    }

    #[inline]
    fn open_get(&mut self, addr: BlockAddr, store: bool, local: Option<Line>) -> (Txn, Message) {
        let kind = if store { GetKind::M } else { GetKind::S };
        let txn = Txn::Get(Get {
            kind,
            got: Collect::default(),
            local,
        });
        (txn, HammerMsg::new(addr, kind.request()).into())
    }

    #[inline]
    fn evict(&mut self, addr: BlockAddr, line: &Line) -> Option<(Txn, Message)> {
        if line.state == HState::S {
            // Hammer evicts shared blocks silently.
            self.silent_drops += 1;
            return None;
        }
        let txn = Txn::Wb {
            data: line.data,
            dirty: line.dirty,
            invalidated: false,
        };
        Some((txn, HammerMsg::new(addr, HammerKind::Put).into()))
    }

    #[inline]
    fn handle_net(l1: &mut HammerCache, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) -> u64 {
        let Message::Hammer(msg) = msg else {
            l1.violation("foreign protocol message");
            return u64::MAX;
        };
        let addr = msg.addr.as_u64();
        handle_hammer(l1, msg, ctx);
        addr
    }

    fn digest_txn(txn: &Txn, out: &mut CheckDigest) {
        match txn {
            Txn::Get(Get { kind, got, local }) => {
                out.write_str("get");
                out.write_u64(*kind as u64);
                got.digest(out);
                match local {
                    Some(copy) => {
                        out.write_str(CState::from(copy.state).label());
                        out.write_u64(u64::from(copy.dirty));
                        out.write_bytes(copy.data.as_bytes());
                    }
                    None => out.write_str("no-local"),
                }
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
    }

    fn report(&self, n: &str, out: &mut Report) {
        out.add(format_args!("{n}.silent_drops"), self.silent_drops);
        out.add(format_args!("{n}.unexpected_nack"), self.unexpected_nack);
        out.add(format_args!("{n}.multi_data"), self.multi_data);
    }
}

fn handle_hammer(l1: &mut HammerCache, msg: HammerMsg, ctx: &mut Ctx<'_>) {
    let addr = msg.addr;
    match msg.kind {
        HammerKind::FwdGetS { requestor, .. } => {
            handle_fwd(l1, addr, requestor, CEvent::FwdGetS, ctx);
        }
        HammerKind::FwdGetSOnly { requestor, .. } => {
            handle_fwd(l1, addr, requestor, CEvent::FwdGetSOnly, ctx);
        }
        HammerKind::FwdGetM { requestor, .. } => {
            handle_fwd(l1, addr, requestor, CEvent::FwdGetM, ctx);
        }
        HammerKind::MemData { data, peers } => {
            let Some(Txn::Get(get)) = l1.txn_for(addr, CEvent::MemData) else {
                return l1.violation("MemData without transaction");
            };
            get.got.mem_data(data, peers);
            if get.got.complete() {
                complete_get(l1, addr, CEvent::MemData, ctx);
            }
        }
        HammerKind::RespData {
            data,
            dirty,
            owner_keeps_copy,
        } => {
            let Some(Txn::Get(get)) = l1.txn_for(addr, CEvent::RespData) else {
                return l1.violation("RespData without transaction");
            };
            let second = get.got.resp_data(data, dirty, owner_keeps_copy);
            let complete = get.got.complete();
            if second {
                l1.proto.multi_data += 1;
                if l1.proto.strict {
                    l1.violation("multiple data responses");
                }
            }
            if complete {
                complete_get(l1, addr, CEvent::RespData, ctx);
            }
        }
        HammerKind::RespAck { had_copy } => {
            let Some(Txn::Get(get)) = l1.txn_for(addr, CEvent::RespAck) else {
                return l1.violation("RespAck without transaction");
            };
            get.got.resp_ack(had_copy);
            if get.got.complete() {
                complete_get(l1, addr, CEvent::RespAck, ctx);
            }
        }
        HammerKind::WbAck | HammerKind::WbNack => {
            let acked = matches!(msg.kind, HammerKind::WbAck);
            let (event, why) = if acked {
                (CEvent::WbAck, "WbAck without writeback")
            } else {
                (CEvent::WbNack, "WbNack without writeback")
            };
            let open = l1.mshr.close(addr);
            let state = HammerCache::state_given(&l1.cache, addr, open.as_ref().map(|o| &o.txn));
            l1.seen.visit(state, event);
            let Some(Record {
                txn:
                    Txn::Wb {
                        data,
                        dirty,
                        invalidated,
                    },
                queue: waiting,
                ..
            }) = open
            else {
                if let Some(open) = open {
                    l1.mshr.put_back(addr, open);
                }
                return l1.violation(why);
            };
            let change = (state, event, CState::I);
            if acked {
                l1.wrote_back();
                HammerCache::trace_change(ctx, addr, change, Some(&data));
                let data = HammerKind::WbData { data, dirty };
                ctx.send(l1.home(addr), HammerMsg::new(addr, data).into());
            } else {
                HammerCache::trace_change(ctx, addr, change, None);
                if !invalidated {
                    if l1.proto.strict {
                        l1.violation("unexpected WbNack");
                    } else {
                        l1.proto.unexpected_nack += 1;
                    }
                }
            }
            l1.release(waiting, ctx);
        }
        // Requests only a directory should receive.
        HammerKind::GetS
        | HammerKind::GetSOnly
        | HammerKind::GetM
        | HammerKind::Put
        | HammerKind::WbData { .. }
        | HammerKind::Unblock { .. } => {
            l1.violation("request kind delivered to a cache");
        }
    }
}

fn handle_fwd(
    l1: &mut HammerCache,
    addr: BlockAddr,
    requestor: NodeId,
    event: CEvent,
    ctx: &mut Ctx<'_>,
) {
    // A `FwdGetM` takes the block; the two reads leave an owner its copy.
    let takes = event == CEvent::FwdGetM;
    let reply = |held| HammerMsg::new(addr, hammer::answer(held, takes)).into();
    // Resident stable line?
    if let Some(mut line) = l1.cache.lookup(addr) {
        let Line { state, data, .. } = *line.get();
        l1.seen.visit(state.into(), event);
        ctx.send(requestor, reply(held_by(line.get())));
        let after = if takes {
            line.remove();
            CState::I
        } else if state.is_owner() {
            // Serving a read is a use of the line.
            line.touch();
            line.get_mut().state = HState::O;
            CState::O
        } else {
            CState::S
        };
        if after != state.into() {
            HammerCache::trace_change(ctx, addr, (state.into(), event, after), Some(&data));
        }
        return;
    }
    // In-flight transaction?
    let Some(open) = l1.mshr.get_mut(&addr) else {
        l1.seen.visit(CState::I, event);
        return ctx.send(requestor, reply(Held::Nothing));
    };
    let before = Hammer::txn_state(&open.txn);
    l1.seen.visit(before, event);
    let held = match &mut open.txn {
        Txn::Get(get) => {
            let held = get.local.as_ref().map_or(Held::Nothing, held_by);
            if takes {
                get.local = None;
            }
            held
        }
        Txn::Wb {
            invalidated: true, ..
        } => Held::Nothing,
        Txn::Wb {
            data,
            dirty,
            invalidated,
        } => {
            *invalidated = takes;
            Held::Owned {
                data: *data,
                dirty: *dirty,
            }
        }
    };
    let after = Hammer::txn_state(&open.txn);
    if after != before {
        HammerCache::trace_change(ctx, addr, (before, event, after), None);
    }
    ctx.send(requestor, reply(held));
}

/// Closes a Get that memory and every peer have answered.
/// `event` is the response that completed it.
fn complete_get(l1: &mut HammerCache, addr: BlockAddr, event: CEvent, ctx: &mut Ctx<'_>) {
    let Some((before, Txn::Get(get), waiting)) = l1.close_get(addr, ctx) else {
        return l1.violation("completing Get changed underfoot");
    };
    let retained = get.local.map(|copy| (copy.data, copy.dirty));
    let Some((grant, dirty, data)) = hammer::grant(get.kind, &get.got, retained) else {
        return l1.violation("completing Get changed underfoot");
    };
    let line = Line {
        state: grant.into(),
        dirty,
        data,
    };
    l1.install_line(addr, line, (before, event), ctx);
    ctx.send(l1.home(addr), HammerMsg::new(addr, grant.unblock()).into());
    l1.release(waiting, ctx);
}
