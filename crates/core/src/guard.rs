//! The Crossing Guard component.
//!
//! One instance guards one accelerator (paper §2). The accelerator-facing
//! side speaks the standardized interface over an ordered link; the
//! host-facing side is a persona (`hammer_side` / `mesi_side`). This module
//! owns the guarantee checks of Figure 1, the per-variant state tracking
//! (§2.3), invalidation forwarding with timeout recovery (2c), request rate
//! limiting (§2.5), and block-size translation (§2.5).
//!
//! Figure 1 is two tables. Every accelerator message, persona event and
//! Guarantee 2c deadline is classified into a `(block state, event)` pair
//! from the one `open` / `table` lookup of its block, and runs one row of
//! [`full_table`] (`xg_full`: entry × open record) or [`tx_table`]
//! (`xg_tx`: open record). Rows name the guarantee they enforce. As in the
//! accelerator caches, what is no stimulus for a block is refused before
//! classification: a message from anyone but the accelerator, of a kind it
//! never sends, or a request on a misaligned block or with a payload of the
//! wrong size. So is a request the interface does not admit yet: while the
//! OS has disabled the accelerator, or while the rate limiter holds it.
//!
//! The rate limiter keeps the interface link's order (§2.1): a held request
//! is admitted before any later request, and before a response that
//! answers an `Inv` on its block. Responses are never held (§2.5).

use std::sync::OnceLock;

use xg_fsm::{
    alphabet, Alphabet, Borrows, Controller, Machine, Next, Parked, Record, Records, Step, Table,
    TableBuilder,
};
use xg_mem::{BlockAddr, DataBlock, IdMap, PagePerm};
use xg_proto::{Ctx, HomeMap, Message, OsMsg, XgData, XgError, XgErrorKind, XgiKind, XgiMsg};
use xg_sim::{CheckDigest, Component, Cycle, FsmRows, Histogram, NodeId, Report};

use crate::config::{XgConfig, XgVariant};
use crate::persona::{
    DemandKind, DemandResponse, GetReq, GrantState, HostSide, Persona, PersonaEvent, PutReq,
};
use crate::rate_limit::TokenBucket;

alphabet! {
    /// A block's open record (see the tables' notes); the whole state of an
    /// `xg_tx` block. An `Inv` names it beside a Put or relinquish.
    pub enum Rec { Idle, Get, PGet, Put, Inv, RInv, Rel }
}

alphabet! {
    /// An `xg_full` block: its Full State entry (`I` none, `S`, `E` owned
    /// clean, `M` owned dirty, `Sh` shadowed) × its [`Rec`], entry-major.
    pub enum FullState {
        I, IGet = "I_Get", IPGet = "I_PGet", IPut = "I_Put", IInv = "I_Inv", IRInv = "I_RInv",
        IRel = "I_Rel",
        S, SGet = "S_Get", SPGet = "S_PGet", SPut = "S_Put", SInv = "S_Inv", SRInv = "S_RInv",
        SRel = "S_Rel",
        E, EGet = "E_Get", EPGet = "E_PGet", EPut = "E_Put", EInv = "E_Inv", ERInv = "E_RInv",
        ERel = "E_Rel",
        M, MGet = "M_Get", MPGet = "M_PGet", MPut = "M_Put", MInv = "M_Inv", MRInv = "M_RInv",
        MRel = "M_Rel",
        Sh, ShGet = "Sh_Get", ShPGet = "Sh_PGet", ShPut = "Sh_Put", ShInv = "Sh_Inv",
        ShRInv = "Sh_RInv", ShRel = "Sh_Rel",
    }
}

alphabet! {
    /// What reached the guard about a block. A host grant or Put completion
    /// with more to come, or the last (of a grant: some sub-block shared /
    /// all owned); a relinquish put's completion; one no record asked for.
    /// Host demands: a read not sent to an owner, one sent to an owner, a
    /// write or recall; any on a page the accelerator may not touch.
    pub enum XgEvent {
        GetS, GetM, PutS, PutE, PutM, InvAck, CleanWb, DirtyWb,
        Granted, LastGrantS, LastGrantX, PutAck, PutDone, RelDone, Unasked,
        Read, OwnerRead, Write, Hidden,
        /// The Guarantee 2c deadline of the open `Inv`.
        Timeout,
    }
}

alphabet! {
    /// Symbolic actions, interpreted against the block's records and the
    /// stimulus in [`XgCx`].
    pub enum XgAction {
        /// Guarantee 0: refuse a request the page does not allow (read;
        /// write for `GetM`, `PutE`, `PutM`); the row's later actions then
        /// do nothing.
        CheckPerm,
        /// Report the request (1a: it does not fit the entry; 1b: one is
        /// open) or the response (2a: not the `InvAck` a raced `Inv` waits
        /// for; 2b: no `Inv` is open).
        ErrInconsistent, ErrDuplicate, ErrResponse, ErrUnsolicited,
        /// Drop the entry, putting a shadow back to the host.
        Forget,
        /// Open the accelerator's Get, its `PutS` (acked at once where the
        /// host has no `PutS`), its `PutE`/`PutM`; send a `WbAck`.
        IssueGetS, IssueGetM, IssuePutS, IssuePut, AckPut,
        /// Keep a host grant; answer the Get; ask again. Count a Put
        /// completion; close the Put. Clear a relinquish put. Admit the
        /// requests queued behind.
        Collect, Grant, Refetch, PutAcked, FinishPut, Relinquished, Drain,
        /// Answer a demand here: no copy, a shared copy, from the shadow,
        /// or as an open Get allows (nothing readable is held).
        AnswerNoCopy, AnswerShared, AnswerShadow, AnswerOpenGet,
        /// Mark an open read Get's grant stale; send or extend the `Inv`.
        Poison, ForwardInv,
        /// What the accelerator held (Guarantee 2a), from its response: the
        /// entry says it owned / held at most `S` / the host's demands say.
        /// From a Put crossing the `Inv`, refusing data for a read-only page
        /// (Guarantee 0); from the trusted shadow. At most `S`; nothing;
        /// owned, data lost.
        FromOwner, FromSharer, FromTx, TakePut, FromShadow, Shared, NoCopy, Zeros,
        /// Answer every waiting demand from it and drop the entry.
        Answer,
        /// The crossing Put's `WbAck`; the `Inv` waits for its `InvAck`.
        AckRace,
        /// Close the `Inv` and admit the requests queued behind it.
        CloseInv,
        /// Guarantee 2c: count and report the timeout.
        TimedOut,
    }
}

use XgEvent::{
    CleanWb, DirtyWb, GetM, GetS, Granted, Hidden, InvAck, LastGrantS, LastGrantX, OwnerRead,
    PutAck, PutDone, PutE, PutM, PutS, Read, RelDone, Timeout, Write,
};

const REQUESTS: [XgEvent; 5] = [GetS, GetM, PutS, PutE, PutM];
const RESPONSES: [XgEvent; 3] = [InvAck, CleanWb, DirtyWb];
const DEMANDS: [XgEvent; 3] = [Read, OwnerRead, Write];

/// The rows of a block with no entry that both tables share; `st` names a
/// record's state. With `blocks`, an accelerator block may span host blocks
/// (translation needs Full State, §2.5) and a Get or Put completes in parts.
fn record_rows<S: Alphabet>(
    b: &mut TableBuilder<S, XgEvent, XgAction>,
    st: impl Fn(Rec) -> S,
    blocks: bool,
) {
    use XgAction::*;
    for r in [Rec::Get, Rec::PGet, Rec::Put] {
        for e in REQUESTS {
            b.on(st(r), e, &[ErrDuplicate], st(r)).tag("1b");
        }
    }
    for r in [Rec::Idle, Rec::Get, Rec::PGet, Rec::Put, Rec::Rel] {
        for e in RESPONSES {
            b.on(st(r), e, &[ErrUnsolicited], st(r)).tag("2b");
        }
    }
    for r in [Rec::Get, Rec::PGet] {
        if blocks {
            b.on(st(r), Granted, &[Collect], st(r));
        }
        b.on_dyn(st(r), LastGrantX, &[Collect, Grant, Drain]);
        b.on(st(r), Read, &[AnswerOpenGet], st(r));
        b.on(st(r), OwnerRead, &[AnswerOpenGet], st(r));
    }
    b.on_dyn(st(Rec::Get), LastGrantS, &[Collect, Grant, Drain]);
    b.on(st(Rec::PGet), LastGrantS, &[Collect, Refetch], st(Rec::Get));
    b.on_dyn(st(Rec::Get), Write, &[Poison, AnswerOpenGet]);
    b.on(st(Rec::PGet), Write, &[AnswerOpenGet], st(Rec::PGet));
    if blocks {
        b.on(st(Rec::Put), PutAck, &[PutAcked], st(Rec::Put));
    }
    b.on_dyn(st(Rec::Put), PutDone, &[FinishPut, Drain]);
    for e in REQUESTS {
        b.stall(st(Rec::Rel), e);
    }
    for r in [Rec::Rel, Rec::RInv] {
        b.on_dyn(st(r), RelDone, &[Relinquished, Drain]);
    }
    inv_rows(b, st(Rec::RInv), st(Rec::RInv), false);
    b.on_dyn(st(Rec::RInv), InvAck, &[Shared, Answer, CloseInv])
        .tag("2a");
    for e in [CleanWb, DirtyWb] {
        b.on_dyn(st(Rec::RInv), e, &[ErrResponse, Shared, Answer, CloseInv])
            .tag("2a");
    }
}

/// The requests of a state `s` with an `Inv` open: Gets wait, and a Put
/// crossing the `Inv` is the one race (§2.1).
fn inv_rows<S: Alphabet>(b: &mut TableBuilder<S, XgEvent, XgAction>, s: S, raced: S, shadow: bool) {
    use XgAction::*;
    b.stall(s, GetS).stall(s, GetM);
    let tail: &[XgAction] = if shadow {
        &[FromShadow, Answer, AckRace]
    } else {
        &[Answer, AckRace]
    };
    b.on(s, PutS, &[&[Shared][..], tail].concat(), raced);
    for e in [PutE, PutM] {
        b.on(s, e, &[&[TakePut][..], tail].concat(), raced).tag("0");
    }
}

/// The validated `xg_full` table: Figure 1 for the Full State variant.
pub fn full_table() -> &'static Table<FullState, XgEvent, XgAction> {
    static T: OnceLock<Table<FullState, XgEvent, XgAction>> = OnceLock::new();
    T.get_or_init(|| {
        use FullState::*;
        use XgAction::*;
        let mut b = TableBuilder::new("xg_full");
        b.note(
            "Full State (§2.3.1): the trusted entry (`Sh`: the guard owns a \
             read-only page's block, the accelerator holds `S`) × the open \
             record (`PGet`: a Get whose read grant went stale; `RInv`: an \
             `Inv` a crossing Put answered; `Rel`: relinquish puts in flight). \
             Only an entry opens an `Inv`, and only an `Inv` opens beside one. \
             Permissions are fixed, so `CheckPerm` always refuses `(Sh, GetM)`.",
        );
        record_rows(&mut b, |r| FullState::ALL[r.index()], true);
        // Requests on a stable entry: Guarantee 0, then 1a.
        let fits: [(FullState, XgEvent, &[XgAction], FullState); 9] = [
            (I, GetS, &[CheckPerm, IssueGetS], IGet),
            (I, GetM, &[CheckPerm, IssueGetM], IGet),
            (S, GetM, &[CheckPerm, Forget, IssueGetM], IGet),
            (S, PutS, &[CheckPerm, Forget, IssuePutS], IPut),
            (E, PutE, &[CheckPerm, Forget, IssuePut], IPut),
            (E, PutM, &[CheckPerm, Forget, IssuePut], IPut),
            (M, PutM, &[CheckPerm, Forget, IssuePut], IPut),
            (Sh, GetM, &[CheckPerm, Forget, IssueGetM], IGet),
            (Sh, PutS, &[CheckPerm, Forget, AckPut], IRel),
        ];
        for (s, e, actions, next) in fits {
            match (s, e) {
                // A suppressed `PutS` is acked at once.
                (S, PutS) => b.on_dyn(s, e, actions),
                _ => b.on(s, e, actions, next),
            };
            b.tag("0");
        }
        for s in [I, S, E, M, Sh] {
            for e in REQUESTS {
                if !fits.iter().any(|f| (f.0, f.1) == (s, e)) {
                    b.on(s, e, &[CheckPerm, ErrInconsistent], s).tag("0, 1a");
                }
            }
            for e in RESPONSES.into_iter().filter(|_| s != I) {
                b.on(s, e, &[ErrUnsolicited], s).tag("2b");
            }
        }
        for s in [I, IPut, IRInv, IRel] {
            for e in DEMANDS {
                b.on(s, e, &[AnswerNoCopy], s);
            }
        }
        b.on(I, Hidden, &[AnswerNoCopy], I).tag("0");
        // Demands on what the accelerator holds, and the rows of its `Inv`.
        for (stable, inv) in [(S, SInv), (E, EInv), (M, MInv), (Sh, ShInv)] {
            for s in [stable, inv] {
                for e in [Read, OwnerRead] {
                    match stable {
                        S => b.on(s, e, &[AnswerShared], s),
                        Sh => b.on_dyn(s, e, &[AnswerShadow]).tag("0"),
                        _ => b.on(s, e, &[ForwardInv], inv),
                    };
                }
                b.on(s, Write, &[ForwardInv], inv);
            }
            inv_rows(&mut b, inv, IRInv, stable == Sh);
            let (from, held): (&[XgAction], &[XgAction]) = match stable {
                S => (&[FromSharer], &[Shared]),
                Sh => (&[FromSharer, FromShadow], &[FromShadow]),
                _ => (&[FromOwner], &[Zeros]),
            };
            for e in RESPONSES {
                b.on_dyn(inv, e, &[from, &[Answer, CloseInv]].concat())
                    .tag("2a");
            }
            let timeout = [&[TimedOut][..], held, &[Answer, CloseInv]].concat();
            b.on_dyn(inv, Timeout, &timeout).tag("2c");
        }
        b.on_dyn(IRInv, Timeout, &[TimedOut, NoCopy, Answer, CloseInv])
            .tag("2c");
        b.violation_rest();
        b.build().expect("xg_full table is deterministic and total")
    })
}

/// The validated `xg_tx` table: Figure 1 for the Transactional variant.
pub fn tx_table() -> &'static Table<Rec, XgEvent, XgAction> {
    static T: OnceLock<Table<Rec, XgEvent, XgAction>> = OnceLock::new();
    T.get_or_init(|| {
        use Rec::*;
        use XgAction::*;
        let mut b = TableBuilder::new("xg_tx");
        b.note(
            "Transactional (§2.3.2): no entry, so the block state is the open \
             record, Guarantee 1a is left to the host, and what an `Inv` \
             expects back is deduced from the host's demands (`FromTx`).",
        );
        record_rows(&mut b, |r| r, false);
        b.on(Idle, GetS, &[CheckPerm, IssueGetS], Get).tag("0");
        b.on(Idle, GetM, &[CheckPerm, IssueGetM], Get).tag("0");
        b.on_dyn(Idle, PutS, &[CheckPerm, IssuePutS]).tag("0");
        for e in [PutE, PutM] {
            b.on(Idle, e, &[CheckPerm, IssuePut], Put).tag("0");
        }
        b.on(Idle, Hidden, &[AnswerNoCopy], Idle).tag("0");
        // Only a read not sent to an owner is answered here; the rest cross.
        for s in [Idle, Put, Inv, RInv, Rel] {
            let inv = if s == RInv { RInv } else { Inv };
            b.on(s, Read, &[AnswerShared], s);
            b.on(s, OwnerRead, &[ForwardInv], inv);
            b.on(s, Write, &[ForwardInv], inv);
        }
        inv_rows(&mut b, Inv, RInv, false);
        for e in RESPONSES {
            b.on_dyn(Inv, e, &[FromTx, Answer, CloseInv]).tag("2a");
        }
        for s in [Inv, RInv] {
            b.on_dyn(s, Timeout, &[TimedOut, Shared, Answer, CloseInv])
                .tag("2c");
            // The host completes a Put after an `Inv` opened beside it.
            b.on(s, PutDone, &[FinishPut, Drain], s);
        }
        b.on_dyn(Inv, RelDone, &[Relinquished, Drain]);
        b.violation_rest();
        b.build().expect("xg_tx table is deterministic and total")
    })
}

/// What the Full State variant records about one accelerator block.
#[derive(Debug, Clone)]
struct Entry {
    /// Accelerator was granted ownership (E or M).
    owned: bool,
    /// The grant was dirty (DataM).
    dirty: bool,
    /// Shadow copy of a read-only page's block the host granted exclusively
    /// (§2.3.1; the accelerator got `DataS`). Boxed: shadows are rare.
    shadow: Option<Box<XgData>>,
}

/// An open accelerator-initiated transaction.
#[derive(Debug, Clone, PartialEq)]
enum AccelReq {
    Get {
        m: bool,
        read_only: bool,
        req_kind: GetReq,
        /// A read grant in flight is stale (`Rec::PGet`).
        poisoned: bool,
        grants: Grants,
        started: Cycle,
    },
    Put {
        pending: u32,
        started: Cycle,
    },
}

/// The host grants collected so far for one accelerator Get, by sub-block:
/// the payload being assembled plus one bit per sub-block and property, so
/// the common single-block Get keeps nothing on the heap.
#[derive(Debug, Clone, PartialEq)]
struct Grants {
    data: XgData,
    /// Sub-blocks granted so far; of those, granted E or M / M / dirty.
    got: u64,
    owned: u64,
    m: u64,
    dirty: u64,
}

impl Grants {
    fn new(k: u64) -> Self {
        Grants {
            data: XgData::zeroed(k as usize),
            got: 0,
            owned: 0,
            m: 0,
            dirty: 0,
        }
    }

    /// Records the grant for sub-block `sub` (one per sub-block and round:
    /// the persona completes each Get it was asked for exactly once).
    fn insert(&mut self, sub: u64, state: GrantState, data: DataBlock, dirty: bool) {
        self.data.blocks_mut()[sub as usize] = data;
        self.got |= 1 << sub;
        self.owned |= u64::from(state != GrantState::S) << sub;
        self.m |= u64::from(state == GrantState::M) << sub;
        self.dirty |= u64::from(dirty) << sub;
    }

    /// Gives up the owned grant of sub-block `sub`: its data, dirty bit.
    fn take_owned(&mut self, sub: u64) -> Option<(DataBlock, bool)> {
        let got = (self.data.blocks()[sub as usize], self.dirty >> sub & 1 == 1);
        let owned = self.owned >> sub & 1 == 1;
        for bits in [&mut self.got, &mut self.owned, &mut self.m, &mut self.dirty] {
            *bits &= !(u64::from(owned) << sub);
        }
        owned.then_some(got)
    }
}

/// The host demands an `Inv` answers, in arrival order.
type Reasons = Vec<(BlockAddr, DemandKind)>;

/// Why an `Inv` is outstanding at the accelerator.
#[derive(Debug, Clone, PartialEq)]
struct InvPending {
    /// Borrowed from `CrossingGuard::open`'s loan pool.
    reasons: Reasons,
    /// A racing Put already answered the host (`Rec::RInv`).
    race_consumed: bool,
    /// Forwarded; the Guarantee 2c deadline is `inv_timeout` cycles later.
    started: Cycle,
}

/// What is open on one accelerator block, requests parked behind any of it.
#[derive(Debug, Default, Clone, PartialEq)]
struct Open {
    /// The accelerator's own transaction (Guarantee 1b: at most one).
    req: Option<AccelReq>,
    /// The `Inv` outstanding at the accelerator.
    inv: Option<InvPending>,
    /// Sub-blocks with an internal relinquish put in flight at the persona.
    relinquishing: u64,
}

impl Borrows<Reasons> for Open {
    fn borrowed(&mut self) -> Option<&mut Reasons> {
        self.inv.as_mut().map(|ip| &mut ip.reasons)
    }
}

#[derive(Debug, Default)]
struct Stats {
    accel_received: u64,
    accel_sent: u64,
    grants: u64,
    wbacks: u64,
    invs_forwarded: u64,
    demands_answered_locally: u64,
    puts_suppressed: u64,
    throttled: u64,
    timeouts: u64,
    dropped_disabled: u64,
    fabricated_responses: u64,
    /// Cycles to a Get's grant, a Put's ack, an Inv's answer or timeout.
    lat_grant: Histogram,
    lat_wback: Histogram,
    lat_inv_resp: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    accel_received, accel_sent, grants, wbacks, invs_forwarded, demands_answered_locally,
    puts_suppressed, throttled, timeouts, dropped_disabled, fabricated_responses, lat_grant,
    lat_wback, lat_inv_resp,
});

/// The wake token of the rate limiter's timer; Guarantee 2c timers carry
/// a block address, which never reaches it.
const THROTTLE_WAKE: u64 = u64::MAX;

/// The Crossing Guard component. See the [crate docs](crate) and the
/// [module docs](self).
pub struct CrossingGuard {
    name: String,
    accel: NodeId,
    os: NodeId,
    cfg: XgConfig,
    k: u64,
    persona: Persona,
    /// Full State table (None for Transactional).
    table: Option<IdMap<BlockAddr, Entry>>,
    /// Shadow blocks held across `table` (`forget`, `unshadow` drop them).
    shadow_blocks: u64,
    /// Open transactions by accelerator block; its pools lend `held` and
    /// `InvPending::reasons` too.
    open: Records<Open, (XgEvent, XgiMsg), Reasons>,
    /// How many records hold a `req` / an `inv` (the 24-byte transaction
    /// records `storage_bytes` charges for).
    open_reqs: usize,
    open_invs: usize,
    rate: Option<TokenBucket>,
    /// Requests the rate limiter holds, in arrival order, and whether its
    /// timer is armed.
    held: Parked<(XgEvent, XgiMsg)>,
    throttle_armed: bool,
    disabled: bool,
    /// The persona's events for the host message being handled; empty
    /// between messages, kept for its capacity.
    events: Vec<PersonaEvent>,
    stats: Stats,
    /// Errors reported, indexed by `XgErrorKind as usize`.
    errors: [u64; XgErrorKind::ALL.len()],
    peak_storage: u64,
    /// The `xg_full` and `xg_tx` machines; the variant's one runs.
    full: Machine<FullState, XgEvent, XgAction>,
    tx: Machine<Rec, XgEvent, XgAction>,
}

xg_sim::clone_in_place!(impl[] for CrossingGuard {
    name, accel, os, cfg, k, persona, table, shadow_blocks, open, open_reqs, open_invs, rate,
    held, throttle_armed, disabled, events, stats, errors, peak_storage,
    full, tx,
});

/// Per-dispatch context for [`XgAction`] interpretation.
pub struct XgCx<'a, 'b> {
    ctx: &'a mut Ctx<'b>,
    /// The accelerator block, and the host block a persona event names.
    a: BlockAddr,
    h: BlockAddr,
    /// The accelerator's message, or the persona's event.
    kind: Option<XgiKind>,
    event: Option<PersonaEvent>,
    /// What the accelerator's block held, once an action said.
    res: Resolution,
    /// `CheckPerm` refused the request.
    refused: bool,
}

impl<'a, 'b> XgCx<'a, 'b> {
    fn new(ctx: &'a mut Ctx<'b>, a: BlockAddr, h: BlockAddr, kind: Option<XgiKind>) -> Self {
        let (event, res, refused) = (None, Resolution::None, false);
        XgCx {
            ctx,
            a,
            h,
            kind,
            event,
            res,
            refused,
        }
    }

    /// The demand being answered, if the stimulus is one.
    fn demand(&self) -> Option<DemandKind> {
        match self.event {
            Some(PersonaEvent::Demand { kind, .. }) => Some(kind),
            _ => None,
        }
    }
}

impl CrossingGuard {
    /// Creates a guard for a Hammer-protocol host; `dir` is the host
    /// directory (a single node or a [`HomeMap`] of address-interleaved
    /// banks), `accel` the accelerator-side cache, `os` the OS model.
    pub fn new_hammer(
        name: impl Into<String>,
        accel: NodeId,
        dir: impl Into<HomeMap>,
        os: NodeId,
        cfg: XgConfig,
    ) -> Self {
        let persona = Persona::Hammer(HostSide::new(dir.into()));
        Self::new(name, accel, os, persona, cfg)
    }

    /// Creates a guard for an inclusive-MESI host; `l2` is the shared host
    /// L2 (a single node or a [`HomeMap`] of address-interleaved banks).
    pub fn new_mesi(
        name: impl Into<String>,
        accel: NodeId,
        l2: impl Into<HomeMap>,
        os: NodeId,
        cfg: XgConfig,
    ) -> Self {
        let persona = Persona::Mesi(HostSide::new(l2.into()));
        Self::new(name, accel, os, persona, cfg)
    }

    fn new(
        name: impl Into<String>,
        accel: NodeId,
        os: NodeId,
        persona: Persona,
        cfg: XgConfig,
    ) -> Self {
        assert!(cfg.block_blocks >= 1, "block_blocks must be at least 1");
        assert!(
            cfg.block_blocks as u64 * xg_mem::BLOCK_BYTES <= xg_mem::PAGE_BYTES,
            "accelerator blocks must not span pages"
        );
        assert!(
            cfg.block_blocks == 1 || cfg.variant == XgVariant::FullState,
            "block-size translation requires the Full State variant (paper §2.5)"
        );
        let table = match cfg.variant {
            XgVariant::FullState => Some(IdMap::default()),
            XgVariant::Transactional => None,
        };
        let rate = cfg.rate_limit.map(TokenBucket::new);
        CrossingGuard {
            name: name.into(),
            accel,
            os,
            k: cfg.block_blocks as u64,
            persona,
            table,
            shadow_blocks: 0,
            open: Records::default(),
            open_reqs: 0,
            open_invs: 0,
            rate,
            held: Parked::default(),
            throttle_armed: false,
            disabled: false,
            events: Vec::new(),
            cfg,
            stats: Stats::default(),
            errors: [0; XgErrorKind::ALL.len()],
            peak_storage: 0,
            full: Machine::new(full_table()),
            tx: Machine::new(tx_table()),
        }
    }

    /// Current Crossing Guard storage, in bytes — the metric of the paper's
    /// Full State vs. Transactional comparison (§2.3). Counts block-state
    /// table entries (10 B: tag + state), shadow data blocks, and open
    /// transaction records (24 B each).
    pub fn storage_bytes(&self) -> u64 {
        let table = self.table.as_ref().map_or(0, |t| t.len() as u64 * 10);
        let shadows = self.shadow_blocks * xg_mem::BLOCK_BYTES;
        let txns = (self.open_reqs + self.open_invs + self.persona.open_txns()) as u64 * 24;
        table + shadows + txns
    }

    /// High-water mark of [`storage_bytes`](Self::storage_bytes).
    pub fn peak_storage_bytes(&self) -> u64 {
        self.peak_storage
    }

    /// Total errors reported, by kind.
    pub fn error_count(&self, kind: XgErrorKind) -> u64 {
        self.errors[kind as usize]
    }

    /// Total errors reported across all kinds.
    pub fn errors_total(&self) -> u64 {
        self.errors.iter().sum()
    }

    /// Whether the OS disabled this guard's accelerator.
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Stable-state view of one accelerator block from the Full State
    /// table: `(owned, dirty, shadowed)`; `None` when untracked, or always
    /// for a Transactional guard. `xg-check` cross-checks Guarantee 0 on it.
    pub fn table_entry(&self, addr: BlockAddr) -> Option<(bool, bool, bool)> {
        let e = self.table.as_ref()?.get(&addr)?;
        Some((e.owned, e.dirty, e.shadow.is_some()))
    }

    /// Forwarded invalidations still awaiting an accelerator response (or
    /// the Guarantee 2c timeout).
    pub fn open_invs(&self) -> usize {
        self.open_invs
    }

    /// Takes every emptied `InvPending::reasons` buffer out of the loan
    /// pool, and counts them.
    #[cfg(test)]
    pub(crate) fn take_kept_reasons(&mut self) -> usize {
        let loans = self.open.loans();
        std::iter::from_fn(|| Some(loans.take()).filter(|b| b.capacity() > 0)).count()
    }

    fn visit_machine(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        match self.table {
            Some(_) => self.full.visit_fired(visit),
            None => self.tx.visit_fired(visit),
        }
    }

    fn report_error(&mut self, addr: Option<BlockAddr>, kind: XgErrorKind, ctx: &mut Ctx<'_>) {
        let raw = addr.map_or(u64::MAX, |a| a.as_u64());
        ctx.trace(raw, "guard", "Error", || format!("{kind}"));
        self.errors[kind as usize] += 1;
        if self.errors_total() == 1 {
            // Flag only the first error: later ones are usually cascade
            // noise, and the post-mortem dump stays focused.
            ctx.flag_post_mortem(raw, kind.flag_reason());
        }
        let err = XgError::new(ctx.self_id(), addr, kind);
        ctx.send(self.os, OsMsg::Error(err).into());
    }

    fn send_accel(&mut self, addr: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        ctx.trace(addr.as_u64(), "guard", "SendAccel", || format!("{kind}"));
        self.stats.accel_sent += 1;
        ctx.send(self.accel, XgiMsg::new(addr, kind).into());
    }

    fn align(&self, h: BlockAddr) -> BlockAddr {
        h.align_down(self.k)
    }

    fn perm(&self, a: BlockAddr) -> PagePerm {
        self.cfg.perms.get(a.page())
    }

    /// What `a`'s open record holds (see [`Rec`]).
    fn record(&self, a: BlockAddr) -> Rec {
        let Some(open) = self.open.get(&a).map(|r| &r.txn) else {
            return Rec::Idle;
        };
        match (&open.inv, &open.req) {
            (Some(ip), _) if ip.race_consumed => Rec::RInv,
            (Some(_), _) => Rec::Inv,
            (None, Some(AccelReq::Get { poisoned: true, .. })) => Rec::PGet,
            (None, Some(AccelReq::Get { .. })) => Rec::Get,
            (None, Some(AccelReq::Put { .. })) => Rec::Put,
            (None, None) if open.relinquishing != 0 => Rec::Rel,
            (None, None) => Rec::Idle,
        }
    }

    /// Classifies `cx.a` and runs the variant's table row for `event`: the
    /// one path of every accelerator message, persona event and timeout.
    fn run(&mut self, event: XgEvent, cx: &mut XgCx<'_, '_>) {
        let rec = self.record(cx.a);
        let entry = |e: &Entry| match (e.shadow.is_some(), e.owned, e.dirty) {
            (true, ..) => 4,
            (false, false, _) => 1,
            (false, true, dirty) => 2 + usize::from(dirty),
        };
        let full = (self.table.as_ref()).map(|t| t.get(&cx.a).map_or(0, entry));
        match full {
            Some(e) => self.dispatch(FullState::ALL[e * Rec::ALL.len() + rec.index()], event, cx),
            None => self.dispatch(rec, event, cx),
        }
    }

    fn handle_accel(&mut self, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        ctx.trace(msg.addr.as_u64(), "guard", "RecvAccel", || {
            let open = self.open.get(&self.align(msg.addr)).map(|r| &r.txn);
            format!(
                "{} (req={} inv={})",
                msg.kind,
                open.is_some_and(|o| o.req.is_some()),
                open.is_some_and(|o| o.inv.is_some()),
            )
        });
        self.stats.accel_received += 1;
        let a = msg.addr;
        let event = match msg.kind {
            XgiKind::GetS => GetS,
            XgiKind::GetM => GetM,
            XgiKind::PutS => PutS,
            XgiKind::PutE { .. } => PutE,
            XgiKind::PutM { .. } => PutM,
            XgiKind::InvAck => InvAck,
            XgiKind::CleanWb { .. } => CleanWb,
            XgiKind::DirtyWb { .. } => DirtyWb,
            _ => return self.report_error(Some(a), XgErrorKind::Malformed, ctx),
        };
        if !RESPONSES.contains(&event) {
            if self.admits_now(ctx.now()) {
                self.admit(event, msg, ctx);
            } else {
                self.hold(event, msg, ctx);
            }
            return;
        }
        // A response is never held (paper §2.5), but one that answers an
        // `Inv` may not overtake the requests of its block held before it:
        // the interface link is ordered (§2.1).
        if self.open.get(&a).is_some_and(|o| o.txn.inv.is_some()) {
            while let Some((event, msg)) = self
                .held
                .pop_first(self.open.spares(), |(_, m)| m.addr == a)
            {
                self.admit(event, msg, ctx);
            }
        }
        self.run(event, &mut XgCx::new(ctx, a, a, Some(msg.kind)));
    }

    /// Takes a rate-limit token for a request, unless an earlier request is
    /// held: it must not overtake one.
    fn admits_now(&mut self, now: Cycle) -> bool {
        match self.rate.as_mut() {
            Some(rate) if !self.disabled => self.held.is_empty() && rate.try_take(now),
            _ => true,
        }
    }

    fn hold(&mut self, event: XgEvent, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        self.stats.throttled += 1;
        ctx.trace(msg.addr.as_u64(), "guard", "Throttle", || {
            format!("{} held", msg.kind)
        });
        self.held.park((event, msg), self.open.spares());
        self.arm_throttle(ctx);
    }

    fn arm_throttle(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(rate) = self.rate.as_mut().filter(|_| !self.throttle_armed) {
            let wait = rate.cycles_until_token(ctx.now()).clamp(1, 10_000);
            self.throttle_armed = true;
            ctx.wake_in(wait, THROTTLE_WAKE);
        }
    }

    /// The limiter's timer: admits held requests, in order, while tokens
    /// last.
    fn release_held(&mut self, ctx: &mut Ctx<'_>) {
        self.throttle_armed = false;
        while !self.held.is_empty() && self.rate.as_mut().is_some_and(|r| r.try_take(ctx.now())) {
            if let Some((event, msg)) = self.held.pop_first(self.open.spares(), |_| true) {
                self.admit(event, msg, ctx);
            }
        }
        if !self.held.is_empty() {
            self.arm_throttle(ctx);
        }
    }

    /// A request the interface admits: dropped while the accelerator is
    /// disabled, refused if it is no well-formed request for a block.
    fn admit(&mut self, event: XgEvent, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        let a = msg.addr;
        if self.disabled {
            self.stats.dropped_disabled += 1;
        } else if !a.as_u64().is_multiple_of(self.k)
            || msg.kind.data().is_some_and(|d| d.len() != self.k as usize)
        {
            self.report_error(Some(a), XgErrorKind::Malformed, ctx);
        } else {
            self.run(event, &mut XgCx::new(ctx, a, a, Some(msg.kind)));
        }
    }

    fn process_events(&mut self, events: &mut Vec<PersonaEvent>, ctx: &mut Ctx<'_>) {
        for ev in events.drain(..) {
            let (h, event) = match &ev {
                PersonaEvent::Granted { h, state, .. } => (*h, self.grant_event(*h, *state)),
                PersonaEvent::PutDone { h } => (*h, self.put_done_event(*h)),
                PersonaEvent::Demand { h, kind } => (*h, self.demand_event(*h, *kind)),
            };
            let mut cx = XgCx::new(ctx, self.align(h), h, None);
            cx.event = Some(ev);
            self.run(event, &mut cx);
        }
    }

    /// A host grant for sub-block `h` of an open Get: one more, or its last
    /// with some sub-block shared / with every one owned.
    fn grant_event(&self, h: BlockAddr, state: GrantState) -> XgEvent {
        let a = self.align(h);
        let Some(AccelReq::Get { grants, .. }) = self.open.get(&a).and_then(|o| o.txn.req.as_ref())
        else {
            return XgEvent::Unasked;
        };
        let sub = h.as_u64() - a.as_u64();
        let got = grants.got | 1 << sub;
        let owned = grants.owned | u64::from(state != GrantState::S) << sub;
        match (u64::from(got.count_ones()) == self.k, owned == got) {
            (false, _) => Granted,
            (true, false) => LastGrantS,
            (true, true) => LastGrantX,
        }
    }

    /// A host Put completion for sub-block `h`: a relinquish put's, or one
    /// of the accelerator's open Put.
    fn put_done_event(&self, h: BlockAddr) -> XgEvent {
        let a = self.align(h);
        let open = self.open.get(&a).map(|r| &r.txn);
        match open.map(|o| (o.relinquishing >> (h.as_u64() - a.as_u64()) & 1, &o.req)) {
            Some((1, _)) => RelDone,
            Some((_, Some(AccelReq::Put { pending, .. }))) if *pending > 1 => PutAck,
            Some((_, Some(AccelReq::Put { .. }))) => PutDone,
            _ => XgEvent::Unasked,
        }
    }

    fn demand_event(&self, h: BlockAddr, kind: DemandKind) -> XgEvent {
        match kind {
            _ if self.perm(h) == PagePerm::None => Hidden,
            DemandKind::Read { to_owner: false } | DemandKind::ReadOnly { to_owner: false } => Read,
            DemandKind::Read { .. } | DemandKind::ReadOnly { .. } => OwnerRead,
            DemandKind::Write { .. } | DemandKind::Recall => Write,
        }
    }

    fn on_timeout(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        // A stale timer finds its Inv answered — no Inv pending, or a later
        // one whose own deadline is still ahead — and is no stimulus.
        let open = self.open.get(&a).and_then(|o| o.txn.inv.as_ref());
        if open.is_some_and(|ip| ip.started + self.cfg.inv_timeout == ctx.now()) {
            self.run(Timeout, &mut XgCx::new(ctx, a, a, None));
        }
    }

    fn act(&mut self, action: XgAction, event: XgEvent, cx: &mut XgCx<'_, '_>) {
        use XgAction::*;
        if cx.refused {
            return;
        }
        let (a, h, k, demand) = (cx.a, cx.h, self.k, cx.demand());
        let ctx = &mut *cx.ctx;
        let error = match action {
            ErrInconsistent => Some(XgErrorKind::InconsistentRequest),
            ErrDuplicate => Some(XgErrorKind::DuplicateRequest),
            ErrResponse => Some(XgErrorKind::InconsistentResponse),
            ErrUnsolicited => Some(XgErrorKind::UnsolicitedResponse),
            CheckPerm if !self.perm(a).allows_read() => Some(XgErrorKind::PermissionRead),
            CheckPerm if matches!(event, GetM | PutE | PutM) && !self.perm(a).allows_write() => {
                Some(XgErrorKind::PermissionWrite)
            }
            _ => None,
        };
        if let Some(kind) = error {
            cx.refused = action == CheckPerm;
            return self.report_error(Some(a), kind, ctx);
        }
        match action {
            Forget => {
                let entry = self.forget(a);
                if let Some((shadow, dirty)) = entry.and_then(|e| Some((e.shadow?, e.dirty))) {
                    for i in 0..k {
                        self.internal_put(a.offset(i), shadow.blocks()[i as usize], dirty, ctx);
                    }
                }
            }
            IssueGetS | IssueGetM => {
                let m = action == IssueGetM;
                let read_only = !m && !self.perm(a).allows_write();
                // Uniform S grants keep merged ownership simple.
                let s_only = k > 1 || read_only && (self.cfg.use_gets_only || self.table.is_none());
                let req_kind = match (m, s_only) {
                    (true, _) => GetReq::M,
                    (false, true) => GetReq::SOnly,
                    (false, false) => GetReq::S,
                };
                let (grants, poisoned, started) = (Grants::new(k), false, ctx.now());
                let get = AccelReq::Get {
                    m,
                    read_only,
                    req_kind,
                    poisoned,
                    grants,
                    started,
                };
                self.open_req(a, get);
                (0..k).for_each(|i| self.persona.issue_get(a.offset(i), req_kind, ctx));
            }
            // Hammer evicts shared blocks silently: there is nothing to
            // forward (paper §2.1). MESI forwards unless configured not to.
            IssuePutS if !self.persona.is_mesi() || self.cfg.suppress_put_s => {
                self.stats.puts_suppressed += 1;
                self.send_accel(a, XgiKind::WbAck, ctx);
            }
            IssuePutS | IssuePut => {
                let data = cx.kind.take().and_then(XgiKind::into_data);
                let (pending, started) = (k as u32, ctx.now());
                self.open_req(a, AccelReq::Put { pending, started });
                for i in 0..k {
                    let put = match &data {
                        Some(data) => PutReq::Owned {
                            data: data.blocks()[i as usize],
                            dirty: event == PutM,
                        },
                        None => PutReq::S,
                    };
                    self.persona.issue_put(a.offset(i), put, ctx);
                }
            }
            AckPut => self.send_accel(a, XgiKind::WbAck, ctx),
            Collect => {
                if let (
                    Some(PersonaEvent::Granted {
                        state, data, dirty, ..
                    }),
                    Some(AccelReq::Get { grants, .. }),
                ) = (&cx.event, self.req_mut(a))
                {
                    grants.insert(h.as_u64() - a.as_u64(), *state, *data, *dirty);
                }
            }
            Grant => self.grant(a, ctx),
            Refetch => {
                // The acked invalidation targeted exactly the shared copy
                // granted: ask again, in the current epoch.
                if let Some(AccelReq::Get {
                    poisoned,
                    grants,
                    req_kind,
                    ..
                }) = self.req_mut(a)
                {
                    (*poisoned, *grants) = (false, Grants::new(k));
                    let req = *req_kind;
                    (0..k).for_each(|i| self.persona.issue_get(a.offset(i), req, ctx));
                }
            }
            PutAcked => {
                if let Some(AccelReq::Put { pending, .. }) = self.req_mut(a) {
                    *pending -= 1;
                }
            }
            FinishPut => {
                if let Some(AccelReq::Put { started, .. }) = self.close_req(a) {
                    let lat = ctx.now().saturating_since(started);
                    self.stats.lat_wback.record(lat);
                    ctx.span(a.as_u64(), "wback", started);
                    self.stats.wbacks += 1;
                    self.send_accel(a, XgiKind::WbAck, ctx);
                }
            }
            Relinquished => {
                if let Some(open) = self.open.get_mut(&a) {
                    open.txn.relinquishing &= !(1 << (h.as_u64() - a.as_u64()));
                }
            }
            Drain => self.drain(a, ctx),
            AnswerNoCopy | AnswerShared | AnswerShadow | AnswerOpenGet => {
                self.stats.demands_answered_locally += 1;
                let resp = self.local_answer(action, a, h, demand, ctx);
                self.persona.respond_demand(h, resp, ctx);
                // A MESI FwdGetS ends our ownership at the L2; track the
                // downgrade so the shadow is not double-flushed later.
                if action == AnswerShadow && self.persona.is_mesi() {
                    self.unshadow(a);
                }
            }
            Poison => {
                // A write-class demand may target the very grant in flight
                // to us (an Inv can overtake owner-forwarded data on the
                // unordered host network). Acking it promises the copy dies
                // — so a read grant, if one arrives, is stale.
                if let Some(AccelReq::Get {
                    m: false, poisoned, ..
                }) = self.req_mut(a)
                {
                    *poisoned = true;
                }
            }
            ForwardInv => {
                if let Some(kind) = demand {
                    self.forward_inv(a, h, kind, ctx);
                }
            }
            FromOwner | FromSharer | FromTx => {
                let inv = self.open.get(&a).and_then(|o| o.txn.inv.as_ref());
                let expects_owned = match action {
                    FromOwner => true,
                    FromSharer => false,
                    // Transactional: deduce from what the host demanded.
                    _ => inv.is_some_and(|ip| ip.reasons.iter().any(|(_, k)| k.expects_data())),
                };
                cx.res = self.take_response(a, event, cx.kind.take(), expects_owned, ctx);
            }
            TakePut => {
                cx.res = match cx.kind.take().and_then(XgiKind::into_data) {
                    // Guarantee 0b, as for an invalidation's writeback: the
                    // accelerator held at most a shared copy of the block.
                    Some(data) if self.perm(a).allows_write() => Resolution::Owned {
                        data,
                        dirty: event == PutM,
                    },
                    _ => {
                        self.report_error(Some(a), XgErrorKind::PermissionWrite, ctx);
                        Resolution::Shared
                    }
                };
            }
            FromShadow => {
                // The host granted the guard ownership, and the accelerator
                // only ever held a shared copy. A timeout answers dirty.
                let entry = self.table.as_ref().and_then(|t| t.get(&a));
                if let Some((data, dirty)) =
                    entry.and_then(|e| Some((e.shadow.as_deref()?, e.dirty)))
                {
                    let (data, dirty) = (data.clone(), dirty || event == Timeout);
                    cx.res = Resolution::Owned { data, dirty };
                }
            }
            Shared => cx.res = Resolution::Shared,
            NoCopy => cx.res = Resolution::None,
            Zeros => cx.res = self.zeros(),
            Answer => {
                let res = std::mem::replace(&mut cx.res, Resolution::None);
                self.apply_resolution(a, res, ctx);
                self.forget(a);
            }
            AckRace => {
                // The Put's own (single) response.
                self.send_accel(a, XgiKind::WbAck, ctx);
                self.stats.wbacks += 1;
                if let Some(ip) = self.open.get_mut(&a).and_then(|o| o.txn.inv.as_mut()) {
                    ip.race_consumed = true;
                }
            }
            CloseInv => self.close_inv(a, ctx),
            TimedOut => {
                // Guarantee 2c: the accelerator went silent. The row
                // fabricates the safest complete answer; the OS hears.
                self.stats.timeouts += 1;
                self.stats.fabricated_responses += 1;
                self.report_error(Some(a), XgErrorKind::ResponseTimeout, ctx);
            }
            CheckPerm | ErrInconsistent | ErrDuplicate | ErrResponse | ErrUnsolicited => {}
        }
    }

    /// Owned, data lost: the zeroed writeback that keeps the host going.
    fn zeros(&self) -> Resolution {
        let data = XgData::zeroed(self.k as usize);
        Resolution::Owned { data, dirty: true }
    }

    /// A demand answered without the accelerator. With its Get open it holds
    /// nothing readable (Table 1 drops S on upgrade): an older epoch's.
    fn local_answer(
        &mut self,
        action: XgAction,
        a: BlockAddr,
        h: BlockAddr,
        demand: Option<DemandKind>,
        ctx: &mut Ctx<'_>,
    ) -> DemandResponse {
        let idx = (h.as_u64() - a.as_u64()) as usize;
        let entry = self.table.as_ref().and_then(|t| t.get(&a));
        let shadow = entry.and_then(|e| Some((e.shadow.as_ref()?.blocks()[idx], e.dirty)));
        match (action, shadow, demand) {
            (XgAction::AnswerNoCopy, ..) => DemandResponse::NoCopy,
            (XgAction::AnswerShadow, Some((data, dirty)), _) => DemandResponse::Data {
                data,
                dirty,
                keep_shared: true,
            },
            (XgAction::AnswerOpenGet, _, Some(kind)) if kind.expects_data() => {
                let read_only = matches!(kind, DemandKind::ReadOnly { .. });
                let collected = match self.req_mut(a) {
                    Some(AccelReq::Get {
                        grants, req_kind, ..
                    }) if !read_only => grants.take_owned(idx as u64).zip(Some(*req_kind)),
                    _ => None,
                };
                let (data, dirty) = match collected {
                    // An owner demand on a sub-block the open Get already
                    // owns (§2.5), which the host saw complete: it takes the
                    // collected data, and the Get asks for it again.
                    Some((got, req)) => {
                        self.persona.issue_get(h, req, ctx);
                        got
                    }
                    // Otherwise the host believing we own while our own Get
                    // is open means desync; keep the host safe anyway.
                    None => {
                        ctx.trace(h.as_u64(), "guard", "Fabricate", || {
                            format!("open-get kind={kind:?}")
                        });
                        self.stats.fabricated_responses += 1;
                        (DataBlock::zeroed(), true)
                    }
                };
                DemandResponse::Data {
                    data,
                    dirty,
                    keep_shared: false,
                }
            }
            _ => DemandResponse::SharedCopy,
        }
    }

    /// Answers the Get on `a`: shared, owned, or — owned on a read-only page
    /// — a shadow for the guard and `DataS` (Guarantee 0b, §2.3.1).
    fn grant(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        let Some(AccelReq::Get {
            read_only,
            grants,
            started,
            ..
        }) = self.close_req(a)
        else {
            return;
        };
        let lat = ctx.now().saturating_since(started);
        self.stats.lat_grant.record(lat);
        ctx.span(a.as_u64(), "grant", started);
        let owned = grants.owned == grants.got;
        let dirty = owned && grants.m != 0 && grants.dirty != 0;
        let data = grants.data;
        self.stats.grants += 1;
        let shadow = (read_only && owned).then(|| Box::new(data.clone()));
        let kind = match (owned && !read_only, dirty) {
            (false, _) => XgiKind::DataS { data },
            (true, false) => XgiKind::DataE { data },
            (true, true) => XgiKind::DataM { data },
        };
        if let Some(table) = self.table.as_mut() {
            self.shadow_blocks += shadow.as_ref().map_or(0, |_| self.k);
            let entry = Entry {
                owned,
                dirty,
                shadow,
            };
            table.insert(a, entry);
        }
        self.send_accel(a, kind, ctx);
    }

    /// What the accelerator's response to the `Inv` on `a` says it held
    /// (Guarantee 2a), given whether the guard expects it to have owned
    /// the block.
    fn take_response(
        &mut self,
        a: BlockAddr,
        event: XgEvent,
        kind: Option<XgiKind>,
        expects_owned: bool,
        ctx: &mut Ctx<'_>,
    ) -> Resolution {
        let dirty = event == DirtyWb;
        let error = match kind.and_then(XgiKind::into_data) {
            // A bare InvAck.
            None if expects_owned => XgErrorKind::InconsistentResponse,
            None => return Resolution::Shared,
            // Guarantee 0b dominates, even over well-formedness: neither its
            // data nor fabricated owner data may answer for a read-only page.
            Some(_) if !self.perm(a).allows_write() => XgErrorKind::PermissionWrite,
            Some(data) if data.len() != self.k as usize => XgErrorKind::Malformed,
            Some(data) if expects_owned => return Resolution::Owned { data, dirty },
            // 2a: a writeback from a non-owner. With Full State we correct
            // it locally; Transactional forwards it and the modified host
            // tolerates it (paper §3.2.2). Either way the OS hears.
            Some(data) => {
                self.report_error(Some(a), XgErrorKind::InconsistentResponse, ctx);
                return match self.table {
                    Some(_) => Resolution::Shared,
                    None => Resolution::Owned { data, dirty },
                };
            }
        };
        self.report_error(Some(a), error, ctx);
        // Fabricate the zeroed writeback the host waits for only when it
        // expects owner data: owner data from a non-owner breaks it.
        if error != XgErrorKind::PermissionWrite && expects_owned {
            self.stats.fabricated_responses += 1;
            return self.zeros();
        }
        Resolution::Shared
    }

    /// Removes `a`'s Full State entry, if any. Every removal goes through
    /// here, so `shadow_blocks` stays the sum of the table's shadows.
    fn forget(&mut self, a: BlockAddr) -> Option<Entry> {
        let e = self.table.as_mut()?.remove(&a)?;
        self.shadow_blocks -= e.shadow.as_ref().map_or(0, |s| s.len() as u64);
        Some(e)
    }

    /// Demotes `a`'s shadowed entry to a plain sharer, dropping the shadow.
    fn unshadow(&mut self, a: BlockAddr) {
        if let Some(e) = self.table.as_mut().and_then(|t| t.get_mut(&a)) {
            self.shadow_blocks -= e.shadow.take().map_or(0, |s| s.len() as u64);
            e.owned = false;
        }
    }

    fn open_req(&mut self, a: BlockAddr, req: AccelReq) {
        self.open.entry(a).txn.req = Some(req);
        self.open_reqs += 1;
    }

    fn req_mut(&mut self, a: BlockAddr) -> Option<&mut AccelReq> {
        self.open.get_mut(&a)?.txn.req.as_mut()
    }

    /// Closes the accelerator's transaction on `a`, if one is open.
    fn close_req(&mut self, a: BlockAddr) -> Option<AccelReq> {
        let req = self.open.get_mut(&a)?.txn.req.take()?;
        self.open_reqs -= 1;
        Some(req)
    }

    fn internal_put(&mut self, h: BlockAddr, data: DataBlock, dirty: bool, ctx: &mut Ctx<'_>) {
        let a = self.align(h);
        self.open.entry(a).txn.relinquishing |= 1 << (h.as_u64() - a.as_u64());
        self.persona
            .issue_put(h, PutReq::Owned { data, dirty }, ctx);
    }

    /// Answers every pending host demand on `a` from a resolution, then
    /// relinquishes leftover sub-blocks the host still thinks we own.
    fn apply_resolution(&mut self, a: BlockAddr, resolution: Resolution, ctx: &mut Ctx<'_>) {
        let open = self.open.get_mut(&a).map(|r| &mut r.txn);
        let relinquishing = open.as_ref().map_or(0, |o| o.relinquishing);
        let reasons = open
            .and_then(|o| o.inv.as_mut())
            .map(|ip| std::mem::take(&mut ip.reasons))
            .unwrap_or_default();
        for (h, kind) in &reasons {
            let idx = (h.as_u64() - a.as_u64()) as usize;
            let resp = match &resolution {
                Resolution::Owned { data, dirty } => {
                    let data = data.blocks()[idx];
                    let keep = matches!(kind, DemandKind::ReadOnly { .. });
                    if keep {
                        // Ownership must survive a non-upgradable read on
                        // the Hammer side; flush through an internal put so
                        // memory converges and the host forgets us.
                        self.internal_put(*h, data, *dirty, ctx);
                    }
                    DemandResponse::Data {
                        data,
                        dirty: *dirty,
                        keep_shared: keep,
                    }
                }
                Resolution::Shared | Resolution::None if kind.expects_data() => {
                    ctx.trace(h.as_u64(), "guard", "Fabricate", || {
                        let res = format!("{resolution:?}").to_lowercase();
                        format!("{res}-resolution kind={kind:?}")
                    });
                    self.stats.fabricated_responses += 1;
                    DemandResponse::Data {
                        data: DataBlock::zeroed(),
                        dirty: true,
                        keep_shared: false,
                    }
                }
                Resolution::Shared => DemandResponse::SharedCopy,
                Resolution::None => DemandResponse::NoCopy,
            };
            self.persona.respond_demand(*h, resp, ctx);
        }
        // Sub-blocks we owned but no demand consumed go back to the host.
        if let Resolution::Owned { data, dirty } = &resolution {
            let entry = self.table.as_ref().and_then(|t| t.get(&a));
            let owned_at_host =
                entry.map_or(!self.persona.is_mesi() || !reasons.is_empty(), |e| e.owned);
            if owned_at_host || self.table.is_none() {
                for i in 0..self.k {
                    let h = a.offset(i);
                    if !reasons.iter().any(|(rh, _)| *rh == h) && relinquishing & (1 << i) == 0 {
                        self.internal_put(h, data.blocks()[i as usize], *dirty, ctx);
                    }
                }
            }
        }
        self.open.give_back(reasons);
    }

    fn close_inv(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        if let Some(ip) = self.open.get_mut(&a).and_then(|o| o.txn.inv.take()) {
            self.open_invs -= 1;
            let lat = ctx.now().saturating_since(ip.started);
            self.stats.lat_inv_resp.record(lat);
            ctx.span(a.as_u64(), "inv", ip.started);
        }
        self.drain(a, ctx);
    }

    fn drain(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        while let Next::Run((event, msg)) = self.open.next(a, |open, _| *open == Open::default()) {
            self.run(event, &mut XgCx::new(ctx, a, a, Some(msg.kind)));
        }
    }

    fn forward_inv(&mut self, a: BlockAddr, h: BlockAddr, kind: DemandKind, ctx: &mut Ctx<'_>) {
        if self.cfg.test_swallow_invs {
            // Planted bug (see [`XgConfig::test_swallow_invs`]): the demand
            // is neither answered nor forwarded, so the host requester
            // hangs — the defect the campaign's minimizer demo hunts.
            return;
        }
        if let Some(ip) = self.open.get_mut(&a).and_then(|o| o.txn.inv.as_mut()) {
            return ip.reasons.push((h, kind));
        }
        let mut reasons = self.open.loans().take();
        reasons.push((h, kind));
        let (race_consumed, started) = (false, ctx.now());
        self.open.entry(a).txn.inv = Some(InvPending {
            reasons,
            race_consumed,
            started,
        });
        self.open_invs += 1;
        self.stats.invs_forwarded += 1;
        self.send_accel(a, XgiKind::Inv, ctx);
        if self.cfg.inv_timeout > 0 {
            ctx.wake_in(self.cfg.inv_timeout, a.as_u64());
        }
    }
}

/// The two tables run the same actions on different block states.
macro_rules! guard_controller {
    ($state:ty, $machine:ident) => {
        impl<'a, 'b> Controller<$state, XgEvent, XgAction, XgCx<'a, 'b>> for CrossingGuard {
            fn machine(&mut self) -> &mut Machine<$state, XgEvent, XgAction> {
                &mut self.$machine
            }

            fn apply(&mut self, action: XgAction, s: Step<$state, XgEvent>, cx: &mut XgCx<'a, 'b>) {
                self.act(action, s.event, cx);
            }

            /// Parks a request behind the block's record.
            fn stalled(&mut self, step: Step<$state, XgEvent>, cx: &mut XgCx<'a, 'b>) {
                if let Some(kind) = cx.kind.take() {
                    let msg = XgiMsg::new(cx.a, kind);
                    self.open.park_or_open(cx.a, (step.event, msg));
                }
            }

            /// Reachable only by `Unasked`, a persona completion no record
            /// asked for, in a state the guard builds: count it.
            fn violated(&mut self, _step: Step<$state, XgEvent>, cx: &mut XgCx<'a, 'b>) {
                self.report_error(Some(cx.h), XgErrorKind::UnsolicitedResponse, cx.ctx);
            }
        }
    };
}

guard_controller!(FullState, full);
guard_controller!(Rec, tx);

/// Folds a queued accelerator request kind into a state digest (data
/// payloads included: they become grant/writeback contents later).
fn digest_xgi_kind(kind: &XgiKind, out: &mut CheckDigest) {
    out.write_str(kind.mnemonic());
    if let Some(data) = kind.data() {
        digest_blocks(data, out);
    }
}

/// Folds a payload's blocks into a digest, after their count.
fn digest_blocks(data: &XgData, out: &mut CheckDigest) {
    out.write_u64(data.len() as u64);
    data.blocks()
        .iter()
        .for_each(|b| out.write_bytes(b.as_bytes()));
}

/// What the invalidated accelerator block turned out to contain: owned
/// data (real, shadow, or fabricated zeroes), at most a shared copy, or
/// nothing.
#[derive(Debug)]
enum Resolution {
    Owned { data: XgData, dirty: bool },
    Shared,
    None,
}

impl Component<Message> for CrossingGuard {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        match msg {
            Message::Xgi(x) if from == self.accel => self.handle_accel(x, ctx),
            Message::Xgi(x) => self.report_error(Some(x.addr), XgErrorKind::Malformed, ctx),
            Message::Os(OsMsg::DisableAccelerator) => {
                ctx.flag_post_mortem(u64::MAX, format!("{} disabled by OS", self.name));
                self.disabled = true;
            }
            Message::Hammer(_) | Message::Mesi(_) => {
                let mut events = std::mem::take(&mut self.events);
                if !self.persona.handle(&msg, &mut events, ctx) {
                    self.report_error(msg.block_addr(), XgErrorKind::Malformed, ctx);
                }
                self.process_events(&mut events, ctx);
                self.events = events;
            }
            _ => {}
        }
        self.peak_storage = self.peak_storage.max(self.storage_bytes());
    }

    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match token {
            THROTTLE_WAKE => self.release_held(ctx),
            _ => self.on_timeout(BlockAddr::new(token), ctx),
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str("guard");
        out.write_u64(u64::from(self.disabled));
        // Full State table, sorted by address role. (Rate-limiter fill,
        // timestamps, and stats are excluded: none of them changes future
        // protocol-visible behavior at a drained point.)
        if let Some(table) = &self.table {
            let addrs = out.sorted_by_addr_role(table.keys().map(|a| a.as_u64()));
            out.write_u64(addrs.len() as u64);
            for &a in &addrs {
                let e = &table[&BlockAddr::new(a)];
                out.write_addr(a);
                out.write_u64(u64::from(e.owned));
                out.write_u64(u64::from(e.dirty));
                match &e.shadow {
                    Some(shadow) => digest_blocks(shadow, out),
                    None => out.write_str("no-shadow"),
                }
            }
            out.recycle(addrs);
        } else {
            out.write_str("transactional");
        }
        // Open blocks, sorted by address role, one section per field.
        // Open accelerator transactions.
        let req: fn(&Record<Open, _>) -> Option<&AccelReq> = |o| o.txn.req.as_ref();
        self.open.digest(out, req, |req, out| {
            match req {
                AccelReq::Get {
                    m,
                    read_only,
                    req_kind,
                    poisoned,
                    grants: g,
                    ..
                } => {
                    out.write_str("get");
                    out.write_u64(u64::from(*m));
                    out.write_u64(u64::from(*read_only));
                    out.write_u64(req_kind.digest_tag());
                    out.write_u64(u64::from(*poisoned));
                    out.write_u64(u64::from(g.got.count_ones()));
                    // Granted sub-blocks in order: state (S, E, M), data, dirty.
                    for sub in (0..self.k).filter(|sub| g.got >> sub & 1 == 1) {
                        out.write_u64(sub);
                        out.write_u64((g.owned >> sub & 1) * (1 + (g.m >> sub & 1)));
                        out.write_bytes(g.data.blocks()[sub as usize].as_bytes());
                        out.write_u64(g.dirty >> sub & 1);
                    }
                }
                AccelReq::Put { pending, .. } => {
                    out.write_str("put");
                    out.write_u64(u64::from(*pending));
                }
            }
        });
        // Requests parked behind an open transaction or pending Inv.
        self.open.digest(out, Record::parked, |queue, out| {
            queue.digest(out, |(_, msg), out| digest_xgi_kind(&msg.kind, out));
        });
        // Forwarded invalidations still open at the accelerator.
        let inv: fn(&Record<Open, _>) -> Option<&InvPending> = |o| o.txn.inv.as_ref();
        self.open.digest(out, inv, |ip, out| {
            out.write_u64(u64::from(ip.race_consumed));
            out.write_u64(ip.reasons.len() as u64);
            for (h, kind) in &ip.reasons {
                out.write_addr(h.as_u64());
                kind.digest(out);
            }
        });
        // Internal relinquish puts in flight, as host blocks.
        let internal = out.sorted_by_addr_role(self.open.iter().flat_map(|(a, o)| {
            (0..self.k)
                .filter(move |i| o.txn.relinquishing & (1 << i) != 0)
                .map(move |i| a.offset(i).as_u64())
        }));
        out.write_u64(internal.len() as u64);
        internal.iter().for_each(|&h| out.write_addr(h));
        // Requests the rate limiter holds (none without a limit).
        if !self.held.is_empty() {
            out.write_str("held");
            self.held.digest(out, |(_, msg), out| {
                out.write_addr(msg.addr.as_u64());
                digest_xgi_kind(&msg.kind, out);
            });
        }
        let pending = self.open_reqs + self.open_invs + internal.len();
        out.recycle(internal);
        out.obligation(pending as u64);
        self.persona.check_state(out);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        let (s, p) = (&self.stats, self.persona.stats());
        let counters = [
            ("accel_received", s.accel_received),
            ("accel_sent", s.accel_sent),
            ("grants", s.grants),
            ("wbacks", s.wbacks),
            ("invs_forwarded", s.invs_forwarded),
            ("demands_answered_locally", s.demands_answered_locally),
            ("puts_suppressed", s.puts_suppressed),
            ("throttled", s.throttled),
            ("timeouts", s.timeouts),
            ("dropped_disabled", s.dropped_disabled),
            ("fabricated_responses", s.fabricated_responses),
            ("errors_total", self.errors_total()),
            ("host_sent", p.sent),
            ("host_puts_sent", p.puts_sent),
            ("host_received", p.received),
            ("persona_violations", p.violations),
        ];
        for (key, count) in counters {
            out.add(format_args!("{n}.{key}"), count);
        }
        out.set(format_args!("{n}.storage_bytes"), self.storage_bytes());
        out.set(format_args!("{n}.peak_storage_bytes"), self.peak_storage);
        for kind in XgErrorKind::ALL
            .into_iter()
            .filter(|&k| self.error_count(k) > 0)
        {
            out.add(format_args!("{n}.errors.{kind}"), self.error_count(kind));
        }
        out.record_hist(format_args!("{n}.lat.grant"), &s.lat_grant);
        out.record_hist(format_args!("{n}.lat.wback"), &s.lat_wback);
        out.record_hist(format_args!("{n}.lat.inv_resp"), &s.lat_inv_resp);
        out.record_hist(format_args!("{n}.lat.host_rtt"), &p.host_rtt);
        self.persona.record_machine(out);
        self.visit_machine(&mut |rows, fired| out.record_fired(rows, fired));
    }

    fn box_clone(&self) -> Option<Box<dyn Component<Message>>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, saved: &dyn Component<Message>) -> bool {
        xg_sim::restore_in_place(self, saved)
    }

    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        self.persona.visit_fired(visit);
        self.visit_machine(visit);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
