//! The Crossing Guard component.
//!
//! One instance guards one accelerator (paper §2). The accelerator-facing
//! side speaks the standardized interface over an ordered link; the
//! host-facing side is a persona (`hammer_side` / `mesi_side`). This module
//! owns the guarantee checks of Figure 1, the per-variant state tracking
//! (§2.3), invalidation forwarding with timeout recovery (2c), request rate
//! limiting (§2.5), and block-size translation (§2.5).
//!
//! ## Event flow
//!
//! * Accelerator request → guarantee checks → persona `issue_get`/
//!   `issue_put` per host block → persona `Granted`/`PutDone` events →
//!   exactly one accelerator response.
//! * Host demand → persona `Demand` event → answered immediately from
//!   guard state when possible, otherwise one `Inv` crosses to the
//!   accelerator and the (checked, possibly corrected, possibly fabricated)
//!   answer flows back through `respond_demand`.
//! * The single interface race — an accelerator `Put` crossing a host
//!   `Inv` — is resolved here: the Put's data answers the host, the Put
//!   gets its `WbAck`, and the `InvAck` the accelerator sends from state
//!   `B` is absorbed.

use std::collections::VecDeque;

use xg_mem::{BlockAddr, DataBlock, IdMap, PagePerm, Spares};
use xg_proto::{Ctx, HomeMap, Message, OsMsg, XgData, XgError, XgErrorKind, XgiKind, XgiMsg};
use xg_sim::{CheckDigest, Component, Cycle, FsmRows, Histogram, NodeId, Report};

use crate::config::{XgConfig, XgVariant};
use crate::persona::{
    DemandKind, DemandResponse, GetReq, GrantState, HostSide, Persona, PersonaEvent, PutReq,
};
use crate::rate_limit::TokenBucket;

/// What the Full State variant records about one accelerator block.
#[derive(Debug, Clone)]
struct Entry {
    /// Accelerator was granted ownership (E or M).
    owned: bool,
    /// The grant was dirty (DataM).
    dirty: bool,
    /// Shadow copy kept because the page is read-only for the accelerator
    /// but the host granted exclusively (paper §2.3.1); the accelerator
    /// itself only received `DataS`. Boxed: shadows are rare, table entries
    /// are not.
    shadow: Option<Box<XgData>>,
}

impl Entry {
    /// Host blocks of shadow data held (what `storage_bytes` charges).
    fn shadow_len(&self) -> u64 {
        self.shadow.as_ref().map_or(0, |s| s.len() as u64)
    }
}

/// An open accelerator-initiated transaction.
#[derive(Debug, Clone)]
enum AccelReq {
    Get {
        m: bool,
        read_only: bool,
        req_kind: GetReq,
        /// An invalidation for this block was acked while the request was
        /// open: any read grant already in flight is stale (the ISI race
        /// of Sorin et al., hidden from the accelerator here) and must be
        /// refetched.
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
#[derive(Debug, Clone)]
struct Grants {
    data: XgData,
    /// Sub-blocks granted so far.
    got: u64,
    /// Of those, granted E or M / granted M / granted dirty.
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
        let bit = 1 << sub;
        self.data.blocks_mut()[sub as usize] = data;
        self.got |= bit;
        self.owned |= u64::from(state != GrantState::S) << sub;
        self.m |= u64::from(state == GrantState::M) << sub;
        self.dirty |= u64::from(dirty) << sub;
    }

    /// How many sub-blocks have been granted so far.
    fn len(&self) -> u64 {
        u64::from(self.got.count_ones())
    }

    /// Every sub-block granted so far came with ownership.
    fn all_owned(&self) -> bool {
        self.owned == self.got
    }

    /// Granted sub-blocks in ascending order: `(sub, state, data, dirty)`.
    fn iter(&self) -> impl Iterator<Item = (u64, GrantState, DataBlock, bool)> + '_ {
        let subs = (0..self.data.len() as u64).filter(|sub| self.got >> sub & 1 == 1);
        subs.map(|sub| {
            let state = match (self.owned >> sub & 1, self.m >> sub & 1) {
                (0, _) => GrantState::S,
                (_, 0) => GrantState::E,
                _ => GrantState::M,
            };
            let data = self.data.blocks()[sub as usize];
            (sub, state, data, self.dirty >> sub & 1 == 1)
        })
    }
}

/// Why an `Inv` is outstanding at the accelerator.
#[derive(Debug, Clone)]
struct InvPending {
    reasons: Vec<(BlockAddr, DemandKind)>,
    /// The accelerator's block was already consumed by a racing Put; the
    /// InvAck it sends from state B is absorbed silently.
    race_consumed: bool,
    /// Cycle the `Inv` was forwarded; the Guarantee 2c deadline is
    /// `inv_timeout` cycles later.
    started: Cycle,
}

/// Everything open on one accelerator block. A record exists only while
/// one of its fields is non-empty; `drain_queue` removes it.
#[derive(Debug, Default, Clone)]
struct OpenBlock {
    /// The accelerator's own transaction (Guarantee 1b: at most one).
    req: Option<AccelReq>,
    /// The `Inv` outstanding at the accelerator.
    inv: Option<InvPending>,
    /// Requests parked behind `req`, `inv` or `relinquishing`.
    queue: VecDeque<XgiKind>,
    /// Sub-block mask of internal relinquish puts (shadow flushes,
    /// post-demand leftovers) still in flight at the persona.
    relinquishing: u64,
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
    race_puts: u64,
    dropped_disabled: u64,
    fabricated_responses: u64,
    poisoned_refetches: u64,
    /// Cycles from admitting an accelerator Get to the last grant sent.
    lat_grant: Histogram,
    /// Cycles from admitting an accelerator Put to its final ack.
    lat_wback: Histogram,
    /// Cycles each forwarded Inv stayed open at the accelerator (timeout
    /// terminations included, so the tail shows Guarantee 2c firing).
    lat_inv_resp: Histogram,
}

xg_sim::clone_in_place!(impl[] for Stats {
    accel_received,
    accel_sent,
    grants,
    wbacks,
    invs_forwarded,
    demands_answered_locally,
    puts_suppressed,
    throttled,
    timeouts,
    race_puts,
    dropped_disabled,
    fabricated_responses,
    poisoned_refetches,
    lat_grant,
    lat_wback,
    lat_inv_resp,
});

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
    /// Shadow blocks held across `table`; only `forget` and `unshadow`
    /// take them down.
    shadow_blocks: u64,
    /// Open transactions, keyed by accelerator block.
    open: IdMap<BlockAddr, OpenBlock>,
    /// How many records hold a `req` / an `inv` (the 24-byte transaction
    /// records `storage_bytes` charges for).
    open_reqs: usize,
    open_invs: usize,
    rate: Option<TokenBucket>,
    disabled: bool,
    /// The persona's events for the host message being handled; empty
    /// between messages, kept for its capacity.
    events: Vec<PersonaEvent>,
    /// Emptied `InvPending::reasons` buffers, reused by the next `Inv`.
    spare_reasons: Spares<Vec<(BlockAddr, DemandKind)>>,
    stats: Stats,
    /// Errors reported, indexed by `XgErrorKind as usize`.
    errors: [u64; XgErrorKind::ALL.len()],
    peak_storage: u64,
}

xg_sim::clone_in_place!(impl[] for CrossingGuard {
    name,
    accel,
    os,
    cfg,
    k,
    persona,
    table,
    shadow_blocks,
    open,
    open_reqs,
    open_invs,
    rate,
    disabled,
    events,
    spare_reasons,
    stats,
    errors,
    peak_storage,
});

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
            open: IdMap::default(),
            open_reqs: 0,
            open_invs: 0,
            rate,
            disabled: false,
            events: Vec::new(),
            spare_reasons: Spares::default(),
            cfg,
            stats: Stats::default(),
            errors: [0; XgErrorKind::ALL.len()],
            peak_storage: 0,
        }
    }

    /// Current Crossing Guard storage, in bytes — the metric of the paper's
    /// Full State vs. Transactional comparison (§2.3). Counts block-state
    /// table entries (10 B: tag + state), shadow data blocks, and open
    /// transaction records (24 B each).
    pub fn storage_bytes(&self) -> u64 {
        let table = self
            .table
            .as_ref()
            .map(|t| t.len() as u64 * 10)
            .unwrap_or(0);
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
    /// table: `(owned, dirty, shadowed)`. `None` when the block is
    /// untracked — or always for a Transactional guard, which keeps no
    /// table. The `xg-check` small-model checker reads this at quiescent
    /// points to cross-check Guarantee 0 (no ownership of read-only pages
    /// without a shadow) against the host caches' view.
    pub fn table_entry(&self, addr: BlockAddr) -> Option<(bool, bool, bool)> {
        self.table
            .as_ref()
            .and_then(|t| t.get(&addr))
            .map(|e| (e.owned, e.dirty, e.shadow.is_some()))
    }

    /// Forwarded invalidations still awaiting an accelerator response (or
    /// the Guarantee 2c timeout).
    pub fn open_invs(&self) -> usize {
        self.open_invs
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

    // =======================================================================
    // Accelerator side
    // =======================================================================

    fn handle_accel(&mut self, msg: XgiMsg, ctx: &mut Ctx<'_>) {
        ctx.trace(msg.addr.as_u64(), "guard", "RecvAccel", || {
            let open = self.open.get(&self.align(msg.addr));
            format!(
                "{} (req={} inv={})",
                msg.kind,
                open.is_some_and(|o| o.req.is_some()),
                open.is_some_and(|o| o.inv.is_some()),
            )
        });
        self.stats.accel_received += 1;
        let a = msg.addr;
        if msg.kind.is_accel_response() {
            // Responses are never throttled or queued (paper §2.5).
            self.handle_accel_response(a, msg.kind, ctx);
            return;
        }
        if !msg.kind.is_accel_request() {
            self.report_error(Some(a), XgErrorKind::Malformed, ctx);
            return;
        }
        if self.disabled {
            self.stats.dropped_disabled += 1;
            return;
        }
        // Rate limiting applies to requests only.
        if let Some(rate) = self.rate.as_mut() {
            if !rate.try_take(ctx.now()) {
                let wait = rate.cycles_until_token(ctx.now()).clamp(1, 10_000);
                self.stats.throttled += 1;
                ctx.trace(a.as_u64(), "guard", "Throttle", || {
                    format!("{} redelivered in {wait} cycles", msg.kind)
                });
                ctx.redeliver(self.accel, msg.into(), wait);
                self.stats.accel_received -= 1;
                return;
            }
        }
        self.admit_request(a, msg.kind, ctx);
    }

    fn admit_request(&mut self, a: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        // Well-formedness: accelerator-block alignment and payload size.
        if !a.as_u64().is_multiple_of(self.k) {
            self.report_error(Some(a), XgErrorKind::Malformed, ctx);
            return;
        }
        if let XgiKind::PutE { data } | XgiKind::PutM { data } = &kind {
            if data.len() != self.k as usize {
                self.report_error(Some(a), XgErrorKind::Malformed, ctx);
                return;
            }
        }
        if let Some(open) = self.open.get_mut(&a) {
            // The one legal interface race: a Put crossing our Inv.
            if open.inv.is_some() {
                if matches!(
                    kind,
                    XgiKind::PutS | XgiKind::PutE { .. } | XgiKind::PutM { .. }
                ) {
                    self.resolve_race_put(a, kind, ctx);
                } else {
                    open.queue.push_back(kind);
                }
                return;
            }
            // Internal relinquish puts still own persona transactions on
            // this block's sub-blocks; a new request must wait for them.
            if open.relinquishing != 0 {
                open.queue.push_back(kind);
                return;
            }
            // Guarantee 1b: one transaction per block.
            if open.req.is_some() {
                self.report_error(Some(a), XgErrorKind::DuplicateRequest, ctx);
                return;
            }
        }
        // Guarantee 0: page permissions.
        let perm = self.perm(a);
        if !perm.allows_read() {
            self.report_error(Some(a), XgErrorKind::PermissionRead, ctx);
            return;
        }
        let wants_ownership = matches!(
            kind,
            XgiKind::GetM | XgiKind::PutE { .. } | XgiKind::PutM { .. }
        );
        if wants_ownership && !perm.allows_write() {
            self.report_error(Some(a), XgErrorKind::PermissionWrite, ctx);
            return;
        }
        // Guarantee 1a (Full State only): request vs. stable state.
        if let Some(table) = &self.table {
            let entry = table.get(&a);
            let consistent = match &kind {
                XgiKind::GetS => entry.is_none(),
                // GetM from S is the legal upgrade; GetM while owned is not.
                XgiKind::GetM => entry
                    .map(|e| !e.owned || e.shadow.is_some())
                    .unwrap_or(true),
                XgiKind::PutS => entry
                    .map(|e| !e.owned || e.shadow.is_some())
                    .unwrap_or(false),
                XgiKind::PutE { .. } => entry
                    .map(|e| e.owned && !e.dirty && e.shadow.is_none())
                    .unwrap_or(false),
                XgiKind::PutM { .. } => entry
                    .map(|e| e.owned && e.shadow.is_none())
                    .unwrap_or(false),
                _ => true,
            };
            if !consistent {
                self.report_error(Some(a), XgErrorKind::InconsistentRequest, ctx);
                return;
            }
        }
        self.execute_request(a, kind, perm, ctx);
    }

    fn execute_request(&mut self, a: BlockAddr, kind: XgiKind, perm: PagePerm, ctx: &mut Ctx<'_>) {
        match kind {
            XgiKind::GetS => {
                let read_only = !perm.allows_write();
                let req = if self.k > 1 {
                    // Uniform S grants keep merged ownership simple.
                    GetReq::SOnly
                } else if read_only && (self.cfg.use_gets_only || self.table.is_none()) {
                    GetReq::SOnly
                } else {
                    GetReq::S
                };
                self.open_req(
                    a,
                    AccelReq::Get {
                        m: false,
                        read_only,
                        req_kind: req,
                        poisoned: false,
                        grants: Grants::new(self.k),
                        started: ctx.now(),
                    },
                );
                for i in 0..self.k {
                    self.persona.issue_get(a.offset(i), req, ctx);
                }
            }
            XgiKind::GetM => {
                // An upgrade from S: the accelerator's old copy is implicitly
                // dead; the grant carries fresh data.
                if let Some(e) = self.forget(a) {
                    // A shadowed upgrade means the host already granted
                    // us ownership exclusively for a read-only page and
                    // the write permission has since been granted; the
                    // simplest correct course is a fresh GetM.
                    if let Some(shadow) = &e.shadow {
                        for i in 0..self.k {
                            let block = shadow.blocks()[i as usize];
                            self.internal_put(a.offset(i), block, e.dirty, ctx);
                        }
                    }
                }
                self.open_req(
                    a,
                    AccelReq::Get {
                        m: true,
                        read_only: false,
                        req_kind: GetReq::M,
                        poisoned: false,
                        grants: Grants::new(self.k),
                        started: ctx.now(),
                    },
                );
                for i in 0..self.k {
                    self.persona.issue_get(a.offset(i), GetReq::M, ctx);
                }
            }
            XgiKind::PutS => self.execute_put_s(a, ctx),
            XgiKind::PutE { ref data } | XgiKind::PutM { ref data } => {
                let dirty = matches!(kind, XgiKind::PutM { .. });
                self.forget(a);
                self.open_req(
                    a,
                    AccelReq::Put {
                        pending: self.k as u32,
                        started: ctx.now(),
                    },
                );
                for i in 0..self.k {
                    self.persona.issue_put(
                        a.offset(i),
                        PutReq::Owned {
                            data: data.blocks()[i as usize],
                            dirty,
                        },
                        ctx,
                    );
                }
            }
            _ => {
                // Filtered by `admit_request`; count rather than panic if a
                // refactor ever breaks the invariant.
                self.report_error(Some(a), XgErrorKind::Malformed, ctx);
            }
        }
    }

    fn execute_put_s(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        // Shadowed blocks: the accelerator held S but the host granted us
        // ownership; relinquish it with the trusted shadow data.
        let shadow = self.forget(a).and_then(|e| e.shadow.map(|s| (s, e.dirty)));
        if let Some((shadow, dirty)) = shadow {
            for i in 0..self.k {
                self.internal_put(a.offset(i), shadow.blocks()[i as usize], dirty, ctx);
            }
            self.send_accel(a, XgiKind::WbAck, ctx);
            return;
        }
        // Hammer evicts shared blocks silently: there is nothing to forward
        // (paper §2.1). MESI forwards unless configured to suppress.
        let suppress = !self.persona.is_mesi() || self.cfg.suppress_put_s;
        if suppress {
            self.stats.puts_suppressed += 1;
            self.send_accel(a, XgiKind::WbAck, ctx);
            return;
        }
        self.open_req(
            a,
            AccelReq::Put {
                pending: self.k as u32,
                started: ctx.now(),
            },
        );
        for i in 0..self.k {
            self.persona.issue_put(a.offset(i), PutReq::S, ctx);
        }
    }

    /// Removes `a`'s Full State entry, if any. Every removal goes through
    /// here, so `shadow_blocks` stays the sum of the table's shadows.
    fn forget(&mut self, a: BlockAddr) -> Option<Entry> {
        let e = self.table.as_mut()?.remove(&a)?;
        self.shadow_blocks -= e.shadow_len();
        Some(e)
    }

    /// Demotes `a`'s shadowed entry to a plain sharer, dropping the shadow.
    fn unshadow(&mut self, a: BlockAddr) {
        if let Some(e) = self.table.as_mut().and_then(|t| t.get_mut(&a)) {
            self.shadow_blocks -= e.shadow_len();
            e.shadow = None;
            e.owned = false;
        }
    }

    fn open_req(&mut self, a: BlockAddr, req: AccelReq) {
        self.open.entry(a).or_default().req = Some(req);
        self.open_reqs += 1;
    }

    fn internal_put(&mut self, h: BlockAddr, data: DataBlock, dirty: bool, ctx: &mut Ctx<'_>) {
        let a = self.align(h);
        self.open.entry(a).or_default().relinquishing |= 1 << (h.as_u64() - a.as_u64());
        self.persona
            .issue_put(h, PutReq::Owned { data, dirty }, ctx);
    }

    // -----------------------------------------------------------------------
    // The Put-vs-Inv race (paper §2.1: the only race the interface admits).
    // -----------------------------------------------------------------------

    fn resolve_race_put(&mut self, a: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        self.stats.race_puts += 1;
        let resolution = match &kind {
            XgiKind::PutS => Resolution::Shared,
            XgiKind::PutE { data } | XgiKind::PutM { data } => {
                if !self.perm(a).allows_write() {
                    // Guarantee 0b, as for an invalidation's writeback: the
                    // race branch runs before `admit_request`'s permission
                    // check, and the accelerator can have held at most a
                    // shared copy of a read-only block.
                    self.report_error(Some(a), XgErrorKind::PermissionWrite, ctx);
                    Resolution::Shared
                } else if data.len() != self.k as usize {
                    self.report_error(Some(a), XgErrorKind::Malformed, ctx);
                    Resolution::None
                } else {
                    Resolution::Owned {
                        data: data.clone(),
                        dirty: matches!(kind, XgiKind::PutM { .. }),
                    }
                }
            }
            _ => Resolution::None,
        };
        let resolution = self.shadow_resolution(a).unwrap_or(resolution);
        self.apply_resolution(a, resolution, false, ctx);
        // The Put's own (single) response.
        self.send_accel(a, XgiKind::WbAck, ctx);
        self.stats.wbacks += 1;
        if let Some(ip) = self.open.get_mut(&a).and_then(|o| o.inv.as_mut()) {
            ip.race_consumed = true;
        }
        self.forget(a);
    }

    // -----------------------------------------------------------------------
    // Accelerator responses to forwarded invalidations (Guarantee 2).
    // -----------------------------------------------------------------------

    fn handle_accel_response(&mut self, a: BlockAddr, kind: XgiKind, ctx: &mut Ctx<'_>) {
        let Some(ip) = self.open.get(&a).and_then(|o| o.inv.as_ref()) else {
            // Guarantee 2b: no corresponding host request.
            self.report_error(Some(a), XgErrorKind::UnsolicitedResponse, ctx);
            return;
        };
        if ip.race_consumed {
            // This is the InvAck the accelerator owes from state B after
            // the race; any other type is noise worth reporting.
            if !matches!(kind, XgiKind::InvAck) {
                self.report_error(Some(a), XgErrorKind::InconsistentResponse, ctx);
            }
            // Host demands may have accumulated while we waited for this
            // trailing ack (e.g. the racing Put demoted us to a sharer and
            // the host immediately invalidated that sharer). The
            // accelerator holds nothing anymore: answer them all now.
            self.apply_resolution(a, Resolution::Shared, false, ctx);
            self.close_inv(a, ctx);
            return;
        }

        // What do we *know* the accelerator held? (Guarantee 2a.)
        let entry = self.table.as_ref().and_then(|t| t.get(&a).cloned());
        let expects_owned = match (&self.table, &entry) {
            (Some(_), Some(e)) => e.owned && e.shadow.is_none(),
            (Some(_), None) => false,
            (None, _) => {
                // Transactional: deduce from what the host demanded.
                ip.reasons.iter().any(|(_, k)| k.expects_data())
            }
        };

        let read_only = !self.perm(a).allows_write();
        let resolution = match kind {
            XgiKind::InvAck => {
                if expects_owned {
                    // 2a: owner answered with a bare ack — fabricate a zero
                    // writeback so the host is never left hanging.
                    self.report_error(Some(a), XgErrorKind::InconsistentResponse, ctx);
                    self.stats.fabricated_responses += 1;
                    Resolution::Owned {
                        data: XgData::zeroed(self.k as usize),
                        dirty: true,
                    }
                } else if entry.is_some() || self.table.is_none() {
                    Resolution::Shared
                } else {
                    Resolution::None
                }
            }
            XgiKind::CleanWb { ref data } | XgiKind::DirtyWb { ref data } => {
                let dirty = matches!(kind, XgiKind::DirtyWb { .. });
                if read_only {
                    // Guarantee 0b dominates — even over well-formedness:
                    // data from the accelerator for a read-only page must
                    // never reach the host, not even through the
                    // Transactional forwarding path, and neither may a
                    // *fabricated* owned response (the fuzz campaign found
                    // that fabricating one here answers the host's recall
                    // with owner data from a node that was only ever a
                    // sharer — zeroed RespData under Hammer, an unsolicited
                    // OwnerWb under MESI). The accelerator can have held at
                    // most a shared copy (ownership is never granted on
                    // read-only pages), so a shared resolution is the only
                    // safe answer regardless of the payload's shape.
                    self.report_error(Some(a), XgErrorKind::PermissionWrite, ctx);
                    Resolution::Shared
                } else if data.len() != self.k as usize {
                    // Malformed payload. Fabricate the zeroed writeback the
                    // host is waiting for only when it actually expects
                    // owner data; if the accelerator was merely a sharer, a
                    // fabricated owned response would itself break the host
                    // (owner data from a non-owner), so resolve as shared.
                    self.report_error(Some(a), XgErrorKind::Malformed, ctx);
                    if expects_owned {
                        self.stats.fabricated_responses += 1;
                        Resolution::Owned {
                            data: XgData::zeroed(self.k as usize),
                            dirty: true,
                        }
                    } else {
                        Resolution::Shared
                    }
                } else if !expects_owned {
                    // 2a: a writeback from a non-owner. With Full State we
                    // correct it locally; Transactional forwards it and the
                    // modified host tolerates it (paper §3.2.2). Either way
                    // the OS hears about it.
                    self.report_error(Some(a), XgErrorKind::InconsistentResponse, ctx);
                    if self.table.is_some() {
                        Resolution::Shared
                    } else {
                        Resolution::Owned {
                            data: data.clone(),
                            dirty,
                        }
                    }
                } else {
                    Resolution::Owned {
                        data: data.clone(),
                        dirty,
                    }
                }
            }
            _ => {
                // `is_accel_response` checked by the caller; never panic on
                // a protocol path.
                self.report_error(Some(a), XgErrorKind::Malformed, ctx);
                return;
            }
        };

        let resolution = self.shadow_resolution(a).unwrap_or(resolution);
        self.apply_resolution(a, resolution, false, ctx);
        self.forget(a);
        self.close_inv(a, ctx);
    }

    /// A shadowed read-only block answers the host from the trusted shadow,
    /// whatever the accelerator sent: the host granted the guard ownership,
    /// and the accelerator only ever held a shared copy.
    fn shadow_resolution(&self, a: BlockAddr) -> Option<Resolution> {
        let e = self.table.as_ref()?.get(&a)?;
        let shadow = e.shadow.as_deref()?;
        Some(Resolution::Owned {
            data: shadow.clone(),
            dirty: e.dirty,
        })
    }

    /// Answers every pending host demand on `a` from a resolution, then
    /// relinquishes leftover sub-blocks the host still thinks we own.
    fn apply_resolution(
        &mut self,
        a: BlockAddr,
        resolution: Resolution,
        fabricated_by_timeout: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let open = self.open.get_mut(&a);
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
                Resolution::Shared => {
                    if kind.expects_data() {
                        ctx.trace(h.as_u64(), "guard", "Fabricate", || {
                            format!("shared-resolution kind={kind:?}")
                        });
                        self.stats.fabricated_responses += 1;
                        DemandResponse::Data {
                            data: DataBlock::zeroed(),
                            dirty: true,
                            keep_shared: false,
                        }
                    } else {
                        DemandResponse::SharedCopy
                    }
                }
                Resolution::None => {
                    if kind.expects_data() {
                        ctx.trace(h.as_u64(), "guard", "Fabricate", || {
                            format!("none-resolution kind={kind:?}")
                        });
                        self.stats.fabricated_responses += 1;
                        DemandResponse::Data {
                            data: DataBlock::zeroed(),
                            dirty: true,
                            keep_shared: false,
                        }
                    } else {
                        DemandResponse::NoCopy
                    }
                }
            };
            self.persona.respond_demand(*h, resp, ctx);
        }
        // Sub-blocks we owned but no demand consumed go back to the host.
        if let Resolution::Owned { data, dirty } = &resolution {
            let entry_owned_at_host = self
                .table
                .as_ref()
                .and_then(|t| t.get(&a))
                .map(|e| e.owned)
                .unwrap_or(!self.persona.is_mesi() || !reasons.is_empty());
            if entry_owned_at_host || self.table.is_none() {
                for i in 0..self.k {
                    let h = a.offset(i);
                    if !reasons.iter().any(|(rh, _)| *rh == h) && relinquishing & (1 << i) == 0 {
                        self.internal_put(h, data.blocks()[i as usize], *dirty, ctx);
                    }
                }
            }
        }
        self.spare_reasons.put(reasons);
        if fabricated_by_timeout {
            self.stats.fabricated_responses += 1;
        }
    }

    fn close_inv(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        if let Some(ip) = self.open.get_mut(&a).and_then(|o| o.inv.take()) {
            self.open_invs -= 1;
            self.stats
                .lat_inv_resp
                .record(ctx.now().saturating_since(ip.started));
            ctx.span(a.as_u64(), "inv", ip.started);
        }
        self.drain_queue(a, ctx);
    }

    fn drain_queue(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        loop {
            let Some(open) = self.open.get_mut(&a) else {
                return;
            };
            if open.inv.is_some() || open.req.is_some() || open.relinquishing != 0 {
                return;
            }
            let Some(kind) = open.queue.pop_front() else {
                self.open.remove(&a);
                return;
            };
            self.admit_request(a, kind, ctx);
        }
    }

    // =======================================================================
    // Persona events
    // =======================================================================

    fn process_events(&mut self, events: &mut Vec<PersonaEvent>, ctx: &mut Ctx<'_>) {
        for ev in events.drain(..) {
            match ev {
                PersonaEvent::Granted {
                    h,
                    state,
                    data,
                    dirty,
                } => self.on_granted(h, state, data, dirty, ctx),
                PersonaEvent::PutDone { h } => self.on_put_done(h, ctx),
                PersonaEvent::Demand { h, kind } => self.on_demand(h, kind, ctx),
            }
        }
    }

    fn on_granted(
        &mut self,
        h: BlockAddr,
        state: GrantState,
        data: DataBlock,
        dirty: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let a = self.align(h);
        let Some(AccelReq::Get { grants, .. }) = self.open.get_mut(&a).and_then(|o| o.req.as_mut())
        else {
            // A grant with no open request is a persona-to-guard desync;
            // count it instead of panicking on a protocol path.
            self.report_error(Some(h), XgErrorKind::UnsolicitedResponse, ctx);
            return;
        };
        grants.insert(h.as_u64() - a.as_u64(), state, data, dirty);
        if grants.len() == self.k {
            self.finalize_grant(a, ctx);
        }
    }

    fn finalize_grant(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        // A poisoned *shared* read grant is stale (the acked invalidation
        // targeted exactly this copy): retry against the current epoch. A
        // grant that confers ownership can never be stale — hosts forward
        // to owners rather than invalidating them, so any invalidation we
        // acked belonged to an older shared copy.
        if let Some(AccelReq::Get {
            poisoned: poisoned @ true,
            grants,
            req_kind,
            ..
        }) = self.open.get_mut(&a).and_then(|o| o.req.as_mut())
        {
            *poisoned = false;
            if !grants.all_owned() {
                *grants = Grants::new(self.k);
                let req = *req_kind;
                self.stats.poisoned_refetches += 1;
                for i in 0..self.k {
                    self.persona.issue_get(a.offset(i), req, ctx);
                }
                return;
            }
        }
        let Some(AccelReq::Get {
            m,
            read_only,
            grants,
            started,
            ..
        }) = self.close_req(a)
        else {
            // Both callers verified the open Get; count rather than panic.
            self.report_error(Some(a), XgErrorKind::UnsolicitedResponse, ctx);
            return;
        };
        self.stats
            .lat_grant
            .record(ctx.now().saturating_since(started));
        ctx.span(a.as_u64(), "grant", started);
        let all_owned = grants.all_owned();
        let (any_m, any_dirty) = (grants.m != 0, grants.dirty != 0);
        let payload = grants.data;
        self.stats.grants += 1;

        if read_only && all_owned {
            // Host granted exclusively for a read-only page: keep a shadow,
            // hand the accelerator a shared copy (Guarantee 0b, §2.3.1).
            if let Some(table) = self.table.as_mut() {
                table.insert(
                    a,
                    Entry {
                        owned: true,
                        dirty: any_m && any_dirty,
                        shadow: Some(Box::new(payload.clone())),
                    },
                );
                self.shadow_blocks += self.k;
            }
            self.send_accel(a, XgiKind::DataS { data: payload }, ctx);
        } else {
            let kind = if all_owned {
                if any_m && any_dirty {
                    XgiKind::DataM { data: payload }
                } else {
                    XgiKind::DataE { data: payload }
                }
            } else {
                XgiKind::DataS { data: payload }
            };
            if let Some(table) = self.table.as_mut() {
                table.insert(
                    a,
                    Entry {
                        owned: all_owned,
                        dirty: all_owned && any_m && any_dirty,
                        shadow: None,
                    },
                );
            }
            let _ = m;
            self.send_accel(a, kind, ctx);
        }
        self.drain_queue(a, ctx);
    }

    /// Closes the accelerator's transaction on `a`, if one is open.
    fn close_req(&mut self, a: BlockAddr) -> Option<AccelReq> {
        let req = self.open.get_mut(&a)?.req.take()?;
        self.open_reqs -= 1;
        Some(req)
    }

    fn on_put_done(&mut self, h: BlockAddr, ctx: &mut Ctx<'_>) {
        let a = self.align(h);
        let bit = 1 << (h.as_u64() - a.as_u64());
        let put = match self.open.get_mut(&a) {
            Some(open) if open.relinquishing & bit != 0 => {
                open.relinquishing &= !bit;
                return self.drain_queue(a, ctx);
            }
            Some(open) => open.req.as_mut(),
            None => None,
        };
        let Some(AccelReq::Put { pending, started }) = put else {
            // A Put completion with no open request: count, don't panic.
            self.report_error(Some(h), XgErrorKind::UnsolicitedResponse, ctx);
            return;
        };
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            let started = *started;
            self.close_req(a);
            self.stats
                .lat_wback
                .record(ctx.now().saturating_since(started));
            ctx.span(a.as_u64(), "wback", started);
            self.stats.wbacks += 1;
            self.send_accel(a, XgiKind::WbAck, ctx);
            self.drain_queue(a, ctx);
        }
    }

    // =======================================================================
    // Host demands
    // =======================================================================

    fn on_demand(&mut self, h: BlockAddr, kind: DemandKind, ctx: &mut Ctx<'_>) {
        let a = self.align(h);
        // Pages the accelerator cannot touch are answered without ever
        // letting it observe the traffic (§3.2: closes the coherence
        // side channel).
        if self.perm(a) == PagePerm::None {
            self.stats.demands_answered_locally += 1;
            self.persona.respond_demand(h, DemandResponse::NoCopy, ctx);
            return;
        }
        // While the accelerator's own Get for this block is in flight it
        // holds no *readable* copy (Table 1 drops S on upgrade; the
        // two-level L2 recalls its L1s first), and it cannot own the block
        // (Guarantee 1a). The demand belongs to an older epoch and is
        // answerable right here — forwarding an Inv now would interleave
        // with the upcoming grant on the ordered link.
        if let Some(AccelReq::Get { m, poisoned, .. }) =
            self.open.get_mut(&a).and_then(|o| o.req.as_mut())
        {
            // A write-class demand may target the very grant in flight to
            // us (an Inv can overtake owner-forwarded data on the unordered
            // host network). Acking it promises the copy dies — so a read
            // grant, if one arrives, is stale and must be refetched.
            if !*m && matches!(kind, DemandKind::Write { .. } | DemandKind::Recall) {
                *poisoned = true;
            }
            self.stats.demands_answered_locally += 1;
            let resp = if kind.expects_data() {
                // The host believing we own while our own Get is open means
                // desync; keep the host safe anyway.
                ctx.trace(h.as_u64(), "guard", "Fabricate", || {
                    format!("open-get kind={kind:?}")
                });
                self.stats.fabricated_responses += 1;
                DemandResponse::Data {
                    data: DataBlock::zeroed(),
                    dirty: true,
                    keep_shared: false,
                }
            } else {
                DemandResponse::SharedCopy
            };
            self.persona.respond_demand(h, resp, ctx);
            return;
        }
        if let Some(table) = &self.table {
            match table.get(&a) {
                None => {
                    self.stats.demands_answered_locally += 1;
                    self.persona.respond_demand(h, DemandResponse::NoCopy, ctx);
                }
                Some(e) if !e.owned || e.shadow.is_some() => {
                    // Accelerator holds (at most) a shared copy.
                    match kind {
                        DemandKind::Read { .. } | DemandKind::ReadOnly { .. } => {
                            self.stats.demands_answered_locally += 1;
                            let resp = match &e.shadow {
                                Some(shadow) => {
                                    let idx = (h.as_u64() - a.as_u64()) as usize;
                                    DemandResponse::Data {
                                        data: shadow.blocks()[idx],
                                        dirty: e.dirty,
                                        keep_shared: true,
                                    }
                                }
                                None => DemandResponse::SharedCopy,
                            };
                            let was_shadow = e.shadow.is_some();
                            self.persona.respond_demand(h, resp, ctx);
                            // A MESI FwdGetS ends our ownership at the L2;
                            // track the downgrade so the shadow is not
                            // double-flushed later.
                            if was_shadow && self.persona.is_mesi() {
                                self.unshadow(a);
                            }
                        }
                        DemandKind::Write { .. } | DemandKind::Recall => {
                            self.forward_inv(a, h, kind, ctx);
                        }
                    }
                }
                Some(_) => {
                    // Accelerator owns the block: it must give it up.
                    self.forward_inv(a, h, kind, ctx);
                }
            }
            return;
        }
        // Transactional: deducible cases only; everything else crosses.
        match kind {
            DemandKind::Read { to_owner: false } | DemandKind::ReadOnly { to_owner: false } => {
                // Conservative and safe: claim a shared copy exists, so the
                // requestor never takes silent-upgradable exclusivity.
                self.stats.demands_answered_locally += 1;
                self.persona
                    .respond_demand(h, DemandResponse::SharedCopy, ctx);
            }
            _ => self.forward_inv(a, h, kind, ctx),
        }
    }

    fn forward_inv(&mut self, a: BlockAddr, h: BlockAddr, kind: DemandKind, ctx: &mut Ctx<'_>) {
        if self.cfg.test_swallow_invs {
            // Planted bug (see [`XgConfig::test_swallow_invs`]): the demand
            // is neither answered nor forwarded, so the host requester
            // hangs — the defect the campaign's minimizer demo hunts.
            return;
        }
        let open = self.open.entry(a).or_default();
        if let Some(ip) = &mut open.inv {
            ip.reasons.push((h, kind));
            return;
        }
        let mut reasons = self.spare_reasons.take();
        reasons.push((h, kind));
        open.inv = Some(InvPending {
            reasons,
            race_consumed: false,
            started: ctx.now(),
        });
        self.open_invs += 1;
        self.stats.invs_forwarded += 1;
        self.send_accel(a, XgiKind::Inv, ctx);
        if self.cfg.inv_timeout > 0 {
            ctx.wake_in(self.cfg.inv_timeout, a.as_u64());
        }
    }

    fn on_timeout(&mut self, a: BlockAddr, ctx: &mut Ctx<'_>) {
        // A stale timer finds its Inv answered — no Inv pending, or a later
        // one whose own deadline is still ahead.
        let due = self
            .open
            .get(&a)
            .and_then(|o| o.inv.as_ref())
            .is_some_and(|ip| ip.started + self.cfg.inv_timeout == ctx.now());
        if !due {
            return;
        }
        // Guarantee 2c: the accelerator went silent. Fabricate the safest
        // complete answer and tell the OS.
        self.stats.timeouts += 1;
        self.report_error(Some(a), XgErrorKind::ResponseTimeout, ctx);
        let entry = self.table.as_ref().and_then(|t| t.get(&a).cloned());
        let resolution = match &entry {
            Some(e) if e.owned => Resolution::Owned {
                data: match &e.shadow {
                    Some(shadow) => XgData::clone(shadow),
                    None => XgData::zeroed(self.k as usize),
                },
                dirty: true,
            },
            Some(_) => Resolution::Shared,
            None if self.table.is_some() => Resolution::None,
            None => Resolution::Shared,
        };
        self.apply_resolution(a, resolution, true, ctx);
        self.forget(a);
        self.close_inv(a, ctx);
    }
}

/// Folds a queued accelerator request kind into a state digest (data
/// payloads included: they become grant/writeback contents later).
fn digest_xgi_kind(kind: &XgiKind, out: &mut CheckDigest) {
    out.write_str(kind.mnemonic());
    if let Some(data) = kind.data() {
        out.write_u64(data.len() as u64);
        for b in data.blocks() {
            out.write_bytes(b.as_bytes());
        }
    }
}

/// What the invalidated accelerator block turned out to contain.
#[derive(Debug)]
enum Resolution {
    /// Owned data (real, shadow, or fabricated zeroes).
    Owned { data: XgData, dirty: bool },
    /// At most a shared copy existed.
    Shared,
    /// Nothing was held.
    None,
}

impl Component<Message> for CrossingGuard {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        match msg {
            Message::Xgi(x) => {
                if from == self.accel {
                    self.handle_accel(x, ctx);
                } else {
                    self.report_error(Some(x.addr), XgErrorKind::Malformed, ctx);
                }
            }
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
        self.on_timeout(BlockAddr::new(token), ctx);
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
                    Some(shadow) => {
                        out.write_u64(shadow.len() as u64);
                        for b in shadow.blocks() {
                            out.write_bytes(b.as_bytes());
                        }
                    }
                    None => out.write_str("no-shadow"),
                }
            }
            out.recycle(addrs);
        } else {
            out.write_str("transactional");
        }
        // Open blocks, sorted by address role, one section per field.
        let mut open: Vec<_> = self.open.iter().collect();
        open.sort_by_key(|(a, _)| out.addr_role(a.as_u64()));
        // Open accelerator transactions.
        out.write_u64(self.open_reqs as u64);
        for (a, req) in open.iter().filter_map(|(a, o)| Some((a, o.req.as_ref()?))) {
            out.write_addr(a.as_u64());
            match req {
                AccelReq::Get {
                    m,
                    read_only,
                    req_kind,
                    poisoned,
                    grants,
                    started: _,
                } => {
                    out.write_str("get");
                    out.write_u64(u64::from(*m));
                    out.write_u64(u64::from(*read_only));
                    out.write_u64(req_kind.digest_tag());
                    out.write_u64(u64::from(*poisoned));
                    out.write_u64(grants.len());
                    for (sub, state, data, dirty) in grants.iter() {
                        out.write_u64(sub);
                        out.write_u64(state.digest_tag());
                        out.write_bytes(data.as_bytes());
                        out.write_u64(u64::from(dirty));
                    }
                }
                AccelReq::Put {
                    pending,
                    started: _,
                } => {
                    out.write_str("put");
                    out.write_u64(u64::from(*pending));
                }
            }
        }
        // Requests parked behind an open transaction or pending Inv.
        let queued = open.iter().filter(|(_, o)| !o.queue.is_empty());
        out.write_u64(queued.clone().count() as u64);
        let mut queued_msgs = 0u64;
        for (a, o) in queued {
            out.write_addr(a.as_u64());
            let q = &o.queue;
            out.write_u64(q.len() as u64);
            queued_msgs += q.len() as u64;
            for kind in q {
                digest_xgi_kind(kind, out);
            }
        }
        // Forwarded invalidations still open at the accelerator.
        out.write_u64(self.open_invs as u64);
        for (a, ip) in open.iter().filter_map(|(a, o)| Some((a, o.inv.as_ref()?))) {
            out.write_addr(a.as_u64());
            out.write_u64(u64::from(ip.race_consumed));
            out.write_u64(ip.reasons.len() as u64);
            for (h, kind) in &ip.reasons {
                out.write_addr(h.as_u64());
                kind.digest(out);
            }
        }
        // Internal relinquish puts in flight, as host blocks.
        let mut internal: Vec<_> = open
            .iter()
            .flat_map(|(a, o)| {
                (0..self.k)
                    .filter(|i| o.relinquishing & (1 << i) != 0)
                    .map(|i| a.offset(i))
            })
            .collect();
        internal.sort_by_key(|h| out.addr_role(h.as_u64()));
        out.write_u64(internal.len() as u64);
        for h in &internal {
            out.write_addr(h.as_u64());
        }
        out.obligation((self.open_reqs + self.open_invs + internal.len()) as u64 + queued_msgs);
        self.persona.check_state(out);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(
            format_args!("{n}.accel_received"),
            self.stats.accel_received,
        );
        out.add(format_args!("{n}.accel_sent"), self.stats.accel_sent);
        out.add(format_args!("{n}.grants"), self.stats.grants);
        out.add(format_args!("{n}.wbacks"), self.stats.wbacks);
        out.add(
            format_args!("{n}.invs_forwarded"),
            self.stats.invs_forwarded,
        );
        out.add(
            format_args!("{n}.demands_answered_locally"),
            self.stats.demands_answered_locally,
        );
        out.add(
            format_args!("{n}.puts_suppressed"),
            self.stats.puts_suppressed,
        );
        out.add(format_args!("{n}.throttled"), self.stats.throttled);
        out.add(format_args!("{n}.timeouts"), self.stats.timeouts);
        out.add(format_args!("{n}.race_puts"), self.stats.race_puts);
        out.add(
            format_args!("{n}.dropped_disabled"),
            self.stats.dropped_disabled,
        );
        out.add(
            format_args!("{n}.fabricated_responses"),
            self.stats.fabricated_responses,
        );
        out.add(
            format_args!("{n}.poisoned_refetches"),
            self.stats.poisoned_refetches,
        );
        out.set(format_args!("{n}.storage_bytes"), self.storage_bytes());
        out.set(format_args!("{n}.peak_storage_bytes"), self.peak_storage);
        out.add(format_args!("{n}.errors_total"), self.errors_total());
        for kind in XgErrorKind::ALL {
            let count = self.error_count(kind);
            if count > 0 {
                out.add(format_args!("{n}.errors.{kind}"), count);
            }
        }
        let pstats = self.persona.stats();
        out.add(format_args!("{n}.host_sent"), pstats.sent);
        out.add(format_args!("{n}.host_puts_sent"), pstats.puts_sent);
        out.add(format_args!("{n}.host_received"), pstats.received);
        out.add(format_args!("{n}.persona_violations"), pstats.violations);
        out.record_hist(format_args!("{n}.lat.grant"), &self.stats.lat_grant);
        out.record_hist(format_args!("{n}.lat.wback"), &self.stats.lat_wback);
        out.record_hist(format_args!("{n}.lat.inv_resp"), &self.stats.lat_inv_resp);
        out.record_hist(
            format_args!("{n}.lat.host_rtt"),
            &self.persona.stats().host_rtt,
        );
        self.persona.record_machine(out);
    }

    fn box_clone(&self) -> Option<Box<dyn Component<Message>>> {
        Some(Box::new(self.clone()))
    }

    fn restore_from(&mut self, saved: &dyn Component<Message>) -> bool {
        xg_sim::restore_in_place(self, saved)
    }

    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        self.persona.visit_fired(visit);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
