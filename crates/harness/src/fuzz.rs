//! Fuzzers: pathological accelerators (paper §1, §4).
//!
//! [`FuzzAccel`] "bombards the Crossing Guard with a stream of random
//! coherence messages to random addresses" — every interface kind
//! (including host-to-accelerator kinds an accelerator should never send),
//! random payload sizes, random addresses, and random or absent responses
//! to invalidations. A safe guard never crashes, never deadlocks the host,
//! and reports errors to the OS.
//!
//! That stream is always a [`Schedule`]: a blind run draws one up front
//! ([`FuzzOpts::schedule_for`]), the campaign mutates and minimizes them,
//! and the fuzzer only replays. So every failing run, blind or guided, has
//! a list of steps to shrink and emit as a regression test.
//!
//! [`FuzzHostCache`] is the control experiment: the same garbage aimed
//! directly at an *unprotected* host protocol, as a buggy accelerator-side
//! cache (Figure 2(a)) could do. The strict (unmodified) host counts
//! protocol violations and can wedge — which is the point.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_mem::{BlockAddr, DataBlock};
use xg_proto::{
    Ctx, HammerKind, HammerMsg, HomeMap, MesiKind, MesiMsg, Message, XgData, XgiKind, XgiMsg,
    XgiTag,
};
use xg_sim::{Component, NodeId, Report};

use crate::config::HostProtocol;
use crate::runner::MAX_CYCLES;

/// Number of distinct interface-kind codes a fuzz step can carry (the eight
/// accelerator-legal kinds plus the five guard-only kinds): the codes
/// [`XgiKind::from_code`] decodes.
pub const FUZZ_KIND_CODES: u8 = XgiTag::BY_CODE.len() as u8;

/// Number of distinct invalidation-response codes: `InvAck`, `CleanWb`,
/// `DirtyWb`, a non-response `GetM`, and a `PutS` race immediately chased
/// by a stale `DirtyWb` (the Put-vs-Inv race of paper §2.1, answered with
/// the one response that is inconsistent afterwards — the deterministic
/// guarantee-2a probe).
pub const INV_RESPONSE_CODES: u8 = 5;

/// One scripted injection: wait `delay` cycles after the previous step,
/// then send interface kind `kind` at `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzStep {
    /// Cycles after the previous injection (clamped to ≥ 1).
    pub delay: u64,
    /// Absolute block index (address is `block * 64`).
    pub block: u64,
    /// Interface kind code, `0..FUZZ_KIND_CODES` ([`XgiKind::from_code`]).
    pub kind: u8,
    /// Payload size in blocks for data-carrying kinds (`1..=3`; sizes other
    /// than the guard's block size are deliberate `Malformed` probes).
    pub payload_blocks: u8,
    /// Byte splatted across the payload (identifies the step in traces).
    pub fill: u8,
}

/// One scripted reaction to a forwarded invalidation. Policies are consumed
/// in order, cycling, so a schedule fixes the *entire* response behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvPolicy {
    /// Respond at all? `false` is the guarantee-2c silence probe.
    pub respond: bool,
    /// Response code, `0..INV_RESPONSE_CODES`.
    pub kind: u8,
    /// Payload blocks for writeback responses (`1..=3`).
    pub payload_blocks: u8,
}

/// A fully deterministic injection schedule: what the fuzz accelerator
/// sends, when, and how it answers invalidations. Schedules are the unit
/// the coverage-guided campaign stores, mutates, and minimizes — replaying
/// the same schedule against the same [`crate::SystemConfig`] byte-for-byte
/// reproduces the run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Scripted injections, in order.
    pub steps: Vec<FuzzStep>,
    /// Scripted invalidation responses, consumed cyclically (empty =
    /// permanent silence).
    pub responses: Vec<InvPolicy>,
}

impl Schedule {
    /// Generates a random schedule of `len` steps over `blocks` candidate
    /// block indices — the blind seed the campaign starts from.
    pub fn random(rng: &mut SmallRng, len: usize, blocks: &[u64]) -> Schedule {
        assert!(!blocks.is_empty(), "schedule needs a non-empty block pool");
        let steps = (0..len)
            .map(|_| FuzzStep {
                delay: rng.gen_range(1..=30),
                block: blocks[rng.gen_range(0..blocks.len())],
                kind: rng.gen_range(0..FUZZ_KIND_CODES),
                payload_blocks: rng.gen_range(1..=3),
                fill: rng.gen(),
            })
            .collect();
        let responses = (0..rng.gen_range(1..=4usize))
            .map(|_| InvPolicy {
                respond: rng.gen_range(0u32..100) < 70,
                kind: rng.gen_range(0..INV_RESPONSE_CODES),
                payload_blocks: rng.gen_range(1..=3),
            })
            .collect();
        Schedule { steps, responses }
    }

    /// Serializes to a line-oriented text form (the corpus on-disk format).
    pub fn to_text(&self) -> String {
        let mut out = String::from("xg-schedule v1\n");
        for s in &self.steps {
            out.push_str(&format!(
                "s {} {} {} {} {}\n",
                s.delay, s.block, s.kind, s.payload_blocks, s.fill
            ));
        }
        for r in &self.responses {
            out.push_str(&format!(
                "r {} {} {}\n",
                u8::from(r.respond),
                r.kind,
                r.payload_blocks
            ));
        }
        out
    }

    /// Parses the [`to_text`](Schedule::to_text) form. A step delay longer
    /// than a whole run ([`MAX_CYCLES`]) is refused with its line number.
    pub fn from_text(input: &str) -> Result<Schedule, String> {
        let mut lines = (1..)
            .zip(input.lines())
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty schedule")?;
        if header.trim() != "xg-schedule v1" {
            return Err(format!("unknown schedule header: {header:?}"));
        }
        let mut sched = Schedule::default();
        for (number, line) in lines {
            let mut f = line.split_whitespace();
            let tag = f.next().ok_or("blank record")?;
            let mut num = |what: &str| -> Result<u64, String> {
                f.next()
                    .ok_or_else(|| format!("{what}: missing field in {line:?}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("{what}: {e} in {line:?}"))
            };
            match tag {
                "s" => {
                    let delay = num("delay")?;
                    if delay > MAX_CYCLES {
                        return Err(format!(
                            "line {number}: delay {delay} exceeds the {MAX_CYCLES}-cycle run in {line:?}"
                        ));
                    }
                    sched.steps.push(FuzzStep {
                        delay,
                        block: num("block")?,
                        kind: num("kind")? as u8 % FUZZ_KIND_CODES,
                        payload_blocks: (num("payload")? as u8).clamp(1, 3),
                        fill: num("fill")? as u8,
                    })
                }
                "r" => sched.responses.push(InvPolicy {
                    respond: num("respond")? != 0,
                    kind: num("kind")? as u8 % INV_RESPONSE_CODES,
                    payload_blocks: (num("payload")? as u8).clamp(1, 3),
                }),
                other => return Err(format!("unknown record tag {other:?}")),
            }
        }
        Ok(sched)
    }
}

/// Fuzzing parameters.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Steps in a blind schedule (a given [`schedule`](FuzzOpts::schedule)
    /// sends exactly its own steps); messages a [`FuzzHostCache`] sends.
    pub messages: u64,
    /// Address pool size in blocks (addresses are `0..blocks * 64`).
    pub pool_blocks: u64,
    /// The schedule every fuzz accelerator replays. `None` gives each one
    /// its own blind schedule, [`FuzzOpts::schedule_for`] its name.
    pub schedule: Option<Schedule>,
    /// Extra pages granted *read-only* permission (on top of the read-write
    /// attack pool). Lets a campaign legally take shared copies of
    /// CPU-owned blocks, which is what draws host demands (and hence the
    /// 2a/2c invalidation guarantees) through the guard.
    pub read_only_pages: Vec<u64>,
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            messages: 500,
            pool_blocks: 16,
            schedule: None,
            read_only_pages: Vec::new(),
        }
    }
}

impl FuzzOpts {
    /// The schedule the fuzz accelerator `name` replays in a run seeded
    /// `seed`: the given one, else a blind [`Schedule::random`] of
    /// `messages` steps over the attack pool and the first four blocks of
    /// each read-only page, drawn from the fuzzer's own stream — a
    /// function of `(seed, name, self)` alone.
    pub fn schedule_for(&self, seed: u64, name: &str) -> Schedule {
        if let Some(schedule) = &self.schedule {
            return schedule.clone();
        }
        let per_page = xg_mem::PAGE_BYTES / xg_mem::BLOCK_BYTES;
        let mut blocks: Vec<u64> = (0..self.pool_blocks).collect();
        for &page in &self.read_only_pages {
            blocks.extend(page * per_page..page * per_page + 4);
        }
        let mut rng = SmallRng::seed_from_u64(rand::stream_seed(seed, name));
        Schedule::random(&mut rng, self.messages as usize, &blocks)
    }

    /// The fuzz accelerator standing in for `FuzzXg` hierarchy `k` of a
    /// run seeded `seed`, aimed at its guard `xg`: `fuzz_accel` (`a{k}_`
    /// before it past the first hierarchy), replaying the schedule
    /// [`FuzzOpts::schedule_for`] its name.
    pub fn stand_in(&self, seed: u64, k: usize, xg: NodeId) -> FuzzAccel {
        let name = format!("{}fuzz_accel", crate::system::instance_prefix(k));
        let schedule = self.schedule_for(seed, &name);
        FuzzAccel::new(name, xg, schedule)
    }
}

/// Deterministic payload for scripted steps: `blocks` copies of `fill`.
fn scripted_payload(blocks: u8, fill: u8) -> XgData {
    XgData::from_blocks(vec![DataBlock::splat(fill); blocks.clamp(1, 3) as usize])
}

/// Decodes a step's kind code ([`XgiKind::from_code`]) with its
/// deterministic payload.
fn scripted_kind(step: FuzzStep) -> XgiKind {
    let data = || scripted_payload(step.payload_blocks, step.fill);
    XgiKind::from_code(step.kind % FUZZ_KIND_CODES, data)
        .expect("every code below FUZZ_KIND_CODES names a kind")
}

/// Decodes an invalidation-response code (`0..INV_RESPONSE_CODES`) into the
/// one or two messages to send back, in order (the guard↔accelerator link
/// is ordered, so a pair arrives in script order). `data` builds each
/// writeback payload. The fuzz accelerator and the `xg-check` chaos
/// accelerator share this decoding.
pub fn inv_response(code: u8, mut data: impl FnMut() -> XgData) -> impl Iterator<Item = XgiKind> {
    let (first, then) = match code % INV_RESPONSE_CODES {
        0 => (XgiKind::InvAck, None),
        1 => (XgiKind::CleanWb { data: data() }, None),
        2 => (XgiKind::DirtyWb { data: data() }, None),
        3 => (XgiKind::GetM, None),
        // The Put-vs-Inv race, then a writeback where only the trailing
        // InvAck is legal.
        _ => (XgiKind::PutS, Some(XgiKind::DirtyWb { data: data() })),
    };
    std::iter::once(first).chain(then)
}

/// A pathologically buggy accelerator attached to a Crossing Guard: it
/// replays one [`Schedule`], blind or found, and draws nothing while it
/// runs.
pub struct FuzzAccel {
    name: String,
    xg: NodeId,
    schedule: Schedule,
    sent: u64,
    invs_seen: u64,
    inv_responses: u64,
    grants_seen: u64,
    first_inject: Option<u64>,
    last_inject: u64,
    next_step: usize,
    resp_idx: usize,
}

impl FuzzAccel {
    /// Creates a fuzzer aimed at `xg` that replays `schedule`.
    pub fn new(name: impl Into<String>, xg: NodeId, schedule: Schedule) -> Self {
        FuzzAccel {
            name: name.into(),
            xg,
            schedule,
            sent: 0,
            invs_seen: 0,
            inv_responses: 0,
            grants_seen: 0,
            first_inject: None,
            last_inject: 0,
            next_step: 0,
            resp_idx: 0,
        }
    }

    /// Messages injected so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The schedule this fuzzer replays.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

impl Component<Message> for FuzzAccel {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Xgi(m) = msg else { return };
        match m.kind {
            XgiKind::Inv => {
                self.invs_seen += 1;
                // Consult the response script, cycling; an empty one is
                // silence, which the guard's 2c timeout must cover.
                let responses = &self.schedule.responses;
                let policy =
                    (!responses.is_empty()).then(|| responses[self.resp_idx % responses.len()]);
                self.resp_idx += 1;
                if let Some(p) = policy.filter(|p| p.respond) {
                    self.inv_responses += 1;
                    let data = || scripted_payload(p.payload_blocks, 0xA5);
                    for kind in inv_response(p.kind, data) {
                        ctx.send(self.xg, XgiMsg::new(m.addr, kind).into());
                    }
                }
            }
            XgiKind::DataS { .. } | XgiKind::DataE { .. } | XgiKind::DataM { .. } => {
                self.grants_seen += 1;
            }
            _ => {}
        }
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        let steps = &self.schedule.steps;
        let (step, next_delay) = match steps.get(self.next_step) {
            None => return,
            Some(&s) => (s, steps.get(self.next_step + 1).map(|n| n.delay.max(1))),
        };
        self.next_step += 1;
        self.sent += 1;
        ctx.note_progress();
        let now = ctx.now().as_u64();
        self.first_inject.get_or_insert(now);
        self.last_inject = now;
        ctx.send(
            self.xg,
            XgiMsg::new(BlockAddr::new(step.block), scripted_kind(step)).into(),
        );
        if let Some(delay) = next_delay {
            ctx.wake_in(delay, 0);
        }
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.sent"), self.sent);
        out.add(format_args!("{n}.invs_seen"), self.invs_seen);
        out.add(format_args!("{n}.inv_responses"), self.inv_responses);
        out.add(format_args!("{n}.grants_seen"), self.grants_seen);
        // A duration rather than cycle stamps: a merge sums it, and a sum
        // of spans is still a count of cycles.
        let span = self
            .first_inject
            .map_or(0, |first| self.last_inject - first);
        out.add(format_args!("{n}.inject_span"), span);
    }
}

/// A fuzzer that speaks the raw host protocol — what a buggy
/// accelerator-side cache can do to an unprotected host (Figure 2(a)).
pub struct FuzzHostCache {
    name: String,
    host: HostProtocol,
    home: HomeMap,
    peers: Vec<NodeId>,
    opts: FuzzOpts,
    sent: u64,
}

impl FuzzHostCache {
    /// Creates a host-protocol fuzzer: requests go to the owning home
    /// bank of `home`, responses to random `peers`.
    pub fn new(
        name: impl Into<String>,
        host: HostProtocol,
        home: impl Into<HomeMap>,
        peers: Vec<NodeId>,
        opts: FuzzOpts,
    ) -> Self {
        FuzzHostCache {
            name: name.into(),
            host,
            home: home.into(),
            peers,
            opts,
            sent: 0,
        }
    }

    fn random_hammer(&self, ctx: &mut Ctx<'_>) -> (HammerKind, bool) {
        // (kind, aimed_at_home)
        let data = DataBlock::splat(ctx.rng().gen());
        match ctx.rng().gen_range(0..8) {
            0 => (HammerKind::GetS, true),
            1 => (HammerKind::GetM, true),
            2 => (HammerKind::Put, true),
            3 => (HammerKind::WbData { data, dirty: true }, true),
            4 => (
                HammerKind::Unblock {
                    new_owner: ctx.rng().gen(),
                },
                true,
            ),
            5 => (
                HammerKind::RespData {
                    data,
                    dirty: ctx.rng().gen(),
                    owner_keeps_copy: ctx.rng().gen(),
                },
                false,
            ),
            6 => (
                HammerKind::RespAck {
                    had_copy: ctx.rng().gen(),
                },
                false,
            ),
            _ => (HammerKind::WbAck, false),
        }
    }

    fn random_mesi(&self, ctx: &mut Ctx<'_>) -> (MesiKind, bool) {
        let data = DataBlock::splat(ctx.rng().gen());
        match ctx.rng().gen_range(0..8) {
            0 => (MesiKind::GetS, true),
            1 => (MesiKind::GetM, true),
            2 => (MesiKind::PutS, true),
            3 => (MesiKind::PutM { data }, true),
            4 => (
                MesiKind::OwnerWb {
                    data,
                    dirty: ctx.rng().gen(),
                },
                true,
            ),
            5 => (
                MesiKind::RecallData {
                    data,
                    dirty: ctx.rng().gen(),
                },
                true,
            ),
            6 => (MesiKind::InvAck, false),
            _ => (
                MesiKind::FwdData {
                    data,
                    dirty: ctx.rng().gen(),
                    exclusive: ctx.rng().gen(),
                },
                false,
            ),
        }
    }
}

impl Component<Message> for FuzzHostCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, _msg: Message, _ctx: &mut Ctx<'_>) {
        // Discard everything — including requests the host is waiting on.
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if self.sent >= self.opts.messages {
            return;
        }
        let block = BlockAddr::new(ctx.rng().gen_range(0..self.opts.pool_blocks));
        let msg: Message;
        let to: NodeId;
        match self.host {
            HostProtocol::Hammer => {
                let (kind, at_home) = self.random_hammer(ctx);
                to = if at_home || self.peers.is_empty() {
                    self.home.for_block(block)
                } else {
                    let i = ctx.rng().gen_range(0..self.peers.len());
                    self.peers[i]
                };
                msg = HammerMsg::new(block, kind).into();
            }
            HostProtocol::Mesi => {
                let (kind, at_home) = self.random_mesi(ctx);
                to = if at_home || self.peers.is_empty() {
                    self.home.for_block(block)
                } else {
                    let i = ctx.rng().gen_range(0..self.peers.len());
                    self.peers[i]
                };
                msg = MesiMsg::new(block, kind).into();
            }
        }
        ctx.send(to, msg);
        self.sent += 1;
        ctx.note_progress();
        let delay = ctx.rng().gen_range(1..=30u64);
        ctx.wake_in(delay, 0);
    }

    fn report(&self, out: &mut Report) {
        out.add(format_args!("{}.sent", self.name), self.sent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_text_round_trips() {
        let mut rng = SmallRng::seed_from_u64(7);
        for len in [0usize, 1, 17] {
            let s = Schedule::random(&mut rng, len, &[0, 5, 0x40000]);
            let back = Schedule::from_text(&s.to_text()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn schedule_parse_rejects_garbage() {
        assert!(Schedule::from_text("").is_err());
        assert!(Schedule::from_text("not-a-schedule\n").is_err());
        assert!(Schedule::from_text("xg-schedule v1\nq 1 2 3\n").is_err());
        assert!(Schedule::from_text("xg-schedule v1\ns 1 2\n").is_err());
        assert!(Schedule::from_text("xg-schedule v1\ns a b c d e\n").is_err());
        let why =
            Schedule::from_text("xg-schedule v1\ns 1 2 0 1 0\n\ns 18446744073709551615 1 0 1 0\n")
                .unwrap_err();
        assert!(
            why.starts_with("line 4: delay 18446744073709551615"),
            "{why}"
        );
        let cap = format!("xg-schedule v1\ns {MAX_CYCLES} 1 0 1 0\n");
        assert_eq!(
            Schedule::from_text(&cap).unwrap().steps[0].delay,
            MAX_CYCLES
        );
    }

    #[test]
    fn schedule_parse_normalizes_codes() {
        let s = Schedule::from_text("xg-schedule v1\ns 0 3 200 9 1\nr 1 250 0\n").unwrap();
        assert!(s.steps[0].kind < FUZZ_KIND_CODES);
        assert!((1..=3).contains(&s.steps[0].payload_blocks));
        assert!(s.responses[0].kind < INV_RESPONSE_CODES);
        assert!((1..=3).contains(&s.responses[0].payload_blocks));
    }

    #[test]
    fn scripted_kind_covers_every_code() {
        let kinds: Vec<XgiKind> = (0..FUZZ_KIND_CODES)
            .map(|k| {
                scripted_kind(FuzzStep {
                    delay: 1,
                    block: 0,
                    kind: k,
                    payload_blocks: 1,
                    fill: 0,
                })
            })
            .collect();
        assert!(matches!(kinds[0], XgiKind::GetS));
        assert!(matches!(kinds[12], XgiKind::Inv));
        // All thirteen codes decode to distinct kinds.
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                assert_ne!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "codes decode to duplicate kinds"
                );
            }
        }
    }
}
