//! The small-model world: one guard persona, one modified host controller,
//! one host CPU cache, one scripted chaos accelerator, one probe core.
//!
//! A world is a [`SystemConfig`] ([`WorldSpec::system`]: one CPU with a
//! tiny cache, a `FuzzXg` accelerator slot) wired by
//! [`xg_harness::build_system`], the builder every stress and fuzz run
//! uses. Only the two stimulus components are the checker's own: the
//! factory makes a [`ProbeCore`] for the CPU core slot and a
//! [`ChaosAccel`] for the accelerator's stand-in slot.
//!
//! All state is reachable from the [`WorldSpec`] plus a [`crate::Script`]:
//! [`crate::replay`] builds a world from scratch and runs the script. The
//! explorer builds one world per worker and moves it between states with
//! [`xg_sim::Simulator::restore`], so every component here and in the host
//! and guard crates is `Component::cloneable`: `CloneComponent::box_clone`
//! is what a kept state is made of, and `CloneComponent::restore_into` how
//! the worker's world is overwritten with it, in place, before every step,
//! and the chaos accelerator's choice list can be extended in place
//! ([`ChaosAccel::extend_choices`]) to stand for the longer list a child
//! script would have been built with. Two knobs exist purely for the
//! canonicalization tests: the node registration order
//! ([`WorldSpec::node_order`]) and the attack-block base address
//! ([`WorldSpec::attack_base`]) can be permuted/shifted without changing
//! any canonical state digest.
//!
//! The value alphabet is deliberately finite — the probe stores fixed
//! constants, the chaos accelerator sends fixed fills — so the reachable
//! digest set closes and exhaustive exploration terminates.

use xg_core::{OsPolicy, XgConfig, XgVariant};
use xg_harness::fuzz::inv_response;
use xg_harness::system::CoreSlot;
use xg_harness::{build_system, AccelOrg, ExecSim, HostProtocol, SystemConfig};
use xg_mem::{BlockAddr, DataBlock, PagePerm, PermissionTable, BLOCK_BYTES};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, Sim, XgData, XgiKind, XgiMsg};
use xg_sim::{CheckDigest, CloneComponent, Component, NodeId, Report};

use crate::script::{CpuOp, ACCEL_KIND_CODES, INV_CHOICE_CODES};

/// Fill byte for scripted accelerator request payloads.
pub const STEP_FILL: u8 = 0x11;
/// Fill byte for scripted invalidation-response payloads.
pub const INV_FILL: u8 = 0xA5;
/// Value the probe stores to the read-only window word.
pub const W_VALUE: u64 = 0x51;
/// Value the probe stores to the first attack word.
pub const A_VALUE: u64 = 0x52;

/// Block index of the CPU-private read-only window (the fuzz campaign's
/// CPU pool block): a page the accelerator may read but never write.
pub const WINDOW_BLOCK: u64 = 0x4_0000;
/// Block index of the forbidden block: a page with no permissions at all.
pub const FORBIDDEN_BLOCK: u64 = 0x8_0000;

/// Which guard persona (and host protocol) the world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persona {
    /// AMD-Hammer-style broadcast host with the Hammer persona.
    Hammer,
    /// Inclusive-L2 MESI host with the MESI persona.
    Mesi,
}

impl Persona {
    /// Both personas, in canonical order.
    pub const ALL: [Persona; 2] = [Persona::Hammer, Persona::Mesi];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Persona::Hammer => "hammer",
            Persona::Mesi => "mesi",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Persona> {
        match s {
            "hammer" => Some(Persona::Hammer),
            "mesi" => Some(Persona::Mesi),
            _ => None,
        }
    }
}

/// The six node roles of a checker world, in canonical digest order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The probe CPU core.
    Probe,
    /// The host CPU cache (Hammer cache / MESI L1).
    CpuCache,
    /// The home node (Hammer directory / MESI shared L2).
    Home,
    /// The OS (policy engine).
    Os,
    /// The Crossing Guard instance.
    Guard,
    /// The scripted chaos accelerator.
    Chaos,
}

impl Role {
    /// Canonical role order; digests always fold components in this order
    /// regardless of registration order.
    pub const ALL: [Role; 6] = [
        Role::Probe,
        Role::CpuCache,
        Role::Home,
        Role::Os,
        Role::Guard,
        Role::Chaos,
    ];

    /// The order [`build_system`] builds the roles in: the CPU cache, the
    /// home, the OS, the guard and its stand-in, then the core.
    const BUILT: [Role; 6] = [
        Role::CpuCache,
        Role::Home,
        Role::Os,
        Role::Guard,
        Role::Chaos,
        Role::Probe,
    ];
}

/// Specification of one checker world.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Guard persona / host protocol.
    pub persona: Persona,
    /// Number of attack blocks (the addresses the model checks over).
    pub attack_blocks: u64,
    /// First attack block index. Varying it relabels every attack address
    /// without changing canonical digests (keep it even so set-index
    /// congruence in the 2-set caches is preserved).
    pub attack_base: u64,
    /// Simulation seed (link latency draws).
    pub seed: u64,
    /// Node registration order, a permutation of [`Role::ALL`]. Digests
    /// are invariant under this permutation.
    pub node_order: [Role; 6],
    /// Plants the guard's test-only swallowed-invalidation bug.
    pub swallow_invs: bool,
    /// Geometry (sets, ways) of the MESI home's shared L2; Hammer's home
    /// caches nothing. The default `(2, 1)` keeps the attack blocks of an
    /// even base in two sets; `(1, 1)` puts every block in one set, so
    /// touching one block evicts another.
    pub l2_cache: (usize, usize),
}

impl WorldSpec {
    /// The default world for a persona: one attack block, canonical node
    /// order, no planted bug.
    pub fn new(persona: Persona) -> Self {
        WorldSpec {
            persona,
            attack_blocks: 1,
            attack_base: 0,
            seed: 0x00C0_FFEE,
            node_order: Role::ALL,
            swallow_invs: false,
            l2_cache: (2, 1),
        }
    }

    /// The most attack blocks a spec may have: together with the window
    /// and the forbidden block they make the accelerator's address list,
    /// which a [`crate::Step`] indexes with a `u8`.
    pub const MAX_ATTACK_BLOCKS: u64 = u8::MAX as u64 - 2;

    /// The same spec with `n` attack blocks.
    pub fn with_attack_blocks(mut self, n: u64) -> Self {
        self.attack_blocks = n;
        self
    }

    /// Whether this spec's address count is one a [`crate::Step`] can
    /// index; the error says what is wrong. [`build_world`] and
    /// [`crate::step_alphabet`] panic on a spec that fails this.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=Self::MAX_ATTACK_BLOCKS).contains(&self.attack_blocks) {
            return Err(format!(
                "{} attack blocks: a world has 1 to {} (a step names an address with a u8)",
                self.attack_blocks,
                Self::MAX_ATTACK_BLOCKS
            ));
        }
        Ok(())
    }

    /// The system a world of this spec is: one CPU core, the persona's
    /// host with tiny caches (effectively direct-mapped, so capacity
    /// conflicts — evictions, recalls — are reachable within a handful of
    /// steps, and single-way sets make LRU metadata irrelevant: the digests
    /// exclude recency) and a Full State guard fronting a `FuzzXg` slot,
    /// whose stand-in is the chaos accelerator. Its node order is
    /// [`WorldSpec::node_order`]'s.
    ///
    /// # Panics
    /// Panics if `node_order` is not a permutation of [`Role::ALL`].
    pub fn system(&self) -> SystemConfig {
        let id = |role: Role| {
            self.node_order
                .iter()
                .position(|&r| r == role)
                .expect("node_order must be a permutation of Role::ALL")
        };
        SystemConfig {
            host: match self.persona {
                Persona::Hammer => HostProtocol::Hammer,
                Persona::Mesi => HostProtocol::Mesi,
            },
            cpu_cores: 1,
            cpu_cache: (2, 1),
            l2_cache: self.l2_cache,
            mem_latency: 10,
            accel: AccelOrg::FuzzXg {
                variant: XgVariant::FullState,
            },
            xg: XgConfig {
                perms: self.perms(),
                test_swallow_invs: self.swallow_invs,
                ..XgConfig::default()
            },
            seed: self.seed,
            node_order: Role::BUILT.map(id).to_vec(),
            ..SystemConfig::default()
        }
    }

    /// Accelerator-visible block addresses: attack blocks, then the
    /// read-only window, then the forbidden block.
    pub fn accel_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = (0..self.attack_blocks)
            .map(|i| self.attack_base + i)
            .collect();
        v.push(WINDOW_BLOCK);
        v.push(FORBIDDEN_BLOCK);
        v
    }

    /// CPU-visible word (byte) addresses: first attack block, read-only
    /// window.
    pub fn cpu_words(&self) -> Vec<u64> {
        vec![self.attack_base * BLOCK_BYTES, WINDOW_BLOCK * BLOCK_BYTES]
    }

    /// Page-permission table: everything read-write except the window
    /// (read-only) and the forbidden page (no access).
    pub fn perms(&self) -> PermissionTable {
        let mut t = PermissionTable::with_default(PagePerm::ReadWrite);
        t.set(BlockAddr::new(WINDOW_BLOCK).page(), PagePerm::Read);
        t.set(BlockAddr::new(FORBIDDEN_BLOCK).page(), PagePerm::None);
        t
    }

    /// A digest carrying the roles of a world built from this spec, to be
    /// [`reset`](CheckDigest::reset) and reused for every state of it:
    /// nodes in [`Role::ALL`] order, and attack block `i` gets address
    /// role `i`, then the window, then the forbidden block.
    pub fn digest_for(&self, ids: &RoleIds) -> CheckDigest {
        let mut d = CheckDigest::new();
        for (role, block) in self.accel_blocks().into_iter().enumerate() {
            d.assign_addr_role(block, role as u64);
        }
        for (i, &role) in Role::ALL.iter().enumerate() {
            d.assign_node_role(ids.of(role), i as u64);
        }
        d
    }
}

/// The node ids of a built world, by role.
#[derive(Debug, Clone, Copy)]
pub struct RoleIds {
    /// Probe core node.
    pub probe: NodeId,
    /// CPU cache node.
    pub cpu_cache: NodeId,
    /// Home node.
    pub home: NodeId,
    /// OS node.
    pub os: NodeId,
    /// Guard node.
    pub xg: NodeId,
    /// Chaos accelerator node.
    pub chaos: NodeId,
}

impl RoleIds {
    /// The node id playing `role`.
    pub fn of(&self, role: Role) -> NodeId {
        match role {
            Role::Probe => self.probe,
            Role::CpuCache => self.cpu_cache,
            Role::Home => self.home,
            Role::Os => self.os,
            Role::Guard => self.xg,
            Role::Chaos => self.chaos,
        }
    }
}

/// A built world, ready to replay a script against.
pub struct World {
    /// The simulator.
    pub sim: Sim,
    /// Node ids by role.
    pub ids: RoleIds,
}

/// Builds the world for `spec` with the given invalidation choices baked
/// into the chaos accelerator.
pub fn build_world(spec: &WorldSpec, choices: &[u8]) -> World {
    if let Err(why) = spec.check() {
        panic!("invalid WorldSpec: {why}");
    }
    let system = build_system(
        &spec.system(),
        OsPolicy::ReportOnly,
        None,
        |slot, node, _| match slot {
            CoreSlot::Cpu(_) => Box::new(ProbeCore::new(
                "probe",
                node,
                spec.cpu_words(),
                WINDOW_BLOCK * BLOCK_BYTES,
            )),
            CoreSlot::Accel(_) => Box::new(ChaosAccel::new(
                "chaos",
                node,
                spec.accel_blocks(),
                choices.to_vec(),
            )),
        },
    );
    let ids = RoleIds {
        probe: system.cpu_cores[0],
        cpu_cache: system.cpu_caches[0],
        home: system.homes[0],
        os: system.os,
        xg: system.xg.expect("the world is guarded"),
        chaos: system.fuzzer.expect("the chaos accelerator stands in"),
    };
    let ExecSim::Serial(sim) = system.sim;
    World { sim, ids }
}

/// The scripted chaos accelerator: a stateless XGI message injector.
///
/// Steps arrive as wake tokens (`kind | addr_idx << 8`) posted by the
/// replay driver. Host-initiated invalidations consume the scripted choice
/// list in arrival order; invalidations past the end of the list stay
/// silent and are counted, so the explorer can lazily branch on them.
pub struct ChaosAccel {
    name: String,
    xg: NodeId,
    blocks: Vec<u64>,
    choices: Vec<u8>,
    consumed: usize,
    unscripted: u64,
    forbidden_data: u64,
    ro_exclusive: u64,
}

xg_sim::clone_in_place!(impl[] for ChaosAccel {
    name,
    xg,
    blocks,
    choices,
    consumed,
    unscripted,
    forbidden_data,
    ro_exclusive,
});

impl ChaosAccel {
    /// Creates the injector with its scripted invalidation choices.
    pub fn new(name: impl Into<String>, xg: NodeId, blocks: Vec<u64>, choices: Vec<u8>) -> Self {
        ChaosAccel {
            name: name.into(),
            xg,
            blocks,
            choices,
            consumed: 0,
            unscripted: 0,
            forbidden_data: 0,
            ro_exclusive: 0,
        }
    }

    /// Appends scripted choices for invalidations yet to arrive — how the
    /// explorer turns a restored parent state into the world
    /// [`build_world`] would have built for a child script.
    pub fn extend_choices(&mut self, more: &[u8]) {
        self.choices.extend_from_slice(more);
    }

    /// Invalidations that arrived past the end of the scripted choice
    /// list (they stayed silent).
    pub fn unscripted_invs(&self) -> u64 {
        self.unscripted
    }

    /// Scripted choices not yet consumed: how many more invalidations the
    /// script answers before one arrives unscripted.
    pub fn remaining_choices(&self) -> usize {
        self.choices.len() - self.consumed
    }

    /// Whether `msg`, delivered to the injector, is an invalidation — one
    /// that consumes a scripted choice, or arrives unscripted.
    pub fn consumes_choice(msg: &Message) -> bool {
        matches!(msg, Message::Xgi(m) if matches!(m.kind, XgiKind::Inv))
    }

    /// Data responses received for the forbidden block (must stay zero:
    /// Guarantee 0a).
    pub fn forbidden_data(&self) -> u64 {
        self.forbidden_data
    }

    /// Exclusive/modified data responses received for the read-only
    /// window (must stay zero: Guarantee 0b).
    pub fn ro_exclusive_data(&self) -> u64 {
        self.ro_exclusive
    }

    /// Encodes a step as a wake token.
    pub fn token(kind: u8, addr_idx: u8) -> u64 {
        u64::from(kind) | (u64::from(addr_idx) << 8)
    }

    fn payload(blocks: usize) -> XgData {
        match blocks {
            1 => XgData::single(DataBlock::splat(STEP_FILL)),
            n => XgData::from_blocks(vec![DataBlock::splat(STEP_FILL); n]),
        }
    }
}

impl Component<Message> for ChaosAccel {
    fn name(&self) -> &str {
        &self.name
    }

    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let kind_code = (token & 0xFF) as u8 % ACCEL_KIND_CODES;
        let addr_idx = ((token >> 8) & 0xFF) as usize % self.blocks.len();
        let block = BlockAddr::new(self.blocks[addr_idx]);
        // Past the interface's own kinds, the malformed step: a two-block
        // payload in a one-block world.
        let kind =
            XgiKind::from_code(kind_code, || Self::payload(1)).unwrap_or_else(|| XgiKind::PutM {
                data: Self::payload(2),
            });
        ctx.send(self.xg, XgiMsg::new(block, kind).into());
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Xgi(m) = msg else { return };
        let inv_data = || XgData::single(DataBlock::splat(INV_FILL));
        match m.kind {
            XgiKind::Inv => {
                if self.consumed < self.choices.len() {
                    let choice = self.choices[self.consumed] % INV_CHOICE_CODES;
                    self.consumed += 1;
                    // 0 is silence; past it, the fuzzer's response codes.
                    if choice > 0 {
                        for kind in inv_response(choice - 1, inv_data) {
                            ctx.send(self.xg, XgiMsg::new(m.addr, kind).into());
                        }
                    }
                } else {
                    self.unscripted += 1;
                }
            }
            XgiKind::DataS { .. } | XgiKind::DataE { .. } | XgiKind::DataM { .. } => {
                let addr = m.addr.as_u64();
                if addr == FORBIDDEN_BLOCK {
                    self.forbidden_data += 1;
                }
                if addr == WINDOW_BLOCK && !matches!(m.kind, XgiKind::DataS { .. }) {
                    self.ro_exclusive += 1;
                }
            }
            _ => {}
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        // The injector holds no protocol state; only the Guarantee-0
        // counters are digested (nonzero only in violating states, which
        // the explorer never expands) so a violating state can never alias
        // a clean one. Choice-consumption bookkeeping is script progress,
        // not world state, and is deliberately excluded.
        out.write_str("chaos");
        out.write_u64(self.forbidden_data);
        out.write_u64(self.ro_exclusive);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.unscripted_invs"), self.unscripted);
        out.add(format_args!("{n}.forbidden_data"), self.forbidden_data);
        out.add(format_args!("{n}.ro_exclusive_data"), self.ro_exclusive);
    }

    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }
}

/// The probe CPU core: issues scripted loads/stores/flushes and checks
/// every loaded value against the world's finite value alphabet.
///
/// The read-only window carries the strict Guarantee-1 oracle: the
/// accelerator cannot write that page, so a load must see exactly the
/// probe's own store (or zero before it). Attack blocks are
/// accelerator-writable, so their loads only check membership in the legal
/// value set (probe constant, chaos fills, fabricated zero).
pub struct ProbeCore {
    name: String,
    cache: NodeId,
    words: Vec<u64>,
    window_word: u64,
    in_flight: Option<(u64, CpuOp)>,
    next_id: u64,
    window_stored: bool,
    completed: u64,
    data_errors: u64,
}

xg_sim::clone_in_place!(impl[] for ProbeCore {
    name,
    cache,
    words,
    window_word,
    in_flight,
    next_id,
    window_stored,
    completed,
    data_errors,
});

impl ProbeCore {
    /// Creates the probe issuing to `cache` over the given word pool.
    pub fn new(name: impl Into<String>, cache: NodeId, words: Vec<u64>, window_word: u64) -> Self {
        ProbeCore {
            name: name.into(),
            cache,
            words,
            window_word,
            in_flight: None,
            next_id: 0,
            window_stored: false,
            completed: 0,
            data_errors: 0,
        }
    }

    /// Value-oracle failures observed (must be zero: Guarantee 1).
    pub fn data_errors(&self) -> u64 {
        self.data_errors
    }

    /// Encodes a CPU step as a wake token.
    pub fn token(op: CpuOp, addr_idx: u8) -> u64 {
        let code = match op {
            CpuOp::Load => 0u64,
            CpuOp::Store => 1,
            CpuOp::Flush => 2,
        };
        code | (u64::from(addr_idx) << 8)
    }

    /// Counts a loaded `value` of `word` outside what the oracle allows:
    /// exactly the probe's own store (or zero before it) on the window,
    /// any value of the legal set on an attack word.
    fn check_value(&mut self, word: u64, value: u64) {
        let legal = if word == self.window_word {
            value == if self.window_stored { W_VALUE } else { 0 }
        } else {
            let splat = |b: u8| u64::from_le_bytes([b; 8]);
            [0, A_VALUE, splat(STEP_FILL), splat(INV_FILL)].contains(&value)
        };
        self.data_errors += u64::from(!legal);
    }
}

impl Component<Message> for ProbeCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if self.in_flight.is_some() {
            // Only reachable if the previous operation wedged — that state
            // is a deadlock and the explorer never expands it, so a stray
            // wake here is dropped rather than double-issued.
            return;
        }
        let op = match token & 0xFF {
            0 => CpuOp::Load,
            1 => CpuOp::Store,
            _ => CpuOp::Flush,
        };
        let idx = ((token >> 8) & 0xFF) as usize % self.words.len();
        let word = self.words[idx];
        let kind = match op {
            CpuOp::Load => CoreKind::Load,
            CpuOp::Store => CoreKind::Store {
                value: if word == self.window_word {
                    W_VALUE
                } else {
                    A_VALUE
                },
            },
            CpuOp::Flush => CoreKind::Flush,
        };
        let id = self.next_id;
        self.next_id += 1;
        self.in_flight = Some((word, op));
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: xg_mem::Addr::new(word),
                kind,
            }
            .into(),
        );
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        let Some((word, op)) = self.in_flight.take() else {
            return;
        };
        match c.kind {
            CoreKind::LoadResp { value } => self.check_value(word, value),
            CoreKind::StoreResp => {
                if word == self.window_word && op == CpuOp::Store {
                    self.window_stored = true;
                }
            }
            CoreKind::FlushResp => {}
            _ => {
                self.in_flight = Some((word, op));
                return;
            }
        }
        self.completed += 1;
        ctx.note_progress();
    }

    fn check_state(&self, out: &mut CheckDigest) {
        out.write_str("probe");
        // A drained state with an unanswered CPU operation owes work.
        match self.in_flight {
            Some((word, op)) => {
                out.obligation(1);
                out.write_u64(match op {
                    CpuOp::Load => 0,
                    CpuOp::Store => 1,
                    CpuOp::Flush => 2,
                });
                out.write_addr(word / BLOCK_BYTES);
            }
            None => out.write_str("idle"),
        }
        // The oracle's own state: whether the window store landed changes
        // what future loads must see, and errors mark violating states.
        out.write_u64(u64::from(self.window_stored));
        out.write_u64(self.data_errors);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.ops_completed"), self.completed);
        out.add(format_args!("{n}.data_errors"), self.data_errors);
        out.add(
            format_args!("{n}.outstanding"),
            u64::from(self.in_flight.is_some()),
        );
    }

    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Script, Step};
    use xg_core::{CrossingGuard, Os};
    use xg_host_hammer::{HammerCache, HammerDirectory};
    use xg_host_mesi::{MesiL1, MesiL2};
    use xg_mem::PageAddr;

    #[test]
    fn spec_addresses_and_perms() {
        let spec = WorldSpec::new(Persona::Hammer).with_attack_blocks(2);
        assert_eq!(
            spec.accel_blocks(),
            vec![0, 1, WINDOW_BLOCK, FORBIDDEN_BLOCK]
        );
        assert_eq!(spec.cpu_words(), vec![0, WINDOW_BLOCK * 64]);
        let perms = spec.perms();
        assert!(perms.get(PageAddr::new(0)).allows_write());
        let w_page = BlockAddr::new(WINDOW_BLOCK).page();
        assert!(perms.get(w_page).allows_read());
        assert!(!perms.get(w_page).allows_write());
        assert!(!perms
            .get(BlockAddr::new(FORBIDDEN_BLOCK).page())
            .allows_read());
    }

    /// Every component of both worlds opts into checkpointing, and a copy
    /// of it restores into it in place.
    #[test]
    fn every_component_of_both_worlds_restores_in_place() {
        fn in_place<T: Component<Message>>(world: &mut World, role: Role) -> bool {
            let id = world.ids.of(role);
            let component = world.sim.get_mut::<T>(id).expect("role has this type");
            let Some(saved) = component.cloneable().map(CloneComponent::box_clone) else {
                return false;
            };
            let copy = saved.cloneable().expect("a copy is cloneable too");
            copy.restore_into(component);
            true
        }
        for persona in Persona::ALL {
            let w = &mut build_world(&WorldSpec::new(persona), &[]);
            let by_role = [
                (Role::Probe, in_place::<ProbeCore>(w, Role::Probe)),
                (Role::Os, in_place::<Os>(w, Role::Os)),
                (Role::Guard, in_place::<CrossingGuard>(w, Role::Guard)),
                (Role::Chaos, in_place::<ChaosAccel>(w, Role::Chaos)),
                match persona {
                    Persona::Hammer => (Role::CpuCache, in_place::<HammerCache>(w, Role::CpuCache)),
                    Persona::Mesi => (Role::CpuCache, in_place::<MesiL1>(w, Role::CpuCache)),
                },
                match persona {
                    Persona::Hammer => (Role::Home, in_place::<HammerDirectory>(w, Role::Home)),
                    Persona::Mesi => (Role::Home, in_place::<MesiL2>(w, Role::Home)),
                },
            ];
            for (role, restored) in by_role {
                assert!(restored, "{persona:?} {role:?} is not cloneable");
            }
            assert_eq!(by_role.len(), Role::ALL.len());
        }
    }

    /// Which persona a guard holds is part of what a checkpoint restores: a
    /// guard restored from a checkpoint of the *other* persona takes that
    /// persona whole — its open transaction included — and digests as the
    /// guard that was saved.
    #[test]
    fn a_guard_restored_across_personas_is_replaced_not_half_copied() {
        fn guard(w: &World) -> &CrossingGuard {
            w.sim.get::<CrossingGuard>(w.ids.xg).expect("guard")
        }
        let digest_of = |w: &World, spec: &WorldSpec| {
            let mut d = spec.digest_for(&w.ids);
            guard(w).check_state(&mut d);
            (d.finish(), guard(w).storage_bytes())
        };
        for (saved, live) in [
            (Persona::Mesi, Persona::Hammer),
            (Persona::Hammer, Persona::Mesi),
        ] {
            let (saved_spec, live_spec) = (WorldSpec::new(saved), WorldSpec::new(live));
            // Step the saved world until its guard holds an open host Get.
            let mut from = build_world(&saved_spec, &[]);
            let get_s = ChaosAccel::token(0, 0);
            from.sim.post_wake(from.ids.chaos, 1, get_s);
            while guard(&from).storage_bytes() == 0 {
                assert!(from.sim.step(), "{saved:?}: GetS never reached the guard");
            }
            let want = digest_of(&from, &saved_spec);
            let mut into = build_world(&live_spec, &[]);
            assert_ne!(digest_of(&into, &live_spec), want);

            let live_guard = into.sim.get_mut::<CrossingGuard>(into.ids.xg);
            guard(&from).restore_into(live_guard.expect("guard"));
            let got = digest_of(&into, &live_spec);
            assert_eq!(got, want, "{saved:?} into {live:?}");
        }
    }

    #[test]
    fn build_world_accepts_any_node_order() {
        let mut spec = WorldSpec::new(Persona::Mesi);
        spec.node_order = [
            Role::Chaos,
            Role::Guard,
            Role::Os,
            Role::Home,
            Role::CpuCache,
            Role::Probe,
        ];
        let w = build_world(&spec, &[]);
        for (i, role) in spec.node_order.into_iter().enumerate() {
            assert_eq!(w.ids.of(role), NodeId::from_index(i), "{role:?}");
        }
        assert_eq!(w.sim.component_names()[0], "chaos");
    }

    /// Item 4's shape: with a one-set, one-way MESI L2 the two attack
    /// blocks share a set, so the accelerator taking the second evicts the
    /// first — a recall the guard answers through the chaos accelerator —
    /// and the world drains clean.
    #[test]
    fn two_attack_blocks_in_one_l2_set_evict_each_other() {
        let spec = WorldSpec {
            l2_cache: (1, 1),
            ..WorldSpec::new(Persona::Mesi).with_attack_blocks(2)
        };
        let script = Script {
            steps: vec![
                Step::Accel { kind: 1, addr: 0 },
                Step::Accel { kind: 1, addr: 1 },
            ],
            choices: vec![3],
        };
        let out = crate::replay(&spec, &script);
        assert!(out.verdict.is_clean(), "{:?}", out.verdict.violation());
        assert_eq!(out.report.get("host_l2.recalls"), 1);
        assert_eq!(
            out.unscripted_invs, 0,
            "the recall's Inv took the script's reply"
        );
        let apart = crate::replay(
            &WorldSpec::new(Persona::Mesi).with_attack_blocks(2),
            &script,
        );
        assert_eq!(apart.report.get("host_l2.recalls"), 0, "two sets keep both");
    }

    #[test]
    fn probe_oracle_flags_corrupt_window_values() {
        let mut p = ProbeCore::new("p", NodeId::from_index(0), vec![0, 64], 64);
        p.check_value(0, u64::from_le_bytes([INV_FILL; 8]));
        assert_eq!(p.data_errors(), 0, "attack word may carry chaos fill");
        p.check_value(64, u64::from_le_bytes([INV_FILL; 8]));
        assert_eq!(p.data_errors(), 1, "window word must not");
        p.window_stored = true;
        p.check_value(64, W_VALUE);
        assert_eq!(p.data_errors(), 1, "own store is the only legal value");
        p.check_value(64, 0);
        assert_eq!(p.data_errors(), 2, "lost store is a violation");
    }
}
