//! System assembly: builds a simulator for any [`SystemConfig`].
//!
//! A system has one host protocol (Hammer directory or MESI shared L2),
//! `cpu_cores` host caches, one OS model, and *N independent accelerator
//! hierarchies* ([`SystemConfig::accel_slots`]): each hierarchy gets its
//! own guard instance (where guarded), its own cache organization, and its
//! own host-protocol node identity on the home's peer list. Instance 0
//! keeps the historical single-accelerator component names (`xg`,
//! `accel_l1`, ...); instance `k > 0` prefixes them with `a{k}_`.
//!
//! Every system is wired here: the stress tester, the fuzzer and the model
//! checker's micro-worlds differ only in their [`SystemConfig`] and in the
//! components their factory makes for the core slots.

use xg_accel::{AccelL1, AccelL1Config, AccelL2, AccelL2Config};
use xg_core::{CrossingGuard, Os, OsPolicy, XgConfig};
use xg_host_hammer::{HammerCache, HammerConfig, HammerDirectory};
use xg_host_mesi::{MesiL1, MesiL1Config, MesiL2, MesiL2Config};
use xg_proto::{HomeMap, Message, Sim, SimBuilder};
use xg_sim::{Component, Link, NodeId, ProfileConfig};

use crate::config::{AccelOrg, AccelSlot, HostProtocol, SystemConfig};
use crate::fuzz::{FuzzHostCache, FuzzOpts};

/// Latency range of the host on-chip network (unordered), which also
/// carries the guard ↔ home links.
const HOST_LINK: (u64, u64) = (2, 10);

/// Latency range of the chip crossing, on every link that crosses it: a
/// guard to its accelerator, an accelerator-side cache or a host-facing
/// fuzzer to its homes, and a host-side accelerator core to its cache.
const CROSSING: (u64, u64) = (40, 60);

/// Where a core sits, passed to the core factory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSlot {
    /// CPU core `i`; its global core index equals `i`.
    Cpu(usize),
    /// Accelerator core `i` (numbered across every hierarchy); its global
    /// core index is `cpu_cores + i`. Past the last of the `a` cores,
    /// `Accel(a + k)` is the stand-in of `FuzzXg` hierarchy `k`: the
    /// component that plays the accelerator at its guard's interface.
    Accel(usize),
}

/// Accelerator cores across every hierarchy of `cfg`: the first slot past
/// them is a `FuzzXg` stand-in's ([`CoreSlot::Accel`]).
pub fn accel_cores_of(cfg: &SystemConfig) -> usize {
    (cfg.accel_slots().iter())
        .map(|slot| accel_core_count(&slot.org, cfg.accel_cores))
        .sum()
}

/// The component-name prefix of accelerator hierarchy `k`: none for the
/// first, `a{k}_` after it.
pub(crate) fn instance_prefix(k: usize) -> String {
    if k == 0 {
        String::new()
    } else {
        format!("a{k}_")
    }
}

/// Number of cores the topology builder attaches to a hierarchy with
/// organization `org` (fuzzers stand in for the cores; only the two-level
/// guard fans out to `accel_cores` private L1s).
pub fn accel_core_count(org: &AccelOrg, accel_cores: usize) -> usize {
    match org {
        AccelOrg::FuzzXg { .. } | AccelOrg::FuzzAccelSide => 0,
        AccelOrg::Xg {
            two_level: true, ..
        } => accel_cores,
        _ => 1,
    }
}

/// One accelerator hierarchy of a built system: the nodes a caller drives
/// or inspects directly. What the hierarchy did is in its components' own
/// report keys.
#[derive(Debug, Clone)]
pub struct GuardInstance {
    /// The hierarchy's organization.
    pub org: AccelOrg,
    /// The Crossing Guard node, if this hierarchy has one.
    pub xg: Option<NodeId>,
    /// The fuzzer node, if this hierarchy is a fuzzing stand-in.
    pub fuzzer: Option<NodeId>,
    /// The cache(s) this hierarchy's cores talk to.
    pub frontends: Vec<NodeId>,
}

/// The simulation behind a [`BuiltSystem`].
///
/// A one-variant enum only because the frozen `benchmark/` package names
/// `ExecSim::Serial(..)` and calls `set_profile_config` on it; everything
/// else reaches the [`Sim`] through `Deref`. Once the benchmark drops those
/// two uses this becomes a plain `Sim` field (see ROADMAP).
pub enum ExecSim {
    /// The simulator.
    Serial(Sim),
}

impl std::ops::Deref for ExecSim {
    type Target = Sim;

    fn deref(&self) -> &Sim {
        let ExecSim::Serial(sim) = self;
        sim
    }
}

impl std::ops::DerefMut for ExecSim {
    fn deref_mut(&mut self) -> &mut Sim {
        let ExecSim::Serial(sim) = self;
        sim
    }
}

impl ExecSim {
    /// Applies a profile configuration before the first event is dispatched.
    pub fn set_profile_config(&mut self, config: ProfileConfig) {
        self.profiler_mut().set_config(config);
    }
}

/// A fully wired system ready to run.
pub struct BuiltSystem {
    /// The simulator (see [`ExecSim`]).
    pub sim: ExecSim,
    /// CPU core nodes (from the factory).
    pub cpu_cores: Vec<NodeId>,
    /// CPU cache nodes.
    pub cpu_caches: Vec<NodeId>,
    /// Accelerator core nodes across every hierarchy (empty in fuzz
    /// configurations).
    pub accel_cores: Vec<NodeId>,
    /// The cache each accelerator core talks to, across every hierarchy.
    pub accel_frontends: Vec<NodeId>,
    /// The home bank nodes — directories (Hammer) or shared-L2 slices
    /// (MESI), in bank order. One entry unless
    /// [`SystemConfig::home_banks`] `> 1`.
    pub homes: Vec<NodeId>,
    /// The OS model.
    pub os: NodeId,
    /// Per-hierarchy breakdown, in slot order.
    pub accels: Vec<GuardInstance>,
}

impl BuiltSystem {
    /// Kicks every core's issue loop (wake token 0 at staggered times).
    pub fn start_cores(&mut self) {
        let all: Vec<NodeId> = self
            .cpu_cores
            .iter()
            .chain(self.accel_cores.iter())
            .copied()
            .collect();
        for (i, core) in all.into_iter().enumerate() {
            self.sim.post_wake(core, 1 + i as u64, 0);
        }
        let fuzzers: Vec<NodeId> = self.accels.iter().filter_map(|a| a.fuzzer).collect();
        for (k, fuzzer) in fuzzers.into_iter().enumerate() {
            self.sim.post_wake(fuzzer, 1 + k as u64, 0);
        }
    }
}

/// Builds the system described by `cfg`. The `make_core` factory produces
/// each core component given its slot, the node it should talk to, and
/// its global core index (CPU cores first, then accelerator cores across
/// every hierarchy in slot order). A `FuzzXg` hierarchy's stand-in comes
/// from the same factory, in the slot past every core
/// ([`CoreSlot::Accel`]); it talks to its guard over the crossing and is
/// woken with the fuzzers, not counted as a core.
///
/// `FuzzAccelSide` slots need [`FuzzOpts`]; pass `None` otherwise. Every
/// such slot shares the same options.
///
/// # Panics
/// Panics if `FuzzAccelSide` is selected without `fuzz` options, or if
/// [`SystemConfig::node_order`] is neither empty nor a permutation of the
/// built nodes.
pub fn build_system(
    cfg: &SystemConfig,
    os_policy: OsPolicy,
    fuzz: Option<FuzzOpts>,
    mut make_core: impl FnMut(CoreSlot, NodeId, usize) -> Box<dyn Component<Message>>,
) -> BuiltSystem {
    let mut b = SimBuilder::new(cfg.seed);
    // Every id below is planned through the builder, so a node order
    // relabels the whole system.
    b.node_order(cfg.node_order.clone());
    // Label dispatched events by protocol-qualified message class so the
    // profiler can attribute hot paths (one function pointer; free when
    // profiling is off).
    b.event_label(Message::class);
    let n = cfg.cpu_cores;
    let slots = cfg.accel_slots();
    // Address-interleaved home banks: ids n..n+m, right after the CPU
    // caches. Every requester below routes per-block through this map.
    let m = cfg.home_banks.max(1);
    let homes: Vec<NodeId> = (0..m).map(|bank| b.planned_id(n + bank)).collect();
    let home_map = HomeMap::new(homes.clone());

    // ---- host caches (ids 0..n) ----
    // A private cache of the host's protocol, wherever one sits: a CPU's,
    // an accelerator-side cache, a host-side cache.
    let host_cache = |name: String, (sets, ways): (usize, usize)| -> Box<dyn Component<Message>> {
        match cfg.host {
            HostProtocol::Hammer => Box::new(HammerCache::new(
                name,
                home_map.clone(),
                HammerConfig {
                    sets,
                    ways,
                    strict: cfg.strict_host,
                    ..HammerConfig::default()
                },
            )),
            HostProtocol::Mesi => Box::new(MesiL1::new(
                name,
                home_map.clone(),
                MesiL1Config {
                    sets,
                    ways,
                    ..MesiL1Config::default()
                },
            )),
        }
    };
    let mut cpu_caches = Vec::new();
    for i in 0..n {
        // The home banks it routes to are added next.
        cpu_caches.push(b.add(host_cache(format!("cpu_cache{i}"), cfg.cpu_cache)));
    }

    // ---- layout bookkeeping for nodes added after the home banks ----
    let os_id = b.planned_id(n + m);

    // Plan every hierarchy's node-id block up front so the home's peer
    // list (one host-protocol identity per hierarchy) is known before any
    // accelerator node exists. A hierarchy's first node is that identity:
    // its cache, its guard or its raw fuzzer.
    let mut starts = Vec::with_capacity(slots.len());
    let mut next_free = n + m + 1;
    for slot in &slots {
        starts.push(next_free);
        next_free += match slot.org {
            AccelOrg::AccelSide | AccelOrg::HostSide | AccelOrg::FuzzAccelSide => 1,
            AccelOrg::Xg {
                two_level: true, ..
            } => 2 + cfg.accel_cores,
            AccelOrg::Xg { .. } | AccelOrg::FuzzXg { .. } => 2,
        };
    }
    let host_peers: Vec<NodeId> = starts.iter().map(|&start| b.planned_id(start)).collect();

    // ---- home bank nodes ----
    // Bank 0 keeps the historical name (`dir` / `host_l2`) when it is the
    // only bank, so single-bank reports stay byte-identical; banked
    // systems name every slice explicitly. Each bank only ever sees the
    // blocks that hash to it, so the controllers need no bank awareness —
    // every bank gets the full peer list.
    match cfg.host {
        HostProtocol::Hammer => {
            let mut peers = cpu_caches.clone();
            peers.extend(&host_peers);
            for (bank, &home) in homes.iter().enumerate() {
                let name = if m == 1 {
                    "dir".to_string()
                } else {
                    format!("dir{bank}")
                };
                let dir = b.add(Box::new(HammerDirectory::new(
                    name,
                    peers.clone(),
                    cfg.mem_latency,
                )));
                assert_eq!(dir, home);
            }
        }
        HostProtocol::Mesi => {
            for (bank, &home) in homes.iter().enumerate() {
                let name = if m == 1 {
                    "host_l2".to_string()
                } else {
                    format!("l2b{bank}")
                };
                let l2 = b.add(Box::new(MesiL2::new(
                    name,
                    MesiL2Config {
                        sets: cfg.l2_cache.0,
                        ways: cfg.l2_cache.1,
                        mem_latency: cfg.mem_latency,
                        ack_data_interchange: !cfg.strict_host,
                    },
                )));
                assert_eq!(l2, home);
            }
        }
    }

    // ---- OS ----
    let os = b.add(Box::new(Os::new("os", os_policy)));
    assert_eq!(os, os_id);

    // ---- accelerator hierarchies, in slot order ----
    let accel_l1_cfg = AccelL1Config {
        sets: cfg.accel_cache.0,
        ways: cfg.accel_cache.1,
        block_blocks: cfg.xg.block_blocks,
        prefetch: cfg.prefetch,
    };
    // The guard of one hierarchy; `accel_side` is the node above it.
    let guard = |name: String, accel_side: NodeId, variant, slot: &AccelSlot| {
        let mut xg_cfg = XgConfig {
            variant,
            ..cfg.xg.clone()
        };
        if let Some(perms) = &slot.perms {
            xg_cfg.perms = perms.clone();
        }
        let home = home_map.clone();
        let new_guard = match cfg.host {
            HostProtocol::Hammer => CrossingGuard::new_hammer,
            HostProtocol::Mesi => CrossingGuard::new_mesi,
        };
        Box::new(new_guard(name, accel_side, home, os_id, xg_cfg))
    };

    let accel_cores = accel_cores_of(cfg);
    let mut instances: Vec<GuardInstance> = Vec::new();
    for (k, (slot, &start)) in slots.iter().zip(&starts).enumerate() {
        // Instance 0 keeps the historical names so single-accelerator
        // reports stay byte-identical; later instances get `a{k}_`.
        let prefix = instance_prefix(k);
        let mut inst = GuardInstance {
            org: slot.org.clone(),
            xg: None,
            fuzzer: None,
            frontends: Vec::new(),
        };
        match &slot.org {
            AccelOrg::AccelSide => {
                let cache = b.add(host_cache(format!("{prefix}accel_cache"), cfg.accel_cache));
                // The accelerator-side cache reaches the host over the chip
                // crossing (one link per home bank).
                for &home in &homes {
                    b.link_bidi(cache, home, Link::unordered(CROSSING.0, CROSSING.1));
                }
                inst.frontends.push(cache);
            }
            AccelOrg::HostSide => {
                // Sized as a CPU's cache under Hammer, as a default L1
                // under MESI whatever `cpu_cache` says: an old asymmetry
                // the goldens pin.
                let geometry = match cfg.host {
                    HostProtocol::Hammer => cfg.cpu_cache,
                    HostProtocol::Mesi => {
                        let l1 = MesiL1Config::default();
                        (l1.sets, l1.ways)
                    }
                };
                let cache = b.add(host_cache(format!("{prefix}hostside_cache"), geometry));
                inst.frontends.push(cache);
                // The *core↔cache* link carries the crossing latency here:
                // the accelerator has no cache of its own (Figure 2(b)).
            }
            AccelOrg::Xg { variant, two_level } => {
                let top = b.planned_id(start + 1);
                let xg = b.add(guard(format!("{prefix}xg"), top, *variant, slot));
                inst.xg = Some(xg);
                link_guard_to_home(&mut b, cfg, xg, &homes);
                b.link_bidi(xg, top, Link::ordered(CROSSING.0, CROSSING.1));
                if *two_level {
                    let l2 = b.add(Box::new(AccelL2::new(
                        format!("{prefix}accel_l2"),
                        xg,
                        AccelL2Config {
                            sets: cfg.l2_cache.0,
                            ways: cfg.l2_cache.1,
                            block_blocks: cfg.xg.block_blocks,
                            weak_sharing: cfg.weak_accel_sharing,
                        },
                    )));
                    assert_eq!(l2, top);
                    for i in 0..cfg.accel_cores {
                        let l1 = b.add(Box::new(AccelL1::new(
                            format!("{prefix}accel_l1_{i}"),
                            l2,
                            accel_l1_cfg.clone(),
                        )));
                        b.link_bidi(l1, l2, Link::ordered(1, 3));
                        inst.frontends.push(l1);
                    }
                } else {
                    let l1 = b.add(Box::new(AccelL1::new(
                        format!("{prefix}accel_l1"),
                        xg,
                        accel_l1_cfg.clone(),
                    )));
                    assert_eq!(l1, top);
                    inst.frontends.push(l1);
                }
            }
            AccelOrg::FuzzXg { variant } => {
                let fuzzer = b.planned_id(start + 1);
                let xg = b.add(guard(format!("{prefix}xg"), fuzzer, *variant, slot));
                inst.xg = Some(xg);
                link_guard_to_home(&mut b, cfg, xg, &homes);
                let stand_in = accel_cores + k;
                let fz = b.add(make_core(CoreSlot::Accel(stand_in), xg, n + stand_in));
                assert_eq!(fz, fuzzer);
                inst.fuzzer = Some(fz);
                b.link_bidi(xg, fz, Link::ordered(CROSSING.0, CROSSING.1));
            }
            AccelOrg::FuzzAccelSide => {
                let opts = fuzz.clone().expect("FuzzAccelSide needs FuzzOpts");
                // This fuzzer speaks raw host protocol at the CPU caches and
                // every *other* hierarchy's host identity.
                let mut peers = cpu_caches.clone();
                peers.extend(
                    (host_peers.iter().enumerate()).filter_map(|(j, &p)| (j != k).then_some(p)),
                );
                let fz = b.add(Box::new(FuzzHostCache::new(
                    format!("{prefix}fuzz_host"),
                    cfg.host,
                    home_map.clone(),
                    peers,
                    opts,
                )));
                inst.fuzzer = Some(fz);
                for &home in &homes {
                    b.link_bidi(fz, home, Link::unordered(CROSSING.0, CROSSING.1));
                }
            }
        }
        let first = inst.xg.or(inst.fuzzer).or(inst.frontends.first().copied());
        assert_eq!(first, Some(host_peers[k]), "a hierarchy's host identity");
        instances.push(inst);
    }

    // ---- cores, added last so every frontend id is known ----
    let mut cpu_cores = Vec::new();
    for (i, &cache) in cpu_caches.iter().enumerate() {
        let core = b.add(make_core(CoreSlot::Cpu(i), cache, i));
        b.link_bidi(core, cache, Link::ordered(1, 1));
        cpu_cores.push(core);
    }
    let mut accel_cores = Vec::new();
    let mut ai = 0usize; // accelerator core index across hierarchies
    for inst in &instances {
        for i in 0..accel_core_count(&inst.org, cfg.accel_cores) {
            let frontend = inst.frontends[i.min(inst.frontends.len() - 1)];
            let core = b.add(make_core(CoreSlot::Accel(ai), frontend, n + ai));
            let link = if matches!(inst.org, AccelOrg::HostSide) {
                // Figure 2(b): every access crosses the chip boundary.
                Link::ordered(CROSSING.0, CROSSING.1)
            } else {
                Link::ordered(1, 1)
            };
            b.link_bidi(core, frontend, link);
            accel_cores.push(core);
            ai += 1;
        }
    }

    b.default_link(Link::unordered(HOST_LINK.0, HOST_LINK.1));

    let sim = ExecSim::Serial(b.build());

    BuiltSystem {
        sim,
        cpu_cores,
        cpu_caches,
        accel_cores,
        accel_frontends: instances
            .iter()
            .flat_map(|inst| inst.frontends.iter().copied())
            .collect(),
        homes,
        os,
        accels: instances,
    }
}

/// Wires the guard ↔ home-bank pairs. Without faults the pairs simply ride
/// the default (unordered host-network) link, exactly as before; with a
/// fault plan configured, both directions of every pair get an explicit
/// unordered link carrying the plan. The guard ↔ accelerator side stays
/// ordered and fault-free either way (§2.1).
fn link_guard_to_home(b: &mut SimBuilder, cfg: &SystemConfig, xg: NodeId, homes: &[NodeId]) {
    if cfg.host_faults.is_none() {
        return;
    }
    let link = Link::unordered(HOST_LINK.0, HOST_LINK.1).with_faults(cfg.host_faults);
    for &home in homes {
        b.link_bidi(xg, home, link);
    }
}
