//! End-to-end Crossing Guard tests: real hosts below, real (or scripted,
//! misbehaving) accelerators above.

use xg_accel::{AccelL1, AccelL1Config, AccelL2, AccelL2Config};
use xg_host_hammer::{HammerCache, HammerConfig, HammerDirectory};
use xg_host_mesi::{MesiL1, MesiL1Config, MesiL2, MesiL2Config};
use xg_mem::{Addr, PagePerm, PermissionTable};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, XgData, XgErrorKind, XgiKind, XgiMsg};
use xg_sim::{Component, Link, NodeId, SimBuilder};

use crate::{CrossingGuard, Os, OsPolicy, RateLimit, XgConfig, XgVariant};
use xg_mem::DataBlock;

/// Passive core probe.
struct Probe {
    name: String,
    responses: Vec<CoreMsg>,
}

impl Probe {
    fn new(name: impl Into<String>) -> Self {
        Probe {
            name: name.into(),
            responses: Vec::new(),
        }
    }
}

impl Component<Message> for Probe {
    fn name(&self) -> &str {
        &self.name
    }
    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        if let Message::Core(c) = msg {
            self.responses.push(c);
            ctx.note_progress();
        }
    }
}

/// A scriptable raw accelerator: records interface traffic; optionally
/// auto-answers `Inv` with a fixed response kind (or stays silent).
struct RawAccel {
    xg: NodeId,
    received: Vec<XgiMsg>,
    inv_response: InvBehavior,
}

#[derive(Clone)]
enum InvBehavior {
    Silent,
    InvAck,
    DirtyZero,
}

impl Component<Message> for RawAccel {
    fn name(&self) -> &str {
        "raw_accel"
    }
    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        if let Message::Xgi(m) = msg {
            if matches!(m.kind, XgiKind::Inv) {
                match self.inv_response {
                    InvBehavior::Silent => {}
                    InvBehavior::InvAck => {
                        ctx.send(self.xg, XgiMsg::new(m.addr, XgiKind::InvAck).into())
                    }
                    InvBehavior::DirtyZero => ctx.send(
                        self.xg,
                        XgiMsg::new(
                            m.addr,
                            XgiKind::DirtyWb {
                                data: XgData::zeroed(1),
                            },
                        )
                        .into(),
                    ),
                }
            }
            self.received.push(m);
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum HostKind {
    Hammer,
    Mesi,
}

/// Accelerator organization above the guard.
enum AccelKind {
    L1(AccelL1Config),
    TwoLevel { l1s: usize },
    Raw(InvBehavior),
}

struct Rig {
    sim: xg_proto::Sim,
    cores: Vec<NodeId>,
    host_caches: Vec<NodeId>,
    xg: NodeId,
    accel_frontends: Vec<NodeId>,
    accel_cores: Vec<NodeId>,
    next_id: u64,
}

fn build(
    host: HostKind,
    n_cpu: usize,
    accel: AccelKind,
    cfg: XgConfig,
    policy: OsPolicy,
    seed: u64,
) -> Rig {
    build_with(host, n_cpu, accel, cfg, policy, seed, None)
}

/// [`build`], with `guard_to_home` as the link the guard's host requests
/// take (the default host network otherwise).
fn build_with(
    host: HostKind,
    n_cpu: usize,
    accel: AccelKind,
    cfg: XgConfig,
    policy: OsPolicy,
    seed: u64,
    guard_to_home: Option<Link>,
) -> Rig {
    let mut b = SimBuilder::new(seed);
    let mut cores = Vec::new();
    for i in 0..n_cpu {
        cores.push(b.add(Box::new(Probe::new(format!("core{i}")))));
    }
    // Layout: cores, host caches, host home (dir/L2), os, xg, accel tree,
    // accel cores.
    let home = NodeId::from_index(2 * n_cpu);
    let os_id = NodeId::from_index(2 * n_cpu + 1);
    let xg_id = NodeId::from_index(2 * n_cpu + 2);
    let accel_top = NodeId::from_index(2 * n_cpu + 3);

    let mut host_caches = Vec::new();
    match host {
        HostKind::Hammer => {
            for i in 0..n_cpu {
                host_caches.push(b.add(Box::new(HammerCache::new(
                    format!("l2_{i}"),
                    home,
                    HammerConfig::default(),
                ))));
            }
            let mut peers = host_caches.clone();
            peers.push(xg_id);
            let dir = b.add(Box::new(HammerDirectory::new("dir", peers, 20)));
            assert_eq!(dir, home);
        }
        HostKind::Mesi => {
            for i in 0..n_cpu {
                host_caches.push(b.add(Box::new(MesiL1::new(
                    format!("l1_{i}"),
                    home,
                    MesiL1Config::default(),
                ))));
            }
            let l2 = b.add(Box::new(MesiL2::new("hostl2", MesiL2Config::default())));
            assert_eq!(l2, home);
        }
    }
    let os = b.add(Box::new(Os::new("os", policy)));
    assert_eq!(os, os_id);
    let guard = match host {
        HostKind::Hammer => Box::new(CrossingGuard::new_hammer(
            "xg",
            accel_top,
            home,
            os_id,
            cfg.clone(),
        )),
        HostKind::Mesi => Box::new(CrossingGuard::new_mesi(
            "xg",
            accel_top,
            home,
            os_id,
            cfg.clone(),
        )),
    };
    let xg = b.add(guard);
    assert_eq!(xg, xg_id);

    let mut accel_frontends = Vec::new();
    let mut accel_cores = Vec::new();
    match accel {
        AccelKind::L1(l1cfg) => {
            let l1 = b.add(Box::new(AccelL1::new("accel_l1", xg_id, l1cfg)));
            assert_eq!(l1, accel_top);
            let core = b.add(Box::new(Probe::new("acore0")));
            accel_frontends.push(l1);
            accel_cores.push(core);
            b.link_bidi(core, l1, Link::ordered(1, 1));
        }
        AccelKind::TwoLevel { l1s } => {
            let l2 = b.add(Box::new(AccelL2::new(
                "accel_l2",
                xg_id,
                AccelL2Config::default(),
            )));
            assert_eq!(l2, accel_top);
            for i in 0..l1s {
                let l1 = b.add(Box::new(AccelL1::new(
                    format!("accel_l1_{i}"),
                    l2,
                    AccelL1Config::default(),
                )));
                let core = b.add(Box::new(Probe::new(format!("acore{i}"))));
                b.link_bidi(core, l1, Link::ordered(1, 1));
                b.link_bidi(l1, l2, Link::ordered(1, 2));
                accel_frontends.push(l1);
                accel_cores.push(core);
            }
        }
        AccelKind::Raw(behavior) => {
            let raw = b.add(Box::new(RawAccel {
                xg: xg_id,
                received: Vec::new(),
                inv_response: behavior,
            }));
            assert_eq!(raw, accel_top);
            accel_frontends.push(raw);
        }
    }

    b.default_link(Link::unordered(1, 12));
    if let Some(link) = guard_to_home {
        b.link(xg_id, home, link);
    }
    for i in 0..n_cpu {
        b.link_bidi(cores[i], host_caches[i], Link::ordered(1, 1));
    }
    // The interface link must be ordered (paper §2.1); give it the
    // chip-crossing latency.
    b.link_bidi(xg_id, accel_top, Link::ordered(20, 40));

    Rig {
        sim: b.build(),
        cores,
        host_caches,
        xg,
        accel_frontends,
        accel_cores,
        next_id: 0,
    }
}

impl Rig {
    /// Posts one CPU op without running the simulation; returns its id.
    fn post_cpu(&mut self, core: usize, addr: u64, kind: CoreKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let addr = Addr::new(addr);
        let msg = CoreMsg { id, addr, kind };
        self.sim
            .post(self.cores[core], self.host_caches[core], msg.into());
        id
    }

    fn cpu_store(&mut self, core: usize, addr: u64, value: u64) {
        self.post_cpu(core, addr, CoreKind::Store { value });
        assert!(
            self.sim.run_to_quiescence(500_000).quiescent,
            "cpu store hung"
        );
    }

    fn cpu_load(&mut self, core: usize, addr: u64) -> u64 {
        let id = self.post_cpu(core, addr, CoreKind::Load);
        assert!(
            self.sim.run_to_quiescence(500_000).quiescent,
            "cpu load hung"
        );
        self.find_load(self.cores[core], id)
    }

    fn accel_store(&mut self, core: usize, addr: u64, value: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.sim.post(
            self.accel_cores[core],
            self.accel_frontends[core],
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind: CoreKind::Store { value },
            }
            .into(),
        );
        assert!(
            self.sim.run_to_quiescence(500_000).quiescent,
            "accel store hung"
        );
    }

    fn accel_load(&mut self, core: usize, addr: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.sim.post(
            self.accel_cores[core],
            self.accel_frontends[core],
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind: CoreKind::Load,
            }
            .into(),
        );
        assert!(
            self.sim.run_to_quiescence(500_000).quiescent,
            "accel load hung"
        );
        self.find_load(self.accel_cores[core], id)
    }

    fn find_load(&self, probe: NodeId, id: u64) -> u64 {
        self.sim
            .get::<Probe>(probe)
            .unwrap()
            .responses
            .iter()
            .find_map(|m| match (m.id == id, m.kind) {
                (true, CoreKind::LoadResp { value }) => Some(value),
                _ => None,
            })
            .expect("load response")
    }

    /// Post a raw interface message from the raw accelerator stub.
    fn raw_send(&mut self, addr: u64, kind: XgiKind) {
        self.sim.post(
            self.accel_frontends[0],
            self.xg,
            XgiMsg::new(Addr::new(addr).block(), kind).into(),
        );
        assert!(self.sim.run_to_quiescence(500_000).quiescent);
    }

    fn error_count(&self, kind: XgErrorKind) -> u64 {
        self.sim
            .get::<CrossingGuard>(self.xg)
            .unwrap()
            .error_count(kind)
    }

    fn assert_host_clean(&self) {
        let report = self.sim.report();
        assert_eq!(
            report.sum_suffix(".protocol_violation"),
            0,
            "host protocol violations"
        );
        assert_eq!(
            report.get("xg.persona_violations"),
            0,
            "persona desync with host"
        );
    }

    fn assert_no_errors(&self) {
        let raised: Vec<_> = XgErrorKind::ALL
            .into_iter()
            .filter(|&kind| self.error_count(kind) > 0)
            .collect();
        assert!(raised.is_empty(), "unexpected guard errors: {raised:?}");
    }
}

/// Fires of the guard's rows where a Put crossed its `Inv` (§2.1's race).
fn race_puts(report: &xg_sim::Report) -> u64 {
    let rows = ["xg_full", "xg_tx"]
        .into_iter()
        .filter_map(|m| report.fsm(m));
    rows.flat_map(|cov| cov.iter())
        .filter(|(s, e, _)| s.ends_with("Inv") && e.starts_with("Put"))
        .map(|(_, _, n)| n)
        .sum()
}

fn cfg(variant: XgVariant) -> XgConfig {
    XgConfig {
        variant,
        inv_timeout: 8_000,
        ..XgConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Correct-accelerator behavior across all host × variant combinations.
// ---------------------------------------------------------------------------

fn share_roundtrip(host: HostKind, variant: XgVariant, seed: u64) {
    let mut rig = build(
        host,
        2,
        AccelKind::L1(AccelL1Config::default()),
        cfg(variant),
        OsPolicy::ReportOnly,
        seed,
    );
    // CPU produces, accelerator consumes.
    rig.cpu_store(0, 0x1000, 111);
    assert_eq!(rig.accel_load(0, 0x1000), 111);
    // Accelerator produces, CPUs consume.
    rig.accel_store(0, 0x2000, 222);
    assert_eq!(rig.cpu_load(0, 0x2000), 222);
    assert_eq!(rig.cpu_load(1, 0x2000), 222);
    // Ping-pong on one block.
    for round in 0..4u64 {
        rig.cpu_store(round as usize % 2, 0x3000, round * 2);
        assert_eq!(rig.accel_load(0, 0x3000), round * 2);
        rig.accel_store(0, 0x3000, round * 2 + 1);
        assert_eq!(rig.cpu_load(0, 0x3000), round * 2 + 1);
    }
    rig.assert_host_clean();
    rig.assert_no_errors();
}

#[test]
fn hammer_full_state_shares_with_cpu() {
    share_roundtrip(HostKind::Hammer, XgVariant::FullState, 1);
}

#[test]
fn hammer_transactional_shares_with_cpu() {
    share_roundtrip(HostKind::Hammer, XgVariant::Transactional, 2);
}

#[test]
fn mesi_full_state_shares_with_cpu() {
    share_roundtrip(HostKind::Mesi, XgVariant::FullState, 3);
}

#[test]
fn mesi_transactional_shares_with_cpu() {
    share_roundtrip(HostKind::Mesi, XgVariant::Transactional, 4);
}

fn eviction_roundtrip(host: HostKind, variant: XgVariant, seed: u64) {
    let small = AccelL1Config {
        sets: 1,
        ways: 2,
        ..AccelL1Config::default()
    };
    let mut rig = build(
        host,
        1,
        AccelKind::L1(small),
        cfg(variant),
        OsPolicy::ReportOnly,
        seed,
    );
    // Thrash four blocks through a two-line accelerator cache.
    for i in 0..8u64 {
        rig.accel_store(0, 0x4000 + (i % 4) * 64, i + 1);
    }
    for i in 4..8u64 {
        let addr = 0x4000 + (i % 4) * 64;
        assert_eq!(rig.accel_load(0, addr), i + 1);
        assert_eq!(rig.cpu_load(0, addr), i + 1, "CPU view after writebacks");
    }
    rig.assert_host_clean();
    rig.assert_no_errors();
}

#[test]
fn hammer_full_state_evictions() {
    eviction_roundtrip(HostKind::Hammer, XgVariant::FullState, 5);
}

#[test]
fn hammer_transactional_evictions() {
    eviction_roundtrip(HostKind::Hammer, XgVariant::Transactional, 6);
}

#[test]
fn mesi_full_state_evictions() {
    eviction_roundtrip(HostKind::Mesi, XgVariant::FullState, 7);
}

#[test]
fn mesi_transactional_evictions() {
    eviction_roundtrip(HostKind::Mesi, XgVariant::Transactional, 8);
}

#[test]
fn two_level_accelerator_behind_guard() {
    for (host, variant, seed) in [
        (HostKind::Hammer, XgVariant::FullState, 9),
        (HostKind::Mesi, XgVariant::Transactional, 10),
    ] {
        let mut rig = build(
            host,
            1,
            AccelKind::TwoLevel { l1s: 2 },
            cfg(variant),
            OsPolicy::ReportOnly,
            seed,
        );
        rig.cpu_store(0, 0x5000, 5);
        assert_eq!(rig.accel_load(0, 0x5000), 5);
        assert_eq!(rig.accel_load(1, 0x5000), 5);
        rig.accel_store(0, 0x5000, 6);
        assert_eq!(rig.accel_load(1, 0x5000), 6);
        assert_eq!(rig.cpu_load(0, 0x5000), 6);
        rig.assert_host_clean();
        rig.assert_no_errors();
    }
}

#[test]
fn block_size_translation_4x() {
    let l1 = AccelL1Config {
        block_blocks: 4,
        ..AccelL1Config::default()
    };
    let xg_cfg = XgConfig {
        block_blocks: 4,
        ..cfg(XgVariant::FullState)
    };
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::L1(l1),
        xg_cfg,
        OsPolicy::ReportOnly,
        11,
    );
    // CPU writes three different host blocks inside one 256 B accel block.
    rig.cpu_store(0, 0x8000, 1);
    rig.cpu_store(0, 0x8040, 2);
    rig.cpu_store(0, 0x80C0, 3);
    // One accelerator miss pulls the merged block.
    assert_eq!(rig.accel_load(0, 0x8000), 1);
    assert_eq!(rig.accel_load(0, 0x8040), 2);
    assert_eq!(rig.accel_load(0, 0x80C0), 3);
    // The accelerator dirties one word; the CPU touching *another* host
    // block in the same accel block forces a whole-accel-block recall.
    rig.accel_store(0, 0x8040, 22);
    assert_eq!(rig.cpu_load(0, 0x8040), 22);
    assert_eq!(rig.cpu_load(0, 0x80C0), 3, "leftover sub-blocks preserved");
    assert_eq!(rig.cpu_load(0, 0x8000), 1);
    rig.assert_host_clean();
    rig.assert_no_errors();
}

// ---------------------------------------------------------------------------
// Guarantee enforcement against a scripted, misbehaving accelerator.
// ---------------------------------------------------------------------------

#[test]
fn guarantee_1b_duplicate_request() {
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        20,
    );
    // Two GetS for the same block, back to back: only one may reach the
    // host; the second is a duplicate.
    rig.sim.post(
        rig.accel_frontends[0],
        rig.xg,
        XgiMsg::new(Addr::new(0x100).block(), XgiKind::GetS).into(),
    );
    rig.raw_send(0x100, XgiKind::GetS);
    assert_eq!(rig.error_count(XgErrorKind::DuplicateRequest), 1);
    rig.assert_host_clean();
}

#[test]
fn guarantee_2b_unsolicited_response() {
    let mut rig = build(
        HostKind::Mesi,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        cfg(XgVariant::Transactional),
        OsPolicy::ReportOnly,
        21,
    );
    rig.raw_send(0x140, XgiKind::InvAck);
    rig.raw_send(
        0x180,
        XgiKind::DirtyWb {
            data: XgData::zeroed(1),
        },
    );
    assert_eq!(rig.error_count(XgErrorKind::UnsolicitedResponse), 2);
    rig.assert_host_clean();
}

#[test]
fn guarantee_0a_no_permission() {
    let mut perms = PermissionTable::new();
    perms.set(Addr::new(0x100000).page(), PagePerm::None);
    let xg_cfg = XgConfig {
        perms,
        ..cfg(XgVariant::FullState)
    };
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        xg_cfg,
        OsPolicy::ReportOnly,
        22,
    );
    rig.raw_send(0x100000, XgiKind::GetS);
    rig.raw_send(0x100040, XgiKind::GetM);
    assert_eq!(rig.error_count(XgErrorKind::PermissionRead), 2);
    // No request crossed into the host.
    assert_eq!(rig.sim.report().get("xg.host_sent"), 0);
    rig.assert_host_clean();
}

#[test]
fn guarantee_0b_read_only_pages() {
    let mut perms = PermissionTable::new();
    perms.set(Addr::new(0x100000).page(), PagePerm::Read);
    let xg_cfg = XgConfig {
        perms,
        ..cfg(XgVariant::FullState)
    };
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        xg_cfg,
        OsPolicy::ReportOnly,
        23,
    );
    // Writes are rejected...
    rig.raw_send(0x100000, XgiKind::GetM);
    assert_eq!(rig.error_count(XgErrorKind::PermissionWrite), 1);
    // ...but reads succeed and are granted at most S.
    rig.raw_send(0x100040, XgiKind::GetS);
    let raw = rig.sim.get::<RawAccel>(rig.accel_frontends[0]).unwrap();
    let grants: Vec<_> = raw
        .received
        .iter()
        .filter(|m| m.addr == Addr::new(0x100040).block())
        .collect();
    assert_eq!(grants.len(), 1);
    assert!(
        matches!(grants[0].kind, XgiKind::DataS { .. }),
        "read-only pages must never grant ownership, got {:?}",
        grants[0].kind
    );
    rig.assert_host_clean();
}

#[test]
fn guarantee_1a_put_without_holding() {
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        24,
    );
    rig.raw_send(
        0x200,
        XgiKind::PutM {
            data: XgData::zeroed(1),
        },
    );
    rig.raw_send(0x240, XgiKind::PutS);
    assert_eq!(rig.error_count(XgErrorKind::InconsistentRequest), 2);
    assert_eq!(rig.sim.report().get("xg.host_sent"), 0);
    rig.assert_host_clean();
}

#[test]
fn guarantee_2a_wrong_response_type_corrected() {
    // The accelerator takes M, then answers the invalidation with a bare
    // InvAck. Full State XG corrects it to a (zero-data) writeback so the
    // CPU's store still completes (paper §2.2: "Crossing Guard will send a
    // Writeback of a zero block instead").
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        25,
    );
    rig.raw_send(0x300, XgiKind::GetM); // accel now owns 0x300
    rig.cpu_store(0, 0x300, 77); // host demands it back; accel misbehaves
    assert_eq!(rig.error_count(XgErrorKind::InconsistentResponse), 1);
    // The host converged despite the lie.
    assert_eq!(rig.cpu_load(0, 0x300), 77);
    rig.assert_host_clean();
}

#[test]
fn guarantee_2c_timeout_recovery() {
    for (host, variant, seed) in [
        (HostKind::Hammer, XgVariant::FullState, 26),
        (HostKind::Mesi, XgVariant::Transactional, 27),
    ] {
        let xg_cfg = XgConfig {
            inv_timeout: 500,
            ..cfg(variant)
        };
        let mut rig = build(
            host,
            1,
            AccelKind::Raw(InvBehavior::Silent),
            xg_cfg,
            OsPolicy::ReportOnly,
            seed,
        );
        rig.raw_send(0x400, XgiKind::GetM); // accel owns, then goes silent
        rig.cpu_store(0, 0x400, 9); // must not hang the host
        assert_eq!(
            rig.error_count(XgErrorKind::ResponseTimeout),
            1,
            "host={:?}",
            matches!(host, HostKind::Hammer)
        );
        assert_eq!(rig.cpu_load(0, 0x400), 9);
        rig.assert_host_clean();
    }
}

#[test]
fn answered_inv_leaves_a_stale_timer_that_never_fires() {
    // The Guarantee 2c timer carries only the block address. An Inv the
    // accelerator answers in time leaves its timer queued; when that timer
    // wakes it finds a *later* Inv on the same block, whose own deadline is
    // still ahead, and must stand down.
    const TIMEOUT: u64 = 2_000;
    let xg_cfg = XgConfig {
        inv_timeout: TIMEOUT,
        ..cfg(XgVariant::FullState)
    };
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::DirtyZero),
        xg_cfg,
        OsPolicy::ReportOnly,
        31,
    );
    let post_cpu_store = |rig: &mut Rig, value: u64| {
        rig.post_cpu(0, 0x400, CoreKind::Store { value });
    };
    let step_until_open_invs = |rig: &mut Rig, n: usize| {
        while rig.sim.get::<CrossingGuard>(rig.xg).unwrap().open_invs() != n {
            assert!(rig.sim.step(), "ran dry waiting for {n} open Invs");
        }
        rig.sim.now()
    };
    let accel = rig.accel_frontends[0];

    rig.raw_send(0x400, XgiKind::GetM); // accel owns 0x400
    post_cpu_store(&mut rig, 1); // host demands it back ...
    let first_inv = step_until_open_invs(&mut rig, 1);
    step_until_open_invs(&mut rig, 0); // ... and gets it, well in time

    // The accelerator takes the block again and then goes silent.
    rig.sim.post(
        accel,
        rig.xg,
        XgiMsg::new(Addr::new(0x400).block(), XgiKind::GetM).into(),
    );
    let grants = |rig: &Rig| {
        let received = &rig.sim.get::<RawAccel>(accel).unwrap().received;
        let granted = |m: &&XgiMsg| matches!(m.kind, XgiKind::DataE { .. } | XgiKind::DataM { .. });
        received.iter().filter(granted).count()
    };
    while grants(&rig) < 2 {
        assert!(rig.sim.step(), "second GetM never granted");
    }
    rig.sim.get_mut::<RawAccel>(accel).unwrap().inv_response = InvBehavior::Silent;
    post_cpu_store(&mut rig, 2);
    let second_inv = step_until_open_invs(&mut rig, 1);
    assert!(
        second_inv > first_inv && second_inv < first_inv + TIMEOUT,
        "the second Inv must be open when the first timer wakes"
    );
    assert!(rig.sim.run_to_quiescence(500_000).quiescent);

    // One timeout, and it ran the second Inv's full course.
    assert_eq!(rig.error_count(XgErrorKind::ResponseTimeout), 1);
    let report = rig.sim.report();
    assert_eq!(report.get("xg.timeouts"), 1);
    let inv_resp = report.hist("xg.lat.inv_resp").unwrap();
    assert_eq!((inv_resp.count(), inv_resp.max()), (2, TIMEOUT));
    assert_eq!(rig.cpu_load(0, 0x400), 2);
    rig.assert_host_clean();
}

/// A restore that overwrites an open `Inv` hands its `reasons` buffer back
/// to the record table's loan pool first. Open, checkpoint, restore over
/// it and drain, again and again: the pool keeps no more buffers than were
/// ever open at once (one).
#[test]
fn a_restore_over_an_open_inv_hands_its_reasons_back() {
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::Silent),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        41,
    );
    rig.raw_send(0x400, XgiKind::GetM); // the accelerator owns 0x400
    rig.post_cpu(0, 0x400, CoreKind::Store { value: 1 });
    // Stop in front of the host's demand, and keep it to send again.
    let (xg, home) = (rig.xg, NodeId::from_index(2));
    let mut demand = None;
    let deadline = rig.sim.now() + 100_000;
    let stopped = rig.sim.run_until(deadline, |to, msg| {
        demand = Some(msg.clone()).filter(|_| to == xg);
        demand.is_some()
    });
    assert!(stopped.is_none(), "the demand never reached the guard");
    let demand = demand.unwrap();
    fn guard(rig: &mut Rig) -> &mut CrossingGuard {
        rig.sim.get_mut::<CrossingGuard>(rig.xg).unwrap()
    }
    let bare = guard(&mut rig).clone();
    let step_until_open_invs = |rig: &mut Rig, n: usize| {
        while guard(rig).open_invs() != n {
            assert!(rig.sim.step(), "ran dry waiting for {n} open Invs");
        }
    };
    step_until_open_invs(&mut rig, 1);
    let open = guard(&mut rig).clone();
    guard(&mut rig).clone_from(&bare);
    rig.sim.post(home, xg, demand);
    step_until_open_invs(&mut rig, 1);
    guard(&mut rig).clone_from(&bare);
    let block = Addr::new(0x400).block();
    for _ in 0..2 {
        guard(&mut rig).clone_from(&open);
        let answer = XgiKind::DirtyWb {
            data: XgData::zeroed(1),
        };
        rig.sim.post(
            rig.accel_frontends[0],
            xg,
            XgiMsg::new(block, answer).into(),
        );
        step_until_open_invs(&mut rig, 0);
    }
    let kept = guard(&mut rig).take_kept_reasons();
    assert!(kept <= 1, "{kept} kept, at most 1 open");
}

#[test]
fn buggy_writeback_on_shared_block() {
    // Accelerator holds S but answers Inv with a dirty writeback. Full
    // State corrects it; the modified MESI host also survives the
    // Transactional variant forwarding it (§3.2.2).
    for (variant, seed) in [(XgVariant::FullState, 28), (XgVariant::Transactional, 29)] {
        let mut rig = build(
            HostKind::Mesi,
            1,
            AccelKind::Raw(InvBehavior::DirtyZero),
            cfg(variant),
            OsPolicy::ReportOnly,
            seed,
        );
        rig.cpu_store(0, 0x500, 5); // CPU owns first
        rig.raw_send(0x500, XgiKind::GetS); // accel becomes a reader
        rig.cpu_store(0, 0x500, 6); // invalidation round; accel lies
        assert!(rig.error_count(XgErrorKind::InconsistentResponse) >= 1);
        assert_eq!(rig.cpu_load(0, 0x500), 6);
        rig.assert_host_clean();
    }
}

// ---------------------------------------------------------------------------
// Policies and features.
// ---------------------------------------------------------------------------

#[test]
fn os_disable_policy_quarantines_accelerator() {
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        cfg(XgVariant::FullState),
        OsPolicy::DisableAccelerator,
        30,
    );
    rig.raw_send(
        0x600,
        XgiKind::PutM {
            data: XgData::zeroed(1),
        },
    ); // violation → disable
    rig.raw_send(0x640, XgiKind::GetS); // dropped
    let guard = rig.sim.get::<CrossingGuard>(rig.xg).unwrap();
    assert!(guard.is_disabled());
    let report = rig.sim.report();
    assert!(report.get("xg.dropped_disabled") >= 1);
    assert_eq!(report.get("xg.host_sent"), 0);
}

#[test]
fn rate_limiting_throttles_but_preserves_correctness() {
    let xg_cfg = XgConfig {
        rate_limit: Some(RateLimit {
            tokens_per_kilocycle: 10, // one request per 100 cycles
            burst: 1,
        }),
        ..cfg(XgVariant::FullState)
    };
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::L1(AccelL1Config {
            sets: 1,
            ways: 1,
            ..AccelL1Config::default()
        }),
        xg_cfg,
        OsPolicy::ReportOnly,
        31,
    );
    for i in 0..6u64 {
        rig.accel_store(0, 0x7000 + i * 64, i + 1);
    }
    for i in 0..6u64 {
        assert_eq!(rig.accel_load(0, 0x7000 + i * 64), i + 1);
    }
    let report = rig.sim.report();
    assert!(report.get("xg.throttled") > 0, "limiter never engaged");
    rig.assert_no_errors();
    rig.assert_host_clean();
}

/// The rate limiter keeps the interface link's order (§2.1). A correct L1
/// evicts an owned block and the guard holds its `PutM`; a CPU load of the
/// block makes the guard forward an `Inv`, which the L1 answers with
/// `InvAck` from `B`. That ack must not overtake the held `PutM`: the guard
/// would hand the host zeros and, with Full State, never ack the Put.
#[test]
fn throttling_never_reorders_a_put_behind_its_inv_ack() {
    let (victim, other) = (0x8000, 0x8040);
    let block = Addr::new(victim).block();
    for (host, host_name) in [(HostKind::Hammer, "hammer"), (HostKind::Mesi, "mesi")] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            let name = format!("{host_name} {variant:?}");
            let rate_limit = Some(RateLimit {
                tokens_per_kilocycle: 1,
                burst: 1,
            });
            let xg_cfg = XgConfig {
                rate_limit,
                ..cfg(variant)
            };
            let l1 = AccelKind::L1(AccelL1Config {
                sets: 1,
                ways: 1,
                ..AccelL1Config::default()
            });
            let mut rig = build(host, 1, l1, xg_cfg, OsPolicy::ReportOnly, 41);
            rig.accel_store(0, victim, 5);
            let l1_state = |rig: &Rig| {
                let l1 = rig.sim.get::<AccelL1>(rig.accel_frontends[0]).unwrap();
                l1.state_of(block)
            };
            let throttled = |rig: &Rig| rig.sim.report().get("xg.throttled");
            // A load of another block evicts the victim: its PutM leaves ...
            let load = CoreMsg {
                id: 1_000,
                addr: Addr::new(other),
                kind: CoreKind::Load,
            };
            let (core, l1) = (rig.accel_cores[0], rig.accel_frontends[0]);
            rig.sim.post(core, l1, load.into());
            while l1_state(&rig) != "B" {
                assert!(rig.sim.step(), "{name}: the victim never left");
            }
            // ... and the guard holds it.
            let before = throttled(&rig);
            while throttled(&rig) == before {
                assert!(rig.sim.step(), "{name}: the PutM was never throttled");
            }
            let id = rig.post_cpu(0, victim, CoreKind::Load);
            assert!(rig.sim.run_to_quiescence(500_000).quiescent, "{name}");
            assert_eq!(rig.find_load(rig.cores[0], id), 5, "{name}: write lost");
            rig.assert_no_errors();
            assert_eq!(l1_state(&rig), "I", "{name}: the L1 stayed in B");
            assert!(throttled(&rig) > 0, "{name}");
            rig.assert_host_clean();
        }
    }
}

#[test]
fn put_s_suppression_on_hammer() {
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::L1(AccelL1Config {
            sets: 1,
            ways: 1,
            ..AccelL1Config::default()
        }),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        32,
    );
    // Get a shared copy (CPU holds it too → S), then evict it.
    rig.cpu_store(0, 0x9000, 1);
    assert_eq!(rig.accel_load(0, 0x9000), 1);
    assert_eq!(rig.accel_load(0, 0x9040), 0); // evicts the S copy → PutS
    let report = rig.sim.report();
    assert!(
        report.get("xg.puts_suppressed") >= 1,
        "hammer hosts have no PutS; XG must suppress"
    );
    rig.assert_no_errors();
    rig.assert_host_clean();
}

#[test]
fn put_s_forwarded_to_mesi_for_exact_tracking() {
    let mut rig = build(
        HostKind::Mesi,
        1,
        AccelKind::L1(AccelL1Config {
            sets: 1,
            ways: 1,
            ..AccelL1Config::default()
        }),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        33,
    );
    rig.cpu_store(0, 0xA000, 1);
    assert_eq!(rig.accel_load(0, 0xA000), 1);
    assert_eq!(rig.accel_load(0, 0xA040), 0); // evicts S → PutS forwarded
    let report = rig.sim.report();
    assert!(report.get("hostl2.put_s") >= 1, "PutS should reach the L2");
    assert_eq!(report.get("xg.puts_suppressed"), 0);
    rig.assert_no_errors();
    rig.assert_host_clean();
}

#[test]
fn interface_race_put_crossing_inv() {
    // Stage the race deliberately with a scripted accelerator: it takes M
    // on a block, then its PutM and a CPU store's invalidation are fired at
    // the same instant, crossing on the interface link. The accelerator
    // answers the in-flight Inv with InvAck from state B, exactly as
    // Table 1 prescribes; the guard must absorb it. Sweep seeds so both
    // message orderings occur.
    let mut any_race = false;
    for seed in 40..56u64 {
        let mut rig = build(
            HostKind::Hammer,
            1,
            AccelKind::Raw(InvBehavior::InvAck),
            cfg(XgVariant::FullState),
            OsPolicy::ReportOnly,
            seed,
        );
        for i in 0..4u64 {
            // Step 1: accelerator takes M on 0xB000 and quiesces.
            rig.raw_send(0xB000, XgiKind::GetM);
            // Step 2: its writeback and the CPU's store race.
            rig.sim.post(
                rig.accel_frontends[0],
                rig.xg,
                XgiMsg::new(
                    Addr::new(0xB000).block(),
                    XgiKind::PutM {
                        data: XgData::single(DataBlock::splat(i as u8 + 1)),
                    },
                )
                .into(),
            );
            let id = rig.next_id;
            rig.next_id += 1;
            rig.sim.post(
                rig.cores[0],
                rig.host_caches[0],
                CoreMsg {
                    id,
                    addr: Addr::new(0xB000),
                    kind: CoreKind::Store { value: 100 + i },
                }
                .into(),
            );
            assert!(rig.sim.run_to_quiescence(500_000).quiescent, "seed {seed}");
        }
        let report = rig.sim.report();
        any_race |= race_puts(&report) > 0;
        // Correctness regardless of interleaving: the CPU's store always
        // lands last in coherence order here, and nothing errored.
        let v = rig.cpu_load(0, 0xB000);
        assert_eq!(v, 103, "seed {seed}");
        rig.assert_no_errors();
        rig.assert_host_clean();
    }
    assert!(any_race, "Put-vs-Inv race never exercised in 16 seeds");
}

/// Guarantee 0b across the Put-vs-Inv race: a `PutM` for a read-only block
/// that crosses the guard's invalidation is refused as an invalidation's
/// writeback would be. The guard reports it and resolves the race as a
/// shared copy, or from its shadow when the host granted it ownership
/// (`use_gets_only: false`). The host keeps its own data: neither the
/// accelerator's fill nor a fabricated zero block reaches it.
#[test]
fn race_put_on_a_read_only_page_never_reaches_the_host() {
    let (addr, fill) = (0x100000, DataBlock::splat(0x11));
    let block = Addr::new(addr).block();
    let mut memory = DataBlock::zeroed();
    memory.write_u64(8, 77);
    let hosts = [
        (HostKind::Hammer, "hammer", 60),
        (HostKind::Mesi, "mesi", 61),
    ];
    let guards = [
        (XgVariant::FullState, true),
        (XgVariant::FullState, false),
        (XgVariant::Transactional, true),
    ];
    for (host, host_name, seed) in hosts {
        for (variant, use_gets_only) in guards {
            let name = format!("{host_name} {variant:?} use_gets_only {use_gets_only}");
            let mut perms = PermissionTable::new();
            perms.set(Addr::new(addr).page(), PagePerm::Read);
            let xg_cfg = XgConfig {
                perms,
                use_gets_only,
                ..cfg(variant)
            };
            let behavior = AccelKind::Raw(InvBehavior::Silent);
            let mut rig = build(host, 1, behavior, xg_cfg, OsPolicy::ReportOnly, seed);
            let home = NodeId::from_index(2);
            match host {
                HostKind::Hammer => {
                    let dir = rig.sim.get_mut::<HammerDirectory>(home).unwrap();
                    dir.write_memory(block, memory);
                }
                HostKind::Mesi => {
                    let l2 = rig.sim.get_mut::<MesiL2>(home).unwrap();
                    l2.write_memory(block, memory);
                }
            }
            // The accelerator shares the block. A CPU store: the guard's
            // Inv stays open, the accelerator is silent ...
            rig.raw_send(addr, XgiKind::GetS);
            rig.post_cpu(0, addr, CoreKind::Store { value: 8 });
            while rig.sim.get::<CrossingGuard>(rig.xg).unwrap().open_invs() == 0 {
                assert!(
                    rig.sim.step(),
                    "{name}: the CPU store never reached the guard"
                );
            }
            // ... until its PutM crosses the Inv, and it acks the Inv from
            // state B as Table 1 prescribes.
            let data = XgData::single(fill);
            for kind in [XgiKind::PutM { data }, XgiKind::InvAck] {
                let msg = XgiMsg::new(block, kind);
                rig.sim.post(rig.accel_frontends[0], rig.xg, msg.into());
            }
            assert!(rig.sim.run_to_quiescence(500_000).quiescent);

            assert_eq!(race_puts(&rig.sim.report()), 1, "{name}");
            assert_eq!(rig.error_count(XgErrorKind::PermissionWrite), 1, "{name}");
            assert_eq!(rig.error_count(XgErrorKind::ResponseTimeout), 0, "{name}");
            assert_eq!(rig.cpu_load(0, addr), 8, "{name}");
            assert_eq!(rig.cpu_load(0, addr + 8), 77, "{name}: host data lost");
            rig.assert_host_clean();
        }
    }
}

/// The persona's half of the Hammer owner rule. A read forwarded to the
/// guard while its writeback is pending (`Put_Clean`) is answered from the
/// writeback, and the guard stays the owner: the reader installs `S`, and
/// the writeback, still the owner's, is accepted (`Put_Clean`, `WbAck`).
#[test]
fn hammer_persona_answers_a_read_from_its_pending_writeback_and_stays_owner() {
    let (addr, fill) = (0xC000, DataBlock::splat(0x33));
    // Slow guard-to-home requests: the CPU's read is served before the
    // guard's Put reaches the directory.
    let mut rig = build_with(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        62,
        Some(Link::ordered(300, 300)),
    );
    let block = Addr::new(addr).block();
    rig.raw_send(addr, XgiKind::GetM); // the accelerator owns the block
    let put = XgiKind::PutM {
        data: XgData::single(fill),
    };
    rig.sim.post(
        rig.accel_frontends[0],
        rig.xg,
        XgiMsg::new(block, put).into(),
    );
    while rig
        .sim
        .get::<CrossingGuard>(rig.xg)
        .unwrap()
        .table_entry(block)
        .is_some()
    {
        assert!(rig.sim.step(), "the PutM never reached the guard");
    }
    assert_eq!(rig.cpu_load(0, addr), fill.read_u64(0));

    let cache = rig.sim.get::<HammerCache>(rig.host_caches[0]).unwrap();
    assert_eq!(
        cache.probe_state(block),
        "S",
        "a read never takes ownership"
    );
    let report = rig.sim.report();
    let persona = report.fsm("hammer_persona").unwrap();
    assert_eq!(persona.count("Put_Clean", "FwdRead"), 1);
    assert_eq!(persona.count("Put_Clean", "WbAck"), 1);
    assert_eq!(persona.count("Put_Invd", "WbNack"), 0);
    let dir = rig
        .sim
        .get::<HammerDirectory>(NodeId::from_index(2))
        .unwrap();
    assert_eq!(dir.nacks(), 0, "the owner's writeback is accepted");
    assert_eq!(dir.read_memory(block), fill);
    rig.assert_no_errors();
    rig.assert_host_clean();
}

#[test]
fn storage_accounting_tracks_variants() {
    let mut fs = build(
        HostKind::Hammer,
        1,
        AccelKind::L1(AccelL1Config::default()),
        cfg(XgVariant::FullState),
        OsPolicy::ReportOnly,
        50,
    );
    let mut tx = build(
        HostKind::Hammer,
        1,
        AccelKind::L1(AccelL1Config::default()),
        cfg(XgVariant::Transactional),
        OsPolicy::ReportOnly,
        50,
    );
    for i in 0..32u64 {
        fs.accel_store(0, 0x10000 + i * 64, i);
        tx.accel_store(0, 0x10000 + i * 64, i);
    }
    let fs_guard = fs.sim.get::<CrossingGuard>(fs.xg).unwrap();
    let tx_guard = tx.sim.get::<CrossingGuard>(tx.xg).unwrap();
    // Full State grows with resident blocks; Transactional only with open
    // transactions (none are open at quiescence).
    assert!(fs_guard.storage_bytes() >= 32 * 10);
    assert_eq!(tx_guard.storage_bytes(), 0);
    assert!(fs_guard.storage_bytes_hwm() > tx_guard.storage_bytes_hwm());
    let _ = DataBlock::zeroed(); // keep the import exercised under cfg(test)
}

#[test]
fn read_only_shadow_serves_host_reads_without_accel() {
    // use_gets_only = false forces the Full State shadow path (§2.3.1).
    let mut perms = PermissionTable::new();
    perms.set(Addr::new(0x100000).page(), PagePerm::Read);
    let xg_cfg = XgConfig {
        perms,
        use_gets_only: false,
        ..cfg(XgVariant::FullState)
    };
    let mut rig = build(
        HostKind::Hammer,
        1,
        AccelKind::Raw(InvBehavior::InvAck),
        xg_cfg,
        OsPolicy::ReportOnly,
        51,
    );
    rig.raw_send(0x100000, XgiKind::GetS);
    // Accelerator received only DataS even though the host granted E.
    {
        let raw = rig.sim.get::<RawAccel>(rig.accel_frontends[0]).unwrap();
        assert!(raw
            .received
            .iter()
            .any(|m| matches!(m.kind, XgiKind::DataS { .. })));
        let guard = rig.sim.get::<CrossingGuard>(rig.xg).unwrap();
        assert!(guard.storage_bytes() >= 64, "shadow data must be accounted");
    }
    // A CPU read is served from the shadow, never consulting the accel.
    let invs_before = rig.sim.report().get("xg.invs_forwarded");
    assert_eq!(rig.cpu_load(0, 0x100000), 0);
    assert_eq!(rig.sim.report().get("xg.invs_forwarded"), invs_before);
    rig.assert_no_errors();
    rig.assert_host_clean();
}

/// A host message of the protocol the guard's persona does not speak is a
/// malformed message: one report for its block, and nothing else moves.
#[test]
fn wrong_protocol_host_message_is_malformed_and_inert() {
    use xg_proto::{HammerKind, HammerMsg, MesiKind, MesiMsg};
    for host in [HostKind::Hammer, HostKind::Mesi] {
        let mut rig = build(
            host,
            1,
            AccelKind::Raw(InvBehavior::InvAck),
            cfg(XgVariant::FullState),
            OsPolicy::ReportOnly,
            52,
        );
        let home = NodeId::from_index(2);
        let block = Addr::new(0x4000).block();
        // A demand in the other protocol: its own persona would open a
        // demand record and surface it to the guard.
        let stray: Message = match host {
            HostKind::Hammer => MesiMsg::new(block, MesiKind::Inv { requestor: home }).into(),
            HostKind::Mesi => {
                let kind = HammerKind::FwdGetM {
                    requestor: home,
                    to_owner: true,
                };
                HammerMsg::new(block, kind).into()
            }
        };
        let before = rig.sim.report();
        rig.sim.post(home, rig.xg, stray);
        assert!(rig.sim.run_to_quiescence(500_000).quiescent);

        let guard = rig.sim.get::<CrossingGuard>(rig.xg).unwrap();
        assert_eq!(guard.errors_total(), 1, "exactly one report");
        assert_eq!(guard.error_count(XgErrorKind::Malformed), 1);
        let flags = rig.sim.tracer().flags();
        assert_eq!(
            flags
                .iter()
                .map(|f| (f.addr, &*f.reason))
                .collect::<Vec<_>>(),
            [(block.as_u64(), XgErrorKind::Malformed.flag_reason())],
            "the first error flags its block"
        );
        assert_eq!(guard.storage_bytes(), 0, "no transaction opened");
        assert_eq!(guard.storage_bytes_hwm(), 0);
        let after = rig.sim.report();
        for key in [
            "xg.host_sent",
            "xg.host_received",
            "xg.persona_violations",
            "xg.accel_sent",
            "xg.invs_forwarded",
            "xg.demands_answered_locally",
        ] {
            assert_eq!(after.get(key), before.get(key), "{key} moved");
        }
        let raw = rig.sim.get::<RawAccel>(rig.accel_frontends[0]).unwrap();
        assert!(
            raw.received.is_empty(),
            "no persona event reached the guard"
        );
        rig.assert_host_clean();
    }
}

// ---------------------------------------------------------------------------
// Figure 1 checked on the tables.
// ---------------------------------------------------------------------------

use crate::guard::{full_table, tx_table, Rec, XgAction, XgEvent};
use xg_fsm::{Alphabet, RowKind, Table};

/// The states of `table` the guard builds: those with a legal row.
fn built<S: Alphabet>(table: &Table<S, XgEvent, XgAction>) -> impl Iterator<Item = S> + '_ {
    let legal = |s: S, e| !matches!(table.row(s, e), RowKind::Violation);
    S::ALL
        .iter()
        .copied()
        .filter(move |&s| XgEvent::ALL.iter().any(|&e| legal(s, e)))
}

/// Guarantee 2c: wherever the host waits on the accelerator (an `Inv` is
/// open), a `Timeout` row answers the host and reports the timeout.
#[test]
fn every_state_the_host_waits_in_has_a_timeout_row_that_answers_it() {
    fn check<S: Alphabet>(table: &Table<S, XgEvent, XgAction>, rec: impl Fn(S) -> Rec) {
        let waits = built(table).filter(|&s| matches!(rec(s), Rec::Inv | Rec::RInv));
        let mut n = 0;
        for s in waits {
            let row = table.row(s, XgEvent::Timeout);
            let RowKind::Transition { actions, .. } = &row else {
                panic!("{}: ({}, Timeout) is {row:?}", table.name(), s.label());
            };
            for action in [XgAction::TimedOut, XgAction::Answer, XgAction::CloseInv] {
                assert!(actions.contains(&action), "{}: {}", table.name(), s.label());
            }
            assert_eq!(table.tag(s, XgEvent::Timeout), "2c");
            n += 1;
        }
        assert!(
            n >= 2,
            "{}: only {n} states wait on the accelerator",
            table.name()
        );
    }
    check(full_table(), |s| Rec::ALL[s.index() % Rec::ALL.len()]);
    check(tx_table(), |s| s);
}

/// Guarantee 0: every row that grants the accelerator a permission — opens
/// a host Get or Put for it — checks the page permission first, and says
/// so in its tag.
#[test]
fn every_row_that_grants_a_permission_checks_the_page_first() {
    fn check<S: Alphabet>(table: &Table<S, XgEvent, XgAction>) {
        use XgAction::*;
        let mut n = 0;
        for (s, e, row) in table.rows() {
            let RowKind::Transition { actions, .. } = row else {
                continue;
            };
            let grants = [IssueGetS, IssueGetM, IssuePutS, IssuePut];
            let Some(grant) = actions.iter().position(|a| grants.contains(a)) else {
                continue;
            };
            let at = format!("{}: ({}, {})", table.name(), s.label(), e.label());
            assert!(actions[..grant].contains(&CheckPerm), "{at}");
            assert!(table.tag(s, e).starts_with('0'), "{at}");
            n += 1;
        }
        assert!(n >= 5, "{}: only {n} rows grant", table.name());
    }
    check(full_table());
    check(tx_table());
}
