//! Accelerator-protocol tests, including the Table 1 conformance walk.

use xg_mem::{Addr, BlockAddr, DataBlock, IdMap};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, XgData, XgiKind, XgiMsg};
use xg_sim::{CloneComponent, Component, Link, NodeId, SimBuilder};

use crate::{AccelL1, AccelL1Config, AccelL2, AccelL2Config, Prefetch};

/// A scripted stand-in for Crossing Guard: records every interface message
/// and can answer requests from a trivial memory model.
struct MockGuard {
    name: String,
    /// Everything received, in order.
    log: Vec<XgiMsg>,
    /// When true, answer requests automatically from `memory`.
    auto: bool,
    /// Grant E (instead of S) for GetS when auto-responding.
    grant_e: bool,
    memory: IdMap<BlockAddr, Vec<DataBlock>>,
    blocks: usize,
}

xg_sim::clone_in_place!(impl[] for MockGuard { name, log, auto, grant_e, memory, blocks });

impl MockGuard {
    fn new(auto: bool, grant_e: bool, blocks: usize) -> Self {
        MockGuard {
            name: "mock_xg".into(),
            log: Vec::new(),
            auto,
            grant_e,
            memory: IdMap::default(),
            blocks,
        }
    }

    fn mem(&mut self, addr: BlockAddr) -> Vec<DataBlock> {
        self.memory
            .entry(addr)
            .or_insert_with(|| vec![DataBlock::zeroed(); self.blocks])
            .clone()
    }

    fn kinds(&self) -> Vec<&'static str> {
        self.log.iter().map(|m| m.kind.mnemonic()).collect()
    }
}

impl Component<Message> for MockGuard {
    fn name(&self) -> &str {
        &self.name
    }
    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Xgi(m) = msg else { return };
        self.log.push(m.clone());
        if !self.auto {
            return;
        }
        let addr = m.addr;
        match m.kind {
            XgiKind::GetS => {
                let data = XgData::from_blocks(self.mem(addr));
                let kind = if self.grant_e {
                    XgiKind::DataE { data }
                } else {
                    XgiKind::DataS { data }
                };
                ctx.send(from, XgiMsg::new(addr, kind).into());
            }
            XgiKind::GetM => {
                let data = XgData::from_blocks(self.mem(addr));
                ctx.send(from, XgiMsg::new(addr, XgiKind::DataM { data }).into());
            }
            XgiKind::PutM { ref data } | XgiKind::PutE { ref data } => {
                self.memory.insert(addr, data.blocks().to_vec());
                ctx.send(from, XgiMsg::new(addr, XgiKind::WbAck).into());
            }
            XgiKind::PutS => {
                ctx.send(from, XgiMsg::new(addr, XgiKind::WbAck).into());
            }
            XgiKind::DirtyWb { ref data } | XgiKind::CleanWb { ref data } => {
                self.memory.insert(addr, data.blocks().to_vec());
            }
            _ => {}
        }
    }
    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }
}

/// Core probe recording responses.
#[derive(Clone)]
struct Probe {
    name: String,
    responses: Vec<CoreMsg>,
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
    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }
}

struct Rig {
    sim: xg_proto::Sim,
    core: NodeId,
    l1: NodeId,
    xg: NodeId,
    next_id: u64,
}

impl Rig {
    fn new(cfg: AccelL1Config, auto: bool, grant_e: bool) -> Self {
        let blocks = cfg.block_blocks;
        let mut b = SimBuilder::new(7);
        let core = b.add(Box::new(Probe {
            name: "core".into(),
            responses: Vec::new(),
        }));
        let xg_id = NodeId::from_index(2);
        let l1 = b.add(Box::new(AccelL1::new("accel_l1", xg_id, cfg)));
        let xg = b.add(Box::new(MockGuard::new(auto, grant_e, blocks)));
        assert_eq!(xg, xg_id);
        b.default_link(Link::ordered(1, 1));
        Rig {
            sim: b.build(),
            core,
            l1,
            xg,
            next_id: 0,
        }
    }

    fn op(&mut self, kind: CoreKind, addr: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.sim.post(
            self.core,
            self.l1,
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind,
            }
            .into(),
        );
        id
    }

    fn run(&mut self) {
        assert!(self.sim.run_to_quiescence(10_000).quiescent);
    }

    fn state(&self, addr: u64) -> &'static str {
        self.sim
            .get::<AccelL1>(self.l1)
            .unwrap()
            .state_of(Addr::new(addr).block())
    }

    fn xg_kinds(&self) -> Vec<&'static str> {
        self.sim.get::<MockGuard>(self.xg).unwrap().kinds()
    }

    /// Send an interface message from the mock guard to the L1.
    fn xg_send(&mut self, addr: u64, kind: XgiKind) {
        self.sim.post(
            self.xg,
            self.l1,
            XgiMsg::new(Addr::new(addr).block(), kind).into(),
        );
    }

    fn load_value(&self, id: u64) -> Option<u64> {
        self.sim
            .get::<Probe>(self.core)
            .unwrap()
            .responses
            .iter()
            .find_map(|m| match (m.id == id, m.kind) {
                (true, CoreKind::LoadResp { value }) => Some(value),
                _ => None,
            })
    }
}

fn one_block() -> XgData {
    XgData::single(DataBlock::splat(9))
}

// ---------------------------------------------------------------------------
// Table 1 conformance: every (state, event) entry, checked directly.
// ---------------------------------------------------------------------------

#[test]
fn table1_row_i() {
    // I + Load → issue GetS / B
    let mut rig = Rig::new(AccelL1Config::default(), false, false);
    rig.op(CoreKind::Load, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS"]);
    assert_eq!(rig.state(0x100), "B");

    // I + Store → issue GetM / B
    let mut rig = Rig::new(AccelL1Config::default(), false, false);
    rig.op(CoreKind::Store { value: 1 }, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetM"]);
    assert_eq!(rig.state(0x100), "B");

    // I + Invalidate → send InvAck (stay I)
    let mut rig = Rig::new(AccelL1Config::default(), false, false);
    rig.xg_send(0x100, XgiKind::Inv);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["InvAck"]);
    assert_eq!(rig.state(0x100), "I");
}

#[test]
fn table1_row_b() {
    let mut rig = Rig::new(AccelL1Config::default(), false, false);
    rig.op(CoreKind::Load, 0x100);
    rig.run();
    assert_eq!(rig.state(0x100), "B");

    // B + Load/Store → stall (no new interface messages)
    rig.op(CoreKind::Load, 0x100);
    rig.op(CoreKind::Store { value: 2 }, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS"]);
    assert_eq!(rig.state(0x100), "B");

    // B + Invalidate → send InvAck, remain B
    rig.xg_send(0x100, XgiKind::Inv);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS", "InvAck"]);
    assert_eq!(rig.state(0x100), "B");

    // B + DataS → S (queued load served; queued store then upgrades)
    rig.xg_send(0x100, XgiKind::DataS { data: one_block() });
    rig.run();
    // The queued store found S and issued a GetM, so we are B again.
    assert_eq!(rig.xg_kinds(), vec!["GetS", "InvAck", "GetM"]);
    assert_eq!(rig.state(0x100), "B");
    rig.xg_send(0x100, XgiKind::DataM { data: one_block() });
    rig.run();
    assert_eq!(rig.state(0x100), "M");
}

#[test]
fn table1_grants_set_states() {
    for (kind, expect) in [
        (XgiKind::DataS { data: one_block() }, "S"),
        (XgiKind::DataE { data: one_block() }, "E"),
        (XgiKind::DataM { data: one_block() }, "M"),
    ] {
        let mut rig = Rig::new(AccelL1Config::default(), false, false);
        rig.op(CoreKind::Load, 0x100);
        rig.run();
        rig.xg_send(0x100, kind);
        rig.run();
        assert_eq!(rig.state(0x100), expect);
    }
}

#[test]
fn table1_row_s() {
    let fresh_s = || {
        let mut rig = Rig::new(AccelL1Config::default(), false, false);
        rig.op(CoreKind::Load, 0x100);
        rig.run();
        rig.xg_send(0x100, XgiKind::DataS { data: one_block() });
        rig.run();
        assert_eq!(rig.state(0x100), "S");
        rig
    };

    // S + Load → hit (no interface traffic)
    let mut rig = fresh_s();
    let id = rig.op(CoreKind::Load, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS"]);
    assert!(rig.load_value(id).is_some());

    // S + Store → issue GetM / B
    let mut rig = fresh_s();
    rig.op(CoreKind::Store { value: 3 }, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS", "GetM"]);
    assert_eq!(rig.state(0x100), "B");

    // S + Replacement → issue PutS / B   (1-set/1-way forces it)
    let cfg = AccelL1Config {
        sets: 1,
        ways: 1,
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, false, false);
    rig.op(CoreKind::Load, 0x100);
    rig.run();
    rig.xg_send(0x100, XgiKind::DataS { data: one_block() });
    rig.run();
    rig.op(CoreKind::Load, 0x140);
    rig.run();
    rig.xg_send(0x140, XgiKind::DataS { data: one_block() });
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS", "GetS", "PutS"]);
    assert_eq!(rig.state(0x100), "B");

    // S + Invalidate → send InvAck / I
    let mut rig = fresh_s();
    rig.xg_send(0x100, XgiKind::Inv);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS", "InvAck"]);
    assert_eq!(rig.state(0x100), "I");
}

#[test]
fn table1_row_e() {
    let fresh_e = || {
        let mut rig = Rig::new(AccelL1Config::default(), false, false);
        rig.op(CoreKind::Load, 0x100);
        rig.run();
        rig.xg_send(0x100, XgiKind::DataE { data: one_block() });
        rig.run();
        assert_eq!(rig.state(0x100), "E");
        rig
    };

    // E + Store → hit / M (silent upgrade, no traffic)
    let mut rig = fresh_e();
    rig.op(CoreKind::Store { value: 4 }, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS"]);
    assert_eq!(rig.state(0x100), "M");

    // E + Invalidate → send Clean Writeback / I
    let mut rig = fresh_e();
    rig.xg_send(0x100, XgiKind::Inv);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS", "CleanWb"]);
    assert_eq!(rig.state(0x100), "I");

    // E + Replacement → issue PutE / B
    let cfg = AccelL1Config {
        sets: 1,
        ways: 1,
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, false, false);
    rig.op(CoreKind::Load, 0x100);
    rig.run();
    rig.xg_send(0x100, XgiKind::DataE { data: one_block() });
    rig.run();
    rig.op(CoreKind::Load, 0x140);
    rig.run();
    rig.xg_send(0x140, XgiKind::DataS { data: one_block() });
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetS", "GetS", "PutE"]);
    assert_eq!(rig.state(0x100), "B");
}

#[test]
fn table1_row_m() {
    let fresh_m = || {
        let mut rig = Rig::new(AccelL1Config::default(), false, false);
        rig.op(CoreKind::Store { value: 5 }, 0x100);
        rig.run();
        rig.xg_send(0x100, XgiKind::DataM { data: one_block() });
        rig.run();
        assert_eq!(rig.state(0x100), "M");
        rig
    };

    // M + Load/Store → hit
    let mut rig = fresh_m();
    let id = rig.op(CoreKind::Load, 0x100);
    rig.op(CoreKind::Store { value: 6 }, 0x100);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetM"]);
    assert_eq!(rig.load_value(id), Some(5));

    // M + Invalidate → send Dirty Writeback / I
    let mut rig = fresh_m();
    rig.xg_send(0x100, XgiKind::Inv);
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetM", "DirtyWb"]);
    assert_eq!(rig.state(0x100), "I");

    // M + Replacement → issue PutM / B, then WbAck → I
    let cfg = AccelL1Config {
        sets: 1,
        ways: 1,
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, false, false);
    rig.op(CoreKind::Store { value: 7 }, 0x100);
    rig.run();
    rig.xg_send(0x100, XgiKind::DataM { data: one_block() });
    rig.run();
    rig.op(CoreKind::Load, 0x140);
    rig.run();
    rig.xg_send(0x140, XgiKind::DataS { data: one_block() });
    rig.run();
    assert_eq!(rig.xg_kinds(), vec!["GetM", "GetS", "PutM"]);
    assert_eq!(rig.state(0x100), "B");
    rig.xg_send(0x100, XgiKind::WbAck);
    rig.run();
    assert_eq!(rig.state(0x100), "I");
}

// ---------------------------------------------------------------------------
// End-to-end behavior against the auto-responding mock guard.
// ---------------------------------------------------------------------------

#[test]
fn store_load_roundtrip_through_interface() {
    let mut rig = Rig::new(AccelL1Config::default(), true, false);
    rig.op(CoreKind::Store { value: 99 }, 0x200);
    rig.run();
    let id = rig.op(CoreKind::Load, 0x200);
    rig.run();
    assert_eq!(rig.load_value(id), Some(99));
    let l1 = rig.sim.get::<AccelL1>(rig.l1).unwrap();
    assert_eq!(l1.protocol_violations(), 0);
}

#[test]
fn eviction_writes_back_through_interface() {
    let cfg = AccelL1Config {
        sets: 1,
        ways: 1,
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, true, false);
    rig.op(CoreKind::Store { value: 31 }, 0x100);
    rig.run();
    rig.op(CoreKind::Store { value: 32 }, 0x140);
    rig.run();
    let id = rig.op(CoreKind::Load, 0x100);
    rig.run();
    assert_eq!(rig.load_value(id), Some(31));
}

#[test]
fn multi_block_lines_round_trip() {
    let cfg = AccelL1Config {
        block_blocks: 4,
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, true, false);
    // Two addresses inside the same 256 B accelerator block.
    rig.op(CoreKind::Store { value: 5 }, 0x1000);
    rig.run();
    rig.op(CoreKind::Store { value: 6 }, 0x10C0);
    rig.run();
    // One GetM covers the whole accelerator block.
    assert_eq!(rig.xg_kinds(), vec!["GetM"]);
    let a = rig.op(CoreKind::Load, 0x1000);
    let b = rig.op(CoreKind::Load, 0x10C0);
    rig.run();
    assert_eq!(rig.load_value(a), Some(5));
    assert_eq!(rig.load_value(b), Some(6));
}

#[test]
fn next_line_prefetch_hides_streaming_misses() {
    let cfg = AccelL1Config {
        prefetch: Prefetch::NextLine { degree: 2 },
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, true, false);
    // Stream sequentially: after the first miss, the prefetcher should
    // stay ahead of the demand stream.
    for i in 0..16u64 {
        rig.op(CoreKind::Load, 0x2000 + i * 64);
        rig.run();
    }
    let l1 = rig.sim.get::<AccelL1>(rig.l1).unwrap();
    assert_eq!(l1.protocol_violations(), 0);
    let report = rig.sim.report();
    assert!(
        report.get("accel_l1.prefetches_issued") >= 8,
        "prefetcher never trained"
    );
    assert!(
        report.get("accel_l1.prefetch_hits") >= 8,
        "prefetches never hit: {} issued / {} hits",
        report.get("accel_l1.prefetches_issued"),
        report.get("accel_l1.prefetch_hits")
    );
    // Demand misses are only a fraction of accesses.
    assert!(report.get("accel_l1.hits") > report.get("accel_l1.misses"));
}

/// A prefetch opens its record the way a demand miss does, so the MSHR
/// histogram samples it too: one load miss with two blocks prefetched
/// leaves three records open, sampled at 1, 2 and 3.
#[test]
fn prefetches_are_sampled_in_the_mshr_histogram() {
    let cfg = AccelL1Config {
        prefetch: Prefetch::NextLine { degree: 2 },
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, false, false);
    rig.op(CoreKind::Load, 0x2000);
    rig.run();
    assert_eq!(rig.xg_kinds(), ["GetS", "GetS", "GetS"]);
    let report = rig.sim.report();
    let occupancy = report.hist("accel_l1.mshr_occupancy").unwrap();
    assert_eq!((occupancy.count(), occupancy.max()), (3, 3));
}

#[test]
fn prefetch_off_by_default_issues_nothing() {
    let mut rig = Rig::new(AccelL1Config::default(), true, false);
    for i in 0..8u64 {
        rig.op(CoreKind::Load, 0x2000 + i * 64);
        rig.run();
    }
    assert_eq!(rig.sim.report().get("accel_l1.prefetches_issued"), 0);
}

// ---------------------------------------------------------------------------
// Two-level organization: L1s sharing through the accelerator L2.
// ---------------------------------------------------------------------------

struct TwoLevel {
    sim: xg_proto::Sim,
    cores: Vec<NodeId>,
    l1s: Vec<NodeId>,
    l2: NodeId,
    xg: NodeId,
    next_id: u64,
}

impl TwoLevel {
    fn new(n: usize) -> Self {
        Self::with_l2(n, AccelL2Config::default())
    }

    fn with_l2(n: usize, l2: AccelL2Config) -> Self {
        let mut b = SimBuilder::new(11);
        let mut cores = Vec::new();
        let mut l1s = Vec::new();
        for i in 0..n {
            cores.push(b.add(Box::new(Probe {
                name: format!("acore{i}"),
                responses: Vec::new(),
            })));
        }
        let l2_id = NodeId::from_index(2 * n);
        let xg_id = NodeId::from_index(2 * n + 1);
        for i in 0..n {
            l1s.push(b.add(Box::new(AccelL1::new(
                format!("al1_{i}"),
                l2_id,
                AccelL1Config::default(),
            ))));
        }
        let l2 = b.add(Box::new(AccelL2::new("al2", xg_id, l2)));
        let xg = b.add(Box::new(MockGuard::new(true, true, 1)));
        assert_eq!((l2, xg), (l2_id, xg_id));
        b.default_link(Link::ordered(1, 2));
        TwoLevel {
            sim: b.build(),
            cores,
            l1s,
            l2,
            xg,
            next_id: 0,
        }
    }

    /// Sends `core` an op without running the simulation; returns its id.
    fn post(&mut self, core: usize, addr: u64, kind: CoreKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.sim.post(
            self.cores[core],
            self.l1s[core],
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind,
            }
            .into(),
        );
        id
    }

    fn store(&mut self, core: usize, addr: u64, value: u64) {
        self.post(core, addr, CoreKind::Store { value });
        assert!(self.sim.run_to_quiescence(50_000).quiescent);
    }

    fn load(&mut self, core: usize, addr: u64) -> u64 {
        let id = self.post(core, addr, CoreKind::Load);
        assert!(self.sim.run_to_quiescence(50_000).quiescent);
        self.sim
            .get::<Probe>(self.cores[core])
            .unwrap()
            .responses
            .iter()
            .find_map(|m| match (m.id == id, m.kind) {
                (true, CoreKind::LoadResp { value }) => Some(value),
                _ => None,
            })
            .expect("load response")
    }

    fn assert_clean(&self) {
        let report = self.sim.report();
        assert_eq!(report.sum_suffix(".protocol_violation"), 0);
    }

    /// Runs to quiescence and returns what the run leaves to compare: the
    /// report, the cores' responses and the guard's log.
    fn outcome(&mut self) -> String {
        assert!(self.sim.run_to_quiescence(50_000).quiescent);
        let responses: Vec<_> = self
            .cores
            .iter()
            .map(|&core| &self.sim.get::<Probe>(core).unwrap().responses)
            .collect();
        let log = &self.sim.get::<MockGuard>(self.xg).unwrap().log;
        format!("{}\n{responses:?}\n{log:?}", self.sim.report().to_json())
    }
}

/// Both accelerator caches checkpoint: a world saved mid-transaction (an
/// L1 in `B`, the L2's fetch at the guard) and restored over the run that
/// went on from there — every component copied back in place, the mock
/// guard's log into the buffer it already had — finishes exactly as the
/// run that was never interrupted.
#[test]
fn caches_restored_in_place_mid_transaction_resume_the_same_run() {
    // Five blocks of one L1 set (four ways): evictions and Puts as well.
    let ops = |tl: &mut TwoLevel| {
        for (i, addr) in [0x500, 0x1500, 0x2500, 0x3500, 0x4500, 0x500]
            .into_iter()
            .enumerate()
        {
            tl.post(i % 2, addr, CoreKind::Store { value: i as u64 });
            tl.post((i + 1) % 2, addr, CoreKind::Load);
        }
        tl.post(0, 0x500, CoreKind::Flush);
    };
    let mut straight = TwoLevel::new(2);
    ops(&mut straight);
    let expected = straight.outcome();

    let mut tl = TwoLevel::new(2);
    ops(&mut tl);
    while tl.sim.get::<MockGuard>(tl.xg).unwrap().log.is_empty() {
        assert!(tl.sim.step());
    }
    let l1 = tl.l1s[0];
    let block = Addr::new(0x500).block();
    assert_eq!(tl.sim.get::<AccelL1>(l1).unwrap().state_of(block), "B");
    let checkpoint = tl.sim.checkpoint().expect("every component checkpoints");
    for _ in 0..20 {
        assert!(tl.sim.step(), "the run is still in flight");
    }
    let log = tl.sim.get::<MockGuard>(tl.xg).unwrap().log.as_ptr();
    tl.sim.restore(&checkpoint);
    let kept = tl.sim.get::<MockGuard>(tl.xg).unwrap().log.as_ptr();
    assert_eq!(kept, log, "the log keeps its buffer");
    assert_eq!(tl.sim.get::<AccelL1>(l1).unwrap().state_of(block), "B");
    assert_eq!(tl.outcome(), expected);
}

#[test]
fn two_level_shares_without_host_traffic() {
    let mut tl = TwoLevel::new(2);
    tl.store(0, 0x500, 77);
    assert_eq!(tl.load(1, 0x500), 77);
    // Data moved L1→L2→L1; the guard saw only the original fill.
    let guard = tl.sim.get::<MockGuard>(tl.xg).unwrap();
    let gets = guard
        .kinds()
        .iter()
        .filter(|k| k.starts_with("Get"))
        .count();
    assert_eq!(gets, 1, "sharing must not cross the interface again");
    tl.assert_clean();
}

#[test]
fn two_level_write_after_read_recalls_sharer() {
    let mut tl = TwoLevel::new(3);
    tl.store(0, 0x600, 1);
    assert_eq!(tl.load(1, 0x600), 1);
    assert_eq!(tl.load(2, 0x600), 1);
    tl.store(1, 0x600, 2);
    assert_eq!(tl.load(0, 0x600), 2);
    assert_eq!(tl.load(2, 0x600), 2);
    tl.assert_clean();
}

#[test]
fn two_level_host_inv_collects_dirty_data() {
    let mut tl = TwoLevel::new(2);
    tl.store(0, 0x700, 42);
    // Host demands the block back through the guard.
    tl.sim.post(
        tl.xg,
        tl.l2,
        XgiMsg::new(Addr::new(0x700).block(), XgiKind::Inv).into(),
    );
    assert!(tl.sim.run_to_quiescence(50_000).quiescent);
    let guard = tl.sim.get::<MockGuard>(tl.xg).unwrap();
    assert!(guard.kinds().contains(&"DirtyWb"));
    // The dirty value survived into guard memory.
    let mem = guard.memory.get(&Addr::new(0x700).block()).unwrap();
    assert_eq!(mem[0].read_u64(0), 42);
    // And a re-read misses all the way to the guard.
    assert_eq!(tl.load(1, 0x700), 42);
    tl.assert_clean();
}

/// An owner L1's `PutM` that crosses the `Inv` of the L2's inclusive
/// eviction of the same block carries the newest data: the eviction's Put
/// must take it to the guard, or the core loses its own store.
#[test]
fn l2_eviction_keeps_the_data_of_a_put_that_crossed_its_recall() {
    let one_way = AccelL2Config {
        sets: 1,
        ways: 1,
        ..AccelL2Config::default()
    };
    let mut tl = TwoLevel::with_l2(2, one_way);
    let x = Addr::new(0x500);
    tl.store(0, x.as_u64(), 42);
    // Core 1's read of another block evicts X from the one-way L2, and core
    // 0's flush of X sends its `PutM` while the eviction's `Inv` is on the way.
    tl.post(1, 0x600, CoreKind::Load);
    for _ in 0..3 {
        assert!(tl.sim.step());
    }
    tl.post(0, x.as_u64(), CoreKind::Flush);
    assert!(tl.sim.run_to_quiescence(50_000).quiescent);
    let guard = tl.sim.get::<MockGuard>(tl.xg).unwrap();
    assert_eq!(guard.memory[&x.block()][0].read_u64(0), 42);
    assert_eq!(tl.load(0, x.as_u64()), 42);
    let report = tl.sim.report();
    let rows = report.fsm("accel_l2").expect("accel_l2 rows reported");
    let crossed = rows
        .iter()
        .find(|&(s, e, _)| (s, e) == ("Busy_EvictRecall", "PutM"));
    assert_eq!(
        crossed.map(|row| row.2),
        Some(1),
        "the Put crossed the recall"
    );
    tl.assert_clean();
}

#[test]
fn flush_writes_back_and_invalidates_locally() {
    let cfg = AccelL1Config {
        sets: 4,
        ways: 2,
        ..AccelL1Config::default()
    };
    let mut rig = Rig::new(cfg, true, false);
    rig.op(CoreKind::Store { value: 5 }, 0x100);
    rig.run();
    assert_eq!(rig.state(0x100), "M");
    rig.op(CoreKind::Flush, 0x100);
    rig.run();
    assert_eq!(rig.state(0x100), "I");
    // The dirty data reached the guard's memory model via PutM.
    let guard = rig.sim.get::<MockGuard>(rig.xg).unwrap();
    assert_eq!(
        guard.memory.get(&Addr::new(0x100).block()).unwrap()[0].read_u64(0),
        5
    );
    // A flush of an absent block is an immediate ack.
    rig.op(CoreKind::Flush, 0x900);
    rig.run();
    let probe = rig.sim.get::<Probe>(rig.core).unwrap();
    assert!(
        probe
            .responses
            .iter()
            .filter(|m| matches!(m.kind, CoreKind::FlushResp))
            .count()
            >= 2
    );
}

/// Weak sharing (§2.1): a writer does not invalidate its siblings; their
/// reads stay stale until *both* sides flush. The handoff protocol —
/// producer flushes, consumer flushes then reloads — works.
#[test]
fn weak_sharing_requires_explicit_flushes() {
    let mut tl = TwoLevelWeak::new(2);
    // Producer reads first (clean-exclusive), consumer's read then recalls
    // it and takes a *shared* copy.
    assert_eq!(tl.load(0, 0x500), 0);
    assert_eq!(tl.load(1, 0x500), 0);
    // Producer writes 7; in weak mode the consumer is NOT invalidated.
    tl.store(0, 0x500, 7);
    // Consumer still sees its stale copy: allowed by the model.
    assert_eq!(tl.load(1, 0x500), 0);
    // Handoff: producer flushes (data reaches the accel L2) ...
    tl.flush(0, 0x500);
    // ... consumer still holds its stale S copy ...
    assert_eq!(tl.load(1, 0x500), 0);
    // ... until it flushes too, and the reload observes the new value.
    tl.flush(1, 0x500);
    assert_eq!(tl.load(1, 0x500), 7);
    tl.assert_clean();
}

struct TwoLevelWeak(TwoLevel);

impl TwoLevelWeak {
    fn new(n: usize) -> Self {
        let weak = AccelL2Config {
            weak_sharing: true,
            ..AccelL2Config::default()
        };
        TwoLevelWeak(TwoLevel::with_l2(n, weak))
    }
    fn load(&mut self, core: usize, addr: u64) -> u64 {
        self.0.load(core, addr)
    }
    fn store(&mut self, core: usize, addr: u64, value: u64) {
        self.0.store(core, addr, value)
    }
    fn flush(&mut self, core: usize, addr: u64) {
        let id = self.0.next_id;
        self.0.next_id += 1;
        self.0.sim.post(
            self.0.cores[core],
            self.0.l1s[core],
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind: CoreKind::Flush,
            }
            .into(),
        );
        assert!(self.0.sim.run_to_quiescence(50_000).quiescent);
    }
    fn assert_clean(&self) {
        self.0.assert_clean()
    }
}

#[test]
fn two_level_heavy_interleaving_converges() {
    let mut tl = TwoLevel::new(4);
    for i in 0..24u64 {
        let core = (i % 4) as usize;
        let addr = 0x800 + (i % 3) * 64;
        if i % 2 == 0 {
            tl.store(core, addr, i + 1);
        } else {
            let _ = tl.load(core, addr);
        }
    }
    for blk in 0..3u64 {
        let addr = 0x800 + blk * 64;
        let v = tl.load(0, addr);
        for core in 1..4 {
            assert_eq!(tl.load(core, addr), v);
        }
    }
    tl.assert_clean();
}

/// Three requests parked behind a busy block are served in arrival order,
/// across transactions that hand the block from one busy state straight to
/// the next; the upward Get is timed from the cycle it was issued; and once
/// the queue is empty the L2 holds nothing for the block.
#[test]
fn l2_queue_drains_fifo_across_busy_handovers() {
    // Unscripted `MockGuard`s only record: four stand in for the L1s.
    let mut b = SimBuilder::new(12);
    let l1s: Vec<NodeId> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| {
            b.add(Box::new(MockGuard {
                name: format!("l1_{n}"),
                ..MockGuard::new(false, false, 1)
            }))
        })
        .collect();
    let (a, bb, c, d) = (l1s[0], l1s[1], l1s[2], l1s[3]);
    let xg = b.add(Box::new(MockGuard::new(false, false, 1)));
    let l2 = b.add(Box::new(AccelL2::new("al2", xg, AccelL2Config::default())));
    b.default_link(Link::ordered(1, 1));
    let mut sim = b.build();
    let x = BlockAddr::new(0x30);
    let send = |sim: &mut xg_proto::Sim, from: NodeId, kind: XgiKind| {
        sim.post(from, l2, XgiMsg::new(x, kind).into());
        assert!(sim.run_to_quiescence(10_000).quiescent);
    };
    let received = |sim: &xg_proto::Sim, node: NodeId| sim.get::<MockGuard>(node).unwrap().kinds();

    // A's GetM misses: the block goes busy fetching from the guard.
    sim.post(a, l2, XgiMsg::new(x, XgiKind::GetM).into());
    assert!(sim.step());
    let fetch_from = sim.now();
    // B, C and D arrive while it is busy and park in that order.
    send(&mut sim, bb, XgiKind::GetS);
    send(&mut sim, c, XgiKind::GetM);
    send(&mut sim, d, XgiKind::GetS);
    assert_eq!(received(&sim, xg), ["GetM"]);
    // The grant lands: A gets M, and B's GetS turns the block busy again at
    // once, recalling A.
    sim.post(
        xg,
        l2,
        XgiMsg::new(x, XgiKind::DataM { data: one_block() }).into(),
    );
    assert!(sim.step());
    let fetch_until = sim.now();
    assert!(sim.run_to_quiescence(10_000).quiescent);
    assert_eq!(received(&sim, a), ["DataM", "Inv"]);
    // A gives the block up, B reads; C's GetM recalls B; D's GetS recalls C.
    send(&mut sim, a, XgiKind::DirtyWb { data: one_block() });
    assert_eq!(received(&sim, bb), ["DataS", "Inv"]);
    send(&mut sim, bb, XgiKind::InvAck);
    assert_eq!(received(&sim, c), ["DataM", "Inv"]);
    send(&mut sim, c, XgiKind::DirtyWb { data: one_block() });
    assert_eq!(received(&sim, d), ["DataS"]);
    assert_eq!(received(&sim, a), ["DataM", "Inv"]);
    assert_eq!(
        received(&sim, xg),
        ["GetM"],
        "all served inside the accelerator"
    );

    // Another block's fetch samples the busy population: X left nothing.
    sim.post(
        a,
        l2,
        XgiMsg::new(BlockAddr::new(0x40), XgiKind::GetS).into(),
    );
    assert!(sim.run_to_quiescence(10_000).quiescent);
    let report = sim.report();
    assert_eq!(report.get("al2.protocol_violation"), 0);
    let occupancy = report.hist("al2.mshr_occupancy").unwrap();
    assert_eq!((occupancy.count(), occupancy.max()), (2, 1));
    let up_get = report.hist("al2.lat.up_get").unwrap();
    assert_eq!(
        (up_get.count(), up_get.sum()),
        (1, fetch_until - fetch_from)
    );
}

/// A grant that finds the only way of its set mid-transaction parks in
/// `Busy_Install` and arms no timer: the kernel queue drains empty. It is
/// retried where the blocking record closes, and installs in that cycle.
#[test]
fn l2_parked_grant_installs_when_the_blocking_record_closes() {
    // Unscripted `MockGuard`s only record: three stand in for the L1s.
    let mut b = SimBuilder::new(13);
    let l1s: Vec<NodeId> = ["a", "b", "c"]
        .iter()
        .map(|n| {
            b.add(Box::new(MockGuard {
                name: format!("l1_{n}"),
                ..MockGuard::new(false, false, 1)
            }))
        })
        .collect();
    let (a, bb, c) = (l1s[0], l1s[1], l1s[2]);
    let xg = b.add(Box::new(MockGuard::new(false, false, 1)));
    let cfg = AccelL2Config {
        sets: 1,
        ways: 1,
        ..AccelL2Config::default()
    };
    let l2 = b.add(Box::new(AccelL2::new("al2", xg, cfg)));
    b.default_link(Link::ordered(1, 1));
    let mut sim = b.build();
    let (x, y) = (BlockAddr::new(0x30), BlockAddr::new(0x31));
    let send = |sim: &mut xg_proto::Sim, from: NodeId, addr, kind: XgiKind| {
        sim.post(from, l2, XgiMsg::new(addr, kind).into());
        assert!(sim.run_to_quiescence(10_000).quiescent);
    };
    let received = |sim: &xg_proto::Sim, node: NodeId| sim.get::<MockGuard>(node).unwrap().kinds();

    // A owns X; B's read recalls it from A, so X holds the only way with
    // its record open (Busy_Recall).
    send(&mut sim, a, x, XgiKind::GetM);
    send(&mut sim, xg, x, XgiKind::DataM { data: one_block() });
    send(&mut sim, bb, x, XgiKind::GetS);
    assert_eq!(received(&sim, a), ["DataM", "Inv"]);
    // C's read of Y is granted by the guard and finds no victim: parked.
    send(&mut sim, c, y, XgiKind::GetS);
    send(&mut sim, xg, y, XgiKind::DataS { data: one_block() });
    let queue = sim.queue_stats();
    assert_eq!(queue.pushes, queue.pops, "no timer is left in the queue");
    assert_eq!(sim.report().get("al2.install_retries"), 1);
    assert!(received(&sim, c).is_empty());

    // A's writeback closes X's record; Y installs in the same cycle: C's
    // grant is sent then, and arrives one link hop later.
    sim.post(
        a,
        l2,
        XgiMsg::new(x, XgiKind::DirtyWb { data: one_block() }).into(),
    );
    assert!(sim.step());
    let closed = sim.now();
    while received(&sim, c).is_empty() {
        assert!(sim.step());
    }
    assert_eq!(sim.now() - closed, 1);
    assert!(sim.run_to_quiescence(10_000).quiescent);
    assert_eq!(received(&sim, c), ["DataS"]);
    // B was granted X, then asked for it back: X is Y's victim.
    assert_eq!(received(&sim, bb), ["DataS", "Inv"]);
    let report = sim.report();
    assert_eq!(report.get("al2.install_retries"), 1);
    assert_eq!(report.get("al2.protocol_violation"), 0);
}
