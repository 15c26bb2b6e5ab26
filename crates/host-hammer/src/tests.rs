//! Directed end-to-end tests of the Hammer protocol (cache + directory).

use xg_mem::Addr;
use xg_proto::{CoreKind, CoreMsg, Ctx, HammerKind, HammerMsg, Message};
use xg_sim::{Component, Link, NodeId, SimBuilder};

use crate::{HammerCache, HammerConfig, HammerDirectory};

/// A passive core that records every response it receives.
pub(crate) struct TestCore {
    name: String,
    pub responses: Vec<CoreMsg>,
}

impl TestCore {
    pub fn new(name: impl Into<String>) -> Self {
        TestCore {
            name: name.into(),
            responses: Vec::new(),
        }
    }

    pub fn last_load_value(&self) -> Option<u64> {
        self.responses.iter().rev().find_map(|m| match m.kind {
            CoreKind::LoadResp { value } => Some(value),
            _ => None,
        })
    }
}

impl Component<Message> for TestCore {
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

struct System {
    sim: xg_proto::Sim,
    cores: Vec<NodeId>,
    caches: Vec<NodeId>,
    dir: NodeId,
    next_id: u64,
}

impl System {
    fn new(n: usize, cfg: HammerConfig, seed: u64) -> Self {
        System::with_slow_requests(n, cfg, seed, &[])
    }

    /// [`System::new`], with the requests of the caches in `slow` taking
    /// 300 cycles to reach the directory.
    fn with_slow_requests(n: usize, cfg: HammerConfig, seed: u64, slow: &[usize]) -> Self {
        let mut b = SimBuilder::new(seed);
        // Directory id is assigned after caches, so pre-compute it:
        // nodes are cores (0..n), caches (n..2n), dir (2n).
        let mut cores = Vec::new();
        let mut caches = Vec::new();
        for i in 0..n {
            cores.push(b.add(Box::new(TestCore::new(format!("core{i}")))));
        }
        let dir_id = NodeId::from_index(2 * n);
        for i in 0..n {
            caches.push(b.add(Box::new(HammerCache::new(
                format!("l2_{i}"),
                dir_id,
                cfg.clone(),
            ))));
        }
        let dir = b.add(Box::new(HammerDirectory::new("dir", caches.clone(), 20)));
        assert_eq!(dir, dir_id);
        b.default_link(Link::unordered(1, 12));
        for &i in slow {
            b.link(caches[i], dir, Link::ordered(300, 300));
        }
        for i in 0..n {
            b.link_bidi(cores[i], caches[i], Link::ordered(1, 1));
        }
        System {
            sim: b.build(),
            cores,
            caches,
            dir,
            next_id: 0,
        }
    }

    /// Posts one core op without running the simulation.
    fn post(&mut self, core: usize, addr: u64, kind: CoreKind) {
        let id = self.next_id;
        self.next_id += 1;
        let addr = Addr::new(addr);
        self.sim.post(
            self.cores[core],
            self.caches[core],
            CoreMsg { id, addr, kind }.into(),
        );
    }

    fn store(&mut self, core: usize, addr: u64, value: u64) {
        self.post(core, addr, CoreKind::Store { value });
        assert!(self.sim.run_to_quiescence(100_000).quiescent);
    }

    fn load(&mut self, core: usize, addr: u64) -> u64 {
        self.post(core, addr, CoreKind::Load);
        assert!(self.sim.run_to_quiescence(100_000).quiescent);
        self.sim
            .get::<TestCore>(self.cores[core])
            .unwrap()
            .last_load_value()
            .expect("load response")
    }

    fn assert_clean(&self) {
        let report = self.sim.report();
        assert_eq!(report.sum_suffix(".protocol_violation"), 0);
        assert_eq!(report.sum_suffix(".unexpected_nack"), 0);
    }
}

#[test]
fn store_then_load_same_core() {
    let mut sys = System::new(2, HammerConfig::default(), 1);
    sys.store(0, 0x100, 77);
    assert_eq!(sys.load(0, 0x100), 77);
    sys.assert_clean();
}

#[test]
fn dirty_data_forwards_between_caches() {
    let mut sys = System::new(2, HammerConfig::default(), 2);
    sys.store(0, 0x200, 1234);
    // Core 1 reads the dirty data; owner supplies it (memory is stale).
    assert_eq!(sys.load(1, 0x200), 1234);
    let dir = sys.sim.get::<HammerDirectory>(sys.dir).unwrap();
    // The store never reached memory: only the owner has it.
    assert_eq!(dir.read_memory(Addr::new(0x200).block()).read_u64(0), 0);
    sys.assert_clean();
}

#[test]
fn upgrade_invalidates_sharers() {
    let mut sys = System::new(3, HammerConfig::default(), 3);
    sys.store(0, 0x300, 1);
    assert_eq!(sys.load(1, 0x300), 1);
    assert_eq!(sys.load(2, 0x300), 1);
    // Core 1 upgrades (S→M through GetM) and writes.
    sys.store(1, 0x300, 2);
    assert_eq!(sys.load(0, 0x300), 2);
    assert_eq!(sys.load(2, 0x300), 2);
    sys.assert_clean();
}

#[test]
fn exclusive_grant_on_unshared_read() {
    let mut sys = System::new(2, HammerConfig::default(), 4);
    assert_eq!(sys.load(0, 0x400), 0);
    // The read got E, so the following store is a silent upgrade: the
    // directory sees no GetM.
    sys.store(0, 0x400, 5);
    let report = sys.sim.report();
    assert_eq!(report.get("dir.getms"), 0);
    assert_eq!(sys.load(0, 0x400), 5);
    sys.assert_clean();
}

#[test]
fn shared_grant_when_another_reader_exists() {
    let mut sys = System::new(2, HammerConfig::default(), 5);
    assert_eq!(sys.load(0, 0x500), 0);
    assert_eq!(sys.load(1, 0x500), 0);
    // Core 1's store now requires a GetM (it only has S).
    sys.store(1, 0x500, 9);
    let report = sys.sim.report();
    assert!(report.get("dir.getms") >= 1);
    assert_eq!(sys.load(0, 0x500), 9);
    sys.assert_clean();
}

#[test]
fn eviction_writes_back_dirty_data() {
    let cfg = HammerConfig {
        sets: 1,
        ways: 1,
        ..HammerConfig::default()
    };
    let mut sys = System::new(1, cfg, 6);
    sys.store(0, 0x100, 11);
    // Different block, same (only) set: evicts and writes back 0x100.
    sys.store(0, 0x140, 22);
    let dir = sys.sim.get::<HammerDirectory>(sys.dir).unwrap();
    assert_eq!(dir.read_memory(Addr::new(0x100).block()).read_u64(0), 11);
    assert_eq!(sys.load(0, 0x100), 11);
    assert_eq!(sys.load(0, 0x140), 22);
    sys.assert_clean();
}

#[test]
fn silent_shared_eviction_produces_no_put() {
    let cfg = HammerConfig {
        sets: 1,
        ways: 1,
        ..HammerConfig::default()
    };
    let mut sys = System::new(2, cfg, 7);
    // Make 0x100 shared in cache 0 (cache 1 holds it too).
    sys.store(1, 0x100, 3);
    assert_eq!(sys.load(0, 0x100), 3);
    let puts_before = sys.sim.report().get("dir.puts");
    // Evict the shared block from cache 0 by loading another block.
    let _ = sys.load(0, 0x140);
    let report = sys.sim.report();
    assert_eq!(
        report.get("dir.puts"),
        puts_before,
        "S eviction must be silent"
    );
    assert!(report.sum_suffix(".silent_drops") >= 1);
    sys.assert_clean();
}

#[test]
fn many_cores_hammer_one_block() {
    let mut sys = System::new(4, HammerConfig::default(), 8);
    for round in 0..6u64 {
        let writer = (round % 4) as usize;
        sys.store(writer, 0x700, round + 1);
        for reader in 0..4 {
            assert_eq!(sys.load(reader, 0x700), round + 1, "round {round}");
        }
    }
    sys.assert_clean();
}

#[test]
fn concurrent_racing_ops_converge() {
    // Fire overlapping stores/loads from all cores without quiescing in
    // between; afterwards all cores must agree on the final value.
    let mut sys = System::new(4, HammerConfig::default(), 9);
    for i in 0..4 {
        let id = sys.next_id;
        sys.next_id += 1;
        sys.sim.post(
            sys.cores[i],
            sys.caches[i],
            CoreMsg {
                id,
                addr: Addr::new(0x800),
                kind: CoreKind::Store {
                    value: 100 + i as u64,
                },
            }
            .into(),
        );
    }
    assert!(sys.sim.run_to_quiescence(1_000_000).quiescent);
    let v = sys.load(0, 0x800);
    for core in 1..4 {
        assert_eq!(sys.load(core, 0x800), v);
    }
    assert!((100..104).contains(&v));
    sys.assert_clean();
}

#[test]
fn coverage_records_transients() {
    let mut sys = System::new(3, HammerConfig::default(), 10);
    for round in 0..8u64 {
        sys.store((round % 3) as usize, 0x900, round);
        let _ = sys.load(((round + 1) % 3) as usize, 0x900);
    }
    let report = sys.sim.report();
    let cov = report.coverage("hammer_cache/l2_0").unwrap();
    assert!(cov.contains("I", "Load") || cov.contains("I", "Store"));
    assert!(!cov.is_empty());
    let dir_cov = report.coverage("hammer_dir/dir").unwrap();
    assert!(dir_cov.contains("O_mem", "GetM") || dir_cov.contains("NO", "GetM"));
}

#[test]
fn mshr_pressure_stalls_but_completes() {
    let cfg = HammerConfig {
        sets: 2,
        ways: 1,
        mshr_entries: 1,
        ..HammerConfig::default()
    };
    let mut sys = System::new(1, cfg, 11);
    // Issue many concurrent misses to force MSHR stalls.
    for i in 0..8u64 {
        sys.post(0, 0x1000 + i * 64, CoreKind::Store { value: i });
    }
    assert!(sys.sim.run_to_quiescence(1_000_000).quiescent);
    for i in 0..8u64 {
        assert_eq!(sys.load(0, 0x1000 + i * 64), i);
    }
    sys.assert_clean();
}

/// A stray `WbAck` / `WbNack` landing while a Get is open is counted and
/// changes nothing: the handler takes the record out of the MSHR, sees it is
/// not a writeback and puts it back whole — transaction, start cycle and
/// parked core ops.
#[test]
fn stray_writeback_answers_leave_an_open_get_intact() {
    let mut sys = System::new(1, HammerConfig::default(), 12);
    let block = Addr::new(0x2000).block();
    let state = |sys: &System| {
        let cache = sys.sim.get::<HammerCache>(sys.caches[0]).unwrap();
        cache.probe_state(block)
    };
    // One miss and two ops parked behind it.
    sys.post(0, 0x2000, CoreKind::Load);
    sys.post(0, 0x2000, CoreKind::Store { value: 7 });
    sys.post(0, 0x2000, CoreKind::Load);
    assert!(sys.sim.step());
    let opened = sys.sim.now();
    assert_eq!(state(&sys), "IS");
    while sys.sim.report().get("l2_0.loads") + sys.sim.report().get("l2_0.stores") < 3 {
        assert!(sys.sim.step());
    }
    // Memory alone takes 20 cycles; the strays are there within 12.
    for kind in [HammerKind::WbAck, HammerKind::WbNack] {
        let stray = HammerMsg::new(block, kind);
        sys.sim.post(sys.dir, sys.caches[0], stray.into());
    }
    while sys.sim.report().get("l2_0.protocol_violation") < 2 {
        assert!(sys.sim.step());
    }
    assert_eq!(state(&sys), "IS", "the Get must still be open");
    while state(&sys) == "IS" {
        assert!(sys.sim.step());
    }
    let completed = sys.sim.now();
    assert!(sys.sim.run_to_quiescence(100_000).quiescent);

    let report = sys.sim.report();
    assert_eq!(report.get("l2_0.violation[WbAck without writeback]"), 1);
    assert_eq!(report.get("l2_0.violation[WbNack without writeback]"), 1);
    assert_eq!(report.get("l2_0.unexpected_nack"), 0);
    // The missing Load is re-handled with the two parked ops; all three hit.
    assert_eq!((report.get("l2_0.misses"), report.get("l2_0.hits")), (1, 3));
    let miss = report.hist("l2_0.lat.miss").unwrap();
    assert_eq!((miss.count(), miss.sum()), (1, completed - opened));
    let answers: Vec<_> = sys
        .sim
        .get::<TestCore>(sys.cores[0])
        .unwrap()
        .responses
        .iter()
        .map(|m| (m.id, m.kind))
        .collect();
    assert_eq!(
        answers,
        [
            (0, CoreKind::LoadResp { value: 0 }),
            (1, CoreKind::StoreResp),
            (2, CoreKind::LoadResp { value: 7 }),
        ]
    );
}

/// `probe_state` speaks the module table's vocabulary — stable and
/// transient names alike — now that the state behind it is an enum.
#[test]
fn probe_state_names_follow_the_module_table() {
    let cfg = HammerConfig {
        sets: 1,
        ways: 1,
        ..HammerConfig::default()
    };
    let mut sys = System::new(2, cfg, 21);
    let block = Addr::new(0x100).block();
    let mut seen = [vec!["I"], vec!["I"]];
    let mut run = |sys: &mut System, core: usize, addr: u64, kind: CoreKind| {
        sys.post(core, addr, kind);
        while sys.sim.step() {
            for (cache, seen) in sys.caches.iter().zip(&mut seen) {
                let state = sys
                    .sim
                    .get::<HammerCache>(*cache)
                    .unwrap()
                    .probe_state(block);
                if seen.last() != Some(&state) {
                    seen.push(state);
                }
            }
        }
    };
    run(&mut sys, 0, 0x100, CoreKind::Store { value: 1 });
    run(&mut sys, 1, 0x100, CoreKind::Load);
    run(&mut sys, 0, 0x100, CoreKind::Store { value: 2 });
    run(&mut sys, 1, 0x100, CoreKind::Load);
    run(&mut sys, 1, 0x100, CoreKind::Store { value: 3 });
    // Another block in the only set: the dirty line is written back.
    run(&mut sys, 1, 0x140, CoreKind::Store { value: 4 });
    assert_eq!(seen[0], ["I", "IM", "M", "O", "OM", "M", "O", "I"]);
    assert_eq!(
        seen[1],
        ["I", "IS", "S", "I", "IS", "S", "SM", "M", "WB", "I"]
    );
    sys.assert_clean();
}

/// A fill that evicts an owner writes it back even when every MSHR is in
/// use while Gets are open: closing the Get frees the slot its victim's
/// writeback takes, so the no-MSHR fallback in `start_writeback` (reinstall
/// the victim, after which the fill would push out another line) never
/// runs, and no line leaves the array without a Put.
#[test]
fn a_fill_with_every_mshr_taken_still_writes_its_victim_back() {
    let cfg = HammerConfig {
        sets: 1,
        ways: 2,
        mshr_entries: 1,
        ..HammerConfig::default()
    };
    let mut sys = System::new(1, cfg, 22);
    // Six dirty blocks through two ways and one MSHR: four owner evictions.
    for i in 0..6u64 {
        sys.store(0, 0x1000 + i * 64, 100 + i);
    }
    let report = sys.sim.report();
    assert_eq!(report.get("l2_0.mshr_stalls"), 0);
    assert_eq!(
        report.get("l2_0.violation[fill evicted a line without a writeback]"),
        0
    );
    assert_eq!(report.get("l2_0.writebacks"), 4);
    let dir = sys.sim.get::<HammerDirectory>(sys.dir).unwrap();
    for i in 0..4u64 {
        let block = Addr::new(0x1000 + i * 64).block();
        assert_eq!(dir.read_memory(block).read_u64(0), 100 + i);
    }
    for i in 0..6u64 {
        assert_eq!(sys.load(0, 0x1000 + i * 64), 100 + i);
    }
    sys.assert_clean();
}

/// The owner rule for a writeback-pending owner. Cache 0 holds `O` dirty
/// beside cache 1's `S`, and evicts it; while its `Put` is still on the
/// way, cache 2's read is served. The pending writeback answers with its
/// data and stays the owner, so cache 2 installs `S`: at no step does an
/// `M`/`E` copy sit beside a sharer, and the directory accepts the
/// writeback.
#[test]
fn a_read_served_by_a_pending_writeback_installs_shared() {
    let cfg = HammerConfig {
        sets: 1,
        ways: 1,
        ..HammerConfig::default()
    };
    let mut sys = System::with_slow_requests(3, cfg, 23, &[0]);
    let block = Addr::new(0x100).block();
    let states = |sys: &System| -> Vec<&'static str> {
        let cache = |id| sys.sim.get::<HammerCache>(id).unwrap();
        sys.caches
            .iter()
            .map(|&id| cache(id).probe_state(block))
            .collect()
    };
    sys.store(0, 0x100, 41);
    assert_eq!(sys.load(1, 0x100), 41);
    assert_eq!(states(&sys), ["O", "S", "I"]);

    // Cache 0 fills another block of its only set and evicts the owner.
    sys.post(0, 0x140, CoreKind::Load);
    while states(&sys)[0] != "WB" {
        assert!(sys.sim.step(), "the owner never started its writeback");
    }
    sys.post(2, 0x100, CoreKind::Load);
    while sys.sim.step() {
        let now = states(&sys);
        let exclusive = now.iter().filter(|s| matches!(**s, "M" | "E")).count();
        let copies = now
            .iter()
            .filter(|s| matches!(**s, "M" | "O" | "E" | "S"))
            .count();
        assert!(exclusive == 0 || copies == 1, "SWMR broken: {now:?}");
    }
    assert_eq!(states(&sys), ["I", "S", "S"]);
    assert_eq!(
        sys.sim
            .get::<TestCore>(sys.cores[2])
            .unwrap()
            .last_load_value(),
        Some(41)
    );
    let dir = sys.sim.get::<HammerDirectory>(sys.dir).unwrap();
    assert_eq!(dir.nacks(), 0, "the owner's writeback is accepted");
    assert_eq!(dir.read_memory(block).read_u64(0), 41);
    let report = sys.sim.report();
    let cov = report.coverage("hammer_cache/l2_0").unwrap();
    assert!(cov.contains("WB", "FwdGetS"), "the read met the writeback");
    sys.assert_clean();
}
