//! Directed end-to-end tests of the MESI protocol (L1s + inclusive L2).

use xg_mem::Addr;
use xg_mem::DataBlock;
use xg_mem::Recycle;
use xg_proto::{CoreKind, CoreMsg, Ctx, MesiKind, MesiMsg, Message};
use xg_sim::{Component, Link, NodeId, SimBuilder};

use crate::{MesiL1, MesiL1Config, MesiL2, MesiL2Config};

/// A passive core recording responses.
struct TestCore {
    name: String,
    responses: Vec<CoreMsg>,
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
    l1s: Vec<NodeId>,
    l2: NodeId,
    next_id: u64,
}

impl System {
    fn new(n: usize, l1cfg: MesiL1Config, l2cfg: MesiL2Config, seed: u64) -> Self {
        let mut b = SimBuilder::new(seed);
        let mut cores = Vec::new();
        let mut l1s = Vec::new();
        for i in 0..n {
            cores.push(b.add(Box::new(TestCore {
                name: format!("core{i}"),
                responses: Vec::new(),
            })));
        }
        let l2_id = NodeId::from_index(2 * n);
        for i in 0..n {
            l1s.push(b.add(Box::new(MesiL1::new(
                format!("l1_{i}"),
                l2_id,
                l1cfg.clone(),
            ))));
        }
        let l2 = b.add(Box::new(MesiL2::new("l2", l2cfg)));
        assert_eq!(l2, l2_id);
        b.default_link(Link::unordered(1, 12));
        for i in 0..n {
            b.link_bidi(cores[i], l1s[i], Link::ordered(1, 1));
        }
        System {
            sim: b.build(),
            cores,
            l1s,
            l2,
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
            self.l1s[core],
            CoreMsg { id, addr, kind }.into(),
        );
    }

    fn post_store(&mut self, core: usize, addr: u64, value: u64) {
        self.post(core, addr, CoreKind::Store { value });
    }

    fn store(&mut self, core: usize, addr: u64, value: u64) {
        self.post_store(core, addr, value);
        assert!(self.sim.run_to_quiescence(200_000).quiescent);
    }

    fn load(&mut self, core: usize, addr: u64) -> u64 {
        let id = self.next_id;
        self.post(core, addr, CoreKind::Load);
        assert!(self.sim.run_to_quiescence(200_000).quiescent);
        self.sim
            .get::<TestCore>(self.cores[core])
            .unwrap()
            .responses
            .iter()
            .rev()
            .find_map(|m| match (m.id == id, m.kind) {
                (true, CoreKind::LoadResp { value }) => Some(value),
                _ => None,
            })
            .expect("load response")
    }

    fn assert_clean(&self) {
        let report = self.sim.report();
        assert_eq!(
            report.sum_suffix(".protocol_violation"),
            0,
            "protocol violations recorded"
        );
    }
}

fn default_sys(n: usize, seed: u64) -> System {
    System::new(n, MesiL1Config::default(), MesiL2Config::default(), seed)
}

#[test]
fn store_then_load_same_core() {
    let mut sys = default_sys(2, 1);
    sys.store(0, 0x100, 42);
    assert_eq!(sys.load(0, 0x100), 42);
    sys.assert_clean();
}

#[test]
fn owner_forwards_dirty_data() {
    let mut sys = default_sys(2, 2);
    sys.store(0, 0x200, 7);
    // Memory is stale; the owner must forward.
    assert_eq!(sys.load(1, 0x200), 7);
    let l2 = sys.sim.get::<MesiL2>(sys.l2).unwrap();
    // The FwdGetS refreshed the L2 copy.
    assert_eq!(l2.read_memory(Addr::new(0x200).block()).read_u64(0), 0);
    sys.assert_clean();
}

#[test]
fn upgrade_with_ack_counting() {
    let mut sys = default_sys(4, 3);
    sys.store(0, 0x300, 1);
    for c in 0..4 {
        assert_eq!(sys.load(c, 0x300), 1);
    }
    // Core 3 upgrades; three sharers must InvAck it.
    sys.store(3, 0x300, 2);
    for c in 0..4 {
        assert_eq!(sys.load(c, 0x300), 2);
    }
    let report = sys.sim.report();
    assert!(report.get("l2.inv_rounds") >= 1);
    sys.assert_clean();
}

#[test]
fn exclusive_grant_enables_silent_upgrade() {
    let mut sys = default_sys(2, 4);
    assert_eq!(sys.load(0, 0x400), 0);
    sys.store(0, 0x400, 5);
    let report = sys.sim.report();
    // E grant means no GetM ever reached the L2.
    assert_eq!(report.get("l2.getms"), 0);
    sys.assert_clean();
}

#[test]
fn put_s_is_explicit_for_exact_tracking() {
    let l1cfg = MesiL1Config {
        sets: 1,
        ways: 1,
        ..MesiL1Config::default()
    };
    let mut sys = System::new(2, l1cfg, MesiL2Config::default(), 5);
    // Share 0x100 in both L1s.
    sys.store(1, 0x100, 3);
    assert_eq!(sys.load(0, 0x100), 3);
    // Evict it from L1 0 by touching another block in the same set.
    let _ = sys.load(0, 0x140);
    let report = sys.sim.report();
    assert!(report.get("l2.put_s") >= 1, "PutS must be explicit");
    sys.assert_clean();
}

#[test]
fn dirty_eviction_reaches_l2() {
    let l1cfg = MesiL1Config {
        sets: 1,
        ways: 1,
        ..MesiL1Config::default()
    };
    let mut sys = System::new(1, l1cfg, MesiL2Config::default(), 6);
    sys.store(0, 0x100, 11);
    sys.store(0, 0x140, 22); // evicts 0x100 with PutM
    assert_eq!(sys.load(0, 0x100), 11);
    assert_eq!(sys.load(0, 0x140), 22);
    sys.assert_clean();
}

#[test]
fn inclusive_l2_eviction_recalls_l1_copies() {
    let l2cfg = MesiL2Config {
        sets: 1,
        ways: 2,
        ..MesiL2Config::default()
    };
    let mut sys = System::new(2, MesiL1Config::default(), l2cfg, 7);
    sys.store(0, 0x100, 1);
    sys.store(0, 0x140, 2);
    // A third block forces an L2 eviction; the victim lives in L1 0 and
    // must be recalled (dirty data preserved through memory).
    sys.store(0, 0x180, 3);
    let report = sys.sim.report();
    assert!(report.get("l2.recalls") >= 1);
    assert_eq!(sys.load(1, 0x100), 1);
    assert_eq!(sys.load(1, 0x140), 2);
    assert_eq!(sys.load(1, 0x180), 3);
    sys.assert_clean();
}

#[test]
fn many_cores_converge_on_final_value() {
    let mut sys = default_sys(4, 8);
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
fn concurrent_racing_stores_converge() {
    let mut sys = default_sys(4, 9);
    for i in 0..4 {
        sys.post_store(i, 0x800, 100 + i as u64);
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
fn interleaved_sharing_stresses_fwd_paths() {
    let mut sys = default_sys(3, 10);
    // Build up a mix of owner-forwards, upgrades, and invalidations
    // without quiescing between operations.
    for i in 0..12u64 {
        let core = (i % 3) as usize;
        if i % 2 == 0 {
            sys.post_store(core, 0x900, i);
        } else {
            let id = sys.next_id;
            sys.next_id += 1;
            sys.sim.post(
                sys.cores[core],
                sys.l1s[core],
                CoreMsg {
                    id,
                    addr: Addr::new(0x900),
                    kind: CoreKind::Load,
                }
                .into(),
            );
        }
    }
    assert!(sys.sim.run_to_quiescence(2_000_000).quiescent);
    // All cores agree afterwards.
    let v = sys.load(0, 0x900);
    assert_eq!(sys.load(1, 0x900), v);
    assert_eq!(sys.load(2, 0x900), v);
    sys.assert_clean();
}

#[test]
fn small_caches_exercise_recall_and_demotion_races() {
    let l1cfg = MesiL1Config {
        sets: 1,
        ways: 2,
        ..MesiL1Config::default()
    };
    let l2cfg = MesiL2Config {
        sets: 1,
        ways: 3,
        mem_latency: 30,
        ..MesiL2Config::default()
    };
    let mut sys = System::new(3, l1cfg, l2cfg, 11);
    // Thrash five blocks through a 3-way L2 from three cores at once.
    for i in 0..30u64 {
        let core = (i % 3) as usize;
        let addr = 0x1000 + (i % 5) * 64;
        sys.post_store(core, addr, i);
    }
    assert!(sys.sim.run_to_quiescence(5_000_000).quiescent);
    // Convergence: all cores read identical values for every block.
    for blk in 0..5u64 {
        let addr = 0x1000 + blk * 64;
        let v = sys.load(0, addr);
        assert_eq!(sys.load(1, addr), v, "block {blk}");
        assert_eq!(sys.load(2, addr), v, "block {blk}");
    }
    sys.assert_clean();
}

#[test]
fn coverage_is_collected() {
    let mut sys = default_sys(2, 12);
    sys.store(0, 0xA00, 1);
    let _ = sys.load(1, 0xA00);
    sys.store(1, 0xA00, 2);
    let report = sys.sim.report();
    let cov = report.coverage("mesi_l1/l1_0").unwrap();
    assert!(cov.len() > 3);
    assert!(report.coverage("mesi_l2/l2").unwrap().len() > 3);
}

#[test]
fn mshr_pressure_stalls_but_completes() {
    let l1cfg = MesiL1Config {
        sets: 2,
        ways: 1,
        mshr_entries: 1,
    };
    let mut sys = System::new(2, l1cfg, MesiL2Config::default(), 11);
    // Both cores read 0x1000, so core 0 holds it in S: its store is an
    // upgrade, which pulls the copy out of the array before it learns that
    // the one MSHR is taken — and must put it back.
    assert_eq!(sys.load(0, 0x1000), 0);
    assert_eq!(sys.load(1, 0x1000), 0);
    // Concurrent misses on the other set take the MSHR first and keep it
    // contended; nothing but the upgrade touches 0x1000's set.
    let others: Vec<u64> = (0..7).map(|j| 0x1040 + j * 128).collect();
    sys.post_store(0, others[0], 100);
    sys.post_store(0, 0x1000, 99);
    for (j, &addr) in others.iter().enumerate().skip(1) {
        sys.post_store(0, addr, 100 + j as u64);
    }
    let block = Addr::new(0x1000).block();
    let mut states = vec!["S"];
    while sys.sim.step() {
        let state = sys
            .sim
            .get::<MesiL1>(sys.l1s[0])
            .unwrap()
            .probe_state(block);
        if states.last() != Some(&state) {
            states.push(state);
        }
    }
    // Never `I`: the stalled upgrade kept its shared copy resident.
    assert_eq!(states, ["S", "SM_AD", "M"]);
    assert!(sys.sim.report().get("l1_0.mshr_stalls") > 0);
    assert_eq!(sys.load(1, 0x1000), 99);
    for (j, &addr) in others.iter().enumerate() {
        assert_eq!(sys.load(0, addr), 100 + j as u64);
    }
    sys.assert_clean();
}

/// A stray `WbAck` / `WbNack` landing while a Get is open is counted and
/// changes nothing: the record stays whole — transaction, start cycle and
/// parked core ops.
#[test]
fn stray_writeback_answers_leave_an_open_get_intact() {
    let mut sys = default_sys(1, 13);
    let block = Addr::new(0x2000).block();
    let state = |sys: &System| {
        let l1 = sys.sim.get::<MesiL1>(sys.l1s[0]).unwrap();
        l1.probe_state(block)
    };
    // One miss and two ops parked behind it.
    sys.post(0, 0x2000, CoreKind::Load);
    sys.post(0, 0x2000, CoreKind::Store { value: 7 });
    sys.post(0, 0x2000, CoreKind::Load);
    assert!(sys.sim.step());
    let opened = sys.sim.now();
    assert_eq!(state(&sys), "IS_D");
    while sys.sim.report().get("l1_0.loads") + sys.sim.report().get("l1_0.stores") < 3 {
        assert!(sys.sim.step());
    }
    // Memory alone takes 80 cycles; the strays are there within 12.
    for kind in [MesiKind::WbAck, MesiKind::WbNack] {
        let stray = MesiMsg::new(block, kind);
        sys.sim.post(sys.l2, sys.l1s[0], stray.into());
    }
    while sys.sim.report().get("l1_0.protocol_violation") < 2 {
        assert!(sys.sim.step());
    }
    assert_eq!(state(&sys), "IS_D", "the Get must still be open");
    while state(&sys) == "IS_D" {
        assert!(sys.sim.step());
    }
    let completed = sys.sim.now();
    assert!(sys.sim.run_to_quiescence(200_000).quiescent);

    let report = sys.sim.report();
    assert_eq!(report.get("l1_0.violation[WbAck without writeback]"), 1);
    assert_eq!(report.get("l1_0.violation[WbNack without writeback]"), 1);
    // The missing Load is re-handled with the two parked ops; all three hit.
    assert_eq!((report.get("l1_0.misses"), report.get("l1_0.hits")), (1, 3));
    let miss = report.hist("l1_0.lat.miss").unwrap();
    assert_eq!((miss.count(), miss.sum()), (1, completed - opened));
    let core = sys.sim.get::<TestCore>(sys.cores[0]).unwrap();
    let answers: Vec<_> = core.responses.iter().map(|m| (m.id, m.kind)).collect();
    assert_eq!(
        answers,
        [
            (0, CoreKind::LoadResp { value: 0 }),
            (1, CoreKind::StoreResp),
            (2, CoreKind::LoadResp { value: 7 }),
        ]
    );
}

/// A scripted L1 for driving the L2 alone: records what the L2 sends it.
struct ScriptedL1 {
    name: String,
    received: Vec<MesiKind>,
}

impl Component<Message> for ScriptedL1 {
    fn name(&self) -> &str {
        &self.name
    }
    fn handle(&mut self, _from: NodeId, msg: Message, _ctx: &mut Ctx<'_>) {
        if let Message::Mesi(m) = msg {
            self.received.push(m.kind);
        }
    }
}

/// Three requests parked behind a busy block are served in arrival order,
/// across transactions that hand the block from one busy state straight to
/// the next; every busy episode is timed from its own first cycle; and once
/// the queue is empty the L2 holds nothing for the block.
#[test]
fn l2_queue_drains_fifo_across_busy_handovers() {
    let mut b = SimBuilder::new(14);
    let l1s: Vec<NodeId> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| {
            b.add(Box::new(ScriptedL1 {
                name: format!("l1_{n}"),
                received: Vec::new(),
            }))
        })
        .collect();
    let (a, bb, c, d) = (l1s[0], l1s[1], l1s[2], l1s[3]);
    let l2 = b.add(Box::new(MesiL2::new("l2", MesiL2Config::default())));
    b.default_link(Link::ordered(1, 1));
    let mut sim = b.build();
    let x = Addr::new(0x3000).block();
    let send = |sim: &mut xg_proto::Sim, from: NodeId, kind: MesiKind| {
        sim.post(from, l2, MesiMsg::new(x, kind).into());
    };
    let received =
        |sim: &xg_proto::Sim, l1: NodeId| sim.get::<ScriptedL1>(l1).unwrap().received.clone();
    let data = DataBlock::zeroed();
    let owner_wb = MesiKind::OwnerWb { data, dirty: true };

    // A's GetM misses: the block goes busy fetching from memory.
    send(&mut sim, a, MesiKind::GetM);
    assert!(sim.step());
    let busy_from = sim.now();
    // B, C and D arrive while it is busy and park in that order.
    send(&mut sim, bb, MesiKind::GetS);
    send(&mut sim, c, MesiKind::GetM);
    send(&mut sim, d, MesiKind::GetS);
    // The fetch completes, A is granted M, and B's GetS turns the block
    // busy again at once (a forward to the new owner).
    assert!(sim.run_to_quiescence(10_000).quiescent);
    assert_eq!(
        received(&sim, a),
        [
            MesiKind::DataM { data, acks: 0 },
            MesiKind::FwdGetS { requestor: bb }
        ]
    );
    // A's writeback ends that; C's GetM invalidates both sharers and is
    // granted without going busy; D's GetS goes busy forwarding to C.
    send(&mut sim, a, owner_wb);
    assert!(sim.run_to_quiescence(10_000).quiescent);
    send(&mut sim, c, owner_wb);
    assert!(sim.run_to_quiescence(10_000).quiescent);
    let busy_until = sim.now();

    assert_eq!(received(&sim, a)[2..], [MesiKind::Inv { requestor: c }]);
    assert_eq!(received(&sim, bb), [MesiKind::Inv { requestor: c }]);
    assert_eq!(
        received(&sim, c),
        [
            MesiKind::DataM { data, acks: 2 },
            MesiKind::FwdGetS { requestor: d }
        ]
    );
    assert_eq!(received(&sim, d), []);

    // Another block's fetch samples the busy population: X left nothing.
    sim.post(
        a,
        l2,
        MesiMsg::new(Addr::new(0x4000).block(), MesiKind::GetS).into(),
    );
    assert!(sim.run_to_quiescence(10_000).quiescent);
    let report = sim.report();
    assert_eq!(report.get("l2.protocol_violation"), 0);
    let occupancy = report.hist("l2.mshr_occupancy").unwrap();
    assert_eq!((occupancy.count(), occupancy.max()), (4, 1));
    // X was busy without a gap from A's GetM to C's writeback: three
    // episodes (fetch + install, then two short forwards) that tile the
    // interval exactly. The fourth sample is the other block's fetch.
    let busy = report.hist("l2.lat.busy").unwrap();
    let mem = MesiL2Config::default().mem_latency;
    assert_eq!((busy.count(), busy.max()), (4, mem));
    assert_eq!(busy.sum(), (busy_until - busy_from) + mem);
}

/// `probe_state` speaks the module table's vocabulary — stable and
/// transient names alike — now that the state behind it is an enum.
#[test]
fn probe_state_names_follow_the_module_table() {
    let l1cfg = MesiL1Config {
        sets: 1,
        ways: 1,
        ..MesiL1Config::default()
    };
    let mut sys = System::new(3, l1cfg, MesiL2Config::default(), 21);
    let block = Addr::new(0x100).block();
    let mut seen = [vec!["I"], vec!["I"], vec!["I"]];
    let mut run = |sys: &mut System, core: usize, addr: u64, kind: CoreKind| {
        sys.post(core, addr, kind);
        while sys.sim.step() {
            for (l1, seen) in sys.l1s.iter().zip(&mut seen) {
                let state = sys.sim.get::<MesiL1>(*l1).unwrap().probe_state(block);
                if seen.last() != Some(&state) {
                    seen.push(state);
                }
            }
        }
    };
    run(&mut sys, 0, 0x100, CoreKind::Load);
    run(&mut sys, 0, 0x100, CoreKind::Store { value: 1 });
    run(&mut sys, 1, 0x100, CoreKind::Load);
    run(&mut sys, 2, 0x100, CoreKind::Load);
    // An upgrade that has to collect two invalidation acks.
    run(&mut sys, 0, 0x100, CoreKind::Store { value: 2 });
    // A write miss that does: the block is handed over owner to owner.
    run(&mut sys, 1, 0x100, CoreKind::Store { value: 3 });
    // Another block in the only set: the dirty line is written back.
    run(&mut sys, 1, 0x140, CoreKind::Store { value: 4 });
    assert_eq!(seen[0], ["I", "IS_D", "E", "M", "S", "SM_AD", "M", "I"]);
    assert_eq!(seen[1], ["I", "IS_D", "S", "I", "IM_AD", "M", "WB", "I"]);
    assert_eq!(seen[2], ["I", "IS_D", "S", "I"]);
    sys.assert_clean();
}

/// A fill that finds the only way of its set mid-transaction parks in
/// `Busy_Install` and arms no timer: the kernel queue drains empty. It is
/// retried where the blocking record closes, and installs in that cycle.
#[test]
fn l2_parked_fill_installs_when_the_blocking_record_closes() {
    let mut b = SimBuilder::new(15);
    let l1s: Vec<NodeId> = ["a", "b", "c"]
        .iter()
        .map(|n| {
            b.add(Box::new(ScriptedL1 {
                name: format!("l1_{n}"),
                received: Vec::new(),
            }))
        })
        .collect();
    let (a, bb, c) = (l1s[0], l1s[1], l1s[2]);
    let l2cfg = MesiL2Config {
        sets: 1,
        ways: 1,
        ..MesiL2Config::default()
    };
    let l2 = b.add(Box::new(MesiL2::new("l2", l2cfg)));
    b.default_link(Link::ordered(1, 1));
    let mut sim = b.build();
    let (x, y) = (Addr::new(0x3000).block(), Addr::new(0x3040).block());
    let send = |sim: &mut xg_proto::Sim, from: NodeId, addr, kind: MesiKind| {
        sim.post(from, l2, MesiMsg::new(addr, kind).into());
        assert!(sim.run_to_quiescence(10_000).quiescent);
    };
    let data = DataBlock::zeroed();

    // A owns X; B's read forwards to A, so X holds the only way with its
    // record open (Busy_FwdS).
    send(&mut sim, a, x, MesiKind::GetM);
    send(&mut sim, bb, x, MesiKind::GetS);
    // C's read of Y fetches from memory and finds no victim: parked.
    send(&mut sim, c, y, MesiKind::GetS);
    let queue = sim.queue_stats();
    assert_eq!(queue.pushes, queue.pops, "no timer is left in the queue");
    let l2_of = |sim: &xg_proto::Sim| sim.get::<MesiL2>(l2).unwrap().probe_data(y);
    assert_eq!(l2_of(&sim), None);
    let report = sim.report();
    assert_eq!(report.get("l2.install_retries"), 1);
    let rows = report.fsm("mesi_l2").unwrap();
    assert_eq!(rows.count("Busy_Install", "InstallRetry"), 0);
    assert!(sim.get::<ScriptedL1>(c).unwrap().received.is_empty());

    // A's writeback closes X's record; Y installs in the same cycle,
    // recalling X from its two sharers.
    sim.post(
        a,
        l2,
        MesiMsg::new(x, MesiKind::OwnerWb { data, dirty: false }).into(),
    );
    assert!(sim.step());
    assert_eq!(l2_of(&sim), Some((data, false)));
    assert!(sim.run_to_quiescence(10_000).quiescent);
    let c_got = &sim.get::<ScriptedL1>(c).unwrap().received;
    assert_eq!(c_got[..], [MesiKind::DataE { data }]);
    let report = sim.report();
    assert_eq!(report.get("l2.install_retries"), 1);
    assert_eq!(report.get("l2.recalls"), 1);
    let rows = report.fsm("mesi_l2").unwrap();
    assert_eq!(rows.count("Busy_Install", "InstallRetry"), 1);
}

/// A restore that overwrites a Get holding a deferred demand hands that
/// demand queue's buffer back to the MSHR table's loan pool first. Open,
/// checkpoint, restore over it and drain, again and again: the pool keeps
/// no more buffers than were ever open at once (one).
#[test]
fn a_restore_over_a_deferred_demand_hands_its_buffer_back() {
    let mut b = SimBuilder::new(16);
    let core = b.add(Box::new(TestCore {
        name: "core0".into(),
        responses: Vec::new(),
    }));
    let l2 = NodeId::from_index(2);
    let l1 = b.add(Box::new(MesiL1::new("l1_0", l2, MesiL1Config::default())));
    let scripted = ScriptedL1 {
        name: "l2".into(),
        received: Vec::new(),
    };
    assert_eq!(b.add(Box::new(scripted)), l2);
    b.default_link(Link::unordered(1, 12));
    b.link_bidi(core, l1, Link::ordered(1, 1));
    let mut sim = b.build();
    let addr = Addr::new(0x2000);
    let block = addr.block();
    let store = CoreMsg {
        id: 0,
        addr,
        kind: CoreKind::Store { value: 7 },
    };
    sim.post(core, l1, store.into());
    fn cache(sim: &mut xg_proto::Sim) -> &mut MesiL1 {
        sim.get_mut::<MesiL1>(NodeId::from_index(1)).unwrap()
    }
    while cache(&mut sim).probe_state(block) != "IM_AD" {
        assert!(sim.step());
    }
    let bare = cache(&mut sim).clone();
    // The L2 recalls the block before it granted it: the Get defers that.
    let defer = |sim: &mut xg_proto::Sim| {
        sim.post(l2, l1, MesiMsg::new(block, MesiKind::Recall).into());
        while sim.report().get("l1_0.deferred_fwds") == 0 {
            assert!(sim.step());
        }
    };
    defer(&mut sim);
    let deferred = cache(&mut sim).clone();
    cache(&mut sim).clone_from(&bare);
    defer(&mut sim);
    cache(&mut sim).clone_from(&bare);
    // The grant completes the Get, which then serves the Recall.
    let recalled = |sim: &xg_proto::Sim| {
        let received = &sim.get::<ScriptedL1>(l2).unwrap().received;
        let data = |k: &&MesiKind| matches!(k, MesiKind::RecallData { .. });
        received.iter().filter(data).count()
    };
    for served in 1..=2 {
        cache(&mut sim).clone_from(&deferred);
        let grant = MesiKind::DataM {
            data: DataBlock::zeroed(),
            acks: 0,
        };
        sim.post(l2, l1, MesiMsg::new(block, grant).into());
        while recalled(&sim) < served {
            assert!(sim.step());
        }
    }
    let loans = cache(&mut sim).mshr.loans();
    let kept = std::iter::from_fn(|| Some(loans.take()).filter(|b| b.capacity() > 0)).count();
    assert!(kept <= 1, "{kept} kept, at most 1 open");
}
