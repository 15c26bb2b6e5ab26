//! Toward its core a Hammer cache and a MESI L1 are one machine (the
//! `xg_proto::host_l1` shell): the same script of core ops, run against
//! either protocol through the public API, returns the same values and
//! moves the same common counters.

use xg_host_hammer::{HammerCache, HammerConfig, HammerDirectory};
use xg_host_mesi::{MesiL1, MesiL1Config, MesiL2, MesiL2Config};
use xg_mem::{Addr, BlockAddr};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, Sim};
use xg_sim::{Component, Cycle, Link, NodeId, SimBuilder};

/// The counters both caches report under the same key.
const COMMON: [&str; 7] = [
    "loads",
    "stores",
    "hits",
    "misses",
    "writebacks",
    "mshr_stalls",
    "protocol_violation",
];

#[derive(Debug, Clone, Copy)]
enum Host {
    Hammer,
    Mesi,
}

/// Cache geometry: sets, ways, MSHR entries.
type Geometry = (usize, usize, usize);

/// A passive core that records every response it receives.
struct Recorder {
    name: String,
    responses: Vec<CoreMsg>,
}

impl Component<Message> for Recorder {
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

/// `n` recording cores, each on a private cache of `host`'s protocol named
/// `l1_<i>`, under that protocol's home node.
struct World {
    host: Host,
    sim: Sim,
    cores: Vec<NodeId>,
    caches: Vec<NodeId>,
    next_id: u64,
}

impl World {
    fn new(host: Host, n: usize, (sets, ways, mshr_entries): Geometry) -> World {
        let mut b = SimBuilder::new(7);
        let cores: Vec<NodeId> = (0..n)
            .map(|i| {
                b.add(Box::new(Recorder {
                    name: format!("core{i}"),
                    responses: Vec::new(),
                }))
            })
            .collect();
        let home = NodeId::from_index(2 * n);
        let caches: Vec<NodeId> = (0..n)
            .map(|i| {
                let name = format!("l1_{i}");
                b.add(match host {
                    Host::Hammer => {
                        let cfg = HammerConfig {
                            sets,
                            ways,
                            mshr_entries,
                            ..HammerConfig::default()
                        };
                        Box::new(HammerCache::new(name, home, cfg)) as Box<dyn Component<Message>>
                    }
                    Host::Mesi => {
                        let cfg = MesiL1Config {
                            sets,
                            ways,
                            mshr_entries,
                        };
                        Box::new(MesiL1::new(name, home, cfg))
                    }
                })
            })
            .collect();
        let added = b.add(match host {
            Host::Hammer => Box::new(HammerDirectory::new("home", caches.clone(), 20))
                as Box<dyn Component<Message>>,
            Host::Mesi => Box::new(MesiL2::new("home", MesiL2Config::default())),
        });
        assert_eq!(added, home);
        b.default_link(Link::unordered(1, 12));
        for i in 0..n {
            b.link_bidi(cores[i], caches[i], Link::ordered(1, 1));
        }
        World {
            host,
            sim: b.build(),
            cores,
            caches,
            next_id: 0,
        }
    }

    /// Posts one core op without running the simulation; returns its id.
    fn post(&mut self, core: usize, addr: u64, kind: CoreKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let addr = Addr::new(addr);
        self.sim.post(
            self.cores[core],
            self.caches[core],
            CoreMsg { id, addr, kind }.into(),
        );
        id
    }

    fn settle(&mut self) {
        assert!(self.sim.run_to_quiescence(1_000_000).quiescent);
    }

    fn store(&mut self, core: usize, addr: u64, value: u64) {
        self.post(core, addr, CoreKind::Store { value });
        self.settle();
    }

    /// The value the load with `id` returned to `core`.
    fn loaded(&self, core: usize, id: u64) -> u64 {
        let core = self.sim.get::<Recorder>(self.cores[core]).unwrap();
        core.responses
            .iter()
            .find_map(|m| match (m.id == id, m.kind) {
                (true, CoreKind::LoadResp { value }) => Some(value),
                _ => None,
            })
            .expect("load response")
    }

    fn load(&mut self, core: usize, addr: u64) -> u64 {
        let id = self.post(core, addr, CoreKind::Load);
        self.settle();
        self.loaded(core, id)
    }

    fn state(&self, core: usize, block: BlockAddr) -> &'static str {
        let cache = self.caches[core];
        match self.host {
            Host::Hammer => self
                .sim
                .get::<HammerCache>(cache)
                .unwrap()
                .probe_state(block),
            Host::Mesi => self.sim.get::<MesiL1>(cache).unwrap().probe_state(block),
        }
    }

    /// Steps until `core`'s cache moves `block` out of `from`; the state
    /// it moved to.
    fn next_state(&mut self, core: usize, block: BlockAddr, from: &str) -> &'static str {
        while self.state(core, block) == from {
            assert!(self.sim.step(), "queue drained in state {from}");
        }
        self.state(core, block)
    }

    /// The [`COMMON`] counters of every cache, in cache order.
    fn counters(&self) -> Vec<[u64; 7]> {
        let report = self.sim.report();
        (0..self.caches.len())
            .map(|i| COMMON.map(|key| report.get(&format!("l1_{i}.{key}"))))
            .collect()
    }
}

type Outcome = (Vec<u64>, Vec<[u64; 7]>);

/// Runs `script` against both protocols: what it returned — the values its
/// cores saw — and the common counters, Hammer's first.
fn run_both(cores: usize, geometry: Geometry, script: fn(&mut World) -> Vec<u64>) -> [Outcome; 2] {
    [Host::Hammer, Host::Mesi].map(|host| {
        let mut world = World::new(host, cores, geometry);
        let values = script(&mut world);
        world.settle();
        (values, world.counters())
    })
}

/// [`run_both`], holding the two outcomes to each other.
fn conform(cores: usize, geometry: Geometry, script: fn(&mut World) -> Vec<u64>) -> Outcome {
    let [hammer, mesi] = run_both(cores, geometry, script);
    assert_eq!(hammer.0, mesi.0, "core-visible values");
    assert_eq!(hammer.1, mesi.1, "common counters {COMMON:?}");
    hammer
}

const A: u64 = 0x1000;

#[test]
fn hit_miss_and_upgrade_with_the_copy_riding_along() {
    let (values, counters) = conform(2, (64, 8, 16), |w| {
        let block = Addr::new(A).block();
        let mut seen = vec![w.load(0, A), w.load(0, A), w.load(1, A)];
        assert_eq!(w.state(1, block), "S");
        // A store to a shared line upgrades: the line leaves the array and
        // rides along in the transaction, whose state says it holds a copy.
        w.post(1, A, CoreKind::Store { value: 7 });
        let upgrading = w.next_state(1, block, "S");
        assert!(upgrading.starts_with("SM"), "{upgrading}");
        w.settle();
        assert_eq!(w.state(1, block), "M");
        seen.extend([w.load(0, A), w.load(1, A)]);
        w.store(1, A + 8, 9);
        seen.extend([w.load(0, A + 8), w.load(0, A)]);
        seen
    });
    assert_eq!(values, [0, 0, 0, 7, 7, 9, 7]);
    // An op that opens a Get parks behind it and is counted again, as a
    // hit, when the fill reruns it. Core 0: a miss, a hit, a miss after
    // the invalidation, a miss after the second one, a hit. Core 1: a
    // miss, the upgrade, a hit, and the second store — an upgrade again,
    // core 0 having read in between.
    assert_eq!(counters[0], [8, 0, 5, 3, 0, 0, 0]);
    assert_eq!(counters[1], [3, 4, 4, 3, 0, 0, 0]);
}

#[test]
fn ops_park_behind_an_open_get_and_rerun_in_order() {
    let (values, counters) = conform(1, (64, 8, 16), |w| {
        let block = Addr::new(A).block();
        let first = w.post(0, A, CoreKind::Load);
        w.post(0, A, CoreKind::Store { value: 5 });
        let second = w.post(0, A, CoreKind::Load);
        // All three are delivered before the Get's answer can be back.
        for _ in 0..3 {
            assert!(w.sim.step());
        }
        assert_ne!(w.state(0, block), "I", "a Get is open");
        w.settle();
        assert_eq!(w.state(0, block), "M");
        vec![w.loaded(0, first), w.loaded(0, second)]
    });
    assert_eq!(values, [0, 5]);
    // One miss opened the Get; all three ops hit when its fill reran them,
    // each counted a second time.
    assert_eq!(counters[0], [4, 2, 3, 1, 0, 0, 0]);
}

#[test]
fn a_full_mshr_parks_the_op_until_a_slot_frees() {
    // Eight store misses through one MSHR all arrive before the first Get
    // closes, however long a protocol's misses take: the second finds the
    // slot taken and parks, the six after it queue behind it, and each
    // leaves the queue as a record closes. So the counters match too.
    let (values, counters) = conform(1, (2, 1, 1), |w| {
        for i in 0..8u64 {
            w.post(0, A + i * 64, CoreKind::Store { value: 10 + i });
        }
        w.settle();
        let stored = w.counters()[0];
        assert!(stored[5] > 0, "eight misses through one MSHR must stall");
        // One stall: the second store found the slot taken, and the six
        // after it queued behind it without looking. Every store is
        // counted when it is first handled, and again on the rerun behind
        // its own fill, as a hit; the second store, handled once before it
        // parked, adds a store and a miss. A writeback per fill but the
        // two that filled an empty way.
        assert_eq!(stored, [0, 17, 8, 9, 6, 1, 0]);
        (0..8).map(|i| w.load(0, A + i * 64)).collect()
    });
    assert_eq!(values, [10, 11, 12, 13, 14, 15, 16, 17]);
    // One load at a time never stalls. Each of the eight misses (the two
    // resident blocks are evicted before they are read), is counted again
    // as a hit when its fill reruns it, and writes a dirty victim back.
    assert_eq!(counters[0], [16, 17, 16, 17, 14, 1, 0]);
}

#[test]
fn an_op_behind_a_parked_one_does_not_overtake_it() {
    // X takes the one MSHR and Y parks behind it. The core issues Z just
    // as X's record closes: Y takes the freed slot first, and Z parks in
    // its turn. The cache receives each op once, from its core.
    let (order, counters) = conform(1, (2, 1, 1), |w| {
        let l1 = w.caches[0];
        let mut ops_in = 0;
        let mut count = |to: NodeId, msg: &Message| {
            ops_in += u64::from(to == l1 && matches!(msg, Message::Core(_)));
            false
        };
        let x = w.post(0, A, CoreKind::Store { value: 1 });
        let y = w.post(0, A + 64, CoreKind::Store { value: 2 });
        let mut deadline = w.sim.now();
        while w.state(0, Addr::new(A).block()) != "M" {
            deadline += 1;
            w.sim.run_until(deadline, &mut count);
        }
        assert_eq!(w.counters()[0][5], 1, "Y parked");
        assert_ne!(w.state(0, Addr::new(A + 64).block()), "I", "Y left");
        let z = w.post(0, A + 128, CoreKind::Store { value: 3 });
        let end = w.sim.run_until(Cycle::new(1_000_000), &mut count);
        assert!(end.is_some_and(|end| end.quiescent));
        assert_eq!(ops_in, 3, "each op reached the cache once");
        let core = w.sim.get::<Recorder>(w.cores[0]).unwrap();
        let answered: Vec<u64> = core.responses.iter().map(|m| m.id).collect();
        assert_eq!(answered, [x, y, z], "answered in issue order");
        vec![w.load(0, A), w.load(0, A + 64), w.load(0, A + 128)]
    });
    assert_eq!(order, [1, 2, 3]);
    // Y and Z each park once; each is handled as a miss before it parks
    // and again when it leaves the queue, then reruns as a hit: eight
    // stores, five misses among them. The loads: A and Z's block miss
    // (their fills write back Z's block and A), Y's block hits.
    assert_eq!(counters[0], [5, 8, 6, 7, 3, 2, 0]);
}

#[test]
fn stores_to_one_block_keep_their_order_across_a_full_mshr() {
    // Core 0's load of A fills S, core 1 sharing it, and evicts a dirty
    // line whose writeback takes the slot the Get freed. The first store,
    // parked behind the Get, then finds every MSHR taken. The second
    // store arrived behind the stalled load of B; it still goes after the
    // first.
    let (values, counters) = conform(2, (2, 1, 1), |w| {
        w.load(1, A);
        w.store(0, A + 128, 5);
        w.post(0, A, CoreKind::Load);
        w.post(0, A, CoreKind::Store { value: 1 });
        w.post(0, A + 64, CoreKind::Load);
        w.post(0, A, CoreKind::Store { value: 2 });
        w.settle();
        vec![w.load(0, A), w.load(1, A)]
    });
    assert_eq!(values, [2, 2]);
    // Two stalls: the load of B, and the first store's upgrade. Core 0's
    // one writeback is the victim's; the first store misses twice, once
    // before it stalls and once when it leaves the queue.
    assert_eq!(counters, [[6, 7, 6, 6, 1, 2, 0], [4, 0, 2, 2, 0, 0, 0]]);
}

#[test]
fn a_response_kind_behind_a_parked_op_flags_its_own_block() {
    for host in [Host::Hammer, Host::Mesi] {
        let mut w = World::new(host, 1, (2, 1, 1));
        w.post(0, A, CoreKind::Store { value: 1 });
        w.post(0, A + 64, CoreKind::Store { value: 2 });
        w.post(0, A + 256, CoreKind::StoreResp);
        w.settle();
        let block = Addr::new(A + 256).block().as_u64();
        let dump = w.sim.post_mortem().expect("the first violation is flagged");
        let flagged = format!("flagged addr {block:#x} at");
        assert!(dump.contains(&flagged), "{host:?}:\n{dump}");
        let stalls_and_violations = &w.counters()[0][5..];
        assert_eq!(stalls_and_violations, [1, 1], "{host:?}");
    }
}

#[test]
fn a_core_path_violation_flags_the_ops_block() {
    for host in [Host::Hammer, Host::Mesi] {
        let mut w = World::new(host, 1, (64, 8, 16));
        w.post(0, A + 8, CoreKind::LoadResp { value: 1 });
        w.settle();
        assert_eq!(w.counters()[0][6], 1, "{host:?}: one violation");
        let block = Addr::new(A).block().as_u64();
        let dump = w.sim.post_mortem().expect("the first violation is flagged");
        let flagged = format!("flagged addr {block:#x} at");
        assert!(dump.contains(&flagged), "{host:?}:\n{dump}");
    }
}

#[test]
fn a_fill_with_every_mshr_taken_still_writes_its_victim_back() {
    // Six dirty blocks through two ways and one MSHR: closing each Get
    // frees the slot its victim's writeback takes, so no fill finds the
    // MSHR full and no line leaves the array without a Put.
    let (values, counters) = conform(1, (1, 2, 1), |w| {
        for i in 0..6u64 {
            w.store(0, A + i * 64, 100 + i);
        }
        let report = w.sim.report();
        assert_eq!(report.get("l1_0.writebacks"), 4);
        assert_eq!(report.get("l1_0.mshr_stalls"), 0);
        let leaked = "l1_0.violation[fill evicted a line without a writeback]";
        assert_eq!(report.get(leaked), 0);
        (0..6).map(|i| w.load(0, A + i * 64)).collect()
    });
    assert_eq!(values, [100, 101, 102, 103, 104, 105]);
    // Four dirty victims of the stores, then one victim per load.
    assert_eq!(counters[0][4..], [10, 0, 0]);
}
