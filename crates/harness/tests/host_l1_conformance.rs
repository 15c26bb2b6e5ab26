//! Toward its core a Hammer cache and a MESI L1 are one machine (the
//! `xg_proto::host_l1` shell): the same script of core ops, run against
//! either protocol through the public API, returns the same values and
//! moves the same common counters.

use xg_host_hammer::{HammerCache, HammerConfig, HammerDirectory};
use xg_host_mesi::{MesiL1, MesiL1Config, MesiL2, MesiL2Config};
use xg_mem::{Addr, BlockAddr};
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, Sim};
use xg_sim::{Component, Link, NodeId, SimBuilder};

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
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
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
fn a_full_mshr_redelivers_the_op_until_a_slot_frees() {
    // How often an op finds the MSHR full depends on the protocol's miss
    // latency, and each time it is counted again as a store and as a miss:
    // the raw counters differ. The script takes the stalls back out.
    let [hammer, mesi] = run_both(1, (2, 1, 1), |w| {
        for i in 0..8u64 {
            w.post(0, A + i * 64, CoreKind::Store { value: 10 + i });
        }
        w.settle();
        let stored = w.counters()[0];
        let stalls = stored[5];
        assert!(stalls > 0, "eight misses through one MSHR must stall");
        let mut seen: Vec<u64> = (0..8).map(|i| w.load(0, A + i * 64)).collect();
        let loaded = w.counters()[0];
        assert_eq!(loaded[5], stalls, "one load at a time never stalls");
        // Which loads miss depends on which two blocks the stores left
        // resident, their completion order; what a miss costs does not.
        let misses = loaded[3] - stalls;
        seen.extend([stored[1] - stalls, stored[3] - stalls]);
        seen.extend([
            loaded[0] - (misses - 8),
            loaded[2],
            misses - loaded[4],
            loaded[6],
        ]);
        seen
    });
    assert_eq!(hammer.0, mesi.0, "values, and counters with the stalls out");
    // Eight values. Eight store misses, each store counted on arrival and
    // on the rerun behind its own fill; eight loads, a load miss counted
    // twice likewise; a hit per op; a writeback per miss but the two that
    // filled an empty way; no violation.
    let values = [10, 11, 12, 13, 14, 15, 16, 17];
    assert_eq!(hammer.0[..8], values);
    assert_eq!(hammer.0[8..], [16, 8, 8, 16, 2, 0]);
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
