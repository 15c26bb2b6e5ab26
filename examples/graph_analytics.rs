//! Graph analytics on a two-level accelerator: data-dependent pointer
//! chasing over a host-built graph, with a live host-side edge update.
//!
//! ```text
//! cargo run --example graph_analytics
//! ```
//!
//! The CPU builds a successor table (a permutation ring) in shared memory;
//! two accelerator cores behind a shared accelerator L2 walk it
//! concurrently — every hop depends on the loaded value, the access
//! pattern the paper calls out as needing hardware coherence rather than
//! software-managed transfers. Midway, the CPU *rewires* one edge; the
//! walkers coherently observe the new route on their next pass.
//!
//! Host: inclusive MESI. Guard: Transactional (minimal storage; relies on
//! the §3.2.2 host modifications, which are on by default).

use crossing_guard::core::{OsPolicy, XgVariant};
use crossing_guard::harness::system::CoreSlot;
use crossing_guard::harness::{build_system, AccelOrg, HostProtocol, SystemConfig};
use crossing_guard::mem::Addr;
use crossing_guard::proto::{CoreKind, CoreMsg, Ctx, Message};
use crossing_guard::sim::{Component, NodeId};

const NODES: u64 = 64;
const TABLE: u64 = 0x40_0000;
const FLAG: u64 = 0x50_0000;

fn node_addr(n: u64) -> u64 {
    TABLE + n * 8
}

/// The CPU: builds the ring `n -> (n + 1) % NODES`, raises the flag, then
/// later rewires node 10 to jump straight to node 40, raising flag=2.
struct Builder {
    cache: NodeId,
    phase: usize,
    pending: Option<u64>,
    next_id: u64,
}

impl Builder {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending.is_some() {
            return;
        }
        let (addr, value) = if self.phase < NODES as usize {
            let n = self.phase as u64;
            (node_addr(n), (n + 1) % NODES)
        } else if self.phase == NODES as usize {
            (FLAG, 1)
        } else if self.phase == NODES as usize + 1 {
            // Give the walkers time to get going, then rewire mid-run.
            ctx.wake_in(5_000, 1);
            self.phase += 1;
            return;
        } else if self.phase == NODES as usize + 2 {
            (node_addr(10), 40)
        } else if self.phase == NODES as usize + 3 {
            (FLAG, 2)
        } else {
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        self.pending = Some(id);
        self.phase += 1;
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind: CoreKind::Store { value },
            }
            .into(),
        );
    }
}

impl Component<Message> for Builder {
    fn name(&self) -> &str {
        "builder"
    }
    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        if let Message::Core(c) = msg {
            if Some(c.id) == self.pending {
                self.pending = None;
                ctx.note_progress();
                self.step(ctx);
            }
        }
    }
    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.step(ctx);
    }
}

/// An accelerator core: waits for the flag, then chases successors from a
/// starting node, recording every node visited.
struct Walker {
    name: String,
    cache: NodeId,
    node: u64,
    hops_left: u64,
    started: bool,
    visited: Vec<u64>,
    pending: Option<u64>,
    next_id: u64,
    polling_flag: bool,
}

impl Walker {
    fn issue_load(&mut self, addr: u64, ctx: &mut Ctx<'_>) {
        let id = self.next_id;
        self.next_id += 1;
        self.pending = Some(id);
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind: CoreKind::Load,
            }
            .into(),
        );
    }
}

impl Component<Message> for Walker {
    fn name(&self) -> &str {
        &self.name
    }
    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        if Some(c.id) != self.pending {
            return;
        }
        self.pending = None;
        let CoreKind::LoadResp { value } = c.kind else {
            return;
        };
        ctx.note_progress();
        if self.polling_flag {
            if value >= 1 {
                self.polling_flag = false;
                self.started = true;
                let node = self.node;
                self.issue_load(node_addr(node), ctx);
            } else {
                ctx.wake_in(50, 0);
            }
            return;
        }
        // One hop completed: the loaded value names the next node.
        self.visited.push(value);
        self.node = value;
        self.hops_left -= 1;
        if self.hops_left > 0 {
            let node = self.node;
            self.issue_load(node_addr(node), ctx);
        }
    }
    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.polling_flag = true;
            self.issue_load(FLAG, ctx);
        }
    }
}

fn main() {
    let cfg = SystemConfig {
        host: HostProtocol::Mesi,
        cpu_cores: 1,
        accel: AccelOrg::Xg {
            variant: XgVariant::Transactional,
            two_level: true,
        },
        accel_cores: 2,
        seed: 13,
        ..SystemConfig::default()
    };
    println!(
        "configuration: {} (two accel cores, shared accel L2)",
        cfg.name()
    );

    let hops = 5_000u64;
    let mut system = build_system(
        &cfg,
        OsPolicy::ReportOnly,
        None,
        |slot, cache, _| match slot {
            CoreSlot::Cpu(_) => Box::new(Builder {
                cache,
                phase: 0,
                pending: None,
                next_id: 0,
            }),
            CoreSlot::Accel(i) => Box::new(Walker {
                name: format!("walker{i}"),
                cache,
                node: i as u64 * 17, // different start nodes
                hops_left: hops,
                started: false,
                visited: Vec::new(),
                pending: None,
                next_id: 0,
                polling_flag: false,
            }),
        },
    );
    system.start_cores();
    let out = system.sim.run_with_watchdog(100_000_000, 1_000_000);
    assert!(!out.stalled, "system deadlocked");

    let report = system.sim.report();
    let mut saw_shortcut = false;
    for (idx, &core) in system.accel_cores.iter().enumerate() {
        let walker = system.sim.get::<Walker>(core).unwrap();
        assert_eq!(walker.visited.len() as u64, hops, "walker{idx} unfinished");
        // Every hop is a valid successor under one of the two graph
        // versions (ring edge, or the rewired 10 -> 40 shortcut).
        let mut prev = idx as u64 * 17;
        for &next in &walker.visited {
            let ring = (prev + 1) % NODES;
            let ok = next == ring || (prev == 10 && next == 40);
            assert!(ok, "walker{idx}: illegal hop {prev} -> {next}");
            saw_shortcut |= prev == 10 && next == 40;
            prev = next;
        }
        println!(
            "walker{idx}: {} hops, finished at node {}",
            walker.visited.len(),
            prev
        );
    }
    println!(
        "rewired edge observed mid-run: {}",
        if saw_shortcut {
            "yes"
        } else {
            "no (timing-dependent)"
        }
    );
    println!(
        "\naccel L2 served {} L1 reads with only {} host fetches (sharing stayed on-accelerator)",
        report.get("accel_l2.l1_gets"),
        report.get("accel_l2.up_gets")
    );
    println!("guard errors: {}", report.get("xg.errors_total"));
    assert_eq!(report.get("xg.errors_total"), 0);
    assert_eq!(report.sum_suffix(".protocol_violation"), 0);
}
