//! Per-layer micro-timings, taken from outside through public items only.
//!
//! Every figure is the median over [`BATCHES`] batches of host time per
//! call. Shapes are fixed (they do not depend on the workload), so the same
//! table prints under every workload's traced run and two commits compare
//! row by row.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_check::{build_world, replay, Persona, Script, Step, WorldSpec};
use xg_core::OsPolicy;
use xg_fsm::{Alphabet, Machine, Table};
use xg_harness::campaign::{guarantee_probe, mutate, schedule_blocks};
use xg_harness::system::CoreSlot;
use xg_harness::{
    build_system, run_schedule, sweep, BuiltSystem, CampaignOpts, Pattern, Schedule, SystemConfig,
    WorkloadCore,
};
use xg_mem::{BlockAddr, Mshr, Replacement, SetAssocCache};
use xg_sim::{
    CalendarQueue, Component, Ctx, Cycle, JsonValue, Link, NodeId, Report, SimBuilder, Slab,
};

use crate::stats::median;
use crate::workloads::{fuzz_bases, sub_seed};

/// Batches per figure (the median needs an odd count ≥ 11).
const BATCHES: usize = 11;

/// Median host nanoseconds per call of `batch`, which runs `calls` calls.
fn time_ns(calls: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy statics outside the timed batches
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        batch();
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&mut per_call)
}

/// Forwards every message back to its sender until its hop budget is spent.
struct Echo;

impl Component<u64> for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn handle(&mut self, from: NodeId, hops: u64, ctx: &mut Ctx<'_, u64>) {
        if hops > 0 {
            ctx.send(from, hops - 1);
        }
        ctx.note_progress();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Re-arms its own timer until the token reaches zero.
struct Timer;

impl Component<u64> for Timer {
    fn name(&self) -> &str {
        "timer"
    }
    fn handle(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_, u64>) {
        if token > 0 {
            ctx.wake_in(1 + token % 16, token - 1);
        }
        ctx.note_progress();
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Resolves every cell of `table` once per call batch.
fn resolve_all<S: Alphabet, E: Alphabet, A: Alphabet>(table: &'static Table<S, E, A>) -> f64 {
    let mut machine = Machine::new(table);
    let cells = (S::ALL.len() * E::ALL.len()) as u64;
    const SWEEPS: u64 = 200;
    time_ns(cells * SWEEPS, || {
        for _ in 0..SWEEPS {
            for &s in S::ALL {
                for &e in E::ALL {
                    black_box(machine.resolve(black_box(s), black_box(e)));
                }
            }
        }
    })
}

/// A shrunk-cache system with workload cores, as stress runs and campaign
/// executions build it.
fn small_system(cfg: &SystemConfig, ops: u64) -> BuiltSystem {
    build_system(
        &cfg.clone().shrink_caches(),
        OsPolicy::ReportOnly,
        None,
        |slot, cache, _| {
            let name = match slot {
                CoreSlot::Cpu(i) => format!("wl_cpu{i}"),
                CoreSlot::Accel(i) => format!("wl_acc{i}"),
            };
            Box::new(WorkloadCore::new(
                name,
                cache,
                Pattern::Streaming,
                0x10_0000,
                256,
                ops,
            ))
        },
    )
}

/// Runs every micro-timing; `emit(name, value)` receives each figure.
pub fn run_all(seed: u64, mut emit: impl FnMut(&'static str, f64)) {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, 0x11C));

    // --- xg-sim kernel: queue, slab, dispatch ---
    {
        // Hold model: a standing population of 256 events, each pop pushing
        // one successor a short link latency ahead (stays on the wheel).
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut now = 0u64;
        for i in 0..256 {
            q.push(Cycle::new(1 + i % 60), i);
        }
        let delays: Vec<u64> = (0..4096).map(|_| rng.gen_range(1..=60)).collect();
        emit(
            "sim.queue.push_pop_ns",
            time_ns(delays.len() as u64, || {
                for &d in &delays {
                    let (t, item) = q.pop().expect("standing population");
                    now = t.as_u64();
                    q.push(Cycle::new(now + d), item);
                }
            }),
        );
        // Same, but every successor lands beyond the wheel horizon, so it
        // goes through the overflow heap and a later migration.
        let far: Vec<u64> = (0..4096).map(|_| rng.gen_range(5_000..=9_000)).collect();
        emit(
            "sim.queue.overflow_ns",
            time_ns(far.len() as u64, || {
                for &d in &far {
                    let (t, item) = q.pop().expect("standing population");
                    now = t.as_u64();
                    q.push(Cycle::new(now + d), item);
                }
            }),
        );
        black_box(now);
    }
    {
        let mut slab: Slab<[u64; 8]> = Slab::new();
        let mut live: Vec<_> = (0..64).map(|i| slab.insert([i; 8])).collect();
        emit(
            "sim.slab.park_take_ns",
            time_ns(4096, || {
                for i in 0..4096usize {
                    let slot = i % live.len();
                    let payload = slab.take(live[slot]);
                    live[slot] = slab.insert(black_box(payload));
                }
            }),
        );
    }
    {
        // Queue + slab + route + latency draw + dyn call, nothing else.
        const HOPS: u64 = 20_000;
        emit(
            "sim.dispatch_floor_ns",
            time_ns(HOPS, || {
                let mut b = SimBuilder::new(7);
                let a = b.add(Box::new(Echo));
                let c = b.add(Box::new(Echo));
                b.default_link(Link::unordered(2, 10));
                let mut sim = b.build();
                sim.post(a, c, HOPS - 1);
                black_box(sim.run_to_quiescence(u64::MAX / 2));
            }),
        );
        emit(
            "sim.wake_floor_ns",
            time_ns(HOPS, || {
                let mut b: SimBuilder<u64> = SimBuilder::new(7);
                let t = b.add(Box::new(Timer));
                let mut sim = b.build();
                sim.post_wake(t, 1, HOPS - 1);
                black_box(sim.run_to_quiescence(u64::MAX / 2));
            }),
        );
    }

    // --- harness: build, report, merge, JSON, sweep ---
    let matrix = SystemConfig::matrix(sub_seed(seed, 0x11D));
    emit(
        "harness.build_system_us",
        time_ns(matrix.len() as u64, || {
            for cfg in &matrix {
                black_box(small_system(cfg, 0));
            }
        }) / 1e3,
    );
    // One finished run per configuration: reports with realistic contents.
    let finished: Vec<BuiltSystem> = matrix
        .iter()
        .map(|cfg| {
            let mut system = small_system(cfg, 400);
            system.start_cores();
            system.sim.run_with_watchdog(10_000_000, 1_000_000);
            system
        })
        .collect();
    emit(
        "harness.report_us",
        time_ns(finished.len() as u64, || {
            for system in &finished {
                black_box(system.sim.report());
            }
        }) / 1e3,
    );
    let reports: Vec<Report> = finished.iter().map(|s| s.sim.report()).collect();
    emit(
        "sim.report.merge_us",
        time_ns(reports.len() as u64, || {
            let mut acc = Report::new();
            for r in &reports {
                acc.merge(r);
            }
            black_box(acc);
        }) / 1e3,
    );
    let merged = Report::merge_shards(&reports);
    emit(
        "sim.report.to_json_us",
        time_ns(8, || {
            for _ in 0..8 {
                black_box(merged.to_json());
            }
        }) / 1e3,
    );
    let json = merged.to_json();
    emit(
        "sim.json.parse_us",
        time_ns(8, || {
            for _ in 0..8 {
                black_box(JsonValue::parse(&json).expect("a report's own JSON parses"));
            }
        }) / 1e3,
    );
    emit(
        "harness.sweep.item_overhead_us",
        time_ns(100_000, || {
            black_box(sweep((0..100_000u64).collect(), 1, |item, index| {
                item ^ index as u64
            }));
        }) / 1e3,
    );

    // --- xg-fsm: table resolve, over every cell of the four tables ---
    let resolves = [
        resolve_all(xg_core::tables::hammer_persona()),
        resolve_all(xg_core::tables::mesi_persona()),
        resolve_all(xg_host_hammer::directory::table()),
        resolve_all(xg_host_mesi::l2::table()),
    ];
    emit(
        "fsm.resolve_ns",
        resolves.iter().sum::<f64>() / resolves.len() as f64,
    );

    // --- xg-mem: cache array and MSHR, default CPU geometry ---
    {
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(64, 8, Replacement::Lru, 1);
        for i in 0..512 {
            cache.insert(BlockAddr::new(i), i);
        }
        let probes: Vec<BlockAddr> = (0..4096)
            .map(|_| BlockAddr::new(rng.gen_range(0..512)))
            .collect();
        emit(
            "mem.cache.lookup_ns",
            time_ns(probes.len() as u64, || {
                for &addr in &probes {
                    black_box(cache.get_mut(addr));
                }
            }),
        );
        let mut next = 512u64;
        emit(
            "mem.cache.fill_evict_ns",
            time_ns(4096, || {
                for _ in 0..4096 {
                    black_box(cache.insert(BlockAddr::new(next), next));
                    next += 1;
                }
            }),
        );
        let mut mshr: Mshr<u64> = Mshr::new(16);
        emit(
            "mem.mshr.alloc_free_ns",
            time_ns(4096, || {
                for i in 0..4096u64 {
                    let addr = BlockAddr::new(i % 64);
                    let _ = black_box(mshr.alloc(addr, i));
                    black_box(mshr.remove(addr));
                }
            }),
        );
    }

    // --- campaign: one execution, one mutation ---
    {
        let base = &fuzz_bases(sub_seed(seed, 0x11E))[0];
        let opts = CampaignOpts {
            jobs: Some(1),
            ..CampaignOpts::default()
        };
        let probe = guarantee_probe();
        emit(
            "harness.campaign.run_schedule_us",
            time_ns(1, || {
                black_box(run_schedule(base, &opts, &probe, base.seed));
            }) / 1e3,
        );
        let blocks = schedule_blocks(opts.pool_blocks);
        let parent = Schedule::random(&mut rng, opts.run_len, &blocks);
        let other = Schedule::random(&mut rng, opts.run_len, &blocks);
        emit(
            "harness.campaign.mutate_ns",
            time_ns(2048, || {
                for _ in 0..2048 {
                    black_box(mutate(&mut rng, &parent, &other, &blocks));
                }
            }),
        );
    }

    // --- checker: world construction, one replay from scratch ---
    {
        let specs = Persona::ALL.map(WorldSpec::new);
        emit(
            "check.build_world_us",
            time_ns(2 * 64, || {
                for _ in 0..64 {
                    for spec in &specs {
                        black_box(build_world(spec, &[0, 1]).ids);
                    }
                }
            }) / 1e3,
        );
        // A depth-3 script as the explorer's last level replays them: an
        // accelerator read, a CPU/accelerator race, an eviction.
        let script = Script {
            steps: vec![
                Step::Accel { kind: 0, addr: 0 },
                Step::Race {
                    kind: 1,
                    addr: 0,
                    op: xg_check::CpuOp::Store,
                    cpu_addr: 0,
                },
                Step::Accel { kind: 4, addr: 0 },
            ],
            choices: vec![0],
        };
        emit(
            "check.replay_us",
            time_ns(2 * 32, || {
                for _ in 0..32 {
                    for spec in &specs {
                        black_box(replay(spec, &script).digest);
                    }
                }
            }) / 1e3,
        );
    }
}
