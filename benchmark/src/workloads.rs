//! The five workloads: input generation from a seed, and one *iteration*
//! (one pass over those inputs through the program's public entry points).
//!
//! Each workload exists because a different layer dominates it (see
//! `README.md`); the sizes below are cut so that one iteration takes about
//! a second on the two-core reference box and a run fits 5+ iterations.

use std::time::Instant;

use xg_check::{explore, ExploreOpts, Persona, WorldSpec};
use xg_core::{OsPolicy, XgVariant};
use xg_harness::system::CoreSlot;
use xg_harness::{
    build_system, run_campaign, run_fuzz_with, run_stress_with, AccelOrg, CampaignOpts,
    HostProtocol, Instrumentation, Pattern, StressOpts, SystemConfig, WorkloadCore,
};
use xg_sim::{ProfileConfig, Report, TransitionCoverage};

use crate::calib::Clock;
use crate::trace::Spans;

/// Seeds crossed with the 12-configuration matrix in `stress_matrix`.
const MATRIX_SEEDS: u64 = 6;
/// Ops per `stress_matrix` run: short, so build + report + merge matter.
const MATRIX_OPS: u64 = 800;
/// Ops per `stress_long` run: long, so live wake chains grow.
const LONG_OPS: u64 = 4_000;
/// Accelerator ops per `perf_patterns` cell.
const PATTERN_OPS: u64 = 30_000;
/// Footprint of the E3 driver shape (`run_workload` uses the same).
const PATTERN_BASE: u64 = 0x10_0000;
const PATTERN_FOOTPRINT: u64 = 2048;

/// SplitMix64: derives independent sub-seeds from `--seed`, so every
/// generator (config seeds, campaign seed, checker world) moves with it.
/// The benchmark's own, so its inputs do not move when the program's RNG
/// shim does (ROADMAP item 2 plans to).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte stream: the `sim_digest` hash. Spelled out, so the
/// digest of a commit does not move with the toolchain's `DefaultHasher`.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    pub fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }
}

/// Generated inputs of one workload: everything the program receives.
pub enum Inputs {
    /// `run_stress_with` over `(config, opts)` pairs.
    Stress(Vec<(SystemConfig, StressOpts)>),
    /// The E3 driver shape over `(config, pattern)` cells.
    Patterns(Vec<(SystemConfig, Pattern)>),
    /// `run_campaign` per `(base configuration, options)` pair.
    Campaign(Vec<(SystemConfig, CampaignOpts)>),
    /// `explore` per world.
    Check(Vec<WorldSpec>, ExploreOpts),
}

/// One-level organizations of the E3 figure (the two-level cells livelock
/// at zero simulated time on some seeds — see README "Known failures").
fn pattern_orgs() -> [AccelOrg; 4] {
    [
        AccelOrg::AccelSide,
        AccelOrg::HostSide,
        AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        AccelOrg::Xg {
            variant: XgVariant::Transactional,
            two_level: false,
        },
    ]
}

/// The guarded fuzzing configurations of the Hammer host, both guard
/// variants. The MESI ones are left out: on about one seed in seven a MESI
/// campaign runs into a guard timeout storm (tens of thousands of
/// `xg.timeouts` in one execution, a 100 MiB replay timeline), which makes
/// that seed's run a quarter slower and fifteen times larger — see README
/// "Known failures".
pub fn fuzz_bases(seed: u64) -> Vec<SystemConfig> {
    [XgVariant::FullState, XgVariant::Transactional]
        .into_iter()
        .map(|variant| SystemConfig {
            host: HostProtocol::Hammer,
            accel: AccelOrg::FuzzXg { variant },
            seed,
            ..SystemConfig::default()
        })
        .collect()
}

/// The checker's world for `persona`, relabelled by `seed`: the attack
/// block moves and the nodes register in another order. Canonical digests
/// are invariant to both, so every seed explores the same state space
/// through a different concrete world, and the state count doubles as a
/// check of that invariance. The latency seed stays the program's default:
/// the reachable state count swings by a fifth with it, which would make
/// states/s a measure of the seed.
fn relabelled_world(persona: Persona, seed: u64) -> WorldSpec {
    let mut spec = WorldSpec::new(persona);
    // Even, so set-index congruence in the two-set caches is preserved.
    spec.attack_base = 2 * (seed % 1024);
    let mut draw = seed;
    for i in (1..spec.node_order.len()).rev() {
        draw = sub_seed(draw, i as u64);
        spec.node_order.swap(i, (draw % (i as u64 + 1)) as usize);
    }
    spec
}

/// Builds the inputs of `workload` from `seed`. Same seed, same inputs.
pub fn generate(workload: &str, seed: u64) -> Option<Inputs> {
    Some(match workload {
        "stress_matrix" => {
            let opts = StressOpts {
                ops: MATRIX_OPS,
                ..StressOpts::default()
            };
            Inputs::Stress(
                (0..MATRIX_SEEDS)
                    .flat_map(|i| SystemConfig::matrix(sub_seed(seed, i)))
                    .map(|cfg| (cfg, opts.clone()))
                    .collect(),
            )
        }
        "stress_long" => {
            let opts = StressOpts {
                ops: LONG_OPS,
                ..StressOpts::default()
            };
            // Two seeds per host: four calls give the calibration clock
            // five slices an iteration, and halve the seed's say.
            Inputs::Stress(
                (0..4)
                    .map(|i| {
                        let cfg = SystemConfig {
                            host: [HostProtocol::Hammer, HostProtocol::Mesi][i % 2],
                            seed: sub_seed(seed, i as u64),
                            ..SystemConfig::default()
                        };
                        (cfg, opts.clone())
                    })
                    .collect(),
            )
        }
        "perf_patterns" => {
            let mut cells = Vec::new();
            for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
                for pattern in Pattern::ALL {
                    for accel in pattern_orgs() {
                        let cfg = SystemConfig {
                            host,
                            accel,
                            seed: sub_seed(seed, cells.len() as u64),
                            ..SystemConfig::default()
                        };
                        cells.push((cfg, pattern));
                    }
                }
            }
            Inputs::Patterns(cells)
        }
        "fuzz_campaign" => Inputs::Campaign(
            // Two campaigns per configuration, each with its own seed: with
            // one shared seed the campaigns run the same schedules and
            // their costs rise and fall together.
            (0..4)
                .map(|i| {
                    let base = fuzz_bases(sub_seed(seed, 0)).swap_remove(i % 2);
                    let opts = CampaignOpts {
                        seed: sub_seed(seed, 1 + i as u64),
                        generations: 3,
                        batch: 3,
                        run_len: 40,
                        cpu_ops: 300,
                        jobs: Some(1),
                        ..CampaignOpts::default()
                    };
                    (base, opts)
                })
                .collect(),
        ),
        "check_small" => Inputs::Check(
            Persona::ALL
                .into_iter()
                .enumerate()
                .map(|(i, persona)| relabelled_world(persona, sub_seed(seed, i as u64)))
                .collect(),
            ExploreOpts {
                depth: Some(3),
                jobs: Some(1),
                race_steps: true,
                ..ExploreOpts::default()
            },
        ),
        _ => return None,
    })
}

/// What one iteration produced.
#[derive(Default)]
pub struct Iteration {
    /// Host time of the iteration in reference seconds (see `calib`):
    /// wall time less the calibration slices, times `speed`.
    pub ref_s: f64,
    /// The same interval in plain wall seconds.
    pub wall_s: f64,
    /// Host speed over the iteration relative to the reference box.
    pub speed: f64,
    /// Units of work completed: core ops, campaign runs, or distinct states.
    pub units: u64,
    /// Units attempted.
    pub attempted: u64,
    /// Units the simulator did not finish: ops not completed, and every op
    /// of a deadlocked or incomplete run.
    pub failed: u64,
    /// Breaks the program's own oracles reported: tester value-check
    /// failures, campaign safety-claim breaks, checker violations. Finding
    /// one is the tool working on a modelled system that has a bug, so it
    /// is reported (exact for a seed) and does not count as failed.
    pub findings: u64,
    /// Hash of everything simulated (exact for a seed).
    pub digest: u64,
    /// Host time of each call into the program, in reference ms.
    pub call_ms: Vec<f64>,
    /// Independent simulations executed (runs, cells, execs, replays).
    pub sims: u64,
    /// Simulated cycles and completed ops (simulation workloads only).
    pub sim_cycles: u64,
    pub sim_ops: u64,
    /// Distinct `(state, event)` rows fired across all machines.
    pub covered_pairs: u64,
    /// `xg_{full,tx}_l1 ÷ accel_side` accelerator runtime, geometric mean
    /// minus one, in percent (`perf_patterns` only).
    pub xg_overhead_pct: f64,
    /// Checker replays (`check_small` only).
    pub replays: u64,
    /// Merged kernel profile of a traced iteration.
    pub profile: Option<Report>,
}

fn fired_rows<'a>(fsms: impl Iterator<Item = (&'a str, &'a TransitionCoverage)>) -> u64 {
    fsms.map(|(_, c)| c.fired_rows() as u64).sum()
}

fn digest_coverage<'a>(
    h: &mut Fnv,
    fsms: impl Iterator<Item = (&'a String, &'a TransitionCoverage)>,
) {
    for (machine, cov) in fsms {
        h.bytes(machine.as_bytes());
        for (state, event, count) in cov.iter() {
            h.bytes(state.as_bytes());
            h.bytes(event.as_bytes());
            h.num(count);
        }
    }
}

/// Outcome of one E3-shaped cell.
pub struct Cell {
    pub accel_runtime: u64,
    pub cycles: u64,
    pub completed: u64,
    pub attempted: u64,
    pub incomplete: bool,
    pub report: Report,
}

/// The E3 driver shape of `run_workload`, written against `build_system`
/// and `WorkloadCore` so each phase gets its own span and the profiler can
/// be switched on. `main::selfcheck_driver` asserts it reproduces
/// `run_workload`'s `accel_runtime`.
pub fn run_cell(
    cfg: &SystemConfig,
    pattern: Pattern,
    accel_ops: u64,
    traced: bool,
    spans: &mut Spans,
) -> Cell {
    let span = spans.open("build");
    let mut system = build_system(
        cfg,
        OsPolicy::ReportOnly,
        None,
        |slot, cache, _| match slot {
            CoreSlot::Cpu(i) => Box::new(WorkloadCore::new(
                format!("wl_cpu{i}"),
                cache,
                Pattern::ProducerConsumer,
                PATTERN_BASE,
                PATTERN_FOOTPRINT,
                accel_ops / 4,
            )),
            CoreSlot::Accel(i) => Box::new(WorkloadCore::new(
                format!("wl_acc{i}"),
                cache,
                pattern,
                PATTERN_BASE,
                PATTERN_FOOTPRINT,
                accel_ops,
            )),
        },
    );
    if traced {
        system.sim.set_profile_config(ProfileConfig::on());
    }
    spans.close(span);
    let span = spans.open("start_cores");
    system.start_cores();
    spans.close(span);
    let span = spans.open("run");
    let out = system.sim.run_with_watchdog(200_000_000, 1_000_000);
    spans.close(span);
    let span = spans.open("report");
    let mut cell = Cell {
        accel_runtime: 0,
        cycles: out.now.as_u64(),
        completed: 0,
        attempted: system.cpu_cores.len() as u64 * (accel_ops / 4)
            + system.accel_cores.len() as u64 * accel_ops,
        incomplete: out.stalled,
        report: system.sim.report(),
    };
    for &core in system.cpu_cores.iter().chain(&system.accel_cores) {
        let wl = system
            .sim
            .get::<WorkloadCore>(core)
            .expect("every core is a workload core");
        cell.completed += wl.completed();
        if system.accel_cores.contains(&core) {
            match wl.done_at() {
                Some(done) => cell.accel_runtime = cell.accel_runtime.max(done.as_u64()),
                None => cell.incomplete = true,
            }
        }
    }
    spans.close(span);
    cell
}

impl Inputs {
    /// Calls into the program one iteration makes.
    fn calls(&self) -> usize {
        match self {
            Inputs::Stress(runs) => runs.len(),
            Inputs::Patterns(cells) => cells.len(),
            Inputs::Campaign(campaigns) => campaigns.len(),
            Inputs::Check(specs, _) => specs.len(),
        }
    }
}

/// Runs one pass over `inputs`. `traced` switches the kernel profiler on
/// through the program's public configuration; `spans` records the
/// benchmark's own calls either way (a disabled recorder is free); `clock`
/// takes a calibration slice after every call into the program.
pub fn run_iteration(
    inputs: &Inputs,
    traced: bool,
    spans: &mut Spans,
    clock: &mut Clock,
) -> Iteration {
    let mut it = Iteration::default();
    let mut hash = Fnv::new();
    let root = spans.open("iteration");
    let t0 = Instant::now();
    clock.begin(inputs.calls(), spans);
    // Time the traced iteration spends re-running work the untraced one
    // does not do; kept out of `wall_s` so the two compare.
    let mut extra = std::time::Duration::ZERO;
    match inputs {
        Inputs::Stress(runs) => {
            let instr = if traced {
                Instrumentation::profiled()
            } else {
                Instrumentation::off()
            };
            let mut merged = Report::new();
            for (cfg, opts) in runs {
                let span = spans.open("sim");
                let t = Instant::now();
                let out = run_stress_with(cfg, opts, &instr);
                it.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
                spans.close(span);
                it.attempted += opts.ops;
                it.units += out.completed.min(opts.ops);
                it.failed += if out.deadlocked {
                    opts.ops
                } else {
                    opts.ops.saturating_sub(out.completed)
                };
                it.findings += out.data_errors;
                it.sim_cycles += out.cycles;
                let span = spans.open("merge");
                merged.merge(&out.report);
                spans.close(span);
                clock.tick(spans);
            }
            it.sims = runs.len() as u64;
            it.sim_ops = it.units;
            finish_report(&mut it, &mut hash, merged, traced);
        }
        Inputs::Patterns(cells) => {
            let mut merged = Report::new();
            // accel runtimes per (host, pattern): [accel_side, host_side,
            // xg_full_l1, xg_tx_l1], in `pattern_orgs` order.
            let mut runtimes: Vec<u64> = Vec::with_capacity(cells.len());
            for (cfg, pattern) in cells {
                let span = spans.open("sim");
                let t = Instant::now();
                let cell = run_cell(cfg, *pattern, PATTERN_OPS, traced, spans);
                it.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
                spans.close(span);
                it.attempted += cell.attempted;
                it.units += cell.completed;
                it.failed += if cell.incomplete {
                    cell.attempted
                } else {
                    cell.attempted.saturating_sub(cell.completed)
                };
                it.sim_cycles += cell.cycles;
                runtimes.push(cell.accel_runtime);
                hash.num(cell.accel_runtime);
                let span = spans.open("merge");
                merged.merge(&cell.report);
                spans.close(span);
                clock.tick(spans);
            }
            let mut log_sum = 0.0;
            let mut n = 0u32;
            for group in runtimes.chunks_exact(pattern_orgs().len()) {
                for guarded in [group[2], group[3]] {
                    log_sum += (guarded.max(1) as f64 / group[0].max(1) as f64).ln();
                    n += 1;
                }
            }
            it.xg_overhead_pct = ((log_sum / f64::from(n.max(1))).exp() - 1.0) * 100.0;
            it.sims = cells.len() as u64;
            it.sim_ops = it.units;
            finish_report(&mut it, &mut hash, merged, traced);
        }
        Inputs::Campaign(campaigns) => {
            let mut profile = Report::new();
            for (base, opts) in campaigns {
                let span = spans.open("campaign");
                let t = Instant::now();
                let out = run_campaign(base, opts);
                it.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
                spans.close(span);
                clock.tick(spans);
                it.attempted += out.runs;
                it.units += out.runs;
                it.findings += out.failures.len() as u64;
                it.covered_pairs += out.distinct_pairs();
                hash.num(out.runs);
                hash.num(out.failures.len() as u64);
                hash.num(out.injected);
                digest_coverage(&mut hash, out.coverage.iter());
                if traced {
                    // `run_campaign` has no profiling switch, so the traced
                    // iteration additionally replays the schedules it kept
                    // under the profiler, in the campaign's environment.
                    let span = spans.open("corpus_replay");
                    let t = Instant::now();
                    for entry in &out.corpus {
                        let fuzz = xg_harness::FuzzOpts {
                            messages: entry.schedule.steps.len() as u64,
                            pool_blocks: opts.pool_blocks,
                            schedule: Some(entry.schedule.clone()),
                            read_only_pages: vec![xg_harness::campaign::CPU_POOL_PAGE],
                            ..xg_harness::FuzzOpts::default()
                        };
                        let mut cfg = base.clone().shrink_caches();
                        cfg.host_faults = opts.faults;
                        cfg.seed = entry.seed;
                        let replay =
                            run_fuzz_with(&cfg, &fuzz, opts.cpu_ops, &Instrumentation::profiled());
                        it.sim_ops += replay.cpu_ops_completed;
                        it.sim_cycles += replay.cycles;
                        profile.merge(&replay.report);
                    }
                    extra += t.elapsed();
                    spans.close(span);
                }
            }
            it.sims = it.attempted;
            if traced {
                it.profile = Some(profile);
            }
        }
        Inputs::Check(specs, opts) => {
            for spec in specs {
                let span = spans.open("explore");
                let t = Instant::now();
                let out = explore(spec, opts);
                it.call_ms.push(t.elapsed().as_secs_f64() * 1e3);
                spans.close(span);
                clock.tick(spans);
                it.attempted += out.states as u64;
                it.units += out.states as u64;
                it.failed += u64::from(out.hit_state_cap);
                it.findings += out.violations.len() as u64;
                it.replays += out.replays;
                it.covered_pairs += fired_rows(out.coverage.iter().map(|(k, v)| (k.as_str(), v)));
                hash.num(out.states as u64);
                hash.num(out.fingerprint);
                hash.num(out.replays);
            }
            it.sims = it.replays;
        }
    }
    let (calibrating, speed) = clock.end();
    it.wall_s = (t0.elapsed() - extra - calibrating).as_secs_f64();
    it.speed = speed;
    it.ref_s = it.wall_s * speed;
    for call in &mut it.call_ms {
        *call *= speed;
    }
    spans.close(root);
    it.digest = hash.0;
    it
}

/// Folds a merged simulation report into the iteration: digest over its
/// profile-free JSON, transition coverage, and the profile when traced.
fn finish_report(it: &mut Iteration, hash: &mut Fnv, merged: Report, traced: bool) {
    hash.bytes(merged.without_profile().to_json().as_bytes());
    it.covered_pairs =
        fired_rows(merged.fsms()) + merged.coverages().map(|(_, c)| c.len() as u64).sum::<u64>();
    if traced {
        it.profile = Some(merged);
    }
}
