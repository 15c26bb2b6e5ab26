//! One-call experiment drivers.
//!
//! Each function assembles a system, attaches the right traffic
//! generators, runs it under a progress watchdog (so protocol deadlock is
//! *detected*, never hung on), and returns a structured outcome.

use std::sync::Arc;

use xg_core::OsPolicy;
use xg_sim::{ProfileConfig, Report, RunOutcome, TraceConfig};

use crate::config::{AccelOrg, SystemConfig};
use crate::fuzz::FuzzOpts;
use crate::system::{accel_cores_of, build_system, BuiltSystem, CoreSlot};
use crate::tester::{word_pool, TesterCfg, TesterCore, TesterHub};
use crate::workloads::{Pattern, WorkloadCore};

/// Instrumentation attached to a run: post-mortem ring tracing, kernel
/// profiling, and transaction timelines. The default is everything off —
/// zero per-event overhead beyond one branch, and reports byte-identical
/// to uninstrumented runs.
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// Per-address ring tracing for post-mortem dumps.
    pub trace: TraceConfig,
    /// Kernel profiling: dispatch counters, host-time attribution, queue
    /// high-water marks, and the epoch time-series (lands in the report's
    /// `profile` section).
    pub profile: ProfileConfig,
    /// Transaction timeline recording (Chrome trace-event JSON).
    pub timeline: bool,
}

impl Instrumentation {
    /// Everything off (the default).
    pub fn off() -> Self {
        Instrumentation::default()
    }

    /// Kernel profiling on, tracing and timelines off.
    pub fn profiled() -> Self {
        Instrumentation {
            profile: ProfileConfig::on(),
            ..Instrumentation::default()
        }
    }

    /// What a failure replay records: ring tracing for the post-mortem
    /// dump plus a transaction timeline of the failing run.
    pub fn replay() -> Self {
        Instrumentation {
            trace: TraceConfig::ring(),
            timeline: true,
            ..Instrumentation::default()
        }
    }
}

/// Options for a stress run (paper §4.1 methodology).
#[derive(Debug, Clone)]
pub struct StressOpts {
    /// Total operations across all cores.
    pub ops: u64,
    /// Number of contended blocks in the address pool.
    pub blocks: u64,
    /// Words used per block.
    pub words_per_block: u64,
    /// Tester knobs.
    pub tester: TesterCfg,
}

impl Default for StressOpts {
    fn default() -> Self {
        StressOpts {
            ops: 2_000,
            blocks: 4,
            words_per_block: 2,
            tester: TesterCfg::default(),
        }
    }
}

/// Outcome of a stress run.
#[derive(Debug)]
pub struct StressOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Operations completed.
    pub completed: u64,
    /// Value-check failures (0 for a correct protocol).
    pub data_errors: u64,
    /// First few failure descriptions.
    pub error_log: Vec<String>,
    /// True if the watchdog fired or operations were left hanging.
    pub deadlocked: bool,
    /// Distinct (state, event) pairs in the controllers' coverage grids. A
    /// controller recorded by its table's rows alone (the guard personas,
    /// the accelerator L2) counts in `report.fsms()` instead.
    pub transitions: usize,
    /// Post-mortem trace dump from a deterministic replay of a failed run
    /// (None when the run passed).
    pub post_mortem: Option<String>,
    /// Chrome trace-event JSON of the run, when a timeline was requested
    /// (or from the failure replay, for a failed run).
    pub timeline: Option<String>,
    /// Full statistics.
    pub report: Report,
}

/// Flags every operation still outstanding when a run stops, so the
/// post-mortem dump of a deadlocked run names the stuck addresses. Called
/// after every run, not only at a watchdog stop: testers hold no idle
/// timers, so a lost response usually drains the queue instead of stalling
/// it. Flags nothing when nothing is outstanding. Returns whether any
/// tester op was left hanging.
fn flag_outstanding(system: &mut BuiltSystem, now: u64) -> bool {
    let mut hung = false;
    for &core in system.cpu_cores.iter().chain(&system.accel_cores) {
        let Some(t) = system.sim.get::<TesterCore>(core) else {
            continue;
        };
        let name = xg_sim::Component::name(t).to_owned();
        for (word_addr, is_store) in t.outstanding_ops() {
            let op = if is_store { "store" } else { "load" };
            system.sim.tracer_mut().flag(
                now,
                xg_mem::Addr::new(word_addr).block().as_u64(),
                format!("{name}: {op} at word {word_addr:#x} outstanding at deadlock"),
            );
            hung = true;
        }
    }
    hung
}

/// Runs the §4.1 random coherence stress test on `cfg`.
///
/// On failure (data errors or deadlock), the identical seed is replayed with
/// ring tracing enabled and the resulting per-address post-mortem dump is
/// attached to the outcome — the fast run costs nothing, the slow run only
/// happens when there is something to explain.
pub fn run_stress(cfg: &SystemConfig, opts: &StressOpts) -> StressOutcome {
    let mut out = run_stress_with(cfg, opts, &Instrumentation::off());
    if out.data_errors > 0 || out.deadlocked {
        let replay = run_stress_with(cfg, opts, &Instrumentation::replay());
        out.post_mortem = replay.post_mortem;
        out.timeline = replay.timeline;
    }
    out
}

/// Writes the per-hierarchy tester results of a finished run, as scalars
/// named `guard.<label>.<counter>`: value-check failures, completed
/// operations and operations left hanging. Each guard counts its own
/// errors (`<label>.errors_total`, `<label>.errors.<kind>`).
fn fill_guard_counters(report: &mut Report, system: &BuiltSystem, shared: &TesterHub) {
    for inst in system.accels.iter().filter(|inst| !inst.cores.is_empty()) {
        let label = inst.label.as_str();
        let data_errors: u64 = inst
            .core_indices
            .iter()
            .map(|&i| shared.data_errors_of(i))
            .sum();
        report.add(format_args!("guard.{label}.data_errors"), data_errors);
        let (mut completed, mut outstanding) = (0u64, 0u64);
        for &core in &inst.cores {
            if let Some(t) = system.sim.get::<TesterCore>(core) {
                completed += t.completed();
                outstanding += t.outstanding() as u64;
            }
        }
        report.add(format_args!("guard.{label}.ops_completed"), completed);
        report.add(format_args!("guard.{label}.outstanding"), outstanding);
    }
}

/// Longest any stress or fuzz run may simulate; also the longest step
/// delay a parsed schedule may carry.
pub const MAX_CYCLES: u64 = 50_000_000;

/// Watchdog bounds: cycles without progress (a completed tester operation,
/// or an injection) before a stress or a fuzz run is stopped.
const STRESS_STALL_BOUND: u64 = 100_000;
const FUZZ_STALL_BOUND: u64 = 200_000;

/// First word of the stress testers' pool, and of the CPU testers' pool in a
/// fuzz run (disjoint from the fuzzer's attack range).
const STRESS_POOL: u64 = 0x4000;
const FUZZ_CPU_POOL: u64 = 0x100_0000;

/// The tester hub of `cfg` running `load` over the word pool at
/// `pool_base`: one core per CPU and per accelerator tester slot.
fn tester_hub(cfg: &SystemConfig, load: &StressOpts, pool_base: u64) -> Arc<TesterHub> {
    let pool = word_pool(pool_base, load.blocks, load.words_per_block);
    TesterHub::new(cfg.cpu_cores + accel_cores_of(cfg), load.ops, pool)
}

/// The CPU testers' load in a fuzz run.
fn fuzz_load(fuzz: &FuzzOpts, cpu_ops: u64) -> StressOpts {
    StressOpts {
        ops: cpu_ops,
        blocks: fuzz.pool_blocks.max(4),
        words_per_block: 2,
        tester: TesterCfg::default(),
    }
}

/// A tester-driven run taken to its stop, before the caller's verdict.
struct Driven {
    end: RunOutcome,
    shared: Arc<TesterHub>,
    report: Report,
    post_mortem: Option<String>,
    timeline: Option<String>,
    hung_ops: bool,
}

/// What stress and fuzz runs share: builds `cfg` with a tester core in
/// every core slot and a [`FuzzOpts::stand_in`] in every `FuzzXg` stand-in
/// slot, running `load` over the word pool at `pool_base`, runs it under
/// the progress watchdog, and collects the report, its guard section and
/// the artefacts.
fn drive(
    cfg: &SystemConfig,
    fuzz: Option<FuzzOpts>,
    pool_base: u64,
    load: &StressOpts,
    instr: &Instrumentation,
    stall_bound: u64,
) -> Driven {
    let shared = tester_hub(cfg, load, pool_base);
    let accel_cores = accel_cores_of(cfg);
    let stand_ins = fuzz.clone();
    let mut system = build_system(cfg, OsPolicy::ReportOnly, fuzz, |slot, node, index| {
        let name = match slot {
            CoreSlot::Cpu(i) => format!("tester_cpu{i}"),
            CoreSlot::Accel(i) if i >= accel_cores => {
                let opts = stand_ins.as_ref().expect("FuzzXg needs FuzzOpts");
                return Box::new(opts.stand_in(cfg.seed, i - accel_cores, node));
            }
            CoreSlot::Accel(i) => format!("tester_acc{i}"),
        };
        let tester = load.tester.clone();
        Box::new(TesterCore::new(name, node, index, shared.clone(), tester))
    });
    // `SimBuilder::new` read `XG_TRACE`; a caller asking for less keeps it.
    let tracer = system.sim.tracer_mut();
    if instr.trace.level > tracer.config().level {
        tracer.set_config(instr.trace);
    }
    system.sim.set_profile_config(instr.profile);
    if instr.timeline {
        system.sim.enable_timeline();
    }
    system.start_cores();
    let end = system.sim.run_with_watchdog(MAX_CYCLES, stall_bound);
    let hung_ops = flag_outstanding(&mut system, end.now.as_u64());
    let mut report = system.sim.report();
    fill_guard_counters(&mut report, &system, &shared);
    // Flags are collected even with tracing off, but a dump of flags over
    // empty rings explains nothing: only recorded rings give a post-mortem.
    let rings = system.sim.tracer().enabled();
    Driven {
        end,
        shared,
        hung_ops,
        report,
        post_mortem: rings.then(|| system.sim.post_mortem()).flatten(),
        timeline: system.sim.timeline_json(),
    }
}

/// Runs the stress test once with explicit [`Instrumentation`] — no
/// automatic failure replay. This is the entry point for profiled runs
/// (`xg-report --profile`) and timeline captures (`--timeline`).
pub fn run_stress_with(
    cfg: &SystemConfig,
    opts: &StressOpts,
    instr: &Instrumentation,
) -> StressOutcome {
    let cfg = cfg.clone().shrink_caches();
    let run = drive(&cfg, None, STRESS_POOL, opts, instr, STRESS_STALL_BOUND);
    let (end, shared) = (run.end, run.shared);
    StressOutcome {
        cycles: end.now.as_u64(),
        completed: shared.completed(),
        data_errors: shared.data_errors(),
        error_log: shared.error_log(),
        // Every agent of a stress run is correct, so churning on after the
        // work is done is a failure too.
        deadlocked: end.stalled || (!shared.done() && !end.quiescent) || run.hung_ops,
        transitions: run.report.coverages().map(|(_, c)| c.len()).sum(),
        post_mortem: run.post_mortem,
        timeline: run.timeline,
        report: run.report,
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Cycles simulated.
    pub cycles: u64,
    /// Fuzz messages injected.
    pub injected: u64,
    /// Host-side protocol violations (impossible events at host
    /// controllers). Zero when a Crossing Guard protects the host.
    pub host_violations: u64,
    /// Errors the guards reported to the OS, summed over the run's guards
    /// (each guard's `<label>.errors_total`).
    pub os_errors: u64,
    /// True if the host's work did not finish (CPU testers starved) or
    /// ops were left permanently outstanding.
    pub deadlocked: bool,
    /// Stopped with events still queued after the work was done: the
    /// attacker, or the guard answering it, was still busy. A cut, not a
    /// deadlock: an accelerator may pay for its own loops (paper §2.2).
    pub cut_live: bool,
    /// Stopped neither quiescent nor by the progress watchdog: the run
    /// simulated the full cycle cap. An execution should end within the
    /// watchdog bound of its last stimulus, so this is counted, and the
    /// seed scan requires it to stay zero.
    pub capped: bool,
    /// CPU tester operations that completed *while being bombarded* —
    /// evidence the host stayed alive.
    pub cpu_ops_completed: u64,
    /// CPU-side value-check failures.
    pub cpu_data_errors: u64,
    /// Post-mortem trace dump: the last events touching each flagged
    /// address, across the guard and every host controller. [`run_fuzz`]
    /// attaches one, from a deterministic traced replay, only to a run that
    /// *failed* ([`FailureKind::of`]: host violation, CPU data corruption
    /// or deadlock). Errors the guard reported to the OS are the expected
    /// outcome of every attack and do not trigger a replay; ask for the
    /// dump of a passing attack with [`run_fuzz_with`] and
    /// [`Instrumentation::replay`]. None for an untraced run.
    pub post_mortem: Option<String>,
    /// Chrome trace-event JSON of the run, when a timeline was requested
    /// (or from the failure replay, for a failed run).
    pub timeline: Option<String>,
    /// Full statistics.
    pub report: Report,
}

/// Which safety claim a failing fuzz run broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A host controller saw an impossible event.
    HostViolation,
    /// A CPU tester read a value it never wrote.
    DataError,
    /// The host stopped making progress.
    Deadlock,
}

impl FailureKind {
    /// Every kind, in the order [`FailureKind::of`] checks them.
    const ALL: [FailureKind; 3] = [
        FailureKind::HostViolation,
        FailureKind::DataError,
        FailureKind::Deadlock,
    ];

    /// Short tag for artifact names.
    pub fn tag(self) -> &'static str {
        match self {
            FailureKind::HostViolation => "violation",
            FailureKind::DataError => "data_error",
            FailureKind::Deadlock => "deadlock",
        }
    }

    /// Whether `out` broke this particular claim. The one place "failed"
    /// is written down: errors the guard reported to the OS are not on the
    /// list, they are the guard working.
    pub fn holds(self, out: &FuzzOutcome) -> bool {
        match self {
            FailureKind::HostViolation => out.host_violations > 0,
            FailureKind::DataError => out.cpu_data_errors > 0,
            FailureKind::Deadlock => out.deadlocked,
        }
    }

    /// The claim `out` broke, if any. A run that broke several is named
    /// after the first in the order violation, data error, deadlock.
    pub fn of(out: &FuzzOutcome) -> Option<FailureKind> {
        Self::ALL.into_iter().find(|kind| kind.holds(out))
    }
}

/// Runs a fuzz attack (`FuzzXg` or `FuzzAccelSide` organization) while CPU
/// testers measure whether the host stays correct and alive.
///
/// If the run failed ([`FailureKind::of`]: a host protocol violation, CPU
/// data corruption or deadlock), the identical seed is replayed with ring
/// tracing enabled and the post-mortem dump naming the offending addresses
/// is attached to the outcome. Guard-reported OS errors alone are the
/// expected outcome of an attack and cost no replay.
pub fn run_fuzz(cfg: &SystemConfig, fuzz: &FuzzOpts, cpu_ops: u64) -> FuzzOutcome {
    let mut out = run_fuzz_with(cfg, fuzz, cpu_ops, &Instrumentation::off());
    if FailureKind::of(&out).is_some() {
        let replay = run_fuzz_with(cfg, fuzz, cpu_ops, &Instrumentation::replay());
        out.post_mortem = replay.post_mortem;
        out.timeline = replay.timeline;
    }
    out
}

/// Runs a fuzz attack once with explicit [`Instrumentation`] — no
/// automatic failure replay.
pub fn run_fuzz_with(
    cfg: &SystemConfig,
    fuzz: &FuzzOpts,
    cpu_ops: u64,
    instr: &Instrumentation,
) -> FuzzOutcome {
    assert!(
        cfg.accel_slots()
            .iter()
            .any(|s| matches!(s.org, AccelOrg::FuzzXg { .. } | AccelOrg::FuzzAccelSide)),
        "run_fuzz needs at least one fuzzing accelerator slot"
    );
    // Guarantee 0 is grounded in page permissions: give the accelerator
    // read-write access to its own attack range and *nothing else*. What
    // the accelerator may legally write is outside the protection claim
    // (paper §2.2.1); everything else must be untouchable.
    let mut cfg = cfg.clone();
    let mut perms = xg_mem::PermissionTable::with_default(xg_mem::PagePerm::None);
    let last_page = xg_mem::BlockAddr::new(fuzz.pool_blocks).page().as_u64();
    for page in 0..=last_page {
        perms.set(xg_mem::PageAddr::new(page), xg_mem::PagePerm::ReadWrite);
    }
    // Campaign mode can additionally take *read-only* views of pages it must
    // never modify (typically the CPU testers' working set): shared copies
    // are legal there, writes are guarantee-0b rejections, and the host's
    // demand traffic for those blocks now has to cross the guard.
    for &page in &fuzz.read_only_pages {
        perms.set(xg_mem::PageAddr::new(page), xg_mem::PagePerm::Read);
    }
    cfg.xg.perms = perms;
    // Sibling hierarchies — correct guarded accelerators running alongside
    // the fuzzed one (the blast-radius setup) — get their own page table:
    // read-write on the CPU testers' pool, which their tester cores share
    // with the host cores. The attacker never holds write permission
    // there, so sibling/CPU corruption can only be a containment failure,
    // never legal traffic.
    let slots = cfg.accel_slots();
    if slots.iter().any(|s| matches!(s.org, AccelOrg::Xg { .. })) {
        let cpu_pool_base = FUZZ_CPU_POOL / xg_mem::BLOCK_BYTES;
        let mut sibling_perms = xg_mem::PermissionTable::with_default(xg_mem::PagePerm::None);
        for blk in 0..fuzz.pool_blocks.max(4) {
            sibling_perms.set(
                xg_mem::BlockAddr::new(cpu_pool_base + blk).page(),
                xg_mem::PagePerm::ReadWrite,
            );
        }
        cfg.accels = slots
            .into_iter()
            .map(|mut slot| {
                if matches!(slot.org, AccelOrg::Xg { .. }) && slot.perms.is_none() {
                    slot.perms = Some(sibling_perms.clone());
                }
                slot
            })
            .collect();
    }
    // CPU testers use a pool *disjoint* from the fuzzer's attack range:
    // the fuzzer has read-write permission on its own pages, so corrupting
    // those is explicitly outside Crossing Guard's threat model (paper
    // §2.2.1). What must hold is that pages the accelerator cannot write
    // — including everything the CPUs work on here — stay intact, and
    // that the host keeps making progress.
    let load = fuzz_load(fuzz, cpu_ops);
    let fuzz = Some(fuzz.clone());
    let run = drive(&cfg, fuzz, FUZZ_CPU_POOL, &load, instr, FUZZ_STALL_BOUND);
    let (report, shared) = (run.report, run.shared);
    // A stop after the work is done is a cut, not a deadlock.
    let deadlocked = !shared.done() || run.hung_ops;
    FuzzOutcome {
        cycles: run.end.now.as_u64(),
        injected: report.sum_suffix("fuzz_accel.sent") + report.sum_suffix("fuzz_host.sent"),
        host_violations: report.sum_suffix(".protocol_violation"),
        os_errors: report.sum_suffix(".errors_total"),
        deadlocked,
        cut_live: !run.end.quiescent && !deadlocked,
        capped: !run.end.quiescent && !run.end.stalled,
        cpu_ops_completed: shared.completed(),
        cpu_data_errors: shared.data_errors(),
        post_mortem: run.post_mortem,
        timeline: run.timeline,
        report,
    }
}

/// Outcome of a performance run.
#[derive(Debug)]
pub struct PerfOutcome {
    /// Cycle at which the accelerator workload finished (the runtime the
    /// performance figure plots).
    pub accel_runtime: u64,
    /// Average accelerator access latency.
    pub accel_avg_latency: u64,
    /// Total cycles simulated (includes CPU wind-down).
    pub cycles: u64,
    /// True if anything failed to finish.
    pub incomplete: bool,
    /// Full statistics.
    pub report: Report,
}

/// Runs a performance experiment: the accelerator core(s) execute
/// `pattern` for `accel_ops` accesses while the CPUs run a light streaming
/// workload that shares the `ProducerConsumer` region.
pub fn run_workload(cfg: &SystemConfig, pattern: Pattern, accel_ops: u64) -> PerfOutcome {
    // Accel footprint: 256 words (16 KiB of blocks, bigger than the accel
    // L1 in the default config → real miss traffic). Shared base for
    // producer-consumer overlap with CPU cores.
    const BASE: u64 = 0x10_0000;
    const FOOTPRINT: u64 = 2048;
    let mut system = build_system(
        cfg,
        OsPolicy::ReportOnly,
        None,
        |slot, cache, _index| match slot {
            CoreSlot::Cpu(i) => Box::new(WorkloadCore::new(
                format!("wl_cpu{i}"),
                cache,
                Pattern::ProducerConsumer,
                BASE,
                FOOTPRINT,
                accel_ops / 4,
            )),
            CoreSlot::Accel(i) => Box::new(WorkloadCore::new(
                format!("wl_acc{i}"),
                cache,
                pattern,
                BASE,
                FOOTPRINT,
                accel_ops,
            )),
        },
    );
    system.start_cores();
    let out = system.sim.run_with_watchdog(200_000_000, 1_000_000);
    let mut accel_runtime = 0u64;
    let mut accel_lat = (0u64, 0u64);
    let mut incomplete = out.stalled;
    for &core in &system.accel_cores {
        let wl = system
            .sim
            .get::<WorkloadCore>(core)
            .expect("accel cores are workload cores");
        match wl.done_at() {
            Some(done) => accel_runtime = accel_runtime.max(done.as_u64()),
            None => incomplete = true,
        }
        accel_lat.0 += wl.avg_latency();
        accel_lat.1 += 1;
    }
    let report = system.sim.report();
    PerfOutcome {
        accel_runtime,
        accel_avg_latency: accel_lat.0 / accel_lat.1.max(1),
        cycles: out.now.as_u64(),
        incomplete,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_kinds_are_named_violation_first_then_data_error_then_deadlock() {
        let mut out = FuzzOutcome {
            cycles: 0,
            injected: 0,
            host_violations: 2,
            os_errors: 7,
            deadlocked: true,
            cut_live: false,
            capped: false,
            cpu_ops_completed: 0,
            cpu_data_errors: 3,
            post_mortem: None,
            timeline: None,
            report: Report::new(),
        };
        assert!(FailureKind::ALL.iter().all(|kind| kind.holds(&out)));
        assert_eq!(FailureKind::of(&out), Some(FailureKind::HostViolation));
        out.host_violations = 0;
        assert_eq!(FailureKind::of(&out), Some(FailureKind::DataError));
        out.cpu_data_errors = 0;
        assert_eq!(FailureKind::of(&out), Some(FailureKind::Deadlock));
        out.deadlocked = false;
        // Guard-reported OS errors alone are not a failure.
        assert_eq!(FailureKind::of(&out), None);
        // Nor is a cut with the attacker still busy after the work is done.
        out.cut_live = true;
        assert_eq!(FailureKind::of(&out), None);
    }

    /// On the pools stress and fuzz runs build, every tester core writes a
    /// word, and where accelerator cores test, some block is written both
    /// by a CPU core and by an accelerator core: from both sides of a guard.
    #[test]
    fn every_tester_core_writes_and_a_block_is_written_from_both_sides() {
        let stress = SystemConfig::matrix(1)
            .into_iter()
            .map(|cfg| (cfg, StressOpts::default(), STRESS_POOL));
        // A fuzzed guard alone, and with one and two correct siblings.
        use crate::config::AccelSlot;
        let fuzzed = AccelSlot::from(AccelOrg::FuzzXg {
            variant: xg_core::XgVariant::FullState,
        });
        let sibling = AccelSlot::from(AccelOrg::Xg {
            variant: xg_core::XgVariant::FullState,
            two_level: false,
        });
        let fuzz = (0..3).map(|siblings| {
            let mut accels = vec![fuzzed.clone()];
            accels.resize(1 + siblings, sibling.clone());
            let cfg = SystemConfig {
                accels,
                ..SystemConfig::default()
            };
            (cfg, fuzz_load(&FuzzOpts::default(), 100), FUZZ_CPU_POOL)
        });
        for (cfg, load, base) in stress.chain(fuzz) {
            let hub = tester_hub(&cfg, &load, base);
            let words = (load.blocks * load.words_per_block) as usize;
            let writers: Vec<usize> = (0..words).map(|slot| hub.writer_of(slot)).collect();
            let accel = accel_cores_of(&cfg);
            let name = cfg.name();
            for core in 0..cfg.cpu_cores + accel {
                assert!(writers.contains(&core), "{name}: core {core} never writes");
            }
            let mixed = (writers.chunks(load.words_per_block as usize)).any(|block| {
                let cpu = block.iter().filter(|&&w| w < cfg.cpu_cores).count();
                0 < cpu && cpu < block.len()
            });
            assert!(
                mixed || accel == 0,
                "{name}: no block has both a CPU and an accelerator writer"
            );
        }
    }
}
