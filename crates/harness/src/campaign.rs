//! Coverage-guided adversarial fuzz campaign (paper §4.2, extended).
//!
//! The blind E2 fuzzer replays one schedule of independent draws, so
//! after the first few hundred injections it mostly re-fires the same guard
//! transitions. This module closes the loop AFL-style: deterministic
//! injection [`Schedule`]s are the corpus unit, per-machine
//! [`TransitionCoverage`] deltas are the feedback signal, and schedules
//! that fire *new* `(state, event)` pairs earn energy proportional to the
//! discovery and are preferentially mutated in later generations.
//!
//! Three environmental levers widen the reachable frontier beyond what the
//! blind fuzzer can touch:
//!
//! * **Read-only permission windows** ([`CPU_POOL_PAGE`]): the attacker may
//!   legally take shared copies of the CPU testers' blocks, so host demand
//!   traffic has to cross the guard — the only road to the invalidation
//!   guarantees (2a/2c).
//! * **Forbidden addresses** ([`FORBIDDEN_BLOCK`]): pages with no mapping
//!   at all, the guarantee-0a probes.
//! * **Link fault injection** ([`CampaignOpts::faults`]): delay spikes and
//!   reorder bursts on the unordered guard↔home links stress the guard's
//!   timeout and nack paths while preserving the host network's
//!   reliable-delivery assumption: every message still arrives once.
//!
//! When a run breaks a safety claim (host protocol violation, CPU data
//! corruption, or deadlock), [`minimize`] delta-debugs the schedule down to
//! a 1-minimal reproducer and [`repro_test_source`] / [`repro_json`] emit a
//! self-contained regression test and a machine-readable artifact.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_core::XgVariant;
use xg_sim::{FaultSpec, TransitionCoverage};

use crate::config::{AccelOrg, AccelSlot, HostProtocol, SystemConfig};
use crate::fuzz::{FuzzOpts, FuzzStep, InvPolicy, Schedule, FUZZ_KIND_CODES, INV_RESPONSE_CODES};
pub use crate::runner::FailureKind;
use crate::runner::{run_fuzz_with, FuzzOutcome, Instrumentation};
use crate::sweep::{resolve_jobs, sweep};

/// First block of the CPU testers' working set (`word_pool(0x100_0000, ..)`
/// in [`crate::runner`]): the campaign aims reads here to drag host demand
/// traffic through the guard.
pub const CPU_POOL_BLOCK: u64 = 0x4_0000;

/// Page containing [`CPU_POOL_BLOCK`]; granted *read-only* to the attacker.
pub const CPU_POOL_PAGE: u64 = 0x1000;

/// A block on a page with no permissions at all — the guarantee-0a probe.
pub const FORBIDDEN_BLOCK: u64 = 0x8_0000;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Master seed for schedule generation, mutation, and per-run sim seeds.
    pub seed: u64,
    /// Number of generations (the first is random seeding, the rest mutate
    /// the corpus).
    pub generations: usize,
    /// Schedules per generation.
    pub batch: usize,
    /// Steps per freshly generated schedule (mutation may grow or shrink).
    pub run_len: usize,
    /// Read-write attack pool size in blocks (mirrors [`FuzzOpts`]).
    pub pool_blocks: u64,
    /// CPU tester operations per run (the liveness probe).
    pub cpu_ops: u64,
    /// Worker threads (`None` = `XG_JOBS` or one per core).
    pub jobs: Option<usize>,
    /// Fault plan for the unordered guard↔home links.
    pub faults: FaultSpec,
    /// Total accelerator hierarchies in the attacked system. Slot 0 is the
    /// fuzzed one; slots 1.. are *correct* guarded siblings (same variant,
    /// one-level) sharing the host, so every campaign run doubles as a
    /// blast-radius check: sibling corruption or starvation is a
    /// containment failure even when the host itself survives.
    pub num_accels: usize,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            seed: 0xC4A55,
            generations: 5,
            batch: 6,
            run_len: 40,
            pool_blocks: 16,
            cpu_ops: 300,
            jobs: None,
            faults: FaultSpec::delay_only(25, 10, 800, 3),
            num_accels: 1,
        }
    }
}

/// One broken safety claim, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Broken claim.
    pub kind: FailureKind,
    /// Simulator seed the failing run used.
    pub seed: u64,
    /// The injection schedule that broke it.
    pub schedule: Schedule,
    /// Human-readable one-liner.
    pub summary: String,
}

/// A corpus member: a schedule that discovered new coverage, weighted by
/// how much it discovered.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The interesting schedule.
    pub schedule: Schedule,
    /// Sim seed it ran under.
    pub seed: u64,
    /// Newly fired `(state, event)` pairs it contributed (its mutation
    /// weight).
    pub energy: u64,
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Total runs executed.
    pub runs: u64,
    /// Total interface messages injected (the budget a blind comparison
    /// must match).
    pub injected: u64,
    /// Union coverage per state machine across every run.
    pub coverage: BTreeMap<String, TransitionCoverage>,
    /// Schedules that discovered new coverage, in discovery order.
    pub corpus: Vec<CorpusEntry>,
    /// Safety-claim breaks (empty for a correct guard).
    pub failures: Vec<CampaignFailure>,
    /// Executions the watchdog stopped after their work was done, with the
    /// attacker still busy ([`FuzzOutcome::cut_live`]).
    pub cut_live: u64,
    /// Executions that ran to the cycle cap ([`FuzzOutcome::capped`]).
    pub capped: u64,
}

impl CampaignOutcome {
    /// Distinct `(state, event)` pairs fired across all machines — the
    /// number the guided-vs-blind comparison is about.
    pub fn distinct_pairs(&self) -> u64 {
        distinct_pairs(&self.coverage)
    }
}

/// Sums fired rows across a coverage map.
pub fn distinct_pairs(coverage: &BTreeMap<String, TransitionCoverage>) -> u64 {
    coverage.values().map(|c| c.fired_rows() as u64).sum()
}

/// Candidate block indices a schedule may target: the read-write attack
/// pool, a window into the CPU testers' (read-only) page, and one
/// unmapped block.
pub fn schedule_blocks(pool_blocks: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..pool_blocks.max(1)).collect();
    v.extend(CPU_POOL_BLOCK..CPU_POOL_BLOCK + 4);
    v.push(FORBIDDEN_BLOCK);
    v
}

/// A hand-crafted corpus seed that touches every guarantee class the
/// paper's Figure 1 enumerates — 0a/0b (permissions), 1a/1b (request
/// consistency/duplicates), 2a/2b/2c (response consistency / unsolicited /
/// timeout). Random schedules find most of these eventually; seeding the
/// corpus with the probe makes the frontier deterministic from generation
/// zero, and the guarantee-class tests replay it directly.
///
/// Kind codes follow [`crate::fuzz`]: 0 GetS, 1 GetM, 4 PutM, 5 InvAck.
pub fn guarantee_probe() -> Schedule {
    let step = |delay, block, kind| FuzzStep {
        delay,
        block,
        kind,
        payload_blocks: 1,
        fill: 0x11,
    };
    Schedule {
        steps: vec![
            // Legally take shared copies of two CPU-owned (read-only)
            // blocks: the CPUs' next writes must now cross the guard, and
            // the scripted responses below turn those invalidations into
            // the 2a (wrong response) and 2c (silence → timeout) probes.
            step(1, CPU_POOL_BLOCK, 0),
            step(5, CPU_POOL_BLOCK + 1, 0),
            // 0a: read a block on an unmapped page.
            step(5, FORBIDDEN_BLOCK, 0),
            // 0b: demand ownership of a read-only block.
            step(5, CPU_POOL_BLOCK + 2, 1),
            // 1a: PutM for a block the accelerator never acquired.
            step(5, 3, 4),
            // 1b: back-to-back requests for the same block.
            step(5, 5, 0),
            step(1, 5, 0),
            // 2b: a response with no corresponding host request.
            step(5, 7, 5),
        ],
        responses: vec![
            // First forwarded invalidation: a racing PutS chased by a
            // stale DirtyWb. The PutS wins the Put-vs-Inv race (resolved
            // as a safe downgrade), so the writeback that follows is no
            // longer a legal answer — guarantee 2a.
            InvPolicy {
                respond: true,
                kind: 4,
                payload_blocks: 1,
            },
            // Second: silence — guarantee 2c, the guard's timeout covers.
            InvPolicy {
                respond: false,
                kind: 0,
                payload_blocks: 1,
            },
        ],
    }
}

/// Builds the attacked configuration for one campaign run: slot 0 is the
/// fuzzed organization from `base` with every cache shrunk (frequent
/// replacements reach more states), and `opts.num_accels - 1` correct
/// guarded siblings (same variant, one-level) ride along. Sibling page
/// tables and tester cores are assigned by [`run_fuzz_with`].
fn attack_config(base: &SystemConfig, opts: &CampaignOpts, seed: u64) -> SystemConfig {
    let mut cfg = base.clone().shrink_caches();
    cfg.host_faults = opts.faults;
    cfg.seed = seed;
    if opts.num_accels > 1 && cfg.accels.is_empty() {
        let sibling_variant = match &cfg.accel {
            AccelOrg::FuzzXg { variant } => *variant,
            _ => XgVariant::FullState,
        };
        let mut slots = vec![AccelSlot::from(cfg.accel.clone())];
        slots.resize(
            opts.num_accels,
            AccelSlot::from(AccelOrg::Xg {
                variant: sibling_variant,
                two_level: false,
            }),
        );
        cfg.accels = slots;
    }
    cfg
}

/// Runs one schedule against `base` (plus the campaign environment:
/// shrunken caches, link faults, read-only CPU window) under sim seed
/// `seed`: one untraced simulation, whatever the outcome, so neither the
/// campaign loop nor a ddmin probe pays for a diagnosis nobody reads
/// (`post_mortem` and `timeline` are `None`). This is also the reproduction
/// entry point minimized repro tests call; for the post-mortem and timeline
/// of a schedule, run it through [`run_schedule_with`] under
/// [`Instrumentation::replay`].
pub fn run_schedule(
    base: &SystemConfig,
    opts: &CampaignOpts,
    schedule: &Schedule,
    seed: u64,
) -> FuzzOutcome {
    run_schedule_with(base, opts, schedule, seed, &Instrumentation::off())
}

/// [`run_schedule`] with explicit [`Instrumentation`].
pub fn run_schedule_with(
    base: &SystemConfig,
    opts: &CampaignOpts,
    schedule: &Schedule,
    seed: u64,
    instr: &Instrumentation,
) -> FuzzOutcome {
    let cfg = attack_config(base, opts, seed);
    let fuzz = FuzzOpts {
        messages: schedule.steps.len() as u64,
        pool_blocks: opts.pool_blocks,
        schedule: Some(schedule.clone()),
        read_only_pages: vec![CPU_POOL_PAGE],
    };
    run_fuzz_with(&cfg, &fuzz, opts.cpu_ops, instr)
}

/// Picks a corpus entry with probability proportional to its energy.
fn pick_weighted<'a>(rng: &mut SmallRng, corpus: &'a [CorpusEntry]) -> &'a CorpusEntry {
    let total: u64 = corpus.iter().map(|e| e.energy.max(1)).sum();
    let mut roll = rng.gen_range(0..total);
    for e in corpus {
        let w = e.energy.max(1);
        if roll < w {
            return e;
        }
        roll -= w;
    }
    corpus.last().expect("corpus is non-empty")
}

/// Structural mutation operators, in roll order.
const MUTATIONS: u32 = 7;

/// Derives a child schedule from `parent` (and `other`, for splices).
pub fn mutate(rng: &mut SmallRng, parent: &Schedule, other: &Schedule, blocks: &[u64]) -> Schedule {
    let mut child = parent.clone();
    // One to three stacked mutations per child keeps most offspring near
    // the parent while still allowing multi-edit jumps.
    for _ in 0..rng.gen_range(1..=3u32) {
        match rng.gen_range(0..MUTATIONS) {
            // Splice: parent prefix + other suffix.
            0 if !other.steps.is_empty() => {
                let cut_a = rng.gen_range(0..=child.steps.len());
                let cut_b = rng.gen_range(0..other.steps.len());
                child.steps.truncate(cut_a);
                child.steps.extend_from_slice(&other.steps[cut_b..]);
                if !other.responses.is_empty() && rng.gen_bool(0.5) {
                    child.responses = other.responses.clone();
                }
            }
            // Duplicate a step in place (back-to-back requests are the
            // guarantee-1b probes).
            1 if !child.steps.is_empty() => {
                let i = rng.gen_range(0..child.steps.len());
                let mut dup = child.steps[i];
                dup.delay = rng.gen_range(1..=3);
                child.steps.insert(i + 1, dup);
            }
            // Drop a step.
            2 if child.steps.len() > 1 => {
                let i = rng.gen_range(0..child.steps.len());
                child.steps.remove(i);
            }
            // Flip a step's interface kind.
            3 if !child.steps.is_empty() => {
                let i = rng.gen_range(0..child.steps.len());
                child.steps[i].kind = rng.gen_range(0..FUZZ_KIND_CODES);
            }
            // Address-collide: retarget a step at another step's block.
            4 if child.steps.len() > 1 => {
                let i = rng.gen_range(0..child.steps.len());
                let j = rng.gen_range(0..child.steps.len());
                child.steps[i].block = child.steps[j].block;
            }
            // Rewrite the invalidation-response script; biased towards
            // withholding (the guarantee-2c probe).
            5 => {
                let n = rng.gen_range(1..=3usize);
                child.responses = (0..n)
                    .map(|_| InvPolicy {
                        respond: rng.gen_bool(0.5),
                        kind: rng.gen_range(0..INV_RESPONSE_CODES),
                        payload_blocks: rng.gen_range(1..=3),
                    })
                    .collect();
            }
            // Jitter a delay (races against in-flight host transactions).
            _ if !child.steps.is_empty() => {
                let i = rng.gen_range(0..child.steps.len());
                child.steps[i].delay = rng.gen_range(1..=40);
            }
            _ => {}
        }
    }
    if child.steps.is_empty() {
        // Never breed an empty schedule: re-seed one random step.
        child.steps.push(FuzzStep {
            delay: 1,
            block: blocks[rng.gen_range(0..blocks.len())],
            kind: rng.gen_range(0..FUZZ_KIND_CODES),
            payload_blocks: 1,
            fill: rng.gen(),
        });
    }
    child
}

/// One-line description of how `out` broke the `kind` claim.
fn failure_summary(kind: FailureKind, out: &FuzzOutcome) -> String {
    match kind {
        FailureKind::HostViolation => {
            format!("{} host protocol violations", out.host_violations)
        }
        FailureKind::DataError => format!("{} cpu data errors", out.cpu_data_errors),
        FailureKind::Deadlock => "host deadlocked".into(),
    }
}

/// Runs a coverage-guided campaign against `base` (must be a fuzzing
/// organization; see [`crate::runner::run_fuzz`]).
///
/// Deterministic for a given `(base, opts)` at any worker count: parent
/// selection happens before a generation is fanned out, and feedback is
/// folded in batch order after the generation barrier.
pub fn run_campaign(base: &SystemConfig, opts: &CampaignOpts) -> CampaignOutcome {
    run_campaign_with(base, opts, |_, _, _| {})
}

/// [`run_campaign`], handing every execution's schedule, seed and outcome
/// to `each` in the order the campaign folds them in, so a caller can
/// check a per-execution counter without the campaign keeping it.
pub fn run_campaign_with(
    base: &SystemConfig,
    opts: &CampaignOpts,
    mut each: impl FnMut(&Schedule, u64, &FuzzOutcome),
) -> CampaignOutcome {
    let blocks = schedule_blocks(opts.pool_blocks);
    let jobs = resolve_jobs(opts.jobs);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut coverage: BTreeMap<String, TransitionCoverage> = BTreeMap::new();
    let mut failures = Vec::new();
    let (mut runs, mut injected) = (0u64, 0u64);
    let (mut cut_live, mut capped) = (0, 0);

    for generation in 0..opts.generations {
        let batch: Vec<(Schedule, u64)> = (0..opts.batch)
            .map(|slot| {
                let seed = rng.gen();
                let schedule = if generation == 0 && slot == 0 {
                    // Deterministic corpus seed: every guarantee class.
                    guarantee_probe()
                } else if generation == 0 || corpus.is_empty() {
                    Schedule::random(&mut rng, opts.run_len, &blocks)
                } else {
                    let parent = pick_weighted(&mut rng, &corpus).schedule.clone();
                    let other = pick_weighted(&mut rng, &corpus).schedule.clone();
                    mutate(&mut rng, &parent, &other, &blocks)
                };
                (schedule, seed)
            })
            .collect();
        let outcomes = sweep(batch.clone(), jobs, |(schedule, seed), _| {
            run_schedule(base, opts, &schedule, seed)
        });
        for ((schedule, seed), out) in batch.into_iter().zip(outcomes) {
            each(&schedule, seed, &out);
            runs += 1;
            injected += out.injected;
            cut_live += u64::from(out.cut_live);
            capped += u64::from(out.capped);
            if let Some(kind) = FailureKind::of(&out) {
                failures.push(CampaignFailure {
                    kind,
                    seed,
                    schedule: schedule.clone(),
                    summary: failure_summary(kind, &out),
                });
            }
            // Rows the union gains are the rows this run fired first.
            let mut new_pairs = 0u64;
            for (machine, cov) in out.report.fsms() {
                let seen = match coverage.get_mut(machine) {
                    Some(seen) => seen,
                    None => coverage.entry(machine.to_owned()).or_default(),
                };
                let before = seen.fired_rows();
                seen.merge(cov);
                new_pairs += (seen.fired_rows() - before) as u64;
            }
            if new_pairs > 0 {
                corpus.push(CorpusEntry {
                    schedule,
                    seed,
                    energy: new_pairs,
                });
            }
        }
    }

    CampaignOutcome {
        runs,
        injected,
        coverage,
        corpus,
        failures,
        cut_live,
        capped,
    }
}

/// Outcome of the blind (unguided) baseline.
#[derive(Debug)]
pub struct BlindOutcome {
    /// Messages actually injected (≥ the requested budget).
    pub injected: u64,
    /// Union coverage per machine.
    pub coverage: BTreeMap<String, TransitionCoverage>,
}

impl BlindOutcome {
    /// Distinct `(state, event)` pairs the blind fuzzer fired.
    pub fn distinct_pairs(&self) -> u64 {
        distinct_pairs(&self.coverage)
    }
}

/// Runs the blind E2 fuzzer — one schedule of independent random draws
/// per run ([`FuzzOpts::schedule_for`]), default caches, no link faults,
/// no read-only window — split over the same number of runs a campaign
/// would make, at a total message budget of *at least* `budget` (rounded
/// up, so the comparison never short-changes the baseline).
pub fn run_blind(base: &SystemConfig, opts: &CampaignOpts, budget: u64) -> BlindOutcome {
    let runs = (opts.generations * opts.batch).max(1) as u64;
    let per_run = budget.div_ceil(runs).max(1);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xB11D);
    let seeds: Vec<u64> = (0..runs).map(|_| rng.gen()).collect();
    let outcomes = sweep(seeds, resolve_jobs(opts.jobs), |seed, _| {
        let mut cfg = base.clone();
        cfg.seed = seed;
        let fuzz = FuzzOpts {
            messages: per_run,
            pool_blocks: opts.pool_blocks,
            ..FuzzOpts::default()
        };
        run_fuzz_with(&cfg, &fuzz, opts.cpu_ops, &Instrumentation::off())
    });
    let mut coverage: BTreeMap<String, TransitionCoverage> = BTreeMap::new();
    let mut injected = 0u64;
    for out in &outcomes {
        injected += out.injected;
        for (machine, cov) in out.report.fsms() {
            coverage.entry(machine.to_string()).or_default().merge(cov);
        }
    }
    BlindOutcome { injected, coverage }
}

/// Delta-debugging minimizer (ddmin): removes complement chunks of `items`
/// while `fails` keeps returning true, down to a 1-minimal subsequence.
///
/// Generic over the item type so other failure-shrinking clients (the
/// `xg-check` model checker's counterexample minimizer) reuse the same
/// machinery that [`minimize`] applies to fuzz schedules.
pub fn ddmin_vec<T: Clone>(items: Vec<T>, fails: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    if fails(&[]) {
        return Vec::new();
    }
    let mut cur = items;
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let candidate: Vec<T> = cur[..start].iter().chain(&cur[end..]).cloned().collect();
            if fails(&candidate) {
                cur = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break; // 1-minimal: no single element is removable.
            }
            n = (n * 2).min(cur.len());
        }
    }
    cur
}

/// [`ddmin_vec`] over two lists that fail together: first `a` with `b`
/// fixed, then `b` with the shrunk `a` fixed. A fuzz schedule's steps and
/// responses ([`minimize`]) and a checker script's steps and invalidation
/// choices (`xg-check`) both shrink this way.
pub fn ddmin_pair<A: Clone, B: Clone>(
    a: Vec<A>,
    b: Vec<B>,
    fails: &mut dyn FnMut(&[A], &[B]) -> bool,
) -> (Vec<A>, Vec<B>) {
    let a = ddmin_vec(a, &mut |a| fails(a, &b));
    let b = ddmin_vec(b, &mut |b| fails(&a, b));
    (a, b)
}

/// Minimizes a failing schedule: [`ddmin_pair`] over the injection steps
/// and the response script, then per-field normalization (delay → 1,
/// payload → 1, fill → 0) wherever the failure survives. `fails(schedule)`
/// must return true when the candidate still reproduces the failure, and
/// must hold for `schedule` itself.
pub fn minimize(schedule: &Schedule, mut fails: impl FnMut(&Schedule) -> bool) -> Schedule {
    debug_assert!(fails(schedule), "minimize needs a failing starting point");
    let (steps, responses) = ddmin_pair(
        schedule.steps.clone(),
        schedule.responses.clone(),
        &mut |steps, responses| {
            fails(&Schedule {
                steps: steps.to_vec(),
                responses: responses.to_vec(),
            })
        },
    );
    let mut best = Schedule { steps, responses };

    let edits: [fn(&mut FuzzStep); 3] = [|s| s.delay = 1, |s| s.payload_blocks = 1, |s| s.fill = 0];
    for i in 0..best.steps.len() {
        for edit in edits {
            let mut cand = best.clone();
            edit(&mut cand.steps[i]);
            if cand != best && fails(&cand) {
                best = cand;
            }
        }
    }
    best
}

/// Escapes text (a schedule, a checker script) for embedding in a Rust
/// string literal.
pub fn escape_literal(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Extracts the `(host, variant)` of a guarded fuzz configuration.
fn guarded_parts(cfg: &SystemConfig) -> (HostProtocol, XgVariant) {
    match &cfg.accel {
        AccelOrg::FuzzXg { variant } => (cfg.host, *variant),
        other => panic!("repro emission needs a FuzzXg configuration, got {other:?}"),
    }
}

/// Emits a self-contained `#[test]` reproducing `failure` against `base`
/// under the campaign environment in `opts`. The generated test *asserts
/// the claims hold*, so committed against a fixed build it is a passing
/// regression test; on a build with the bug it fails exactly like the
/// campaign run did.
pub fn repro_test_source(
    fn_name: &str,
    base: &SystemConfig,
    opts: &CampaignOpts,
    failure: &CampaignFailure,
) -> String {
    let (host, variant) = guarded_parts(base);
    let f = opts.faults;
    format!(
        "//! Auto-generated minimal reproducer ({kind}); regenerate with\n\
         //! `xg-fuzz --minimize`. {n} injected message(s), sim seed {seed:#x}.\n\
         \n\
         use xg_core::XgVariant;\n\
         use xg_harness::campaign::{{run_schedule, CampaignOpts}};\n\
         use xg_harness::fuzz::Schedule;\n\
         use xg_harness::{{AccelOrg, HostProtocol, SystemConfig}};\n\
         use xg_sim::FaultSpec;\n\
         \n\
         #[test]\n\
         fn {fn_name}() {{\n\
         \x20   let schedule = Schedule::from_text(\"{sched}\").unwrap();\n\
         \x20   let base = SystemConfig {{\n\
         \x20       host: HostProtocol::{host:?},\n\
         \x20       accel: AccelOrg::FuzzXg {{ variant: XgVariant::{variant:?} }},\n\
         \x20       strict_host: {strict},\n\
         \x20       ..SystemConfig::default()\n\
         \x20   }};\n\
         \x20   let opts = CampaignOpts {{\n\
         \x20       cpu_ops: {cpu_ops},\n\
         \x20       pool_blocks: {pool},\n\
         \x20       num_accels: {accels},\n\
         \x20       faults: FaultSpec {{\n\
         \x20           delay_spike_pct: {sp},\n\
         \x20           reorder_pct: {rp},\n\
         \x20           spike_cycles: {sc},\n\
         \x20           burst_len: {bl},\n\
         \x20       }},\n\
         \x20       ..CampaignOpts::default()\n\
         \x20   }};\n\
         \x20   let out = run_schedule(&base, &opts, &schedule, {seed:#x});\n\
         \x20   assert_eq!(out.host_violations, 0, \"host protocol violations\");\n\
         \x20   assert_eq!(out.cpu_data_errors, 0, \"cpu data corruption\");\n\
         \x20   assert!(!out.deadlocked, \"host deadlocked\");\n\
         }}\n",
        kind = failure.kind.tag(),
        n = failure.schedule.steps.len(),
        seed = failure.seed,
        sched = escape_literal(&failure.schedule.to_text()),
        strict = base.strict_host,
        cpu_ops = opts.cpu_ops,
        pool = opts.pool_blocks,
        accels = opts.num_accels.max(1),
        sp = f.delay_spike_pct,
        rp = f.reorder_pct,
        sc = f.spike_cycles,
        bl = f.burst_len,
    )
}

/// Emits a machine-readable reproducer artifact (for CI uploads).
pub fn repro_json(base: &SystemConfig, opts: &CampaignOpts, failure: &CampaignFailure) -> String {
    let f = opts.faults;
    format!(
        "{{\n  \"config\": \"{config}\",\n  \"kind\": \"{kind}\",\n  \
         \"seed\": {seed},\n  \"summary\": \"{summary}\",\n  \
         \"steps\": {steps},\n  \"cpu_ops\": {cpu_ops},\n  \
         \"num_accels\": {accels},\n  \
         \"faults\": [{sp}, {rp}, {sc}, {bl}],\n  \
         \"schedule\": \"{sched}\"\n}}\n",
        config = base.name(),
        kind = failure.kind.tag(),
        seed = failure.seed,
        summary = escape_literal(&failure.summary),
        steps = failure.schedule.steps.len(),
        cpu_ops = opts.cpu_ops,
        accels = opts.num_accels.max(1),
        sp = f.delay_spike_pct,
        rp = f.reorder_pct,
        sc = f.spike_cycles,
        bl = f.burst_len,
        sched = escape_literal(&failure.schedule.to_text()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn ddmin_finds_the_single_trigger() {
        // Failure iff the schedule contains a (kind 4, block 7) step.
        let trigger = FuzzStep {
            delay: 9,
            block: 7,
            kind: 4,
            payload_blocks: 3,
            fill: 0xEE,
        };
        let mut r = rng(11);
        let blocks = schedule_blocks(8);
        let mut sched = Schedule::random(&mut r, 33, &blocks);
        // Scrub accidental triggers, then plant exactly one.
        for s in &mut sched.steps {
            if s.kind == 4 && s.block == 7 {
                s.kind = 0;
            }
        }
        sched.steps.insert(17, trigger);
        let fails = |s: &Schedule| s.steps.iter().any(|st| st.kind == 4 && st.block == 7);
        let min = minimize(&sched, fails);
        assert_eq!(min.steps.len(), 1, "1-minimal step list");
        assert_eq!(min.steps[0].kind, 4);
        assert_eq!(min.steps[0].block, 7);
        // Field normalization kicked in on the fields the predicate ignores.
        assert_eq!(min.steps[0].delay, 1);
        assert_eq!(min.steps[0].payload_blocks, 1);
        assert_eq!(min.steps[0].fill, 0);
        assert!(min.responses.is_empty(), "responses ddmin to nothing");
    }

    #[test]
    fn ddmin_keeps_interacting_pairs() {
        // Failure needs *both* a kind-1 and a kind-2 step (order-free).
        let mut r = rng(3);
        let sched = Schedule::random(&mut r, 40, &schedule_blocks(8));
        let fails = |s: &Schedule| {
            s.steps.iter().any(|st| st.kind == 1) && s.steps.iter().any(|st| st.kind == 2)
        };
        if !fails(&sched) {
            return; // extremely unlikely with 40 steps over 13 kinds
        }
        let min = minimize(&sched, fails);
        assert_eq!(min.steps.len(), 2, "both interacting steps survive");
        assert!(fails(&min));
    }

    #[test]
    fn mutation_never_produces_invalid_schedules() {
        let blocks = schedule_blocks(8);
        let mut r = rng(42);
        let a = Schedule::random(&mut r, 20, &blocks);
        let b = Schedule::random(&mut r, 5, &blocks);
        for _ in 0..500 {
            let child = mutate(&mut r, &a, &b, &blocks);
            assert!(!child.steps.is_empty());
            for s in &child.steps {
                assert!(s.kind < FUZZ_KIND_CODES);
            }
            for p in &child.responses {
                assert!(p.kind < INV_RESPONSE_CODES);
                assert!((1..=3).contains(&p.payload_blocks));
            }
            // Children stay serializable (the corpus on-disk contract).
            assert_eq!(Schedule::from_text(&child.to_text()).unwrap(), child);
        }
    }

    #[test]
    fn weighted_pick_respects_energy() {
        let entry = |energy| CorpusEntry {
            schedule: Schedule::default(),
            seed: energy,
            energy,
        };
        let corpus = vec![entry(0), entry(1000), entry(0)];
        let mut r = rng(7);
        // With weights (1, 1000, 1), the heavy entry dominates.
        let heavy = (0..200)
            .filter(|_| pick_weighted(&mut r, &corpus).seed == 1000)
            .count();
        assert!(heavy > 150, "heavy entry picked {heavy}/200 times");
    }

    #[test]
    fn schedule_blocks_span_all_three_permission_classes() {
        let blocks = schedule_blocks(16);
        assert!(blocks.contains(&0), "read-write attack pool");
        assert!(blocks.contains(&CPU_POOL_BLOCK), "read-only CPU window");
        assert!(blocks.contains(&FORBIDDEN_BLOCK), "unmapped page");
    }

    #[test]
    fn attack_config_grows_correct_guarded_siblings() {
        let base = SystemConfig {
            accel: AccelOrg::FuzzXg {
                variant: XgVariant::Transactional,
            },
            ..SystemConfig::default()
        };
        let multi = CampaignOpts {
            num_accels: 3,
            ..CampaignOpts::default()
        };
        let cfg = attack_config(&base, &multi, 7);
        let slots = cfg.accel_slots();
        assert_eq!(slots.len(), 3);
        assert!(matches!(
            slots[0].org,
            AccelOrg::FuzzXg {
                variant: XgVariant::Transactional
            }
        ));
        for s in &slots[1..] {
            assert!(
                matches!(
                    s.org,
                    AccelOrg::Xg {
                        variant: XgVariant::Transactional,
                        two_level: false
                    }
                ),
                "siblings are correct one-level guards of the same variant"
            );
        }
        // The single-accelerator path stays exactly as before.
        let one = attack_config(&base, &CampaignOpts::default(), 7);
        assert!(one.accels.is_empty());
        assert_eq!(one.accel_slots().len(), 1);
    }

    /// A delay no parsed schedule may carry: the kernel holds the step
    /// back to the end of time instead of wrapping it into the past.
    #[test]
    fn a_step_delayed_past_the_run_never_fires() {
        let base = SystemConfig {
            accel: AccelOrg::FuzzXg {
                variant: XgVariant::FullState,
            },
            ..SystemConfig::default()
        };
        let mut schedule =
            Schedule::from_text("xg-schedule v1\ns 1 2 0 1 0\ns 1 3 0 1 0\ns 1 4 0 1 0\n").unwrap();
        schedule.steps[1].delay = u64::MAX;
        let out = run_schedule(&base, &CampaignOpts::default(), &schedule, 0);
        assert_eq!(out.injected, 1, "only the step before the delay fires");
    }

    #[test]
    fn repro_sources_embed_the_schedule() {
        let base = SystemConfig {
            accel: AccelOrg::FuzzXg {
                variant: XgVariant::FullState,
            },
            ..SystemConfig::default()
        };
        let opts = CampaignOpts::default();
        let failure = CampaignFailure {
            kind: FailureKind::Deadlock,
            seed: 0xBEEF,
            schedule: Schedule::from_text("xg-schedule v1\ns 1 262144 0 1 0\n").unwrap(),
            summary: "host deadlocked".into(),
        };
        let test = repro_test_source("repro_deadlock", &base, &opts, &failure);
        assert!(test.contains("fn repro_deadlock()"));
        assert!(test.contains("xg-schedule v1\\ns 1 262144 0 1 0\\n"));
        assert!(test.contains("HostProtocol::Hammer"));
        assert!(test.contains("XgVariant::FullState"));
        assert!(test.contains("0xbeef"));
        let json = repro_json(&base, &opts, &failure);
        assert!(json.contains("\"kind\": \"deadlock\""));
        assert!(json.contains("\"steps\": 1"));
    }
}
