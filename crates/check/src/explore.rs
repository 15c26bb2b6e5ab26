//! Breadth-first explicit-state exploration over drained checker states.
//!
//! The explorer keeps a frontier of *states*, not scripts. A drained world
//! is a value ([`xg_sim::Checkpoint`]: the six components, simulated time,
//! the per-component RNG streams, ordered-link delivery floors, progress
//! and fault counters), so a frontier state is expanded by restoring its
//! checkpoint into a scratch world, running one step to quiescence, and
//! digesting the result — no world is rebuilt, no script prefix is re-run
//! and no string-keyed report is produced per successor. The restore
//! overwrites the scratch world's components in place, and only those the
//! previous run from the same checkpoint touched
//! ([`xg_sim::Simulator::restore`]); the digest is the worker's own, reset
//! between states; and choice lists live in arenas, one per worker for
//! pending reply branches and one per parent for its successors' suffixes,
//! so an expansion that finds nothing new barely allocates
//! (`tests/alloc_budget.rs`). Drained states are deduplicated by canonical
//! digest, computed first: a successor whose digest an earlier level, an
//! earlier chunk or an earlier step of the same parent already reached is
//! dropped at the worker, unjudged — only a new digest has its properties
//! evaluated, and only a new state gets a full choice list. The first
//! script to reach a digest (in frontier × alphabet × choice order) is its
//! representative, and its checkpoint is what the next level expands.
//! Because exploration is breadth-first and a violating state is never
//! expanded, the first violation found is a shortest counterexample (in
//! steps).
//!
//! [`crate::replay`] stays the reference semantics: restoring a
//! representative's checkpoint and running a step yields exactly the state
//! `replay` reaches by running the extended script from scratch
//! (`tests/small_model.rs` checks this state by state), so state counts and
//! fingerprints are those of a replay-per-candidate search. From-scratch
//! replays remain only where the full [`ReplayOutcome`] is wanted — the
//! initial state and each violation — and where a frontier state's
//! checkpoint was not kept (see [`FRONTIER_BUDGET_BYTES`]).
//!
//! Invalidation choices are branched on where they arise. A step runs
//! ([`xg_sim::Simulator::run_until`]) until an invalidation past the chaos
//! accelerator's scripted choice list is due there; the world is then
//! checkpointed with that delivery still in flight — a *fork* — and each
//! reply choice resumes from the fork with the list extended by it, against
//! the step's own deadline, until every invalidation is scripted (or the
//! per-script [`CHOICE_CAP`] is hit, at which point the remaining
//! invalidations deterministically stay silent). Up to that delivery the
//! run does not depend on the choice, so a branch ends exactly where
//! restoring the parent and running the step with the longer list would;
//! no run is discarded and none re-made from the parent. Fork checkpoints
//! are kept per worker and written over in place
//! ([`xg_sim::Simulator::checkpoint_into`]) once all of a fork's branches
//! have started.
//!
//! Each level's frontier runs through [`xg_harness::sweep`], one item per
//! parent state (the item owns the parent's checkpoint), whose results
//! come back in submission order — so state counts, representatives and
//! fingerprints are identical for any worker count. Transition coverage is
//! summed from the machines' dense fired counters after every expansion and
//! turned into string-keyed [`TransitionCoverage`] once, at the end.

use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Mutex;

use xg_harness::{resolve_jobs, sweep};
use xg_proto::{Message, Sim};
use xg_sim::{CheckDigest, Checkpoint, Cycle, FsmRows, NodeId, TransitionCoverage};

use crate::replay::{
    assess, inject, judge, replay, run_script, state_digest, ReplayOutcome, Verdict, DRAIN_MAX,
};
use crate::script::{CpuOp, Script, Step, ACCEL_KIND_CODES, INV_CHOICE_CODES};
use crate::world::{build_world, ChaosAccel, World, WorldSpec};

/// Inline bytes ([`Checkpoint::inline_bytes`]) of frontier checkpoints the
/// explorer holds for the next level before it stops keeping them. States
/// past the budget keep only their script and are re-materialised with a
/// from-scratch replay when their turn to expand comes. A checker-world
/// checkpoint is about 3 KiB inline and 14–17 KiB resident once the
/// components' heap tables are counted (measured, two attack blocks), so
/// this bounds a level near 170 000 states and 2.5 GiB — the nightly
/// two-address depth-6 run peaks at 4 762 and never gets close, and a
/// deeper one would still fit a 7 GiB CI runner.
const FRONTIER_BUDGET_BYTES: usize = 512 << 20;

/// Parent states each worker expands per [`sweep`] call. Workers checkpoint
/// a successor unless earlier levels, earlier chunks or the same parent
/// already produced its digest; duplicates *across* the parents of one
/// chunk are only dropped when the chunk is folded, so a chunk of
/// `jobs × PARENTS_PER_WORKER` parents bounds how many redundant
/// checkpoints are ever alive (a parent yields a few dozen distinct
/// successors), while keeping thread start-up per chunk near 1% of its work.
const PARENTS_PER_WORKER: usize = 8;

/// Maximum scripted invalidation choices per script.
const CHOICE_CAP: usize = 8;

/// The set of state digests seen. A digest is already a 128-bit hash
/// ([`CheckDigest`]), so the table folds its two halves into its hash
/// instead of running SipHash over it.
type DigestSet = HashSet<u128, BuildHasherDefault<DigestHasher>>;

/// [`DigestSet`]'s hasher: the xor of a digest's two 64-bit halves.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u128(&mut self, digest: u128) {
        self.0 = digest as u64 ^ (digest >> 64) as u64;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a DigestSet hashes u128 digests only");
    }
}

/// Exploration limits and knobs.
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Maximum script length; `None` explores to fixpoint.
    pub depth: Option<usize>,
    /// Stop after this many distinct states (safety valve).
    pub max_states: usize,
    /// Worker threads (`None` = `XG_JOBS` or auto, `Some(1)` = serial).
    pub jobs: Option<usize>,
    /// Include overlapping accelerator/CPU race steps in the alphabet.
    pub race_steps: bool,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            depth: None,
            max_states: 2_000_000,
            jobs: None,
            race_steps: true,
        }
    }
}

/// A property violation with its (already shortest-in-steps) script.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violating script.
    pub script: Script,
    /// The first violated property.
    pub property: String,
    /// Full outcome of the violating replay.
    pub outcome: ReplayOutcome,
}

/// Exploration statistics and results.
#[derive(Debug)]
pub struct ExploreResult {
    /// Distinct drained states discovered.
    pub states: usize,
    /// BFS levels completed (deepest script length explored).
    pub levels: usize,
    /// From-scratch replays executed: the initial state, one per violation
    /// (for its full outcome), and one per frontier state whose checkpoint
    /// was not kept.
    pub replays: u64,
    /// Runs from a restored checkpoint: one per step from its parent state,
    /// plus one per reply branch resumed from a fork.
    pub expansions: u64,
    /// Kernel events (queue pops) those expansions dispatched, summed: a
    /// controller that polls shows up here before it shows up in states/s.
    /// Deterministic, and the same for any worker count.
    pub events: u64,
    /// Fork points taken mid-step: an unscripted invalidation reached the
    /// chaos accelerator, the world was checkpointed in front of it, and
    /// each reply choice ran on from there.
    pub forks: u64,
    /// Components the expansions' restores copied back into the scratch
    /// world: six for a restore that copies everything, fewer for one that
    /// reinstates the checkpoint it reinstated last and copies only what
    /// the run since touched ([`xg_sim::Simulator::restore`]).
    /// Deterministic, and the same for any worker count.
    pub restored: u64,
    /// Largest frontier (states awaiting expansion) of any level.
    pub peak_frontier: usize,
    /// Fully-scripted successors whose digest had already been seen.
    pub dedup_hits: u64,
    /// Frontier checkpoints kept, and their total
    /// [`Checkpoint::inline_bytes`].
    pub checkpoints: u64,
    /// See [`ExploreResult::checkpoints`].
    pub checkpoint_bytes: u64,
    /// Order-independent fingerprint of the explored state set.
    pub fingerprint: u64,
    /// Violations found, shortest scripts first.
    pub violations: Vec<Violation>,
    /// Transition coverage summed over every fully-scripted expansion (each
    /// counted with the whole path that led to it), per machine.
    pub coverage: BTreeMap<String, TransitionCoverage>,
    /// True if `max_states` stopped the exploration early.
    pub hit_state_cap: bool,
    /// True if the search closed (no unexplored successors remain).
    pub fixpoint: bool,
}

impl ExploreResult {
    /// Whether every explored state satisfied every property.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Share of fully-scripted successors that landed on an already-seen
    /// digest (0 when nothing was expanded).
    pub fn dedup_hit_rate(&self) -> f64 {
        let fresh = self.states.saturating_sub(1) as u64;
        match self.dedup_hits + fresh {
            0 => 0.0,
            successors => self.dedup_hits as f64 / successors as f64,
        }
    }

    /// Mean kernel events dispatched per expansion (0 when nothing was
    /// expanded).
    pub fn events_per_expansion(&self) -> f64 {
        match self.expansions {
            0 => 0.0,
            n => self.events as f64 / n as f64,
        }
    }

    /// Mean components copied back per expansion (0 when nothing was
    /// expanded).
    pub fn restored_per_expansion(&self) -> f64 {
        match self.expansions {
            0 => 0.0,
            n => self.restored as f64 / n as f64,
        }
    }

    /// Mean [`Checkpoint::inline_bytes`] of the frontier checkpoints kept
    /// (0 when none was).
    pub fn checkpoint_bytes_per_state(&self) -> u64 {
        self.checkpoint_bytes
            .checked_div(self.checkpoints)
            .unwrap_or(0)
    }
}

/// The stimulus alphabet for `spec`: every accelerator kind × accelerator
/// address, every CPU op × CPU address, and (optionally) a reduced set of
/// overlapping race steps.
///
/// # Panics
/// If `spec` fails [`WorldSpec::check`]: a step could not name every
/// address.
pub fn step_alphabet(spec: &WorldSpec, race_steps: bool) -> Vec<Step> {
    let index_bound = |addrs: usize| {
        u8::try_from(addrs).unwrap_or_else(|_| panic!("{addrs} addresses do not fit a step's u8"))
    };
    let accel_addrs = index_bound(spec.accel_blocks().len());
    let cpu_addrs = index_bound(spec.cpu_words().len());
    let mut steps = Vec::new();
    for kind in 0..ACCEL_KIND_CODES {
        for addr in 0..accel_addrs {
            steps.push(Step::Accel { kind, addr });
        }
    }
    for op in CpuOp::ALL {
        for addr in 0..cpu_addrs {
            steps.push(Step::Cpu { op, addr });
        }
    }
    if race_steps {
        // Requests and evictions only — the interesting overlaps — to keep
        // the branching factor in check.
        for kind in [0u8, 1, 4] {
            for addr in 0..accel_addrs {
                for op in [CpuOp::Load, CpuOp::Store] {
                    for cpu_addr in 0..cpu_addrs {
                        steps.push(Step::Race {
                            kind,
                            addr,
                            op,
                            cpu_addr,
                        });
                    }
                }
            }
        }
    }
    steps
}

/// A frontier state: its representative script and, budget permitting,
/// the drained world itself.
struct Node {
    script: Script,
    state: Option<Checkpoint<Message>>,
}

/// One fully-scripted result of running a step from a parent state whose
/// digest the worker had not seen: not in an earlier level or chunk, not
/// reached by an earlier step of the same parent.
struct Successor {
    step: Step,
    /// The choices the step's forks appended to the parent's, as a range of
    /// [`Expanded::suffixes`].
    suffix: Range<usize>,
    digest: u128,
    verdict: Verdict,
    /// Present when the successor is clean, will be expanded, and is the
    /// first of its step's branches (in choice order) to reach its digest.
    state: Option<Checkpoint<Message>>,
}

/// Everything one parent state expanded to, in alphabet × choice order.
struct Expanded {
    parent: Script,
    successors: Vec<Successor>,
    /// The successors' choice suffixes, end to end: one buffer per parent,
    /// not one list per successor.
    suffixes: Vec<u8>,
    /// Successors dropped at the worker as already seen.
    duplicates: u64,
    expansions: u64,
    events: u64,
    forks: u64,
    restored: u64,
    replays: u64,
}

/// Dense per-machine sums of fired counters, matched by visit position
/// (every world of one exploration registers its components in the same
/// order).
#[derive(Default)]
struct FiredSums(Vec<(&'static dyn FsmRows, Vec<u64>)>);

impl FiredSums {
    fn add_world(&mut self, sim: &Sim) {
        let mut machine = 0;
        sim.visit_fired(&mut |rows, fired| {
            if machine == self.0.len() {
                self.0.push((rows, vec![0; fired.len()]));
            }
            for (sum, &n) in self.0[machine].1.iter_mut().zip(fired) {
                *sum += n;
            }
            machine += 1;
        });
    }

    fn merge_into(&self, coverage: &mut BTreeMap<String, TransitionCoverage>) {
        for (rows, fired) in &self.0 {
            coverage
                .entry(rows.machine().to_string())
                .or_default()
                .add_fired(*rows, fired);
        }
    }
}

/// Checkpoints taken in the middle of a step, where an unscripted
/// invalidation reached the chaos accelerator: one per fork with branches
/// still to run. Branches run depth-first, so forks close innermost first
/// and the open ones are a stack; the next fork at a depth is written over
/// the closed one's slot ([`Sim::checkpoint_into`]), so a worker holds as
/// many as its deepest nesting, however many forks it takes.
#[derive(Default)]
struct Forks {
    slots: Vec<Checkpoint<Message>>,
    open: usize,
}

impl Forks {
    /// Checkpoints `sim` into the next free slot, and names the slot.
    fn open(&mut self, sim: &Sim) -> usize {
        let slot = self.open;
        match self.slots.get_mut(slot) {
            Some(saved) => sim
                .checkpoint_into(saved)
                .expect("checker components clone"),
            None => self
                .slots
                .push(sim.checkpoint().expect("checker components clone")),
        }
        self.open += 1;
        slot
    }

    /// Frees `slot`, whose last branch has been restored from it.
    fn close(&mut self, slot: usize) {
        debug_assert_eq!(slot + 1, self.open, "forks close innermost first");
        self.open = slot;
    }
}

/// Reply branches still to run, depth-first: the fork slot each resumes
/// from, and the choices its step has appended so far — the branch's own
/// reply last — as a range of one arena. Branches pop in the reverse of
/// their push order, so a popped branch's choices are the arena's tail and
/// go with it.
#[derive(Default)]
struct Branches {
    stack: Vec<(usize, Range<usize>)>,
    choices: Vec<u8>,
}

impl Branches {
    /// Pushes one branch per reply choice from fork `slot`, each `extra`
    /// followed by its reply.
    fn fork(&mut self, slot: usize, extra: &[u8]) {
        for choice in 0..INV_CHOICE_CODES {
            let start = self.choices.len();
            self.choices.extend_from_slice(extra);
            self.choices.push(choice);
            self.stack.push((slot, start..self.choices.len()));
        }
    }

    /// Pops the next branch: its fork slot, with its choices written over
    /// `extra`.
    fn pop(&mut self, extra: &mut Vec<u8>) -> Option<usize> {
        let (slot, range) = self.stack.pop()?;
        extra.clear();
        extra.extend_from_slice(&self.choices[range.clone()]);
        self.choices.truncate(range.start);
        Some(slot)
    }
}

/// A worker's reusable world, the digest that carries its roles, its fork
/// slots and pending branches, and its share of the coverage sums.
struct Scratch {
    world: World,
    digest: CheckDigest,
    forks: Forks,
    branches: Branches,
    /// The choices the running branch has appended to its parent's.
    extra: Vec<u8>,
    fired: FiredSums,
}

impl Scratch {
    fn new(spec: &WorldSpec, world: World) -> Scratch {
        Scratch {
            digest: spec.digest_for(&world.ids),
            world,
            forks: Forks::default(),
            branches: Branches::default(),
            extra: Vec::new(),
            fired: FiredSums::default(),
        }
    }
}

/// Runs the step `world` holds on to `deadline` — or, when `may_fork`,
/// until the first invalidation the chaos accelerator's script does not
/// answer is due there: `None`, with that delivery still queued. Otherwise
/// whether the world drained.
fn run_to_fork(world: &mut World, deadline: Cycle, may_fork: bool) -> Option<bool> {
    let chaos = world.ids.chaos;
    let mut scripted = world
        .sim
        .get::<ChaosAccel>(chaos)
        .expect("chaos node is a ChaosAccel")
        .remaining_choices();
    let unscripted = |to: NodeId, msg: &Message| {
        if !may_fork || to != chaos || !ChaosAccel::consumes_choice(msg) {
            return false;
        }
        let past_script = scripted == 0;
        scripted = scripted.saturating_sub(1);
        past_script
    };
    world
        .sim
        .run_until(deadline, unscripted)
        .map(|out| out.quiescent)
}

/// The read-only context of one level's sweep.
struct Expander<'a> {
    spec: &'a WorldSpec,
    alphabet: &'a [Step],
    /// Digests of earlier levels and earlier chunks of this level.
    seen: &'a DigestSet,
    /// Whether this level's successors will themselves be expanded.
    keep_states: bool,
    scratch: &'a Mutex<Vec<Scratch>>,
}

impl Expander<'_> {
    /// Runs every alphabet step from `node`'s state.
    fn expand(&self, node: Node) -> Expanded {
        let spec = self.spec;
        let pooled = self.scratch.lock().expect("scratch pool").pop();
        let mut scratch = pooled.unwrap_or_else(|| Scratch::new(spec, build_world(spec, &[])));
        let mut replays = 0;
        let parent = node.state.unwrap_or_else(|| {
            replays += 1;
            let (world, divergence) = run_script(spec, &node.script);
            assert!(!divergence, "a frontier state is drained");
            world.sim.checkpoint().expect("checker components clone")
        });
        let scripted = node.script.choices.len();

        let mut successors: Vec<Successor> = Vec::with_capacity(self.alphabet.len());
        let mut suffixes = Vec::new();
        let mut duplicates = 0;
        let mut expansions = 0;
        let mut events = 0;
        let mut forks = 0;
        let mut restored = 0;
        let Scratch {
            world,
            digest: d,
            forks: fork_slots,
            branches,
            extra,
            fired,
        } = &mut scratch;
        for &step in self.alphabet {
            let first = successors.len();
            restored += world.sim.restore(&parent) as u64;
            inject(world, step);
            // Every branch of the step drains against the step's deadline.
            let deadline = world.sim.now() + DRAIN_MAX;
            extra.clear();
            loop {
                let may_fork = scripted + extra.len() < CHOICE_CAP;
                let popped = world.sim.queue_stats().pops;
                let ran = run_to_fork(world, deadline, may_fork);
                expansions += 1;
                events += world.sim.queue_stats().pops - popped;
                match ran {
                    // An unscripted invalidation waits at the chaos
                    // accelerator: each reply to it is a branch from here.
                    None => {
                        forks += 1;
                        branches.fork(fork_slots.open(&world.sim), extra);
                    }
                    Some(quiescent) => {
                        let digest = state_digest(world, d);
                        fired.add_world(&world.sim);
                        // Only a new digest is judged: a known one is
                        // dropped, and its verdict would never be read.
                        if self.seen.contains(&digest)
                            || successors[..first].iter().any(|s| s.digest == digest)
                        {
                            duplicates += 1;
                        } else {
                            let verdict = judge(spec, world, !quiescent, d.obligations());
                            let keep = self.keep_states && verdict.is_clean();
                            let start = suffixes.len();
                            suffixes.extend_from_slice(extra);
                            successors.push(Successor {
                                step,
                                suffix: start..suffixes.len(),
                                digest,
                                verdict,
                                state: keep.then(|| {
                                    world.sim.checkpoint().expect("checker components clone")
                                }),
                            });
                        }
                    }
                }
                let Some(slot) = branches.pop(extra) else {
                    break;
                };
                restored += world.sim.restore(&fork_slots.slots[slot]) as u64;
                let reply = *extra.last().expect("a branch ends with its reply");
                // Choice 0 was pushed first, so its branch is the fork's last.
                if reply == 0 {
                    fork_slots.close(slot);
                }
                world
                    .sim
                    .get_mut::<ChaosAccel>(world.ids.chaos)
                    .expect("chaos node is a ChaosAccel")
                    .extend_choices(&[reply]);
            }
            // Branches ran depth-first; restore a deterministic order
            // independent of expansion history (every suffix extends the
            // same parent list, so suffix order is choice order), then keep
            // only the first checkpoint of each digest this step's
            // branches share.
            successors[first..]
                .sort_by(|a, b| suffixes[a.suffix.clone()].cmp(&suffixes[b.suffix.clone()]));
            for i in first + 1..successors.len() {
                let (earlier, rest) = successors.split_at_mut(i);
                if earlier[first..].iter().any(|s| s.digest == rest[0].digest) {
                    rest[0].state = None;
                }
            }
        }
        self.scratch.lock().expect("scratch pool").push(scratch);
        Expanded {
            parent: node.script,
            successors,
            suffixes,
            duplicates,
            expansions,
            events,
            forks,
            restored,
            replays,
        }
    }
}

/// The distinct states found so far and what became of them.
struct Discovered<'a> {
    spec: &'a WorldSpec,
    on_state: &'a mut dyn FnMut(&Script, u128, &Verdict),
    violations: Vec<Violation>,
    replays: u64,
}

impl Discovered<'_> {
    /// Records a state whose digest was just seen for the first time; a
    /// clean one joins `frontier`.
    fn record(
        &mut self,
        script: Script,
        digest: u128,
        verdict: &Verdict,
        state: Option<Checkpoint<Message>>,
        frontier: &mut Vec<Node>,
    ) {
        (self.on_state)(&script, digest, verdict);
        match verdict.violation() {
            Some(property) => {
                // Violations are rare; replay for the full outcome.
                self.replays += 1;
                self.violations.push(Violation {
                    property: property.to_string(),
                    outcome: replay(self.spec, &script),
                    script,
                });
            }
            None => frontier.push(Node { script, state }),
        }
    }
}

/// Explores the reachable drained-state space of `spec`.
pub fn explore(spec: &WorldSpec, opts: &ExploreOpts) -> ExploreResult {
    explore_with(spec, opts, &mut |_, _, _| {})
}

/// [`explore`], calling `on_state(script, digest, verdict)` for every
/// distinct state in discovery order with its representative script.
pub fn explore_with(
    spec: &WorldSpec,
    opts: &ExploreOpts,
    on_state: &mut dyn FnMut(&Script, u128, &Verdict),
) -> ExploreResult {
    explore_within(spec, opts, on_state, FRONTIER_BUDGET_BYTES).0
}

/// [`explore_with`] under an explicit frontier checkpoint budget; also
/// hands back the workers' scratch, as the last expansion left it.
fn explore_within(
    spec: &WorldSpec,
    opts: &ExploreOpts,
    on_state: &mut dyn FnMut(&Script, u128, &Verdict),
    frontier_budget: usize,
) -> (ExploreResult, Vec<Scratch>) {
    let alphabet = step_alphabet(spec, opts.race_steps);
    let jobs = resolve_jobs(opts.jobs);

    let mut seen = DigestSet::default();
    let mut found = Discovered {
        spec,
        on_state,
        violations: Vec::new(),
        replays: 0,
    };
    let mut expansions = 0u64;
    let mut events = 0u64;
    let mut forks = 0u64;
    let mut restored = 0u64;
    let mut dedup_hits = 0u64;
    let mut checkpoints = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut hit_state_cap = false;

    // Level 0: the initial (empty-script) state, run from scratch. Its
    // world becomes the first scratch world.
    let mut frontier: Vec<Node> = Vec::new();
    let root = {
        let script = Script::empty();
        let (world, divergence) = run_script(spec, &script);
        found.replays += 1;
        let mut root = Scratch::new(spec, world);
        let drained = assess(spec, &root.world, divergence, &mut root.digest);
        root.fired.add_world(&root.world.sim);
        seen.insert(drained.digest);
        // A checkpoint is taken of any world, drained or not: only a
        // drained one is a state to expand.
        let state = (!divergence).then(|| {
            root.world
                .sim
                .checkpoint()
                .expect("checker components clone")
        });
        found.record(
            script,
            drained.digest,
            &drained.verdict,
            state,
            &mut frontier,
        );
        root
    };
    let scratch = Mutex::new(vec![root]);

    let mut levels = 0usize;
    let mut peak_frontier = frontier.len();
    let mut fixpoint = frontier.is_empty();
    while !frontier.is_empty() {
        if opts.depth.is_some_and(|d| levels >= d) {
            break;
        }
        if seen.len() >= opts.max_states {
            hit_state_cap = true;
            break;
        }
        if !found.violations.is_empty() {
            break;
        }
        let keep_states = opts.depth.is_none_or(|d| levels + 1 < d);
        let mut next: Vec<Node> = Vec::new();
        let mut held_bytes = 0usize;
        let mut parents = frontier.into_iter();
        loop {
            let chunk: Vec<Node> = parents.by_ref().take(jobs * PARENTS_PER_WORKER).collect();
            if chunk.is_empty() {
                break;
            }
            let expander = Expander {
                spec,
                alphabet: &alphabet,
                seen: &seen,
                keep_states,
                scratch: &scratch,
            };
            let batches = sweep(chunk, jobs, |node, _| expander.expand(node));
            for batch in batches {
                expansions += batch.expansions;
                events += batch.events;
                forks += batch.forks;
                restored += batch.restored;
                found.replays += batch.replays;
                dedup_hits += batch.duplicates;
                for succ in batch.successors {
                    // A digest an earlier parent of this chunk reached.
                    if !seen.insert(succ.digest) {
                        dedup_hits += 1;
                        continue;
                    }
                    let state = succ.state.filter(|cp| {
                        let bytes = cp.inline_bytes();
                        let fits = held_bytes + bytes <= frontier_budget;
                        if fits {
                            held_bytes += bytes;
                            checkpoints += 1;
                            checkpoint_bytes += bytes as u64;
                        }
                        fits
                    });
                    let mut steps = batch.parent.steps.clone();
                    steps.push(succ.step);
                    let suffix = &batch.suffixes[succ.suffix];
                    let script = Script {
                        steps,
                        choices: [&batch.parent.choices[..], suffix].concat(),
                    };
                    found.record(script, succ.digest, &succ.verdict, state, &mut next);
                }
            }
        }
        levels += 1;
        fixpoint = next.is_empty();
        peak_frontier = peak_frontier.max(next.len());
        frontier = next;
    }

    let mut coverage: BTreeMap<String, TransitionCoverage> = BTreeMap::new();
    let workers = scratch.into_inner().expect("scratch pool");
    for worker in &workers {
        worker.fired.merge_into(&mut coverage);
    }

    let Discovered {
        violations,
        replays,
        ..
    } = found;
    let mut digests: Vec<u128> = seen.iter().copied().collect();
    digests.sort_unstable();
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for d in &digests {
        fingerprint =
            (fingerprint ^ (*d as u64) ^ ((d >> 64) as u64)).wrapping_mul(0x100_0000_01b3);
    }
    fingerprint ^= seen.len() as u64;

    let result = ExploreResult {
        states: seen.len(),
        levels,
        replays,
        expansions,
        events,
        forks,
        restored,
        peak_frontier,
        dedup_hits,
        checkpoints,
        checkpoint_bytes,
        fingerprint,
        violations,
        coverage,
        hit_state_cap,
        fixpoint,
    };
    (result, workers)
}

/// Rows declared by a machine's table but never fired during exploration,
/// per machine, from an exploration's union coverage.
pub fn unreachable_rows(
    coverage: &BTreeMap<String, TransitionCoverage>,
) -> BTreeMap<String, Vec<(String, String)>> {
    coverage
        .iter()
        .map(|(machine, cov)| {
            let rows = cov
                .never_fired()
                .map(|(s, e)| (s.to_string(), e.to_string()))
                .collect();
            (machine.clone(), rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::script::INV_CHOICE_CODES;
    use crate::world::Persona;

    /// Digest and JSON report of `world` as it stands, and how many more
    /// invalidations its chaos accelerator's script answers (script
    /// progress, which neither of the first two shows).
    fn observe(spec: &WorldSpec, world: &World) -> (u128, String, usize) {
        let drained = assess(spec, world, false, &mut spec.digest_for(&world.ids));
        let chaos = world.sim.get::<ChaosAccel>(world.ids.chaos);
        let scripted = chaos.expect("chaos node").remaining_choices();
        (drained.digest, world.sim.report().to_json(), scripted)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24 })]

        /// In-place restore is a deep copy. A world that ran script `ours`
        /// and is then restored from the checkpoint of a world that ran
        /// `theirs` is that second world: same digest, same report, and the
        /// same again once one more step has drained — whether `theirs`
        /// left more in the tables than `ours` did (they grow) or less
        /// (they shrink, and nothing of `ours` may show through). A freshly
        /// built world restored from the same checkpoint agrees too. The
        /// checkpoint is taken `into` events into that step (0: before it
        /// is injected), so it holds whatever the step has in flight then.
        #[test]
        fn a_restored_world_is_the_checkpointed_one_whatever_it_held_before(
            persona in 0usize..2,
            picks in vec(0usize..1_000, 0..7),
            other_picks in vec(0usize..1_000, 0..7),
            choices in vec(0..INV_CHOICE_CODES, 0..4),
            other_choices in vec(0..INV_CHOICE_CODES, 0..4),
            next in 0usize..1_000,
            into in 0usize..24,
        ) {
            // Two attack blocks in one set: evictions and recalls happen.
            let spec = WorldSpec::new(Persona::ALL[persona]).with_attack_blocks(2);
            let alphabet = step_alphabet(&spec, true);
            let script = |picks: &[usize], choices: Vec<u8>| Script {
                steps: picks.iter().map(|&i| alphabet[i % alphabet.len()]).collect(),
                choices,
            };
            let a = script(&picks, choices);
            let b = script(&other_picks, other_choices);
            let next = alphabet[next % alphabet.len()];
            for (ours, theirs) in [(&a, &b), (&b, &a)] {
                let (mut original, divergence) = run_script(&spec, theirs);
                // A world that failed to drain is no state to checkpoint.
                if divergence {
                    continue;
                }
                if into > 0 {
                    inject(&mut original, next);
                    for _ in 1..into {
                        original.sim.step();
                    }
                }
                let saved = original.sim.checkpoint().expect("checker components clone");
                let (mut used, _) = run_script(&spec, ours);
                used.sim.restore(&saved);
                let mut fresh = build_world(&spec, &[]);
                fresh.sim.restore(&saved);

                let want = observe(&spec, &original);
                prop_assert_eq!(&observe(&spec, &used), &want, "{:?} over {:?}", theirs, ours);
                prop_assert_eq!(&observe(&spec, &fresh), &want, "{:?} over new", theirs);
                let finish = |world: &mut World| {
                    if into == 0 {
                        inject(world, next);
                    }
                    world.sim.run_to_quiescence(DRAIN_MAX).quiescent
                };
                let drained = finish(&mut original);
                prop_assert_eq!(finish(&mut used), drained);
                prop_assert_eq!(finish(&mut fresh), drained);
                let want = observe(&spec, &original);
                prop_assert_eq!(&observe(&spec, &used), &want, "{:?} over {:?}, stepped", theirs, ours);
                prop_assert_eq!(&observe(&spec, &fresh), &want, "{:?} over new, stepped", theirs);
            }
        }

        /// An incremental restore is a full one. One world is restored from
        /// one checkpoint again and again, and between restores it is moved
        /// on by `moves`: a step drained to quiescence (kind 0), a step's
        /// first few events (1), a step run to its first unscripted
        /// invalidation, forked there with `checkpoint_into` and resumed
        /// with a reply (2), or only a reply appended to the chaos
        /// accelerator's list through `get_mut` (3). After every restore it
        /// is what a freshly built world restored from the same checkpoint
        /// is: the same digest, report and script progress, and the same
        /// digest once one more step has drained.
        #[test]
        fn a_world_restored_from_one_checkpoint_again_and_again_is_a_fresh_restore(
            persona in 0usize..2,
            picks in vec(0usize..1_000, 0..6),
            choices in vec(0..INV_CHOICE_CODES, 0..3),
            moves in vec((0usize..4, 0usize..1_000, 0..INV_CHOICE_CODES), 1..7),
            next in 0usize..1_000,
        ) {
            let spec = WorldSpec::new(Persona::ALL[persona]).with_attack_blocks(2);
            let alphabet = step_alphabet(&spec, true);
            let pick = |i: usize| alphabet[i % alphabet.len()];
            let script = Script {
                steps: picks.iter().map(|&i| pick(i)).collect(),
                choices,
            };
            let (original, divergence) = run_script(&spec, &script);
            if divergence {
                return Ok(());
            }
            let saved = original.sim.checkpoint().expect("checker components clone");
            let finish = |world: &mut World| {
                let now = observe(&spec, world);
                inject(world, pick(next));
                let drained = world.sim.run_to_quiescence(DRAIN_MAX).quiescent;
                (now, drained, observe(&spec, world).0)
            };
            let mut fresh = build_world(&spec, &[]);
            fresh.sim.restore(&saved);
            let want = finish(&mut fresh);

            let mut world = build_world(&spec, &[]);
            let mut fork = world.sim.checkpoint().expect("checker components clone");
            let chaos = world.ids.chaos;
            for (i, &(kind, step, reply)) in moves.iter().enumerate() {
                // Copies back what move `i - 1` touched; then all of it,
                // since `finish` ran the world on.
                world.sim.restore(&saved);
                prop_assert_eq!(finish(&mut world), want.clone(), "after {:?}", &moves[..i]);
                world.sim.restore(&saved);
                let step = pick(step);
                match kind {
                    0 => {
                        inject(&mut world, step);
                        world.sim.run_to_quiescence(DRAIN_MAX);
                    }
                    1 => {
                        inject(&mut world, step);
                        for _ in 0..3 {
                            world.sim.step();
                        }
                    }
                    2 => {
                        inject(&mut world, step);
                        let deadline = world.sim.now() + DRAIN_MAX;
                        if run_to_fork(&mut world, deadline, true).is_none() {
                            world.sim.checkpoint_into(&mut fork).expect("checker components clone");
                            world.sim.restore(&fork);
                            let accel = world.sim.get_mut::<ChaosAccel>(chaos);
                            accel.expect("chaos node").extend_choices(&[reply]);
                            run_to_fork(&mut world, deadline, false);
                        }
                    }
                    _ => {
                        let accel = world.sim.get_mut::<ChaosAccel>(chaos);
                        accel.expect("chaos node").extend_choices(&[reply]);
                    }
                }
            }
            world.sim.restore(&saved);
            prop_assert_eq!(finish(&mut world), want, "after {:?}", moves);
        }
    }

    #[test]
    fn alphabet_has_expected_shape() {
        let spec = WorldSpec::new(Persona::Hammer);
        let no_race = step_alphabet(&spec, false);
        // 14 kinds × 3 accel addrs + 3 ops × 2 cpu addrs.
        assert_eq!(no_race.len(), 14 * 3 + 6);
        let with_race = step_alphabet(&spec, true);
        assert_eq!(with_race.len(), no_race.len() + 3 * 3 * 2 * 2);
    }

    #[test]
    fn the_address_count_is_bounded_by_what_a_step_can_index() {
        let widest =
            WorldSpec::new(Persona::Hammer).with_attack_blocks(WorldSpec::MAX_ATTACK_BLOCKS);
        assert_eq!(widest.check(), Ok(()));
        // Every accelerator address is named: none was lost to a wrapped
        // index (300 addresses used to be explored as 300 % 256 = 44).
        let steps = step_alphabet(&widest, false);
        let named = steps.iter().filter_map(|s| match s {
            Step::Accel { kind: 0, addr } => Some(*addr),
            _ => None,
        });
        assert!(named.eq(0..=u8::MAX - 1));

        let mut too_wide = widest.clone();
        too_wide.attack_blocks += 1;
        assert!(too_wide.check().is_err());
        let alphabet = std::panic::catch_unwind(|| step_alphabet(&too_wide, false));
        assert!(alphabet.is_err(), "256 addresses do not fit a step's u8");
        too_wide.attack_blocks = 0;
        assert!(too_wide.check().is_err());
    }

    #[test]
    fn states_past_the_checkpoint_budget_are_rematerialised_by_replay() {
        let opts = ExploreOpts {
            depth: Some(2),
            race_steps: false,
            jobs: Some(1),
            ..ExploreOpts::default()
        };
        for persona in Persona::ALL {
            let spec = WorldSpec::new(persona);
            let kept = explore(&spec, &opts);
            assert_eq!(kept.replays, 1);
            assert!(kept.checkpoints > 0);
            // Room for two checkpoints per level; the rest keep scripts.
            let budget = 2 * kept.checkpoint_bytes_per_state() as usize;
            let (spilled, _) = explore_within(&spec, &opts, &mut |_, _, _| {}, budget);
            assert_eq!(spilled.checkpoints, 2, "{persona:?}");
            assert!(
                spilled.replays > 1,
                "{persona:?}: script-only states replay"
            );
            assert_eq!(spilled.states, kept.states, "{persona:?}");
            assert_eq!(spilled.fingerprint, kept.fingerprint, "{persona:?}");
            assert_eq!(spilled.expansions, kept.expansions, "{persona:?}");
            assert_eq!(spilled.events, kept.events, "{persona:?}");
            assert_eq!(spilled.coverage, kept.coverage, "{persona:?}");
        }
    }

    /// A restore drops the post-mortem flags of the run it discards, so a
    /// scratch world holds only its last run's: at most the guard's first
    /// error, since a clean exploration trips no host violation and the
    /// checker's OS only reports. Before, the flags of every run piled up —
    /// 7 763 of them after this exploration.
    #[test]
    fn a_scratch_world_keeps_only_its_last_runs_flags() {
        let opts = ExploreOpts {
            depth: Some(3),
            jobs: Some(1),
            ..ExploreOpts::default()
        };
        let spec = WorldSpec::new(Persona::Mesi);
        let (out, workers) = explore_within(&spec, &opts, &mut |_, _, _| {}, FRONTIER_BUDGET_BYTES);
        assert!(out.is_clean());
        let [worker] = &workers[..] else {
            panic!("one worker, {} scratch worlds", workers.len());
        };
        let flags = worker.world.sim.tracer().flags();
        assert!(flags.len() <= 1, "{} flags: {:?}", flags.len(), &flags[..2]);
    }

    #[test]
    fn depth_one_exploration_is_clean_and_deterministic() {
        let spec = WorldSpec::new(Persona::Hammer);
        let opts = ExploreOpts {
            depth: Some(1),
            race_steps: false,
            ..ExploreOpts::default()
        };
        let a = explore(&spec, &opts);
        assert!(
            a.is_clean(),
            "{:?}",
            a.violations.first().map(|v| &v.property)
        );
        assert!(a.states > 1, "a GetS must produce a new state");
        let b = explore(&spec, &opts);
        assert_eq!(a.states, b.states);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}
