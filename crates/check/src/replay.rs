//! Concrete replay: runs a [`Script`] against a freshly built world and
//! classifies the resulting drained state.
//!
//! Every step is injected into a quiescent world and the simulator is
//! drained to quiescence again (including guard timeout timers), so the
//! states the explorer deduplicates are exactly the drained states.
//! Properties are evaluated at the final drained state only — the explorer
//! visits every prefix as its own state, so each intermediate state is
//! still verified, and counterexamples stay shortest-first.
//!
//! [`replay`] is the reference semantics of a script: the explorer reaches
//! the same states by restoring a parent's [`xg_sim::Checkpoint`] and
//! running one [`run_step`], and is tested against `replay` state by
//! state. Minimisation, emitted reproducers, transcripts and violation
//! outcomes all go through `replay`, so none of them depends on a
//! checkpoint being faithful.

use xg_core::CrossingGuard;
use xg_host_hammer::{HammerCache, HammerDirectory};
use xg_host_mesi::{MesiL1, MesiL2};
use xg_mem::{BlockAddr, DataBlock, BLOCK_BYTES};
use xg_sim::CheckDigest;

use crate::script::{Script, Step};
use crate::world::{
    build_world, ChaosAccel, Persona, ProbeCore, Role, World, WorldSpec, FORBIDDEN_BLOCK, INV_FILL,
    STEP_FILL, WINDOW_BLOCK,
};

/// Per-step drain budget in cycles. Generous: the guard's invalidation
/// timeout (4000 cycles) can fire several times in one drain.
pub const DRAIN_MAX: u64 = 100_000;

/// Delay before the CPU half of a [`Step::Race`] fires, chosen to land
/// while the accelerator's XGI message is still crossing the chip
/// boundary (ordered link, 40–60 cycles).
const RACE_CPU_DELAY: u64 = 45;

/// Property evaluation of one drained state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The world failed to drain within [`DRAIN_MAX`] cycles (livelock).
    pub divergence: bool,
    /// Drained but still owing work (lost message, wedged transaction).
    pub deadlock: bool,
    /// Impossible-event counts in the trusted host components.
    pub host_violations: u64,
    /// Data responses delivered for the forbidden block (Guarantee 0a).
    pub forbidden_data: u64,
    /// Exclusive data delivered for the read-only window (Guarantee 0b).
    pub ro_exclusive_data: u64,
    /// The guard tracks state for the forbidden block (Guarantee 0a).
    pub guard_tracks_forbidden: bool,
    /// The guard holds the read-only window owned or dirty (Guarantee 0b).
    pub guard_window_writable: bool,
    /// A host copy of the read-only window — the CPU cache's, the home's
    /// or memory's — holds a word of accelerator fill data (Guarantee 0b).
    /// The probe's value oracle reads one window word and overwrites it
    /// with its own store, so it cannot see this.
    pub host_window_chaos: bool,
    /// Probe value-oracle failures (Guarantee 1).
    pub cpu_data_errors: u64,
    /// Errors the OS logged (informational — expected under attack).
    pub os_errors: u64,
}

impl Verdict {
    /// The first violated property, if any.
    pub fn violation(&self) -> Option<&'static str> {
        if self.divergence {
            Some("divergence: world failed to drain")
        } else if self.deadlock {
            Some("deadlock: drained state still owes work")
        } else if self.host_violations > 0 {
            Some("host protocol violation (Guarantee 2)")
        } else if self.forbidden_data > 0 {
            Some("data delivered for the forbidden block (Guarantee 0a)")
        } else if self.ro_exclusive_data > 0 {
            Some("exclusive data delivered for the read-only window (Guarantee 0b)")
        } else if self.guard_tracks_forbidden {
            Some("guard tracks the forbidden block (Guarantee 0a)")
        } else if self.guard_window_writable {
            Some("guard holds the read-only window writable (Guarantee 0b)")
        } else if self.host_window_chaos {
            Some("accelerator data reached a host copy of the read-only window (Guarantee 0b)")
        } else if self.cpu_data_errors > 0 {
            Some("CPU value oracle failed (Guarantee 1)")
        } else {
            None
        }
    }

    /// Whether every checked property holds.
    pub fn is_clean(&self) -> bool {
        self.violation().is_none()
    }
}

/// The result of replaying one script.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Canonical digest of the final drained state.
    pub digest: u128,
    /// Open obligations at the final state.
    pub obligations: u64,
    /// Invalidations that arrived past the scripted choice list.
    pub unscripted_invs: u64,
    /// Property evaluation.
    pub verdict: Verdict,
    /// Per-machine transition coverage of the whole replay.
    pub report: xg_sim::Report,
}

/// Posts the wake(s) for one step onto a drained world.
pub(crate) fn inject(world: &mut World, step: Step) {
    match step {
        Step::Accel { kind, addr } => {
            world
                .sim
                .post_wake(world.ids.chaos, 1, ChaosAccel::token(kind, addr));
        }
        Step::Cpu { op, addr } => {
            world
                .sim
                .post_wake(world.ids.probe, 1, ProbeCore::token(op, addr));
        }
        Step::Race {
            kind,
            addr,
            op,
            cpu_addr,
        } => {
            world
                .sim
                .post_wake(world.ids.chaos, 1, ChaosAccel::token(kind, addr));
            world.sim.post_wake(
                world.ids.probe,
                RACE_CPU_DELAY,
                ProbeCore::token(op, cpu_addr),
            );
        }
    }
}

/// Injects `step` into a drained world and drains it again. `false` means
/// the world failed to drain within [`DRAIN_MAX`] cycles.
pub(crate) fn run_step(world: &mut World, step: Step) -> bool {
    inject(world, step);
    world.sim.run_to_quiescence(DRAIN_MAX).quiescent
}

/// Builds a fresh world for `spec` and runs `script` through it. Returns
/// the world and whether it diverged (failed to drain after some step).
pub(crate) fn run_script(spec: &WorldSpec, script: &Script) -> (World, bool) {
    let mut world = build_world(spec, &script.choices);
    let divergence = !script.steps.iter().all(|&step| run_step(&mut world, step));
    (world, divergence)
}

/// Replays `script` against a fresh world for `spec`.
pub fn replay(spec: &WorldSpec, script: &Script) -> ReplayOutcome {
    let (world, divergence) = run_script(spec, script);
    classify(spec, &world, divergence)
}

/// What the explorer needs of a drained state: a [`ReplayOutcome`] without
/// the string-keyed report.
pub(crate) struct Drained {
    pub(crate) digest: u128,
    pub(crate) obligations: u64,
    pub(crate) unscripted_invs: u64,
    pub(crate) verdict: Verdict,
}

/// Digests and classifies an already-run world.
pub fn classify(spec: &WorldSpec, world: &World, divergence: bool) -> ReplayOutcome {
    let Drained {
        digest,
        obligations,
        unscripted_invs,
        verdict,
    } = assess(spec, world, divergence, &mut spec.digest_for(&world.ids));
    ReplayOutcome {
        digest,
        obligations,
        unscripted_invs,
        verdict,
        report: world.sim.report(),
    }
}

/// Digest and property evaluation of an already-run world. `d` carries the
/// world's roles ([`WorldSpec::digest_for`]) and is reset here, so a caller
/// with many states of one world to assess builds it once.
pub(crate) fn assess(
    spec: &WorldSpec,
    world: &World,
    divergence: bool,
    d: &mut CheckDigest,
) -> Drained {
    let digest = state_digest(world, d);
    let obligations = d.obligations();
    Drained {
        digest,
        obligations,
        unscripted_invs: chaos_of(world).unscripted_invs(),
        verdict: judge(spec, world, divergence, obligations),
    }
}

/// The first half of [`assess`]: the canonical digest of `world`, with
/// its obligations left in `d`.
pub(crate) fn state_digest(world: &World, d: &mut CheckDigest) -> u128 {
    let ids = &world.ids;
    d.reset();
    world.sim.fold_check_state(&Role::ALL.map(|r| ids.of(r)), d);
    d.finish()
}

fn chaos_of(world: &World) -> &ChaosAccel {
    world
        .sim
        .get::<ChaosAccel>(world.ids.chaos)
        .expect("chaos node is a ChaosAccel")
}

/// The second half of [`assess`]: the properties of `world`, whose
/// [`state_digest`] counted `obligations`.
pub(crate) fn judge(
    spec: &WorldSpec,
    world: &World,
    divergence: bool,
    obligations: u64,
) -> Verdict {
    let ids = &world.ids;
    let chaos = chaos_of(world);
    let probe = world
        .sim
        .get::<ProbeCore>(ids.probe)
        .expect("probe node is a ProbeCore");
    let guard = world
        .sim
        .get::<CrossingGuard>(ids.xg)
        .expect("guard node is a CrossingGuard");
    let os = world
        .sim
        .get::<xg_core::Os>(ids.os)
        .expect("os node is an Os");

    // Every host copy of the window: the CPU cache's, the home's (MESI
    // L2 only), and memory's.
    let window = BlockAddr::new(WINDOW_BLOCK);
    let data = |copy: Option<(DataBlock, bool)>| copy.map(|(data, _)| data);
    let (host_violations, window_copies) = match spec.persona {
        Persona::Hammer => {
            let cache = world.sim.get::<HammerCache>(ids.cpu_cache);
            let cache = cache.expect("hammer cpu cache");
            let dir = world.sim.get::<HammerDirectory>(ids.home);
            let dir = dir.expect("hammer directory");
            (
                cache.protocol_violations() + dir.protocol_violations(),
                [
                    data(cache.probe_data(window)),
                    None,
                    Some(dir.read_memory(window)),
                ],
            )
        }
        Persona::Mesi => {
            let l1 = world.sim.get::<MesiL1>(ids.cpu_cache).expect("mesi l1");
            let l2 = world.sim.get::<MesiL2>(ids.home).expect("mesi l2");
            (
                l1.protocol_violations() + l2.protocol_violations(),
                [
                    data(l1.probe_data(window)),
                    data(l2.probe_data(window)),
                    Some(l2.read_memory(window)),
                ],
            )
        }
    };

    let guard_window_writable = guard
        .table_entry(xg_mem::BlockAddr::new(WINDOW_BLOCK))
        .is_some_and(|(owned, dirty, _)| owned || dirty);

    Verdict {
        divergence,
        deadlock: !divergence && obligations > 0,
        host_violations,
        forbidden_data: chaos.forbidden_data(),
        ro_exclusive_data: chaos.ro_exclusive_data(),
        guard_tracks_forbidden: guard
            .table_entry(xg_mem::BlockAddr::new(FORBIDDEN_BLOCK))
            .is_some(),
        guard_window_writable,
        host_window_chaos: window_copies.iter().flatten().any(holds_chaos_fill),
        cpu_data_errors: probe.data_errors(),
        os_errors: os.total(),
    }
}

/// Whether any word of `data` is a chaos accelerator fill.
fn holds_chaos_fill(data: &DataBlock) -> bool {
    let fills = [STEP_FILL, INV_FILL].map(|b| u64::from_le_bytes([b; 8]));
    (0..BLOCK_BYTES as usize / 8).any(|w| fills.contains(&data.read_u64(w * 8)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_script_is_clean_for_both_personas() {
        for persona in Persona::ALL {
            let spec = WorldSpec::new(persona);
            let out = replay(&spec, &Script::empty());
            assert!(out.verdict.is_clean(), "{persona:?}: {:?}", out.verdict);
            assert_eq!(out.obligations, 0);
            assert_eq!(out.unscripted_invs, 0);
        }
    }

    #[test]
    fn single_gets_drains_clean() {
        for persona in Persona::ALL {
            let spec = WorldSpec::new(persona);
            let script = Script {
                steps: vec![Step::Accel { kind: 0, addr: 0 }],
                choices: vec![],
            };
            let out = replay(&spec, &script);
            assert!(out.verdict.is_clean(), "{persona:?}: {:?}", out.verdict);
            assert_ne!(
                out.digest,
                replay(&spec, &Script::empty()).digest,
                "{persona:?}: a GetS must change the drained state"
            );
        }
    }

    #[test]
    fn forbidden_gets_is_refused_and_reported() {
        for persona in Persona::ALL {
            let spec = WorldSpec::new(persona);
            // addr index past the attack blocks and window = forbidden.
            let forbidden_idx = (spec.attack_blocks + 1) as u8;
            let script = Script {
                steps: vec![Step::Accel {
                    kind: 0,
                    addr: forbidden_idx,
                }],
                choices: vec![],
            };
            let out = replay(&spec, &script);
            assert!(out.verdict.is_clean(), "{persona:?}: {:?}", out.verdict);
            assert!(
                out.verdict.os_errors > 0,
                "{persona:?}: the refusal must be reported to the OS"
            );
        }
    }
}
