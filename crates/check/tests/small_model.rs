//! Small-model canonicalization and determinism properties.
//!
//! The checker's state dedup is only sound if the canonical digest is
//! invariant under everything that is *labeling* rather than *state*:
//! node registration order (agent relabeling) and the attack-block base
//! address (address relabeling, congruence-preserving). And shortest-first
//! counterexamples are only reproducible if exploration is bit-identical
//! across runs and worker counts. Both are checked here at a bounded
//! depth that keeps debug-mode test time small; the full-depth run is the
//! CI `xg-check` gate.
//!
//! The explorer reaches states by restoring checkpoints rather than by
//! replaying scripts, so it is also checked here against [`replay`], the
//! reference semantics, state by state. (That the planted `swallow_invs`
//! bug still shrinks to the pinned shortest scripts is asserted next to
//! those scripts, in `repro_swallow_invs.rs`.)

use std::sync::OnceLock;

use proptest::prelude::*;
use xg_check::{explore, explore_with, replay, ExploreOpts, Persona, Role, WorldSpec};

/// The bounded exploration used by every property here.
fn bounded_opts(depth: usize, jobs: Option<usize>) -> ExploreOpts {
    ExploreOpts {
        depth: Some(depth),
        race_steps: false,
        jobs,
        ..ExploreOpts::default()
    }
}

/// `(states, fingerprint)` of the canonical spec at depth 1, per persona,
/// computed once.
fn canonical(persona: Persona) -> (usize, u64) {
    static HAMMER: OnceLock<(usize, u64)> = OnceLock::new();
    static MESI: OnceLock<(usize, u64)> = OnceLock::new();
    let cell = match persona {
        Persona::Hammer => &HAMMER,
        Persona::Mesi => &MESI,
    };
    *cell.get_or_init(|| {
        let r = explore(&WorldSpec::new(persona), &bounded_opts(1, Some(1)));
        assert!(r.is_clean());
        (r.states, r.fingerprint)
    })
}

/// Decodes an index in `0..720` into a permutation of [`Role::ALL`]
/// (Lehmer code), so the strategy ranges over every node registration
/// order.
fn node_order() -> impl Strategy<Value = [Role; 6]> {
    (0u64..720).prop_map(|mut code| {
        let mut pool: Vec<Role> = Role::ALL.to_vec();
        let mut out = [Role::Probe; 6];
        for slot in out.iter_mut() {
            let radix = pool.len() as u64;
            *slot = pool.remove((code % radix) as usize);
            code /= radix;
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Guarantee-bearing invariance: permuting node registration order and
    /// shifting the attack base (by multiples of the cache-set period)
    /// relabels every agent and address without changing the canonical
    /// state space — same state count, same fingerprint.
    #[test]
    fn relabeling_preserves_canonical_state_space(
        order in node_order(),
        base_step in 0u64..4,
        persona_idx in 0usize..2,
    ) {
        let persona = Persona::ALL[persona_idx];
        let mut spec = WorldSpec::new(persona);
        spec.node_order = order;
        spec.attack_base += base_step * 4;
        let r = explore(&spec, &bounded_opts(1, Some(1)));
        let (states, fingerprint) = canonical(persona);
        prop_assert!(r.is_clean());
        prop_assert_eq!(r.states, states);
        prop_assert_eq!(r.fingerprint, fingerprint);
    }

    /// Worker-count determinism: the BFS result is byte-identical for any
    /// jobs value (sweep returns results in submission order).
    #[test]
    fn exploration_is_jobs_invariant(jobs in 1usize..5, persona_idx in 0usize..2) {
        let persona = Persona::ALL[persona_idx];
        let spec = WorldSpec::new(persona);
        let r = explore(&spec, &bounded_opts(1, Some(jobs)));
        let (states, fingerprint) = canonical(persona);
        prop_assert_eq!(r.states, states);
        prop_assert_eq!(r.fingerprint, fingerprint);
    }
}

/// Depth-2 BFS is deterministic across repeated runs and worker counts:
/// state counts, fingerprints, and replay and expansion counts all match.
#[test]
fn depth_two_exploration_is_deterministic() {
    let spec = WorldSpec::new(Persona::Hammer);
    let serial = explore(&spec, &bounded_opts(2, Some(1)));
    assert!(serial.is_clean());
    assert!(serial.states > 1);
    for jobs in [Some(1), Some(2), None] {
        let again = explore(&spec, &bounded_opts(2, jobs));
        assert_eq!(serial.states, again.states, "jobs {jobs:?}");
        assert_eq!(serial.fingerprint, again.fingerprint, "jobs {jobs:?}");
        assert_eq!(serial.replays, again.replays, "jobs {jobs:?}");
        assert_eq!(serial.expansions, again.expansions, "jobs {jobs:?}");
    }
}

/// Deeper exploration strictly refines shallower exploration: every
/// depth-1 state is still discovered at depth 2 (BFS layers nest).
#[test]
fn depth_layers_nest() {
    for persona in Persona::ALL {
        let spec = WorldSpec::new(persona);
        let d1 = explore(&spec, &bounded_opts(1, Some(1)));
        let d2 = explore(&spec, &bounded_opts(2, Some(1)));
        assert!(
            d2.states > d1.states,
            "{persona:?}: depth 2 must discover new states"
        );
        assert!(d2.expansions > d1.expansions);
    }
}

/// Differential check of the checkpoint explorer against the reference
/// implementation: every state it reports, replayed from scratch through
/// its representative script, has the same digest and verdict — so
/// restoring a checkpoint and running one step is indistinguishable from
/// rebuilding the world and re-running the whole script. Race steps on,
/// both personas; and any worker count finds the same states through the
/// same amount of work.
#[test]
fn checkpoint_explorer_agrees_with_replay_state_by_state() {
    for persona in Persona::ALL {
        let spec = WorldSpec::new(persona);
        let opts = |jobs| ExploreOpts {
            depth: Some(2),
            race_steps: true,
            jobs: Some(jobs),
            ..ExploreOpts::default()
        };
        let mut reported = Vec::new();
        let serial = explore_with(&spec, &opts(1), &mut |script, digest, verdict| {
            reported.push((script.clone(), digest, verdict.clone()));
        });
        assert_eq!(reported.len(), serial.states);
        assert_eq!(serial.replays, 1, "{persona:?}: only the initial state");
        assert!(serial.expansions > serial.states as u64);
        for (script, digest, verdict) in &reported {
            let reference = replay(&spec, script);
            assert_eq!(
                reference.digest,
                *digest,
                "{persona:?}: digest of\n{}",
                script.to_text()
            );
            assert_eq!(
                &reference.verdict,
                verdict,
                "{persona:?}: verdict of\n{}",
                script.to_text()
            );
        }
        for jobs in [2, 4] {
            let again = explore(&spec, &opts(jobs));
            assert_eq!(serial.states, again.states, "{persona:?} jobs {jobs}");
            assert_eq!(
                serial.fingerprint, again.fingerprint,
                "{persona:?} jobs {jobs}"
            );
            assert_eq!(
                serial.expansions, again.expansions,
                "{persona:?} jobs {jobs}"
            );
            assert_eq!(serial.coverage, again.coverage, "{persona:?} jobs {jobs}");
        }
    }
}
