//! Kernel events and restored components per checker expansion: the work
//! one step costs once the parent state (or a fork inside the step) is
//! restored. At one attack block, depth 3, race steps on, a Hammer
//! expansion dispatches 7.5 events and a MESI one 6.7. Each is a protocol
//! message or a latency timer; a controller that polls instead of waiting
//! for the event that unblocks it adds its timer pops here (the MESI L2's
//! four-cycle install retry made MESI 24.7) long before they are visible in
//! states per second, and so does an explorer that re-runs a step's prefix
//! instead of forking where an invalidation's reply is chosen (11.4 Hammer,
//! 15.9 MESI while every reply choice re-ran the step from its parent).
//!
//! Each expansion begins with one restore, which copies back only the
//! components the previous run from the same checkpoint touched: 4.83 of
//! the world's six for Hammer and 4.59 for MESI (every restore copied all
//! six before). A restore that stops telling the same checkpoint from
//! another, or a run path that marks everything touched, shows up here.
//!
//! The expansion and fork pins moved once, from 12 534 / 22 152 and
//! 885 / 2 278, when the world's CPU cache took the name `cpu_cache0`
//! from `build_system`: its latency draws come from a stream keyed by
//! that name, and the depth-3 state sets changed (273 / 358 states to
//! 256 / 380). Events per expansion did not move.

use xg_check::{explore, ExploreOpts, Persona, WorldSpec};

#[test]
fn an_expansion_dispatches_what_its_step_needs() {
    let opts = ExploreOpts {
        depth: Some(3),
        race_steps: true,
        jobs: Some(1),
        ..ExploreOpts::default()
    };
    let mut over = Vec::new();
    // (persona, events gate, restored gate, expansions, forks, events/exp)
    let personas = [
        (Persona::Hammer, 9.0, 5.0, 11_904, 850, "7.5"),
        (Persona::Mesi, 8.0, 5.0, 25_410, 2_681, "6.7"),
    ];
    for (persona, budget, restore_budget, expansions, forks, per_exp) in personas {
        let out = explore(&WorldSpec::new(persona), &opts);
        assert!(out.is_clean(), "{persona:?}");
        let per_expansion = out.events_per_expansion();
        let restored = out.restored_per_expansion();
        eprintln!(
            "{}: {per_expansion:.1} events and {restored:.2} restored components per \
             expansion, {} forks",
            persona.name(),
            out.forks
        );
        // What an expansion is does not depend on how it restores.
        assert_eq!(out.expansions, expansions, "{persona:?}");
        assert_eq!(out.forks, forks, "{persona:?}");
        assert_eq!(format!("{per_expansion:.1}"), per_exp, "{persona:?}");
        if per_expansion > budget {
            over.push(format!(
                "{}: {per_expansion:.1} events > {budget}",
                persona.name()
            ));
        }
        if restored > restore_budget {
            over.push(format!(
                "{}: {restored:.2} restored > {restore_budget}",
                persona.name()
            ));
        }
        // The counts are a property of the explored states, not of the run.
        let parallel = explore(
            &WorldSpec::new(persona),
            &ExploreOpts {
                jobs: Some(2),
                ..opts.clone()
            },
        );
        assert_eq!(parallel.events, out.events, "{persona:?}");
        assert_eq!(parallel.forks, out.forks, "{persona:?}");
        assert_eq!(parallel.restored, out.restored, "{persona:?}");
    }
    assert!(over.is_empty(), "per expansion over budget: {over:?}");
}
