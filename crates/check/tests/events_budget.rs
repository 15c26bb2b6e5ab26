//! Kernel events per checker expansion: the work one step costs once the
//! parent state (or a fork inside the step) is restored. At one attack
//! block, depth 3, race steps on, a Hammer expansion dispatches 7.5 events
//! and a MESI one 6.7. Each is a protocol message or a latency timer; a
//! controller that polls instead of waiting for the event that unblocks it
//! adds its timer pops here (the MESI L2's four-cycle install retry made
//! MESI 24.7) long before they are visible in states per second, and so
//! does an explorer that re-runs a step's prefix instead of forking where
//! an invalidation's reply is chosen (11.4 Hammer, 15.9 MESI while every
//! reply choice re-ran the step from its parent).

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
    for (persona, budget) in [(Persona::Hammer, 9.0), (Persona::Mesi, 8.0)] {
        let out = explore(&WorldSpec::new(persona), &opts);
        assert!(out.is_clean(), "{persona:?}");
        assert!(
            out.forks > 0,
            "{persona:?}: no reply choice was branched on"
        );
        let per_expansion = out.events_per_expansion();
        eprintln!(
            "{}: {per_expansion:.1} events per expansion, {} forks",
            persona.name(),
            out.forks
        );
        if per_expansion > budget {
            over.push(format!("{}: {per_expansion:.1} > {budget}", persona.name()));
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
    }
    assert!(
        over.is_empty(),
        "events per expansion over budget: {over:?}"
    );
}
