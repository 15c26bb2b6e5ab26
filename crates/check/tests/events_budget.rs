//! Kernel events per checker expansion: the work one step costs once the
//! parent state is restored. At one attack block, depth 3, race steps on,
//! a MESI expansion dispatches 15.9 events and a Hammer one 11.4. Each is
//! a protocol message or a latency timer; a controller that polls instead
//! of waiting for the event that unblocks it adds its timer pops here (the
//! MESI L2's four-cycle install retry made MESI 24.7) long before they are
//! visible in states per second.

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
    for (persona, budget) in [(Persona::Hammer, 13.0), (Persona::Mesi, 18.0)] {
        let out = explore(&WorldSpec::new(persona), &opts);
        assert!(out.is_clean(), "{persona:?}");
        let per_expansion = out.events_per_expansion();
        eprintln!(
            "{}: {per_expansion:.1} events per expansion",
            persona.name()
        );
        if per_expansion > budget {
            over.push(format!("{}: {per_expansion:.1} > {budget}", persona.name()));
        }
        // The count is a property of the explored states, not of the run.
        let parallel = explore(
            &WorldSpec::new(persona),
            &ExploreOpts {
                jobs: Some(2),
                ..opts.clone()
            },
        );
        assert_eq!(parallel.events, out.events, "{persona:?}");
    }
    assert!(
        over.is_empty(),
        "events per expansion over budget: {over:?}"
    );
}
