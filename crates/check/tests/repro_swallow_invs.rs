//! Planted-bug round trip: the checker must *find* the test-only
//! swallowed-invalidation bug (`WorldSpec::swallow_invs`), shrink the
//! counterexample, and emit a regression test that fails while the bug is
//! planted and passes once it is fixed.
//!
//! The first half runs the discovery pipeline end to end at a bounded
//! depth. The second half pins the shrunk counterexamples the pipeline
//! produces (committed, not regenerated) so the detection stays locked in
//! even if exploration defaults change: the pinned tests mirror the
//! source `xg_check::repro_test_source` emits, with the assertion
//! inverted — the checker must *catch* the planted bug, and the same
//! script must be clean on the real guard.

use xg_check::{
    explore, minimize_script, replay, repro_test_source, transcript, ExploreOpts, Persona, Script,
    WorldSpec,
};

/// Pinned shrunk counterexample per persona, as found (and then ddmin'd)
/// by `explore` with `swallow_invs` planted.
fn pinned_script(persona: Persona) -> &'static str {
    match persona {
        // GetS, then a CPU load of the same block: the guard swallows the
        // resulting invalidation, the CPU op wedges forever.
        Persona::Hammer => "xg-check v1\ns a 0 0\ns c l 0\n",
        // Two GetS to set-conflicting blocks: the L2 recalls the first
        // line to make room, the recall's invalidation is swallowed, and
        // the L2 stays in Busy_Recall owing work.
        Persona::Mesi => "xg-check v1\ns a 0 0\ns a 0 1\n",
    }
}

fn planted(persona: Persona) -> WorldSpec {
    let mut spec = WorldSpec::new(persona);
    spec.swallow_invs = true;
    spec
}

/// End-to-end discovery: exploration finds the planted bug, ddmin shrinks
/// the script without losing the violation, and the emitted regression
/// source embeds a script that round-trips through the text format.
#[test]
fn checker_finds_and_shrinks_the_planted_bug() {
    for persona in Persona::ALL {
        let spec = planted(persona);
        let opts = ExploreOpts {
            depth: Some(3),
            race_steps: false,
            ..ExploreOpts::default()
        };
        let result = explore(&spec, &opts);
        assert!(
            !result.violations.is_empty(),
            "{persona:?}: the planted swallow_invs bug must be detected"
        );
        let violation = &result.violations[0];
        assert!(
            violation.property.contains("deadlock"),
            "{persona:?}: swallowing invalidations wedges the world: {}",
            violation.property
        );

        let minimized = minimize_script(&spec, &violation.script);
        assert!(minimized.steps.len() <= violation.script.steps.len());
        assert!(
            !replay(&spec, &minimized).verdict.is_clean(),
            "{persona:?}: ddmin must preserve the violation"
        );

        // The text format round-trips the shrunk script exactly, and the
        // explorer still reaches the bug through the pinned shortest script.
        let text = minimized.to_text();
        assert_eq!(Script::from_text(&text).expect("parses"), minimized);
        assert_eq!(text, pinned_script(persona), "{persona:?}");

        // The emitted regression test embeds that script and the planted
        // spec, and the transcript names the violated property.
        let src = repro_test_source("repro", &spec, &minimized);
        assert!(src.contains("#[test]"), "emitted source is a test");
        assert!(
            src.contains("xg-check v1"),
            "emitted source embeds the script"
        );
        assert!(
            src.contains("swallow_invs = true"),
            "emitted source plants the bug"
        );
        let report = transcript(&spec, &minimized);
        assert!(
            report.contains("deadlock"),
            "transcript names the property:\n{report}"
        );
    }
}

/// Pinned hammer counterexample: fails (is caught) while the bug is
/// planted — the inversion of the emitted `assert_eq!(violation(), None)`.
#[test]
fn repro_hammer_counterexample_caught() {
    let script = Script::from_text(pinned_script(Persona::Hammer)).expect("pinned script parses");
    let out = replay(&planted(Persona::Hammer), &script);
    assert_eq!(
        out.verdict.violation(),
        Some("deadlock: drained state still owes work"),
        "{:?}",
        out.verdict
    );
}

/// Pinned mesi counterexample: same shape, set-conflict recall path.
#[test]
fn repro_mesi_counterexample_caught() {
    let script = Script::from_text(pinned_script(Persona::Mesi)).expect("pinned script parses");
    let out = replay(&planted(Persona::Mesi), &script);
    assert_eq!(
        out.verdict.violation(),
        Some("deadlock: drained state still owes work"),
        "{:?}",
        out.verdict
    );
}

/// The real (unbugged) guard survives both pinned counterexample scripts:
/// the emitted regression tests pass post-fix.
#[test]
fn pinned_counterexamples_are_clean_on_the_real_guard() {
    for persona in Persona::ALL {
        let script = Script::from_text(pinned_script(persona)).expect("pinned script parses");
        let out = replay(&WorldSpec::new(persona), &script);
        assert_eq!(
            out.verdict.violation(),
            None,
            "{persona:?}: {:?}",
            out.verdict
        );
    }
}
