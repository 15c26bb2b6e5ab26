//! The checker's emitted counterexample regression tests, committed
//! verbatim: proof that `repro_test_source` output *compiles* and *fails
//! pre-fix* (i.e. while the planted `swallow_invs` bug is in effect).
//!
//! Each emitted test replays the shrunk script against the planted spec
//! and asserts no property is violated — which is exactly what fails
//! while the bug is present, so the committed copies carry a
//! `#[should_panic]` on top: the emitted assertion firing is the pinned
//! behavior. A companion test keeps each copy byte-identical to what the
//! emitter produces today, so the committed sources cannot drift from
//! the generator. A third copy replays a clean script under a non-default
//! seed and passes: the emitted spec carries every field that differs
//! from `WorldSpec::new`'s default.

use xg_check::{repro_test_source, Persona, Script, WorldSpec};

/// Byte-exact `repro_test_source` output for the pinned hammer
/// counterexample (two steps: accelerator GetS, then a CPU load of the
/// same block — the swallowed invalidation wedges the CPU op).
const EMITTED_HAMMER: &str = r##"/// Auto-generated by `xg-check` — counterexample replay.
///
/// Violated property at generation time: deadlock: drained state still owes work.
#[test]
fn repro_hammer_counterexample() {
    let script = xg_check::Script::from_text(
        "xg-check v1\ns a 0 0\ns c l 0\n",
    )
    .expect("embedded script parses");
    let spec = xg_check::WorldSpec::new(xg_check::Persona::Hammer).with_attack_blocks(1);
    let mut spec = spec;
    spec.swallow_invs = true;
    let out = xg_check::replay(&spec, &script);
    assert_eq!(out.verdict.violation(), None, "{:?}", out.verdict);
}
"##;

/// Byte-exact `repro_test_source` output for the pinned mesi
/// counterexample (two set-conflicting GetS — the L2's recall
/// invalidation is swallowed and the L2 wedges in its busy state).
const EMITTED_MESI: &str = r##"/// Auto-generated by `xg-check` — counterexample replay.
///
/// Violated property at generation time: deadlock: drained state still owes work.
#[test]
fn repro_mesi_counterexample() {
    let script = xg_check::Script::from_text(
        "xg-check v1\ns a 0 0\ns a 0 1\n",
    )
    .expect("embedded script parses");
    let spec = xg_check::WorldSpec::new(xg_check::Persona::Mesi).with_attack_blocks(1);
    let mut spec = spec;
    spec.swallow_invs = true;
    let out = xg_check::replay(&spec, &script);
    assert_eq!(out.verdict.violation(), None, "{:?}", out.verdict);
}
"##;

/// Byte-exact `repro_test_source` output for a clean script under a
/// non-default seed: the emitted spec carries the seed, so the reproducer
/// replays the run `xg-check --seed 7` explored.
const EMITTED_SEEDED: &str = r##"/// Auto-generated by `xg-check` — counterexample replay.
///
/// Violated property at generation time: none.
#[test]
fn repro_seeded_spec() {
    let script = xg_check::Script::from_text(
        "xg-check v1\ns a 0 0\n",
    )
    .expect("embedded script parses");
    let spec = xg_check::WorldSpec::new(xg_check::Persona::Hammer).with_attack_blocks(1);
    let mut spec = spec;
    spec.seed = 7;
    let out = xg_check::replay(&spec, &script);
    assert_eq!(out.verdict.violation(), None, "{:?}", out.verdict);
}
"##;

/// The committed copies above are exactly what the emitter produces.
#[test]
fn emitted_sources_are_pinned_byte_exact() {
    for (persona, text, expected) in [
        (
            Persona::Hammer,
            "xg-check v1\ns a 0 0\ns c l 0\n",
            EMITTED_HAMMER,
        ),
        (
            Persona::Mesi,
            "xg-check v1\ns a 0 0\ns a 0 1\n",
            EMITTED_MESI,
        ),
    ] {
        let mut spec = WorldSpec::new(persona);
        spec.swallow_invs = true;
        let script = Script::from_text(text).expect("pinned script parses");
        let name = format!("repro_{}_counterexample", persona.name());
        assert_eq!(repro_test_source(&name, &spec, &script), expected);
    }
}

/// A spec off the default in its seed only is emitted whole: the
/// committed copy below builds `WorldSpec::new(Hammer)` with seed 7.
#[test]
fn a_seeded_spec_is_emitted_whole() {
    let mut spec = WorldSpec::new(Persona::Hammer);
    spec.seed = 7;
    let script = Script::from_text("xg-check v1\ns a 0 0\n").expect("script parses");
    let src = repro_test_source("repro_seeded_spec", &spec, &script);
    assert_eq!(src, EMITTED_SEEDED);
}

// ---- begin emitted source (verbatim, plus `#[should_panic]`) ----

/// Auto-generated by `xg-check` — counterexample replay.
///
/// Violated property at generation time: deadlock: drained state still owes work.
#[test]
#[should_panic]
fn repro_hammer_counterexample() {
    let script = xg_check::Script::from_text("xg-check v1\ns a 0 0\ns c l 0\n")
        .expect("embedded script parses");
    let spec = xg_check::WorldSpec::new(xg_check::Persona::Hammer).with_attack_blocks(1);
    let mut spec = spec;
    spec.swallow_invs = true;
    let out = xg_check::replay(&spec, &script);
    assert_eq!(out.verdict.violation(), None, "{:?}", out.verdict);
}

/// Auto-generated by `xg-check` — counterexample replay.
///
/// Violated property at generation time: deadlock: drained state still owes work.
#[test]
#[should_panic]
fn repro_mesi_counterexample() {
    let script = xg_check::Script::from_text("xg-check v1\ns a 0 0\ns a 0 1\n")
        .expect("embedded script parses");
    let spec = xg_check::WorldSpec::new(xg_check::Persona::Mesi).with_attack_blocks(1);
    let mut spec = spec;
    spec.swallow_invs = true;
    let out = xg_check::replay(&spec, &script);
    assert_eq!(out.verdict.violation(), None, "{:?}", out.verdict);
}

// ---- end emitted source ----

// ---- begin emitted source (verbatim; a clean script passes) ----

/// Auto-generated by `xg-check` — counterexample replay.
///
/// Violated property at generation time: none.
#[test]
fn repro_seeded_spec() {
    let script =
        xg_check::Script::from_text("xg-check v1\ns a 0 0\n").expect("embedded script parses");
    let spec = xg_check::WorldSpec::new(xg_check::Persona::Hammer).with_attack_blocks(1);
    let mut spec = spec;
    spec.seed = 7;
    let out = xg_check::replay(&spec, &script);
    assert_eq!(out.verdict.violation(), None, "{:?}", out.verdict);
}

// ---- end emitted source ----
