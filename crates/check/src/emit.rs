//! Counterexample reporting: ddmin shrinking, human-readable transcripts,
//! and self-contained regression-test emission.
//!
//! Shrinking reuses the harness's delta-debugging machinery
//! ([`xg_harness::ddmin_pair`]) over the script's steps and then its
//! invalidation choices. Transcripts re-run the minimized script with the
//! ring tracer enabled and render the per-address post-mortem. Emitted
//! regression tests embed the script in its `xg-check v1` text form and
//! replay it through the public [`crate::replay`] API, asserting the
//! properties *hold* — so the generated test fails while the bug is
//! present and passes once it is fixed.

use xg_harness::{ddmin_pair, escape_literal};
use xg_sim::TraceConfig;

use crate::replay::{replay, Verdict, DRAIN_MAX};
use crate::script::{choice_name, Script};
use crate::world::{build_world, WorldSpec};

/// Shrinks a violating script to a 1-minimal step sequence (then choice
/// list) that still violates the same-or-any property.
pub fn minimize_script(spec: &WorldSpec, script: &Script) -> Script {
    let still_fails = |s: &Script| !replay(spec, s).verdict.is_clean();
    debug_assert!(still_fails(script), "minimize needs a failing script");
    let (steps, choices) = ddmin_pair(
        script.steps.clone(),
        script.choices.clone(),
        &mut |steps, choices| {
            still_fails(&Script {
                steps: steps.to_vec(),
                choices: choices.to_vec(),
            })
        },
    );
    Script { steps, choices }
}

/// Replays `script` with tracing enabled and renders a human-readable
/// counterexample transcript: the script, the verdict, and the traced
/// per-address event rings.
pub fn transcript(spec: &WorldSpec, script: &Script) -> String {
    let mut world = build_world(spec, &script.choices);
    world.sim.tracer_mut().set_config(TraceConfig::ring());
    let mut divergence = false;
    for (i, &step) in script.steps.iter().enumerate() {
        crate::replay::inject(&mut world, step);
        let out = world.sim.run_to_quiescence(DRAIN_MAX);
        if !out.quiescent {
            divergence = true;
            world
                .sim
                .tracer_mut()
                .flag(out.now.as_u64(), u64::MAX, format!("step {i} diverged"));
            break;
        }
    }
    let outcome = crate::replay::classify(spec, &world, divergence);
    let mut out = String::new();
    out.push_str(&format!(
        "xg-check counterexample ({} persona, {} attack block(s))\n",
        spec.persona.name(),
        spec.attack_blocks
    ));
    out.push_str(&format!(
        "property: {}\n\n",
        outcome
            .verdict
            .violation()
            .unwrap_or("none (state is clean)")
    ));
    out.push_str("script:\n");
    for (i, step) in script.steps.iter().enumerate() {
        out.push_str(&format!("  step {i}: {step}\n"));
    }
    for (i, &c) in script.choices.iter().enumerate() {
        out.push_str(&format!("  inv choice {i}: {}\n", choice_name(c)));
    }
    out.push_str(&format!("\nverdict: {:?}\n", outcome.verdict));

    // Flag every world address so the post-mortem renders all rings.
    for block in spec.accel_blocks() {
        world
            .sim
            .tracer_mut()
            .flag(0, block, "counterexample address");
    }
    if let Some(pm) = world.sim.post_mortem() {
        out.push('\n');
        out.push_str(&pm);
    }
    out
}

/// Emits a self-contained `#[test]` source that replays `script` through
/// the public checker API and asserts the checked properties hold. The
/// emitted spec is `spec`: every field that differs from
/// [`WorldSpec::new`]'s default is set.
///
/// While the defect that produced the counterexample is present, the
/// generated test fails with the violated property in its panic message;
/// after the fix it passes and pins the regression.
pub fn repro_test_source(fn_name: &str, spec: &WorldSpec, script: &Script) -> String {
    let verdict = replay(spec, script).verdict;
    let property = verdict.violation().unwrap_or("none");
    let text = script.to_text();
    let mut src = String::new();
    src.push_str(&format!(
        "/// Auto-generated by `xg-check` — counterexample replay.\n\
         ///\n\
         /// Violated property at generation time: {property}.\n\
         #[test]\n\
         fn {fn_name}() {{\n\
         \x20   let script = xg_check::Script::from_text(\n\
         \x20       \"{}\",\n\
         \x20   )\n\
         \x20   .expect(\"embedded script parses\");\n",
        escape_literal(&text)
    ));
    src.push_str(&format!(
        "\x20   let spec = xg_check::WorldSpec::new(xg_check::Persona::{:?}).with_attack_blocks({});\n",
        spec.persona, spec.attack_blocks
    ));
    // Every other field that differs from `WorldSpec::new`'s default.
    let default = WorldSpec::new(spec.persona);
    let mut fields = Vec::new();
    if spec.attack_base != default.attack_base {
        fields.push(format!("attack_base = {}", spec.attack_base));
    }
    if spec.seed != default.seed {
        fields.push(format!("seed = {}", spec.seed));
    }
    if spec.node_order != default.node_order {
        let roles = spec.node_order.map(|r| format!("xg_check::Role::{r:?}"));
        fields.push(format!("node_order = [{}]", roles.join(", ")));
    }
    if spec.swallow_invs != default.swallow_invs {
        fields.push(format!("swallow_invs = {}", spec.swallow_invs));
    }
    if spec.l2_cache != default.l2_cache {
        fields.push(format!("l2_cache = {:?}", spec.l2_cache));
    }
    if !fields.is_empty() {
        src.push_str("\x20   let mut spec = spec;\n");
        for field in fields {
            src.push_str(&format!("\x20   spec.{field};\n"));
        }
    }
    src.push_str(
        "\x20   let out = xg_check::replay(&spec, &script);\n\
         \x20   assert_eq!(out.verdict.violation(), None, \"{:?}\", out.verdict);\n\
         }\n",
    );
    src
}

/// One-line summary of a verdict for logs.
pub fn verdict_summary(verdict: &Verdict) -> String {
    match verdict.violation() {
        Some(p) => format!("VIOLATION: {p}"),
        None => "clean".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Step;
    use crate::world::Persona;

    #[test]
    fn emitted_source_embeds_a_round_trippable_script() {
        let spec = WorldSpec::new(Persona::Hammer);
        let script = Script {
            steps: vec![Step::Accel { kind: 1, addr: 0 }],
            choices: vec![3],
        };
        let src = repro_test_source("pinned_counterexample", &spec, &script);
        assert!(src.contains("#[test]"));
        assert!(src.contains("fn pinned_counterexample()"));
        // The embedded literal, un-escaped, must parse back to the script.
        let start = src.find("\"xg-check v1").expect("embedded script");
        let end = src[start + 1..].find('"').unwrap() + start + 1;
        let embedded = src[start + 1..end].replace("\\n", "\n");
        assert_eq!(Script::from_text(&embedded).unwrap(), script);
    }

    #[test]
    fn emitted_source_sets_every_field_off_its_default() {
        let mut spec = WorldSpec::new(Persona::Mesi).with_attack_blocks(2);
        spec.attack_base = 4;
        spec.seed = 7;
        spec.node_order.swap(0, 5);
        spec.swallow_invs = true;
        spec.l2_cache = (1, 1);
        let src = repro_test_source("all_fields", &spec, &Script::empty());
        for line in [
            "WorldSpec::new(xg_check::Persona::Mesi).with_attack_blocks(2);",
            "spec.attack_base = 4;",
            "spec.seed = 7;",
            "spec.node_order = [xg_check::Role::Chaos, xg_check::Role::CpuCache, \
             xg_check::Role::Home, xg_check::Role::Os, xg_check::Role::Guard, \
             xg_check::Role::Probe];",
            "spec.swallow_invs = true;",
            "spec.l2_cache = (1, 1);",
        ] {
            assert!(src.contains(line), "{line} missing from\n{src}");
        }
    }

    #[test]
    fn transcript_names_the_script_and_verdict() {
        let spec = WorldSpec::new(Persona::Mesi);
        let script = Script {
            steps: vec![Step::Accel { kind: 0, addr: 0 }],
            choices: vec![],
        };
        let t = transcript(&spec, &script);
        assert!(t.contains("mesi persona"));
        assert!(t.contains("step 0: accel GetS"));
        assert!(t.contains("none (state is clean)"));
    }
}
