//! `xg-check`: a small-model explicit-state checker for the Crossing
//! Guard personas (paper §3.3's "we model checked the guard personas",
//! reproduced in-tree).
//!
//! The checker exhaustively explores a six-node micro-world — one guard
//! persona, the modified host controller it fronts, one host CPU cache,
//! the OS error sink, a scripted chaos accelerator, and a value-checking
//! probe core — over one or two block addresses plus a read-only window
//! and a forbidden block. Exploration is breadth-first over *drained
//! states*: a state is kept as an [`xg_sim::Checkpoint`] of its world and
//! expanded by restoring it and running one stimulus step, with the
//! results canonicalized by [`xg_sim::CheckDigest`] and deduplicated, so
//! the first counterexample found is shortest in stimulus steps. Every
//! state also has a representative [`Script`]; [`replay`] — build the
//! world, run the script from scratch — is the reference the explorer is
//! tested against and the only path counterexample shrinking, transcripts
//! and emitted reproducers use.
//!
//! Checked properties, per drained state:
//!
//! * **Guarantee 0** — the accelerator never receives data for the
//!   forbidden block, never receives exclusive data for the read-only
//!   window, and the guard never tracks the forbidden block or holds the
//!   window writable. No host copy of the window (CPU cache, home,
//!   memory) holds a word of accelerator fill data.
//! * **Guarantee 1** — the probe's value oracle: the read-only window
//!   always reads back exactly what the host stored.
//! * **Guarantee 2** — the trusted host components count zero protocol
//!   violations (impossible events).
//! * **Deadlock freedom** — a drained state owes no work (no wedged CPU
//!   op, no open guard transaction, no queued demand).
//! * **Divergence** — every step drains within a generous cycle budget.
//!
//! Counterexamples are shrunk with the harness's ddmin machinery and
//! emitted both as human-readable transcripts and as self-contained
//! `#[test]` sources that replay the script through [`replay`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod explore;
mod replay;
mod script;
mod world;

pub use emit::{minimize_script, repro_test_source, transcript, verdict_summary};
pub use explore::{
    explore, explore_with, step_alphabet, unreachable_rows, ExploreOpts, ExploreResult, Violation,
};
pub use replay::{classify, replay, ReplayOutcome, Verdict, DRAIN_MAX};
pub use script::{
    choice_name, kind_name, CpuOp, Script, Step, ACCEL_KIND_CODES, INV_CHOICE_CODES, MALFORMED_PUTM,
};
pub use world::{
    build_world, ChaosAccel, Persona, ProbeCore, Role, RoleIds, World, WorldSpec, A_VALUE,
    FORBIDDEN_BLOCK, INV_FILL, STEP_FILL, WINDOW_BLOCK, W_VALUE,
};
