//! # xg-harness — system assembly, stress testing, fuzzing, workloads
//!
//! Everything needed to *evaluate* Crossing Guard, mirroring the paper's
//! methodology (§3–§4):
//!
//! * [`SystemConfig`] / [`build_system`] — wire up any of the paper's
//!   twelve configurations (2 host protocols × {accelerator-side cache,
//!   host-side cache, 2 Crossing Guard variants × 2 accelerator
//!   organizations}), plus the fuzzing configurations.
//! * [`TesterCore`] — the random value-checking coherence tester of §4.1:
//!   rapid loads and stores to a small address pool with random message
//!   latencies, single-writer-per-word value discipline, per-reader
//!   monotonicity checks, and state/event coverage counting.
//! * [`FuzzAccel`] — the §4.2-style fuzzer: bombards the Crossing Guard
//!   interface with random (including malformed) messages and responds to
//!   invalidations randomly or not at all, by replaying a [`Schedule`]
//!   drawn up front (blind) or found by the campaign.
//! * [`FuzzHostCache`] — the same bombardment aimed directly at the host
//!   protocol, for the unsafe accelerator-side baseline.
//! * [`campaign`] — the coverage-guided adversarial campaign: evolves
//!   deterministic injection [`Schedule`]s using transition-coverage deltas
//!   as feedback, injects link faults, and delta-debugs any failure down
//!   to a minimal committed reproducer.
//! * [`WorkloadCore`] / [`Pattern`] — synthetic traffic generators standing
//!   in for the paper's Rodinia workloads on gem5-gpu (see `DESIGN.md` for
//!   the substitution rationale): streaming, stencil, blocked,
//!   data-dependent graph walks, reductions, and host↔accelerator
//!   producer-consumer sharing.
//! * [`runner`] — one-call experiment drivers returning structured
//!   outcomes (cycles, errors, coverage, violations).
//! * [`sweep`](mod@sweep) — a work-stealing executor fanning independent
//!   `(SystemConfig, seed)` shards across cores, with results returned in
//!   submission order so parallel sweeps are byte-identical to serial ones.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod config;
pub mod fuzz;
pub mod runner;
pub mod sweep;
pub mod system;
pub mod tester;
pub mod workloads;

pub use campaign::{
    ddmin_pair, ddmin_vec, escape_literal, guarantee_probe, minimize, run_blind, run_campaign,
    run_campaign_with, run_schedule, run_schedule_with, BlindOutcome, CampaignFailure,
    CampaignOpts, CampaignOutcome, CorpusEntry,
};
pub use config::{AccelOrg, AccelSlot, HostProtocol, SystemConfig};
pub use fuzz::{FuzzAccel, FuzzHostCache, FuzzOpts, Schedule};
pub use runner::{
    run_fuzz, run_fuzz_with, run_stress, run_stress_with, run_workload, FailureKind, FuzzOutcome,
    Instrumentation, PerfOutcome, StressOpts, StressOutcome,
};
pub use sweep::{available_jobs, resolve_jobs, sweep};
pub use system::{
    accel_core_count, accel_cores_of, build_system, BuiltSystem, ExecSim, GuardInstance,
};
pub use tester::{TesterCfg, TesterCore, TesterHub};
pub use workloads::{Pattern, WorkloadCore};
