//! # crossing-guard — a safe, standardized host-accelerator coherence interface
//!
//! A from-scratch Rust reproduction of *Crossing Guard: Mediating
//! Host-Accelerator Coherence Interactions* (Olson, Hill, Wood —
//! ASPLOS 2017): trusted host hardware that lets third-party accelerators
//! build custom coherent caches against a tiny standardized interface,
//! while guaranteeing that no accelerator behavior — buggy or malicious —
//! can crash, deadlock, or corrupt the host coherence protocol.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `xg-sim` | deterministic discrete-event simulation kernel |
//! | [`mem`] | `xg-mem` | addresses, data blocks, permissions, cache arrays, MSHRs |
//! | [`proto`] | `xg-proto` | every protocol's message vocabulary, including the standardized interface |
//! | [`host_hammer`] | `xg-host-hammer` | AMD-Hammer-like exclusive MOESI host protocol |
//! | [`host_mesi`] | `xg-host-mesi` | inclusive two-level MESI host protocol |
//! | [`core`] | `xg-core` | **Crossing Guard itself**: Full State & Transactional variants, guarantees, timeouts, rate limiting, block-size translation |
//! | [`accel`] | `xg-accel` | the Table 1 accelerator L1 and the two-level shared accel L2 |
//! | [`harness`] | `xg-harness` | system builder (all 12 paper configurations), random stress tester, fuzzer, workload generators |
//!
//! ## Quickstart
//!
//! ```rust
//! use crossing_guard::harness::{
//!     build_system, AccelOrg, HostProtocol, SystemConfig, TesterCfg, TesterCore, TesterHub,
//! };
//! use crossing_guard::harness::system::CoreSlot;
//! use crossing_guard::harness::tester::word_pool;
//! use crossing_guard::core::{OsPolicy, XgVariant};
//!
//! // A 2-CPU Hammer host with a Full State Crossing Guard and a Table 1
//! // accelerator cache, all hammered by the random coherence tester.
//! let cfg = SystemConfig {
//!     host: HostProtocol::Hammer,
//!     accel: AccelOrg::Xg { variant: XgVariant::FullState, two_level: false },
//!     seed: 42,
//!     ..SystemConfig::default()
//! };
//! let hub = TesterHub::new(3, 200, word_pool(0x4000, 4, 2));
//! let mut system = build_system(&cfg, OsPolicy::ReportOnly, None, |slot, cache, index| {
//!     let name = match slot {
//!         CoreSlot::Cpu(i) => format!("cpu{i}"),
//!         CoreSlot::Accel(i) => format!("acc{i}"),
//!     };
//!     Box::new(TesterCore::new(name, cache, index, hub.clone(), TesterCfg::default()))
//! });
//! system.start_cores();
//! let outcome = system.sim.run_with_watchdog(10_000_000, 100_000);
//! assert!(!outcome.stalled);
//! assert_eq!(hub.data_errors(), 0);
//! ```
//!
//! See `examples/` for domain scenarios (video decoding with 256 B
//! accelerator blocks, graph analytics on a two-level accelerator, and a
//! pathologically buggy accelerator being contained), and `DESIGN.md` /
//! `EXPERIMENTS.md` for the paper-reproduction inventory.

#![forbid(unsafe_code)]

pub use xg_accel as accel;
pub use xg_core as core;
pub use xg_harness as harness;
pub use xg_host_hammer as host_hammer;
pub use xg_host_mesi as host_mesi;
pub use xg_mem as mem;
pub use xg_proto as proto;
pub use xg_sim as sim;
