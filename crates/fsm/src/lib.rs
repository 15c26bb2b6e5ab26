//! # xg-fsm — declarative coherence-FSM engine
//!
//! Every coherence controller in this workspace is, at heart, a state
//! machine: the Crossing Guard personas (paper §2.4), the host-side Hammer
//! directory and MESI L2 (§2.3), and the accelerator caches. This crate
//! makes those machines *data* instead of nested `match` logic, in the
//! style of table-published coherence controllers (BlackParrot's BedRock
//! per-state transition specs, Rhea's table-level protocol models):
//!
//! * A [`Table`] maps `(State, Event)` to exactly one of
//!   `Transition { actions, next }`, `Stall`, or `Violation`.
//! * Construction-time validation enforces **determinism** (no duplicate
//!   `(state, event)` rows — [`TableError::Duplicate`]) and **totality**
//!   (every pair resolves to a row, an explicit stall, or an explicit
//!   violation — [`TableError::Incomplete`]). There are no silent panics
//!   on protocol paths: an event the table does not expect resolves to
//!   `Violation`, which the controller turns into its existing
//!   violation/error accounting.
//! * A [`Machine`] wraps a table with per-row fired counters; its
//!   [`coverage`](Machine::coverage) folds into [`xg_sim::Report`] as a
//!   [`xg_sim::TransitionCoverage`], turning the stress/fuzz sweeps into a
//!   measurable coverage instrument ("which rows did we actually
//!   exercise?").
//! * [`Table::to_markdown`] and [`Table::to_dot`] dump the implemented
//!   tables for DESIGN.md and CI golden-file diffs, the markdown headed by
//!   the table's [`TableBuilder::note`]s.
//! * [`Parked`] is the one queue every controller parks messages in; a
//!   stall is one [`park`](Parked::park), and every drain re-dispatches
//!   what [`pop_first`](Parked::pop_first) admits until it admits nothing.
//! * [`Records`] keeps one [`Record`] per block while something is open on
//!   it; [`Records::next`] is the one drain rule.
//!
//! ## Division of labor
//!
//! The table owns *dispatch legality*: which events are legal in which
//! abstract states, what symbolic actions run, and the nominal next state.
//! The controller owns *data*: it classifies its concrete per-block
//! bookkeeping into an abstract [`Alphabet`] state, classifies an incoming
//! message (payload, sender identity, config) into an abstract event, and
//! interprets symbolic actions against the real data through the
//! [`Controller`] trait. The `next` column is documentation + validation:
//! controllers recompute the abstract state from concrete data at every
//! event, so the table can mark data-dependent successors as
//! [`NextState::Dynamic`] without lying.
//!
//! ## Example
//!
//! ```rust
//! use xg_fsm::{alphabet, Machine, NextState, Resolution, Table, TableBuilder};
//!
//! alphabet! { enum St { Idle, Busy } }
//! alphabet! { enum Ev { Req, Done, Noise } }
//! alphabet! { enum Act { Start, Finish } }
//!
//! fn table() -> &'static Table<St, Ev, Act> {
//!     static T: std::sync::OnceLock<Table<St, Ev, Act>> = std::sync::OnceLock::new();
//!     T.get_or_init(|| {
//!         let mut b = TableBuilder::new("example");
//!         b.on(St::Idle, Ev::Req, &[Act::Start], St::Busy);
//!         b.stall(St::Busy, Ev::Req);
//!         b.on(St::Busy, Ev::Done, &[Act::Finish], St::Idle);
//!         b.violation_rest();
//!         b.build().expect("example table is deterministic and total")
//!     })
//! }
//!
//! let mut m = Machine::new(table());
//! assert!(matches!(
//!     m.resolve(St::Idle, Ev::Req),
//!     Resolution::Transition { actions: &[Act::Start], next: NextState::To(St::Busy) }
//! ));
//! assert!(matches!(m.resolve(St::Busy, Ev::Req), Resolution::Stall));
//! assert!(matches!(m.resolve(St::Idle, Ev::Done), Resolution::Violation));
//! let cov = m.coverage();
//! assert_eq!((cov.fired_rows(), cov.total_rows()), (2, 3));
//! ```

#![forbid(unsafe_code)]

mod controller;
mod dump;
mod machine;
mod park;
mod records;
mod table;

pub use controller::{Controller, Step};
pub use machine::{Machine, Resolution};
pub use park::Parked;
pub use records::{Borrows, Next, Record, Records};
pub use table::{NextState, RowKind, RowOutcome, Table, TableBuilder, TableError};

// The vocabulary idiom lives in `xg-sim` so that controllers without a
// table (the host L1s) can key their coverage the same way.
pub use xg_sim::{alphabet, Alphabet};
