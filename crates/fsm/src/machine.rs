//! Per-instance machine state: fired counters over a shared static table.

use xg_sim::{FsmRows, TransitionCoverage};

use crate::table::{NextState, Table, KIND_STALL, KIND_TRANSITION};
use crate::Alphabet;

/// The outcome of resolving one `(state, event)` pair.
///
/// Borrows the action list straight out of the `'static` table, so the
/// controller can keep mutating itself (and the machine) while walking the
/// actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution<S: Alphabet, A: Alphabet> {
    /// Legal event: run `actions` in order.
    Transition {
        /// Symbolic actions to interpret, in order.
        actions: &'static [A],
        /// Nominal successor state (documentation/validation, see
        /// [`NextState`]).
        next: NextState<S>,
    },
    /// Legal but must be deferred (queued) by the controller.
    Stall,
    /// Protocol violation; the controller counts/flags it.
    Violation,
}

/// A live instance of a table-driven machine: a `'static` [`Table`] plus
/// fired counters, one per legal row and one for all violations. Cheap to
/// create per controller (or per controller *instance* — counters from many
/// instances of the same table merge under the table name in
/// [`xg_sim::Report`]).
pub struct Machine<S: Alphabet, E: Alphabet, A: Alphabet> {
    table: &'static Table<S, E, A>,
    fired: Vec<u64>,
}

xg_sim::clone_in_place!(impl[S: Alphabet, E: Alphabet, A: Alphabet] for Machine<S, E, A> { table, fired });

impl<S: Alphabet, E: Alphabet, A: Alphabet> Machine<S, E, A> {
    /// Wraps a validated table with zeroed fired counters.
    pub fn new(table: &'static Table<S, E, A>) -> Self {
        Machine {
            table,
            fired: vec![0; table.slots()],
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &'static Table<S, E, A> {
        self.table
    }

    /// Resolves `(state, event)` and bumps the row's fired counter.
    ///
    /// Hot path: one indexed load of the packed 8-byte row, one slice into
    /// the table's shared action pool — no match-tree dispatch, no heap.
    #[inline]
    pub fn resolve(&mut self, state: S, event: E) -> Resolution<S, A> {
        let row = self
            .table
            .packed(Table::<S, E, A>::cell_index(state, event));
        self.fired[usize::from(row.slot)] += 1;
        match row.kind {
            KIND_TRANSITION => Resolution::Transition {
                actions: self.table.pool_actions(row),
                next: Table::<S, E, A>::unpack_next(row.next),
            },
            KIND_STALL => Resolution::Stall,
            _ => Resolution::Violation,
        }
    }

    /// How many times `(state, event)` has fired on this instance; for a
    /// violation row, how many times any violation row has.
    pub fn fired(&self, state: S, event: E) -> u64 {
        let row = self
            .table
            .packed(Table::<S, E, A>::cell_index(state, event));
        self.fired[usize::from(row.slot)]
    }

    /// Total fires of violation rows on this instance.
    pub fn violation_fires(&self) -> u64 {
        self.fired[self.table.slots() - 1]
    }

    /// Transition coverage over the table's *legal* rows (transitions and
    /// stalls). Violation rows are excluded: firing one is a protocol bug,
    /// not a coverage goal, and they are already tallied by the
    /// controllers' violation statistics.
    pub fn coverage(&self) -> TransitionCoverage {
        let mut cov = TransitionCoverage::new();
        cov.add_fired(self.table, &self.fired);
        cov
    }

    /// Hands the table and this instance's fired counters (indexed as
    /// [`FsmRows::rows_by_label`] says) to `visit` (the body of a
    /// controller's [`xg_sim::Component::visit_fired`]).
    pub fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        visit(self.table, &self.fired);
    }
}

impl<S: Alphabet, E: Alphabet, A: Alphabet> std::fmt::Debug for Machine<S, E, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cov = self.coverage();
        write!(
            f,
            "Machine({}: {}/{} legal rows fired)",
            self.table.name(),
            cov.fired_rows(),
            cov.total_rows()
        )
    }
}
