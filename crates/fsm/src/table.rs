//! Transition tables as data, validated at construction time.

use crate::Alphabet;

/// Nominal successor state of a transition row.
///
/// Controllers re-derive their abstract state from concrete bookkeeping on
/// every event, so `next` is a *published claim*, not a stored variable.
/// Rows whose successor depends on runtime data (e.g. "granted E if no
/// other sharer exists, else S") declare [`NextState::Dynamic`] rather than
/// pretending to a single successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextState<S> {
    /// The row always lands in this state.
    To(S),
    /// The successor depends on runtime data; see the row's actions.
    Dynamic,
}

/// One resolved `(state, event)` cell of a [`Table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowKind<S: Alphabet, A: Alphabet> {
    /// Legal event: run `actions` in order; nominal successor is `next`.
    Transition {
        /// Symbolic actions, interpreted by the controller's
        /// [`Controller::apply`](crate::Controller::apply).
        actions: Vec<A>,
        /// Nominal successor state.
        next: NextState<S>,
    },
    /// Legal event that cannot be served right now; the controller queues
    /// or otherwise defers it (counted as a coverage row).
    Stall,
    /// Protocol violation: the event must not occur in this state. The
    /// controller's [`Controller::violated`](crate::Controller::violated)
    /// hook feeds its existing violation accounting. Violation rows are
    /// excluded from the coverage universe — reaching one is a bug signal,
    /// not a coverage goal.
    Violation,
}

/// Label-level outcome of one `(state, event)` cell, as yielded by
/// [`Table::row_labels`]. This is [`RowKind`] with the alphabet generics
/// erased: actions are dropped (they are controller-internal) and states
/// appear as their stable display labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Legal event; `next` is the nominal successor label, or `None` when
    /// the successor is data-dependent ([`NextState::Dynamic`]).
    Transition {
        /// Successor state label (`None` = dynamic).
        next: Option<&'static str>,
    },
    /// Legal event that is deferred in this state.
    Stall,
    /// The event must not occur in this state.
    Violation,
}

/// Error from [`TableBuilder::build`]. Row coordinates are reported by
/// label so the message is directly actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Determinism violated: some `(state, event)` pair was declared twice.
    Duplicate {
        /// Table name.
        name: &'static str,
        /// `(state label, event label)` of each re-declared pair.
        rows: Vec<(&'static str, &'static str)>,
    },
    /// Totality violated: some `(state, event)` pair has no row at all.
    Incomplete {
        /// Table name.
        name: &'static str,
        /// `(state label, event label)` of each missing pair.
        missing: Vec<(&'static str, &'static str)>,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Duplicate { name, rows } => {
                write!(
                    f,
                    "fsm table `{name}` is non-deterministic; duplicate rows:"
                )?;
                for (s, e) in rows {
                    write!(f, " ({s}, {e})")?;
                }
                Ok(())
            }
            TableError::Incomplete { name, missing } => {
                write!(f, "fsm table `{name}` is not total; unresolved pairs:")?;
                for (s, e) in missing {
                    write!(f, " ({s}, {e})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Builder for a [`Table`]. Row-declaration methods take `&mut self` so
/// tables can be assembled with loops over state/event subsets.
pub struct TableBuilder<S: Alphabet, E: Alphabet, A: Alphabet> {
    name: &'static str,
    notes: Vec<&'static str>,
    cells: Vec<Option<RowKind<S, A>>>,
    tags: Vec<&'static str>,
    /// The cell the last row declaration wrote ([`TableBuilder::tag`]).
    last: usize,
    duplicates: Vec<(S, E)>,
}

impl<S: Alphabet, E: Alphabet, A: Alphabet> TableBuilder<S, E, A> {
    /// Starts an empty table. `name` keys the machine's coverage in
    /// [`xg_sim::Report`] and heads its dumps; keep it stable.
    pub fn new(name: &'static str) -> Self {
        TableBuilder {
            name,
            notes: Vec::new(),
            cells: vec![None; S::ALL.len() * E::ALL.len()],
            tags: vec![""; S::ALL.len() * E::ALL.len()],
            last: 0,
            duplicates: Vec::new(),
        }
    }

    fn set(&mut self, state: S, event: E, row: RowKind<S, A>) {
        self.last = state.index() * E::ALL.len() + event.index();
        let cell = &mut self.cells[self.last];
        if cell.is_some() {
            self.duplicates.push((state, event));
        } else {
            *cell = Some(row);
        }
    }

    /// Declares a transition row with a fixed successor state.
    pub fn on(&mut self, state: S, event: E, actions: &[A], next: S) -> &mut Self {
        self.set(
            state,
            event,
            RowKind::Transition {
                actions: actions.to_vec(),
                next: NextState::To(next),
            },
        );
        self
    }

    /// Declares a transition row whose successor depends on runtime data.
    pub fn on_dyn(&mut self, state: S, event: E, actions: &[A]) -> &mut Self {
        self.set(
            state,
            event,
            RowKind::Transition {
                actions: actions.to_vec(),
                next: NextState::Dynamic,
            },
        );
        self
    }

    /// Declares that `event` is legal in `state` but must be deferred.
    pub fn stall(&mut self, state: S, event: E) -> &mut Self {
        self.set(state, event, RowKind::Stall);
        self
    }

    /// Declares that `event` in `state` is a protocol violation.
    pub fn violation(&mut self, state: S, event: E) -> &mut Self {
        self.set(state, event, RowKind::Violation);
        self
    }

    /// Tags the row declared last, e.g. with the guarantee it enforces. A
    /// table with tags dumps them as a last markdown column.
    pub fn tag(&mut self, tag: &'static str) -> &mut Self {
        self.tags[self.last] = tag;
        self
    }

    /// Adds a paragraph the markdown dump prints under the heading: what a
    /// reader comparing the rows with the paper needs to know about them.
    pub fn note(&mut self, text: &'static str) -> &mut Self {
        self.notes.push(text);
        self
    }

    /// Marks every still-undeclared `(state, event)` pair as a violation.
    /// Call last: it makes the table total by construction while keeping
    /// every legal row an explicit, reviewable declaration.
    pub fn violation_rest(&mut self) -> &mut Self {
        for cell in &mut self.cells {
            if cell.is_none() {
                *cell = Some(RowKind::Violation);
            }
        }
        self
    }

    /// Validates determinism and totality, producing the immutable table.
    pub fn build(&mut self) -> Result<Table<S, E, A>, TableError> {
        if !self.duplicates.is_empty() {
            return Err(TableError::Duplicate {
                name: self.name,
                rows: self
                    .duplicates
                    .iter()
                    .map(|&(s, e)| (s.label(), e.label()))
                    .collect(),
            });
        }
        let mut missing = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if cell.is_none() {
                let state = S::ALL[i / E::ALL.len()];
                let event = E::ALL[i % E::ALL.len()];
                missing.push((state.label(), event.label()));
            }
        }
        if !missing.is_empty() {
            return Err(TableError::Incomplete {
                name: self.name,
                missing,
            });
        }
        // Compile the declared rows into the packed flat form: one 8-byte
        // row per cell, all action lists concatenated into one pool. Legal
        // rows count fires in their own slot, in cell order; every
        // violation cell shares the slot after them.
        assert!(
            S::ALL.len() < usize::from(NEXT_DYNAMIC),
            "state alphabet too large for the packed row encoding"
        );
        let legal = (self.cells.iter())
            .filter(|c| !matches!(c, Some(RowKind::Violation)))
            .count();
        let violation_slot = u16::try_from(legal).expect("more legal rows than u16 slots");
        let mut rows = Vec::with_capacity(self.cells.len());
        let mut pool: Vec<A> = Vec::new();
        let mut slot = 0;
        for cell in &self.cells {
            let row = match cell.as_ref().expect("checked total") {
                RowKind::Transition { actions, next } => {
                    let act_off =
                        u16::try_from(pool.len()).expect("action pool exceeds u16 offsets");
                    let act_len = u8::try_from(actions.len()).expect("action list longer than 255");
                    pool.extend(actions.iter().copied());
                    let next = match next {
                        NextState::To(s) => s.index() as u16,
                        NextState::Dynamic => NEXT_DYNAMIC,
                    };
                    PackedRow {
                        kind: KIND_TRANSITION,
                        act_len,
                        next,
                        act_off,
                        slot,
                    }
                }
                RowKind::Stall => PackedRow {
                    kind: KIND_STALL,
                    act_len: 0,
                    next: NEXT_DYNAMIC,
                    act_off: 0,
                    slot,
                },
                RowKind::Violation => PackedRow {
                    kind: KIND_VIOLATION,
                    act_len: 0,
                    next: NEXT_DYNAMIC,
                    act_off: 0,
                    slot: violation_slot,
                },
            };
            slot += u16::from(row.kind != KIND_VIOLATION);
            rows.push(row);
        }
        let by_label = S::BY_LABEL
            .iter()
            .flat_map(|&s| E::BY_LABEL.iter().map(move |&e| (s, e)))
            .map(|(s, e)| (s.label(), e.label(), Table::<S, E, A>::cell_index(s, e)))
            .filter(|&(_, _, cell)| rows[cell].kind != KIND_VIOLATION)
            .map(|(s, e, cell)| (s, e, usize::from(rows[cell].slot)))
            .collect();
        Ok(Table {
            name: self.name,
            notes: self.notes.clone().into_boxed_slice(),
            tags: self.tags.clone().into_boxed_slice(),
            rows: rows.into_boxed_slice(),
            by_label,
            actions: pool.into_boxed_slice(),
            _marker: std::marker::PhantomData,
        })
    }
}

/// `PackedRow::next` value meaning [`NextState::Dynamic`].
const NEXT_DYNAMIC: u16 = u16::MAX;
pub(crate) const KIND_TRANSITION: u8 = 0;
pub(crate) const KIND_STALL: u8 = 1;
pub(crate) const KIND_VIOLATION: u8 = 2;

/// One compiled `(state, event)` cell: 8 bytes of plain data, resolved by
/// direct index lookup with no pointer chase. Action lists live in the
/// table's shared pool at `act_off .. act_off + act_len`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedRow {
    /// One of [`KIND_TRANSITION`], [`KIND_STALL`], [`KIND_VIOLATION`].
    pub(crate) kind: u8,
    pub(crate) act_len: u8,
    /// Successor state index, or [`NEXT_DYNAMIC`].
    pub(crate) next: u16,
    pub(crate) act_off: u16,
    /// The fired counter this cell bumps: its own for a legal row, the
    /// shared violation counter otherwise.
    pub(crate) slot: u16,
}

/// A validated, immutable `(State, Event) -> RowKind` transition table,
/// compiled to a flat array of packed 8-byte rows plus one shared action
/// pool. Resolving a cell is two indexed loads — no per-row heap
/// allocations, no match-tree dispatch.
///
/// Tables are built once (typically into a `OnceLock` static) and shared by
/// every controller instance of that machine kind; per-instance fired
/// counters live in [`Machine`](crate::Machine).
pub struct Table<S: Alphabet, E: Alphabet, A: Alphabet> {
    name: &'static str,
    /// Paragraphs for the markdown dump ([`TableBuilder::note`]).
    pub(crate) notes: Box<[&'static str]>,
    /// Per-cell [`TableBuilder::tag`]s; `""` where none was given.
    pub(crate) tags: Box<[&'static str]>,
    rows: Box<[PackedRow]>,
    /// The legal cells as `(state label, event label, fired slot)`, in
    /// label order: the coverage universe as reports list it.
    by_label: Box<[(&'static str, &'static str, usize)]>,
    /// Concatenated action lists of every transition row.
    actions: Box<[A]>,
    _marker: std::marker::PhantomData<fn() -> (S, E)>,
}

impl<S: Alphabet, E: Alphabet, A: Alphabet> Table<S, E, A> {
    /// The table's stable name (coverage key, dump heading).
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn cell_index(state: S, event: E) -> usize {
        state.index() * E::ALL.len() + event.index()
    }

    pub(crate) fn cell_coords(index: usize) -> (S, E) {
        (S::ALL[index / E::ALL.len()], E::ALL[index % E::ALL.len()])
    }

    /// Number of cells (`|S| * |E|`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// A table over non-empty alphabets is never empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The packed cell at `index` (the hot-path representation).
    #[inline]
    pub(crate) fn packed(&self, index: usize) -> PackedRow {
        self.rows[index]
    }

    /// The action-pool slice of a packed transition row.
    #[inline]
    pub(crate) fn pool_actions(&self, row: PackedRow) -> &[A] {
        &self.actions[row.act_off as usize..row.act_off as usize + usize::from(row.act_len)]
    }

    /// Decodes a packed successor-state field.
    #[inline]
    pub(crate) fn unpack_next(next: u16) -> NextState<S> {
        if next == NEXT_DYNAMIC {
            NextState::Dynamic
        } else {
            NextState::To(S::ALL[usize::from(next)])
        }
    }

    /// Fired counters a machine keeps: one per legal row, then the one
    /// every violation cell shares.
    pub(crate) fn slots(&self) -> usize {
        self.by_label.len() + 1
    }

    /// The resolved row for a `(state, event)` pair, materialized from the
    /// packed form (introspection/dump path; the hot path resolves through
    /// [`Machine::resolve`](crate::Machine::resolve) without allocating).
    pub fn row(&self, state: S, event: E) -> RowKind<S, A> {
        self.cell(Self::cell_index(state, event))
    }

    pub(crate) fn cell(&self, index: usize) -> RowKind<S, A> {
        let row = self.rows[index];
        match row.kind {
            KIND_TRANSITION => RowKind::Transition {
                actions: self.pool_actions(row).to_vec(),
                next: Self::unpack_next(row.next),
            },
            KIND_STALL => RowKind::Stall,
            _ => RowKind::Violation,
        }
    }

    /// The [`TableBuilder::tag`] of a cell; `""` where none was given.
    pub fn tag(&self, state: S, event: E) -> &'static str {
        self.tags[Self::cell_index(state, event)]
    }

    /// Iterates every cell as `(state, event, row)`, in state-major order.
    pub fn rows(&self) -> impl Iterator<Item = (S, E, RowKind<S, A>)> + '_ {
        (0..self.rows.len()).map(|i| {
            let (s, e) = Self::cell_coords(i);
            (s, e, self.cell(i))
        })
    }

    /// Iterates every cell as label-level `(state, event, outcome)` triples,
    /// in state-major order. Unlike [`Table::rows`], the item type carries no
    /// alphabet generics, so heterogeneous tables (different machines) can be
    /// walked through one non-generic consumer — the `xg-check` model
    /// checker's reachability analysis uses this to compare each machine's
    /// declared rows against the rows its exploration actually fired.
    pub fn row_labels(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, RowOutcome)> + '_ {
        (0..self.rows.len()).map(|i| {
            let (s, e) = Self::cell_coords(i);
            let row = self.rows[i];
            let outcome = match row.kind {
                KIND_TRANSITION => RowOutcome::Transition {
                    next: match Self::unpack_next(row.next) {
                        NextState::To(s) => Some(s.label()),
                        NextState::Dynamic => None,
                    },
                },
                KIND_STALL => RowOutcome::Stall,
                _ => RowOutcome::Violation,
            };
            (s.label(), e.label(), outcome)
        })
    }

    /// Number of legal rows (transitions + stalls): the coverage universe.
    pub fn legal_rows(&self) -> usize {
        self.by_label.len()
    }
}

impl<S: Alphabet, E: Alphabet, A: Alphabet> xg_sim::FsmRows for Table<S, E, A> {
    fn machine(&self) -> &'static str {
        self.name
    }

    fn rows_by_label(&self) -> &[(&'static str, &'static str, usize)] {
        &self.by_label
    }
}

impl<S: Alphabet, E: Alphabet, A: Alphabet> std::fmt::Debug for Table<S, E, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Table({}: {} states x {} events, {} legal rows)",
            self.name,
            S::ALL.len(),
            E::ALL.len(),
            self.legal_rows()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::alphabet! { enum St { Idle, Busy } }
    crate::alphabet! { enum Ev { Req, Done } }
    crate::alphabet! { enum Act { Start } }

    fn toy() -> Table<St, Ev, Act> {
        let mut b = TableBuilder::new("toy");
        b.on(St::Idle, Ev::Req, &[Act::Start], St::Busy);
        b.on_dyn(St::Busy, Ev::Done, &[]);
        b.stall(St::Busy, Ev::Req);
        b.violation_rest();
        b.build().expect("toy table is total")
    }

    #[test]
    fn row_labels_mirror_rows() {
        let t = toy();
        let labels: Vec<_> = t.row_labels().collect();
        assert_eq!(
            labels,
            vec![
                ("Idle", "Req", RowOutcome::Transition { next: Some("Busy") }),
                ("Idle", "Done", RowOutcome::Violation),
                ("Busy", "Req", RowOutcome::Stall),
                ("Busy", "Done", RowOutcome::Transition { next: None }),
            ]
        );
        // Label-level view agrees with the typed view cell by cell.
        for ((s, e, row), (sl, el, outcome)) in t.rows().zip(t.row_labels()) {
            assert_eq!((s.label(), e.label()), (sl, el));
            match (row, outcome) {
                (RowKind::Transition { next, .. }, RowOutcome::Transition { next: nl }) => {
                    let expect = match next {
                        NextState::To(s) => Some(s.label()),
                        NextState::Dynamic => None,
                    };
                    assert_eq!(nl, expect);
                }
                (RowKind::Stall, RowOutcome::Stall) => {}
                (RowKind::Violation, RowOutcome::Violation) => {}
                (row, outcome) => panic!("mismatch: {row:?} vs {outcome:?}"),
            }
        }
        assert_eq!(t.legal_rows(), 3);
    }
}
