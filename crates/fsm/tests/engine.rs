//! Engine-level tests: alphabet macro, builder validation (determinism +
//! totality), machine resolution/coverage, controller dispatch, dumps, and
//! property tests over randomized tables and fire sequences.

use proptest::prelude::*;
use xg_fsm::{
    alphabet, Alphabet, Controller, Machine, NextState, Resolution, RowKind, Step, Table,
    TableBuilder, TableError,
};
use xg_sim::Report;

alphabet! {
    /// Toy directory-ish states.
    pub enum St {
        Idle,
        Busy = "Busy_X",
        Done,
    }
}

alphabet! {
    pub enum Ev {
        Req,
        Ack,
        Stray,
    }
}

alphabet! {
    pub enum Act {
        Start,
        Finish,
        Note,
    }
}

fn toy_table() -> &'static Table<St, Ev, Act> {
    static T: std::sync::OnceLock<Table<St, Ev, Act>> = std::sync::OnceLock::new();
    T.get_or_init(|| {
        let mut b = TableBuilder::new("toy");
        b.on(St::Idle, Ev::Req, &[Act::Start], St::Busy);
        b.stall(St::Busy, Ev::Req);
        b.on(St::Busy, Ev::Ack, &[Act::Note, Act::Finish], St::Done);
        b.on_dyn(St::Done, Ev::Req, &[Act::Start]);
        b.violation_rest();
        b.build().expect("toy table valid")
    })
}

#[test]
fn alphabet_macro_labels_indices_and_all() {
    assert_eq!(St::ALL, &[St::Idle, St::Busy, St::Done]);
    assert_eq!(St::Busy.label(), "Busy_X");
    assert_eq!(St::Done.label(), "Done");
    assert_eq!(St::Idle.index(), 0);
    assert_eq!(St::Done.index(), 2);
    assert_eq!(Ev::ALL.len(), 3);
}

#[test]
fn builder_rejects_duplicate_rows() {
    let mut b = TableBuilder::<St, Ev, Act>::new("dup");
    b.on(St::Idle, Ev::Req, &[Act::Start], St::Busy);
    b.stall(St::Idle, Ev::Req); // duplicate, different kind
    b.violation_rest();
    match b.build() {
        Err(TableError::Duplicate { name, rows }) => {
            assert_eq!(name, "dup");
            assert_eq!(rows, vec![("Idle", "Req")]);
        }
        other => panic!("expected Duplicate error, got {other:?}"),
    }
}

#[test]
fn builder_rejects_incomplete_tables() {
    let mut b = TableBuilder::<St, Ev, Act>::new("holes");
    b.on(St::Idle, Ev::Req, &[Act::Start], St::Busy);
    match b.build() {
        Err(TableError::Incomplete { name, missing }) => {
            assert_eq!(name, "holes");
            // 3 states x 3 events minus the one declared row.
            assert_eq!(missing.len(), 8);
            assert!(missing.contains(&("Busy_X", "Ack")));
            assert!(!missing.contains(&("Idle", "Req")));
        }
        other => panic!("expected Incomplete error, got {other:?}"),
    }
}

#[test]
fn table_error_messages_name_the_rows() {
    let mut b = TableBuilder::<St, Ev, Act>::new("msg");
    b.on(St::Idle, Ev::Req, &[], St::Idle);
    b.on(St::Idle, Ev::Req, &[], St::Idle);
    b.violation_rest();
    let err = b.build().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("msg"), "{text}");
    assert!(text.contains("(Idle, Req)"), "{text}");
}

#[test]
fn machine_resolves_counts_and_covers() {
    let mut m = Machine::new(toy_table());
    assert!(matches!(
        m.resolve(St::Idle, Ev::Req),
        Resolution::Transition {
            actions: &[Act::Start],
            next: NextState::To(St::Busy)
        }
    ));
    assert!(matches!(m.resolve(St::Busy, Ev::Req), Resolution::Stall));
    assert!(matches!(
        m.resolve(St::Busy, Ev::Ack),
        Resolution::Transition {
            actions: &[Act::Note, Act::Finish],
            next: NextState::To(St::Done)
        }
    ));
    assert!(matches!(
        m.resolve(St::Done, Ev::Req),
        Resolution::Transition {
            next: NextState::Dynamic,
            ..
        }
    ));
    assert!(matches!(
        m.resolve(St::Idle, Ev::Stray),
        Resolution::Violation
    ));
    assert!(matches!(
        m.resolve(St::Idle, Ev::Stray),
        Resolution::Violation
    ));

    assert_eq!(m.fired(St::Idle, Ev::Req), 1);
    assert_eq!(m.fired(St::Idle, Ev::Stray), 2);
    assert_eq!(m.violation_fires(), 2);

    // Coverage: 4 legal rows declared, all fired; violations excluded.
    let cov = m.coverage();
    assert_eq!(cov.total_rows(), 4);
    assert_eq!(cov.fired_rows(), 4);
    assert_eq!(cov.count("Busy_X", "Ack"), 1);
    assert!(!cov.is_declared("Idle", "Stray"));
    assert_eq!(cov.never_fired().count(), 0);
}

#[test]
fn fresh_machine_declares_all_legal_rows_unfired() {
    let m = Machine::new(toy_table());
    let cov = m.coverage();
    assert_eq!(cov.total_rows(), 4);
    assert_eq!(cov.fired_rows(), 0);
    assert_eq!(cov.never_fired().count(), 4);
}

/// Records a machine's fired rows into `report`, as the simulator's report
/// does for every component's machines.
fn record(m: &Machine<St, Ev, Act>, report: &mut Report) {
    m.visit_fired(&mut |rows, fired| report.record_fired(rows, fired));
}

#[test]
fn visit_fired_into_report_keys_by_table_name() {
    let mut m = Machine::new(toy_table());
    m.resolve(St::Idle, Ev::Req);
    let mut report = Report::new();
    record(&m, &mut report);
    let cov = report.fsm("toy").expect("fsm coverage recorded");
    assert_eq!(cov.total_rows(), 4);
    assert_eq!(cov.fired_rows(), 1);

    // A second instance of the same table folds into the same key.
    let mut m2 = Machine::new(toy_table());
    m2.resolve(St::Busy, Ev::Ack);
    record(&m2, &mut report);
    let cov = report.fsm("toy").unwrap();
    assert_eq!(cov.fired_rows(), 2);
}

/// Controller that logs apply/stall/violation calls to verify dispatch order.
struct Logger {
    machine: Machine<St, Ev, Act>,
    log: Vec<String>,
}

impl<'s> Controller<St, Ev, Act, &'s str> for Logger {
    fn machine(&mut self) -> &mut Machine<St, Ev, Act> {
        &mut self.machine
    }

    fn apply(&mut self, action: Act, step: Step<St, Ev>, cx: &mut &'s str) {
        self.log.push(format!(
            "{cx}:{}@{}/{}",
            action.label(),
            step.state.label(),
            step.event.label()
        ));
    }

    fn stalled(&mut self, step: Step<St, Ev>, _cx: &mut &'s str) {
        self.log.push(format!(
            "stall@{}/{}",
            step.state.label(),
            step.event.label()
        ));
    }

    fn violated(&mut self, step: Step<St, Ev>, _cx: &mut &'s str) {
        self.log.push(format!(
            "violation@{}/{}",
            step.state.label(),
            step.event.label()
        ));
    }
}

#[test]
fn dispatch_runs_actions_in_row_order() {
    let mut c = Logger {
        machine: Machine::new(toy_table()),
        log: Vec::new(),
    };
    let mut cx = "m";
    c.dispatch(St::Busy, Ev::Ack, &mut cx);
    c.dispatch(St::Busy, Ev::Req, &mut cx);
    c.dispatch(St::Done, Ev::Ack, &mut cx);
    assert_eq!(
        c.log,
        vec![
            "m:Note@Busy_X/Ack".to_string(),
            "m:Finish@Busy_X/Ack".to_string(),
            "stall@Busy_X/Req".to_string(),
            "violation@Done/Ack".to_string(),
        ]
    );
    assert_eq!(c.machine.violation_fires(), 1);
}

#[test]
fn markdown_dump_lists_legal_rows_only() {
    let md = toy_table().to_markdown();
    assert!(md.contains("### Machine `toy`"), "{md}");
    assert!(
        md.contains("| Idle | Req | transition | Start | Busy_X |"),
        "{md}"
    );
    assert!(md.contains("| Busy_X | Req | stall |"), "{md}");
    assert!(
        md.contains("| Done | Req | transition | Start | (dynamic) |"),
        "{md}"
    );
    // Violation rows summarized, not listed.
    assert!(!md.contains("| Idle | Stray |"), "{md}");
    assert!(md.contains("5 violation rows"), "{md}");
}

#[test]
fn dot_dump_folds_edges_and_marks_dynamic() {
    let dot = toy_table().to_dot();
    assert!(dot.starts_with("digraph \"toy\""), "{dot}");
    assert!(
        dot.contains("\"Idle\" -> \"Busy_X\" [label=\"Req\"];"),
        "{dot}"
    );
    assert!(
        dot.contains("\"Done\" -> \"Done\" [label=\"Req*\", style=dashed];"),
        "{dot}"
    );
    // Stalls don't appear as edges.
    assert!(!dot.contains("stall"), "{dot}");
}

#[test]
fn dumps_are_deterministic() {
    assert_eq!(toy_table().to_markdown(), toy_table().to_markdown());
    assert_eq!(toy_table().to_dot(), toy_table().to_dot());
}

#[test]
fn table_reports_shape() {
    let t = toy_table();
    assert_eq!(t.len(), 9);
    assert_eq!(t.legal_rows(), 4);
    assert!(!t.is_empty());
    assert!(matches!(t.row(St::Idle, Ev::Ack), RowKind::Violation));
    assert_eq!(t.rows().count(), 9);
    assert_eq!(
        format!("{t:?}"),
        "Table(toy: 3 states x 3 events, 4 legal rows)"
    );
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

/// Row plan for a randomized table: for each (state, event) cell, 0=skip,
/// 1=transition, 2=stall, 3=violation.
fn random_cells() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u8..4, 9..10)
}

fn build_from_plan(plan: &[u8], dup_at: Option<usize>) -> Result<Table<St, Ev, Act>, TableError> {
    let mut b = TableBuilder::new("prop");
    for (i, &kind) in plan.iter().enumerate() {
        let s = St::ALL[i / Ev::ALL.len()];
        let e = Ev::ALL[i % Ev::ALL.len()];
        match kind {
            0 => {}
            1 => {
                b.on(s, e, &[Act::Note], St::Idle);
            }
            2 => {
                b.stall(s, e);
            }
            _ => {
                b.violation(s, e);
            }
        }
        if dup_at == Some(i) && kind != 0 {
            b.stall(s, e); // re-declare the same cell
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// Construction succeeds iff every cell is declared, and any duplicate
    /// declaration is rejected regardless of the rest of the table.
    #[test]
    fn build_validates_totality_and_determinism(plan in random_cells(), dup in 0usize..9) {
        let holes = plan.iter().filter(|&&k| k == 0).count();
        match build_from_plan(&plan, None) {
            Ok(t) => {
                prop_assert_eq!(holes, 0);
                let legal = plan.iter().filter(|&&k| k == 1 || k == 2).count();
                prop_assert_eq!(t.legal_rows(), legal);
            }
            Err(TableError::Incomplete { missing, .. }) => {
                prop_assert_eq!(missing.len(), holes);
            }
            Err(e) => return Err(TestCaseError(format!("unexpected error {e:?}"))),
        }

        // Injecting a duplicate at any declared cell must fail with Duplicate.
        if plan[dup] != 0 {
            match build_from_plan(&plan, Some(dup)) {
                Err(TableError::Duplicate { rows, .. }) => prop_assert_eq!(rows.len(), 1),
                other => {
                    return Err(TestCaseError(format!("duplicate not rejected: {other:?}")));
                }
            }
        }
    }

    /// Coverage from split fire sequences merges to the same result as one
    /// machine firing the whole sequence, in any order (mirrors the
    /// Report::merge_shards permutation-invariance suite).
    #[test]
    fn coverage_merge_is_commutative_and_shard_invariant(
        fires in collection::vec((0usize..3, 0usize..3), 0..40),
        split in 0usize..41,
    ) {
        let split = split.min(fires.len());
        let mut whole = Machine::new(toy_table());
        let mut left = Machine::new(toy_table());
        let mut right = Machine::new(toy_table());
        for (i, &(s, e)) in fires.iter().enumerate() {
            let (s, e) = (St::ALL[s], Ev::ALL[e]);
            whole.resolve(s, e);
            if i < split { left.resolve(s, e) } else { right.resolve(s, e) };
        }

        let mut lr = left.coverage();
        lr.merge(&right.coverage());
        let mut rl = right.coverage();
        rl.merge(&left.coverage());
        let w = whole.coverage();

        let dump = |c: &xg_sim::TransitionCoverage| {
            c.iter().map(|(s, e, n)| format!("{s}/{e}={n}")).collect::<Vec<_>>()
        };
        prop_assert_eq!(dump(&lr), dump(&w));
        prop_assert_eq!(dump(&rl), dump(&w));

        // Same invariance at the Report level, in JSON bytes.
        let mut ra = Report::new();
        record(&left, &mut ra);
        record(&right, &mut ra);
        let mut rb = Report::new();
        record(&right, &mut rb);
        record(&left, &mut rb);
        prop_assert_eq!(ra.to_json(), rb.to_json());
    }
}
