//! `Table::row_labels` vs the committed golden dumps: the label-level
//! iterator (which the `xg-check` model checker uses to compare declared
//! rows against explored rows) must agree cell by cell with the markdown
//! tables in `docs/tables/` that `xg-tables --check` gates. Legal rows
//! must appear with the same outcome and successor; violation rows must
//! be exactly the rows the dumps omit.

use std::collections::BTreeMap;
use std::path::PathBuf;

use xg_fsm::RowOutcome;

/// Parses a golden markdown dump into `(state, event) -> (outcome, next)`
/// where `outcome` is the literal `transition` / `stall` column value and
/// `next` is the successor label column (`—` for stalls, `(dynamic)` for
/// data-dependent successors). A tagged table's last column is skipped.
fn parse_golden(stem: &str) -> BTreeMap<(String, String), (String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../docs/tables")
        .join(format!("{stem}.md"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let cols: Vec<&str> = line
            .split('|')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        let ([state, event, outcome, _actions, next] | [state, event, outcome, _actions, next, _]) =
            cols.as_slice()
        else {
            continue;
        };
        if *state == "State" || state.starts_with("---") {
            continue;
        }
        let dup = rows.insert(
            (state.to_string(), event.to_string()),
            (outcome.to_string(), next.to_string()),
        );
        assert!(
            dup.is_none(),
            "{stem}: duplicate golden row {state}/{event}"
        );
    }
    assert!(!rows.is_empty(), "{stem}: golden dump parsed to zero rows");
    rows
}

fn check_table<S, E, A>(stem: &str, table: &xg_fsm::Table<S, E, A>)
where
    S: xg_fsm::Alphabet,
    E: xg_fsm::Alphabet,
    A: xg_fsm::Alphabet,
{
    let golden = parse_golden(stem);
    let mut legal = 0usize;
    for (state, event, outcome) in table.row_labels() {
        let key = (state.to_string(), event.to_string());
        match outcome {
            RowOutcome::Transition { next } => {
                legal += 1;
                let (kind, succ) = golden
                    .get(&key)
                    .unwrap_or_else(|| panic!("{stem}: {state}/{event} missing from golden"));
                assert_eq!(kind, "transition", "{stem}: {state}/{event}");
                assert_eq!(succ, next.unwrap_or("(dynamic)"), "{stem}: {state}/{event}");
            }
            RowOutcome::Stall => {
                legal += 1;
                let (kind, succ) = golden
                    .get(&key)
                    .unwrap_or_else(|| panic!("{stem}: {state}/{event} missing from golden"));
                assert_eq!(kind, "stall", "{stem}: {state}/{event}");
                assert_eq!(succ, "—", "{stem}: {state}/{event}");
            }
            RowOutcome::Violation => {
                assert!(
                    !golden.contains_key(&key),
                    "{stem}: violation row {state}/{event} listed in golden dump"
                );
            }
        }
    }
    // Exact correspondence: the dump lists legal rows only, all of them.
    assert_eq!(legal, golden.len(), "{stem}: golden row count mismatch");
    assert_eq!(legal, table.legal_rows(), "{stem}: legal_rows mismatch");
}

#[test]
fn row_labels_match_golden_dumps() {
    check_table("xg_full", xg_core::tables::xg_full());
    check_table("xg_tx", xg_core::tables::xg_tx());
    check_table("hammer_persona", xg_core::tables::hammer_persona());
    check_table("mesi_persona", xg_core::tables::mesi_persona());
    check_table("hammer_dir", xg_host_hammer::directory::table());
    check_table("mesi_l2", xg_host_mesi::l2::table());
    check_table("accel_l1", xg_accel::l1::table());
    check_table("accel_l2", xg_accel::l2::table());
}
