//! Unit tests for the campaign's feedback signal: a run's new rows are the
//! growth of the campaign's union in `fired_rows()` when the run's
//! [`TransitionCoverage`] is merged in. Growth must count exactly the
//! `(state, event)` pairs that fired in the run but never in the union: no
//! growth is the "nothing new here" signal that makes the coverage-guided
//! fuzzer discard an input.

use xg_sim::TransitionCoverage;

fn cov(rows: &[(&str, &str, u64)]) -> TransitionCoverage {
    let mut c = TransitionCoverage::new();
    for &(s, e, n) in rows {
        c.fire(s, e, n);
    }
    c
}

/// Merges `run` into `seen` and returns the rows it fired first, as
/// `run_campaign` does per execution.
fn fold(seen: &mut TransitionCoverage, run: &TransitionCoverage) -> usize {
    let before = seen.fired_rows();
    seen.merge(run);
    seen.fired_rows() - before
}

#[test]
fn empty_into_empty_grows_nothing() {
    let mut seen = TransitionCoverage::new();
    assert_eq!(fold(&mut seen, &TransitionCoverage::new()), 0);
    assert_eq!(seen.fired_rows(), 0);
}

#[test]
fn a_run_into_an_empty_union_counts_everything_it_fired() {
    let a = cov(&[("I", "GetS", 3), ("S", "Inv", 1)]);
    let mut seen = TransitionCoverage::new();
    assert_eq!(fold(&mut seen, &a), 2);
    assert_eq!(seen, a);
    // And the other direction: an empty run discovers nothing.
    assert_eq!(fold(&mut seen, &TransitionCoverage::new()), 0);
}

#[test]
fn disjoint_runs_count_all_their_rows() {
    let a = cov(&[("I", "GetS", 2), ("M", "PutM", 1)]);
    let b = cov(&[("S", "Inv", 5), ("E", "GetM", 4)]);
    assert_eq!(fold(&mut a.clone(), &b), 2);
    assert_eq!(fold(&mut b.clone(), &a), 2);
}

#[test]
fn a_subset_grows_nothing_a_superset_its_new_rows() {
    let small = cov(&[("I", "GetS", 1)]);
    let big = cov(&[("I", "GetS", 7), ("I", "GetM", 2), ("S", "Inv", 1)]);
    // Counts do not matter, only whether a pair ever fired.
    assert_eq!(fold(&mut big.clone(), &small), 0);
    let mut seen = small.clone();
    assert_eq!(fold(&mut seen, &big), 2);
    assert_eq!(seen.count("I", "GetM"), 2);
    assert_eq!(seen.count("S", "Inv"), 1);
    assert_eq!(seen.count("I", "GetS"), 8);
}

#[test]
fn declared_but_unfired_rows_do_not_count_as_discoveries() {
    // `declare` adds a row to the universe without firing it; growth must
    // ignore it on both sides.
    let mut run = TransitionCoverage::new();
    run.declare("I", "GetS");
    run.fire("S", "Inv", 1);
    let mut seen = TransitionCoverage::new();
    seen.declare("S", "Inv");
    // "S"/"Inv" fired in the run and was only declared in the union, so it
    // is genuinely new; the merely-declared "I"/"GetS" is not.
    assert_eq!(fold(&mut seen, &run), 1);
    assert_eq!(seen.total_rows(), 2);
}

#[test]
fn a_repeated_run_discovers_nothing() {
    // The campaign's exact usage: fold each run's coverage into a global
    // frontier, score the run by what it added. A repeat of the same run
    // must add nothing.
    let mut frontier = cov(&[("I", "GetS", 1)]);
    let run = cov(&[("I", "GetS", 4), ("S", "Inv", 2)]);
    assert_eq!(fold(&mut frontier, &run), 1);
    assert_eq!(fold(&mut frontier, &run), 0);
    assert_eq!(frontier.count("I", "GetS"), 9);
}
