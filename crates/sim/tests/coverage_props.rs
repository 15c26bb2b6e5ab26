//! The dense recorder against the string-keyed set it replaces on the
//! message path: whatever sequence of cells is visited, naming them at
//! report time gives the set that visiting by label would have built.

use proptest::collection::vec;
use proptest::prelude::*;
use xg_sim::{alphabet, Alphabet, CoverageGrid, CoverageSet};

alphabet! {
    /// Labels chosen so that label order differs from declaration order.
    enum St { M, I, Busy = "B_usy", A = "a", Wb = "WB", WbI = "WB_I", Z0, Z1, Z2, Z3, Z4, Z5 }
}

alphabet! {
    // 12 × 21 = 252 of the grid's 256 cells, so the last word is exercised.
    enum Ev {
        Load, Store, Repl = "R", E3, E4, E5, E6, E7, E8, E9, E10,
        E11, E12, E13, E14, E15, E16, E17, E18, E19, E20,
    }
}

proptest! {
    #[test]
    fn grid_names_exactly_the_pairs_a_set_would_hold(
        visits in vec((0..St::ALL.len(), 0..Ev::ALL.len()), 0..400),
    ) {
        let mut grid = CoverageGrid::new();
        let mut set = CoverageSet::new();
        for (s, e) in visits {
            let (state, event) = (St::ALL[s], Ev::ALL[e]);
            prop_assert_eq!((state.index(), event.index()), (s, e));
            grid.visit(state, event);
            set.visit(state.label(), event.label());
        }
        let named = grid.to_set();
        prop_assert_eq!(&named, &set);
        prop_assert_eq!(named.len(), set.len());
        // Same pairs in the same iteration order: reports serialize it.
        prop_assert_eq!(named.iter().collect::<Vec<_>>(), set.iter().collect::<Vec<_>>());
    }
}

#[test]
fn an_untouched_grid_names_nothing() {
    assert!(CoverageGrid::<St, Ev>::new().to_set().is_empty());
    assert_eq!(CoverageGrid::<St, Ev>::default(), CoverageGrid::new());
}
