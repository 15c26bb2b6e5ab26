//! Never-panics properties for the two loaders that read files somebody
//! else wrote: [`JsonValue::parse`] and [`Report::from_json`] answer any
//! input with `Ok` or `Err` — no panic, no stack overflow.

use proptest::collection::vec;
use proptest::prelude::*;
use xg_sim::{JsonValue, Report};

/// Both loaders, for their verdicts only; a panic fails the test by itself.
fn load(input: &str) -> (bool, bool) {
    (
        JsonValue::parse(input).is_ok(),
        Report::from_json(input).is_ok(),
    )
}

/// The pieces a JSON document is made of, so that random sequences get past
/// the first byte and into the string, number and nesting code.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "00e9",
    "0",
    "7",
    "18446744073709551615",
    "18446744073709551616",
    " ",
    "\n",
    "k",
    "é",
    "\"scalars\"",
    "\"coverage\"",
    "\"fsm\"",
    "\"hists\"",
    "\"profile\"",
    "-1",
    "1.5",
    "true",
    "null",
];

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        load(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_token_soup_never_panics(picks in vec(0usize..TOKENS.len(), 0..64)) {
        let input: String = picks.iter().map(|&i| TOKENS[i]).collect();
        load(&input);
    }

    /// Arbitrary nestings of arrays and objects around one number, closed
    /// properly: a value exactly when the depth is within the cap.
    #[test]
    fn arbitrary_nesting_parses_up_to_the_cap_and_errs_beyond(
        shape in vec(any::<bool>(), 1..10_000),
    ) {
        let mut input = String::new();
        for &object in &shape {
            input.push_str(if object { "{\"k\":" } else { "[" });
        }
        input.push('0');
        for &object in shape.iter().rev() {
            input.push(if object { '}' } else { ']' });
        }
        let (value, _) = load(&input);
        prop_assert_eq!(value, shape.len() <= JsonValue::MAX_DEPTH);
        // Left open, it is an error at any depth.
        input.truncate(input.rfind('0').expect("the innermost value"));
        prop_assert_eq!(load(&input), (false, false));
    }
}

/// ROADMAP item 4d's reproducer: 200 000 open brackets overflowed the stack
/// and aborted the process, under `Report::from_json` as well.
#[test]
fn two_hundred_thousand_brackets_are_an_error() {
    for open in ["[", "{\"scalars\":", "{\"coverage\":{\"c\":{\"s\":["] {
        let input = open.repeat(200_000);
        let err = JsonValue::parse(&input).expect_err("far beyond the cap");
        assert!(
            err.offset < 4_096,
            "error names where the cap was hit: {err}"
        );
        assert!(Report::from_json(&input).is_err());
    }
}
