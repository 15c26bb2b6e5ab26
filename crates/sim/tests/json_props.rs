//! Never-panics properties for [`JsonValue::parse`], which reads text
//! somebody else wrote: it answers any input with `Ok` or `Err` — no panic,
//! no stack overflow. Also: strings are written exactly as a
//! character-at-a-time writer writes them.

use std::fmt::Write as _;

use proptest::collection::vec;
use proptest::prelude::*;
use xg_sim::JsonValue;

/// The parser's verdict only; a panic fails the test by itself.
fn load(input: &str) -> bool {
    JsonValue::parse(input).is_ok()
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
    "\"fuzz\"",
    "\"guards\"",
    "-1",
    "1.5",
    "true",
    "null",
];

/// The reference JSON string writer: one `write!` per character.
fn per_character(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => write!(out, "{c}").unwrap(),
        }
    }
    out.push('"');
    out
}

/// A character from `n`: quotes and backslashes, control characters,
/// printable ASCII and any other scalar value, about equally often.
fn character(n: u32) -> char {
    match n % 4 {
        0 => ['"', '\\', '/', 'é'][(n / 4 % 4) as usize],
        1 => char::from_u32(n / 4 % 0x20).expect("a control character"),
        2 => char::from_u32(0x20 + n / 4 % 0x5f).expect("printable ASCII"),
        _ => char::from_u32(0x80 + n / 4 % 0x10_ff80).unwrap_or('\u{fffd}'),
    }
}

proptest! {
    #[test]
    fn strings_are_written_as_the_per_character_writer_writes_them(
        picks in vec(any::<u32>(), 0..48),
    ) {
        let text: String = picks.iter().map(|&n| character(n)).collect();
        let written = JsonValue::Str(text.clone()).to_string();
        prop_assert_eq!(&written, &per_character(&text));
        prop_assert_eq!(JsonValue::parse(&written), Ok(JsonValue::Str(text)));
    }

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
        prop_assert_eq!(load(&input), shape.len() <= JsonValue::MAX_DEPTH);
        // Left open, it is an error at any depth.
        input.truncate(input.rfind('0').expect("the innermost value"));
        prop_assert!(!load(&input));
    }
}

/// ROADMAP item 4d's reproducer: 200 000 open brackets overflowed the stack
/// and aborted the process.
#[test]
fn two_hundred_thousand_brackets_are_an_error() {
    for open in ["[", "{\"scalars\":", "{\"coverage\":{\"c\":{\"s\":["] {
        let input = open.repeat(200_000);
        let err = JsonValue::parse(&input).expect_err("far beyond the cap");
        assert!(
            err.offset < 4_096,
            "error names where the cap was hit: {err}"
        );
    }
}
