//! Never-panics properties for [`Script::from_text`], which reads
//! counterexample files and the scripts embedded in emitted regression
//! tests: any input is answered with `Ok` or `Err`.

use proptest::collection::vec;
use proptest::prelude::*;
use xg_check::{CpuOp, Script, Step, INV_CHOICE_CODES};

/// Parses `input`; a script it accepts holds only invalidation choices the
/// chaos accelerator knows and survives its own text form. A panic fails
/// by itself.
fn load(input: &str) -> Option<Script> {
    let script = Script::from_text(input).ok()?;
    assert!(script.choices.iter().all(|&c| c < INV_CHOICE_CODES));
    assert_eq!(Script::from_text(&script.to_text()).as_ref(), Ok(&script));
    Some(script)
}

/// The pieces a script file is made of, with numbers on both sides of `u8`
/// and of the choice range.
const TOKENS: &[&str] = &[
    "xg-check v1",
    "xg-check",
    "xg-schedule v1",
    "v1",
    "\n",
    "\r\n",
    " ",
    "\t",
    "s",
    "a",
    "c",
    "r",
    "l",
    "f",
    "x",
    "0",
    "5",
    "6",
    "13",
    "255",
    "256",
    "18446744073709551616",
    "-1",
    "1.5",
    "é",
];

fn step((shape, kind, addr, op, cpu_addr): (u8, u8, u8, usize, u8)) -> Step {
    let op = CpuOp::ALL[op];
    match shape {
        0 => Step::Accel { kind, addr },
        1 => Step::Cpu { op, addr },
        _ => Step::Race {
            kind,
            addr,
            op,
            cpu_addr,
        },
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        load(&String::from_utf8_lossy(&bytes));
        // The same bytes behind a good header reach the line parser.
        load(&format!("xg-check v1\n{}", String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn arbitrary_token_soup_never_panics(picks in vec(0usize..TOKENS.len(), 0..64)) {
        let input: String = picks.iter().map(|&i| TOKENS[i]).collect();
        load(&input);
    }

    /// A valid file cut anywhere: never a panic, and never more lines than
    /// the whole file had.
    #[test]
    fn truncated_files_never_panic(
        steps in vec((0u8..3, any::<u8>(), any::<u8>(), 0usize..3, any::<u8>()), 0..8),
        choices in vec(0..INV_CHOICE_CODES, 0..4),
        cut in 0usize..200,
    ) {
        let whole = Script {
            steps: steps.iter().copied().map(step).collect(),
            choices,
        };
        let text = whole.to_text();
        prop_assert_eq!(load(&text), Some(whole.clone()));
        if let Some(cut) = load(&text[..cut.min(text.len())]) {
            prop_assert!(cut.steps.len() <= whole.steps.len());
            prop_assert!(cut.choices.len() <= whole.choices.len());
        }
    }

    /// Numbers past `u8`, and choices past the last code, are errors — not
    /// wrapped, not a panic.
    #[test]
    fn out_of_range_numbers_are_refused(n in 0u64..1_000, shape in 0usize..4) {
        let line = match shape {
            0 => format!("s a {n} 0"),
            1 => format!("s c l {n}"),
            2 => format!("s r 0 0 s {n}"),
            _ => format!("c {n}"),
        };
        let limit = if shape == 3 { u64::from(INV_CHOICE_CODES) } else { 256 };
        let loaded = load(&format!("xg-check v1\n{line}\n"));
        prop_assert_eq!(loaded.is_some(), n < limit, "{}", line);
    }
}
