//! Never-panics properties for [`Schedule::from_text`], which reads corpus
//! and reproducer files somebody else wrote: any input is answered with
//! `Ok` or `Err`, and whatever it accepts is in range for the fuzzer (a
//! step delay past the run cap, `MAX_CYCLES`, is an `Err`).

use proptest::collection::vec;
use proptest::prelude::*;
use xg_harness::fuzz::{FuzzStep, InvPolicy, FUZZ_KIND_CODES, INV_RESPONSE_CODES};
use xg_harness::runner::MAX_CYCLES;
use xg_harness::Schedule;

/// Parses `input`; a schedule it accepts holds only codes the fuzzer can
/// index with and survives its own text form. A panic fails by itself.
fn load(input: &str) -> Option<Schedule> {
    let schedule = Schedule::from_text(input).ok()?;
    for s in &schedule.steps {
        assert!(s.kind < FUZZ_KIND_CODES && (1..=3).contains(&s.payload_blocks));
    }
    for r in &schedule.responses {
        assert!(r.kind < INV_RESPONSE_CODES && (1..=3).contains(&r.payload_blocks));
    }
    assert_eq!(
        Schedule::from_text(&schedule.to_text()).as_ref(),
        Ok(&schedule)
    );
    Some(schedule)
}

/// The pieces a schedule file is made of, with numbers on both sides of
/// every width the parser narrows to.
const TOKENS: &[&str] = &[
    "xg-schedule v1",
    "xg-schedule",
    "v1",
    "\n",
    "\r\n",
    " ",
    "\t",
    "s",
    "r",
    "q",
    "0",
    "1",
    "3",
    "4",
    "255",
    "256",
    "65536",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+1",
    "1.5",
    "0x10",
    "é",
];

/// Numbers a field may hold: in range, at and past each narrowing, and
/// past `u64`.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "255",
    "256",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "-1",
];

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        load(&String::from_utf8_lossy(&bytes));
        // The same bytes behind a good header reach the record parser.
        load(&format!("xg-schedule v1\n{}", String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn arbitrary_token_soup_never_panics(picks in vec(0usize..TOKENS.len(), 0..64)) {
        let input: String = picks.iter().map(|&i| TOKENS[i]).collect();
        load(&input);
    }

    /// A valid file cut anywhere: never a panic, and never more records
    /// than the whole file had.
    #[test]
    fn truncated_files_never_panic(
        steps in vec((0..MAX_CYCLES + 1, any::<u64>(), 0..FUZZ_KIND_CODES, 1u8..4, any::<u8>()), 0..6),
        responses in vec((any::<bool>(), 0..INV_RESPONSE_CODES, 1u8..4), 0..4),
        cut in 0usize..400,
    ) {
        let whole = Schedule {
            steps: steps
                .iter()
                .map(|&(delay, block, kind, payload_blocks, fill)| FuzzStep {
                    delay,
                    block,
                    kind,
                    payload_blocks,
                    fill,
                })
                .collect(),
            responses: responses
                .iter()
                .map(|&(respond, kind, payload_blocks)| InvPolicy {
                    respond,
                    kind,
                    payload_blocks,
                })
                .collect(),
        };
        let text = whole.to_text();
        prop_assert_eq!(load(&text), Some(whole.clone()));
        if let Some(cut) = load(&text[..cut.min(text.len())]) {
            prop_assert!(cut.steps.len() <= whole.steps.len());
            prop_assert!(cut.responses.len() <= whole.responses.len());
        }
    }

    /// One record of arbitrary numbers: a value every field can parse as
    /// `u64` is accepted and narrowed into range, except a step delay past
    /// the run cap; anything else is an error.
    #[test]
    fn out_of_range_numbers_are_narrowed_or_refused(
        step in any::<bool>(),
        picks in vec(0usize..NUMBERS.len(), 0..7),
    ) {
        let fields: Vec<&str> = picks.iter().map(|&i| NUMBERS[i]).collect();
        let tag = if step { "s" } else { "r" };
        let input = format!("xg-schedule v1\n{tag} {}\n", fields.join(" "));
        let wanted = if step { 5 } else { 3 };
        let parsable = fields.len() >= wanted
            && fields[..wanted].iter().all(|f| f.parse::<u64>().is_ok())
            && (!step || fields[0].parse::<u64>().unwrap() <= MAX_CYCLES);
        prop_assert_eq!(load(&input).is_some(), parsable, "{}", input);
    }
}
