//! Checker scripts: stimulus sequences plus invalidation-choice lists.
//!
//! A [`Script`] is the unit the explorer enumerates and the unit a
//! counterexample is reported as: a sequence of [`Step`]s injected one at a
//! time into a drained world, plus the ordered list of scripted responses
//! the chaos accelerator gives to host-initiated invalidations. The text
//! format (`xg-check v1`) mirrors the fuzzer's `xg-schedule v1`: one line
//! per step or choice, round-trippable, and embeddable in generated
//! regression tests.

use std::fmt;

use xg_proto::XgiTag;
use xg_sim::Alphabet;

/// Number of accelerator step codes: the fuzzer's 13 XGI kind codes plus
/// one deliberately malformed two-block `PutM` (the configured block size
/// is one host block, so the guard must reject it).
pub const ACCEL_KIND_CODES: u8 = 14;

/// The malformed step code (two-block `PutM` payload).
pub const MALFORMED_PUTM: u8 = 13;

/// Number of scripted invalidation-choice codes: silence, then the
/// fuzzer's five response codes.
pub const INV_CHOICE_CODES: u8 = 1 + xg_harness::fuzz::INV_RESPONSE_CODES;

/// A CPU operation the probe core can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuOp {
    /// Load the first word of the block.
    Load,
    /// Store the probe's constant to the first word of the block.
    Store,
    /// Write back and invalidate the block.
    Flush,
}

impl CpuOp {
    /// All CPU operations, in code order.
    pub const ALL: [CpuOp; 3] = [CpuOp::Load, CpuOp::Store, CpuOp::Flush];

    /// Single-letter code used in the text format.
    pub fn code(self) -> char {
        match self {
            CpuOp::Load => 'l',
            CpuOp::Store => 's',
            CpuOp::Flush => 'f',
        }
    }

    fn from_code(c: &str) -> Option<CpuOp> {
        match c {
            "l" => Some(CpuOp::Load),
            "s" => Some(CpuOp::Store),
            "f" => Some(CpuOp::Flush),
            _ => None,
        }
    }
}

/// One stimulus injected into a drained world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// The chaos accelerator sends one XGI message: `kind` is a code in
    /// `0..ACCEL_KIND_CODES`, `addr` indexes the world's accelerator
    /// address list (attack blocks, then the read-only window, then the
    /// forbidden block).
    Accel {
        /// XGI kind code.
        kind: u8,
        /// Accelerator address index.
        addr: u8,
    },
    /// The probe core issues one CPU operation: `addr` indexes the world's
    /// CPU address list (first attack block, read-only window).
    Cpu {
        /// The operation.
        op: CpuOp,
        /// CPU address index.
        addr: u8,
    },
    /// A race: the accelerator step fires immediately and the CPU
    /// operation is injected mid-flight (while the XGI message is still
    /// crossing the chip boundary), so the two transactions overlap.
    Race {
        /// XGI kind code for the accelerator half.
        kind: u8,
        /// Accelerator address index.
        addr: u8,
        /// CPU operation for the host half.
        op: CpuOp,
        /// CPU address index.
        cpu_addr: u8,
    },
}

/// A stimulus sequence plus the scripted invalidation choices consumed, in
/// order, by the chaos accelerator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    /// Steps, injected one at a time into a drained world.
    pub steps: Vec<Step>,
    /// Invalidation-choice codes (`0..INV_CHOICE_CODES`), consumed in
    /// arrival order; invalidations past the end of the list stay silent.
    pub choices: Vec<u8>,
}

impl Script {
    /// The empty script (the initial state).
    pub fn empty() -> Self {
        Script::default()
    }

    /// Serializes to the `xg-check v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("xg-check v1\n");
        for step in &self.steps {
            match *step {
                Step::Accel { kind, addr } => {
                    out.push_str(&format!("s a {kind} {addr}\n"));
                }
                Step::Cpu { op, addr } => {
                    out.push_str(&format!("s c {} {addr}\n", op.code()));
                }
                Step::Race {
                    kind,
                    addr,
                    op,
                    cpu_addr,
                } => {
                    out.push_str(&format!("s r {kind} {addr} {} {cpu_addr}\n", op.code()));
                }
            }
        }
        for &c in &self.choices {
            out.push_str(&format!("c {c}\n"));
        }
        out
    }

    /// Parses the `xg-check v1` text format.
    pub fn from_text(text: &str) -> Result<Script, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let header = lines.next().ok_or("empty script")?;
        if header != "xg-check v1" {
            return Err(format!("bad header {header:?}"));
        }
        let mut script = Script::empty();
        for line in lines {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parse_u8 = |s: &str| {
                s.parse::<u8>()
                    .map_err(|e| format!("bad number in {line:?}: {e}"))
            };
            match fields.as_slice() {
                ["s", "a", kind, addr] => script.steps.push(Step::Accel {
                    kind: parse_u8(kind)?,
                    addr: parse_u8(addr)?,
                }),
                ["s", "c", op, addr] => script.steps.push(Step::Cpu {
                    op: CpuOp::from_code(op).ok_or_else(|| format!("bad op in {line:?}"))?,
                    addr: parse_u8(addr)?,
                }),
                ["s", "r", kind, addr, op, cpu_addr] => script.steps.push(Step::Race {
                    kind: parse_u8(kind)?,
                    addr: parse_u8(addr)?,
                    op: CpuOp::from_code(op).ok_or_else(|| format!("bad op in {line:?}"))?,
                    cpu_addr: parse_u8(cpu_addr)?,
                }),
                ["c", choice] => {
                    let c = parse_u8(choice)?;
                    if c >= INV_CHOICE_CODES {
                        return Err(format!("choice {c} out of range in {line:?}"));
                    }
                    script.choices.push(c);
                }
                _ => return Err(format!("bad line {line:?}")),
            }
        }
        Ok(script)
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Step::Accel { kind, addr } => write!(f, "accel {} @{addr}", kind_name(kind)),
            Step::Cpu { op, addr } => write!(f, "cpu {op:?} @{addr}"),
            Step::Race {
                kind,
                addr,
                op,
                cpu_addr,
            } => write!(
                f,
                "race accel {} @{addr} / cpu {op:?} @{cpu_addr}",
                kind_name(kind)
            ),
        }
    }
}

/// Human-readable name for an accelerator step code.
pub fn kind_name(kind: u8) -> &'static str {
    let tag = XgiTag::BY_CODE.get(usize::from(kind % ACCEL_KIND_CODES));
    tag.map_or("PutM[2-block]", |tag| tag.label())
}

/// Human-readable name for an invalidation-choice code.
pub fn choice_name(choice: u8) -> &'static str {
    match choice % INV_CHOICE_CODES {
        0 => "silence",
        1 => "InvAck",
        2 => "CleanWb",
        3 => "DirtyWb",
        4 => "GetM (non-response)",
        _ => "PutS then DirtyWb (race)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let script = Script {
            steps: vec![
                Step::Accel { kind: 1, addr: 0 },
                Step::Cpu {
                    op: CpuOp::Store,
                    addr: 1,
                },
                Step::Race {
                    kind: 4,
                    addr: 2,
                    op: CpuOp::Load,
                    cpu_addr: 0,
                },
            ],
            choices: vec![0, 3, 5],
        };
        let text = script.to_text();
        assert_eq!(Script::from_text(&text).unwrap(), script);
        assert!(text.starts_with("xg-check v1\n"));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(Script::from_text("").is_err());
        assert!(Script::from_text("xg-schedule v1\n").is_err());
        assert!(Script::from_text("xg-check v1\ns a 1\n").is_err());
        assert!(Script::from_text("xg-check v1\nc 9\n").is_err());
        assert!(Script::from_text("xg-check v1\nx 1 2\n").is_err());
    }

    #[test]
    fn names_cover_every_code() {
        let kinds: Vec<&str> = (0..ACCEL_KIND_CODES).map(kind_name).collect();
        assert_eq!(kinds.len(), 14);
        assert_eq!(kinds[13], "PutM[2-block]");
        let choices: Vec<&str> = (0..INV_CHOICE_CODES).map(choice_name).collect();
        assert_eq!(choices[0], "silence");
        assert!(choices[5].contains("race"));
    }
}
