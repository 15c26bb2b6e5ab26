//! Crossing Guard error reports (paper §2.2, Figure 1).

use std::error::Error;
use std::fmt;

use xg_mem::BlockAddr;

/// Which guarantee an accelerator message (or silence) violated.
///
/// The variants map one-to-one onto the paper's Figure 1 guarantee list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum XgErrorKind {
    /// Guarantee 0a: request for a block on a page with no access.
    PermissionRead,
    /// Guarantee 0b: exclusive request / dirty data for a read-only page.
    PermissionWrite,
    /// Guarantee 1a: request inconsistent with the block's stable state at
    /// the accelerator (e.g. PutM for a block it does not own).
    InconsistentRequest,
    /// Guarantee 1b: a second request for a block with one already pending.
    DuplicateRequest,
    /// Guarantee 2a: response type inconsistent with the block's stable
    /// state (e.g. InvAck for an owned block).
    InconsistentResponse,
    /// Guarantee 2b: a response with no corresponding host request.
    UnsolicitedResponse,
    /// Guarantee 2c: no response to a host request within the timeout.
    ResponseTimeout,
    /// A message that is not even well-formed interface traffic (wrong
    /// protocol family, empty data payload, wrong payload size, ...).
    Malformed,
}

impl XgErrorKind {
    /// Short mnemonic for stats keys.
    pub fn mnemonic(self) -> &'static str {
        match self {
            XgErrorKind::PermissionRead => "perm_read",
            XgErrorKind::PermissionWrite => "perm_write",
            XgErrorKind::InconsistentRequest => "inconsistent_req",
            XgErrorKind::DuplicateRequest => "duplicate_req",
            XgErrorKind::InconsistentResponse => "inconsistent_resp",
            XgErrorKind::UnsolicitedResponse => "unsolicited_resp",
            XgErrorKind::ResponseTimeout => "timeout",
            XgErrorKind::Malformed => "malformed",
        }
    }

    /// The post-mortem reason a guard flags its first error with:
    /// `"guard error: "` and the mnemonic, as a `'static` string so raising
    /// the flag formats nothing.
    pub fn flag_reason(self) -> &'static str {
        match self {
            XgErrorKind::PermissionRead => "guard error: perm_read",
            XgErrorKind::PermissionWrite => "guard error: perm_write",
            XgErrorKind::InconsistentRequest => "guard error: inconsistent_req",
            XgErrorKind::DuplicateRequest => "guard error: duplicate_req",
            XgErrorKind::InconsistentResponse => "guard error: inconsistent_resp",
            XgErrorKind::UnsolicitedResponse => "guard error: unsolicited_resp",
            XgErrorKind::ResponseTimeout => "guard error: timeout",
            XgErrorKind::Malformed => "guard error: malformed",
        }
    }

    /// All variants, for exhaustive reporting.
    pub const ALL: [XgErrorKind; 8] = [
        XgErrorKind::PermissionRead,
        XgErrorKind::PermissionWrite,
        XgErrorKind::InconsistentRequest,
        XgErrorKind::DuplicateRequest,
        XgErrorKind::InconsistentResponse,
        XgErrorKind::UnsolicitedResponse,
        XgErrorKind::ResponseTimeout,
        XgErrorKind::Malformed,
    ];
}

impl fmt::Display for XgErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// An error report sent by a Crossing Guard instance to the OS. The OS
/// knows the reporting guard as the message's sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XgError {
    /// The block involved, if the violation concerns one.
    pub addr: Option<BlockAddr>,
    /// Which guarantee was violated.
    pub kind: XgErrorKind,
}

impl XgError {
    /// Creates an error report.
    pub fn new(addr: Option<BlockAddr>, kind: XgErrorKind) -> Self {
        XgError { addr, kind }
    }
}

impl fmt::Display for XgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(addr) => write!(f, "accelerator violation {} at {}", self.kind, addr),
            None => write!(f, "accelerator violation {}", self.kind),
        }
    }
}

impl Error for XgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_addr() {
        let e = XgError::new(Some(BlockAddr::new(2)), XgErrorKind::PermissionWrite);
        let s = e.to_string();
        assert!(s.contains("perm_write"));
        assert!(s.contains("0x80"));
        let e = XgError::new(None, XgErrorKind::ResponseTimeout);
        assert!(e.to_string().contains("timeout"));
    }

    #[test]
    fn all_variants_have_distinct_mnemonics() {
        let mut seen = std::collections::HashSet::new();
        for k in XgErrorKind::ALL {
            assert!(seen.insert(k.mnemonic()), "duplicate mnemonic {k}");
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn flag_reasons_are_the_prefixed_mnemonics() {
        for k in XgErrorKind::ALL {
            assert_eq!(k.flag_reason(), format!("guard error: {k}"));
        }
    }
}
