//! Crossing Guard configuration.

use xg_mem::PermissionTable;

/// Which Crossing Guard implementation to use (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum XgVariant {
    /// Track the stable state of every block the accelerator holds — a
    /// trusted inclusive directory. Works with unmodified host protocols;
    /// storage grows with the accelerator cache (paper §2.3.1).
    #[default]
    FullState,
    /// Track only open transactions. Minimal storage, but requires the
    /// (small) host-protocol modifications of paper §3.2.
    Transactional,
}

/// Request-rate limiting parameters (paper §2.5).
///
/// A classic token bucket: `tokens_per_kilocycle` tokens accrue per 1000
/// cycles up to `burst`; each accelerator *request* costs one token
/// (responses are always processed immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained request rate, in requests per 1000 cycles.
    pub tokens_per_kilocycle: u64,
    /// Maximum burst size in requests.
    pub burst: u64,
}

/// Policy the OS applies when it receives an error report (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OsPolicy {
    /// Log the error and keep going (the default for experiments that
    /// count errors).
    #[default]
    ReportOnly,
    /// Disable the accelerator: tell its Crossing Guard to stop accepting
    /// accelerator requests. Host demands keep being answered safely.
    DisableAccelerator,
}

/// Configuration for a [`crate::CrossingGuard`].
#[derive(Debug)]
pub struct XgConfig {
    /// Which tracking strategy to use.
    pub variant: XgVariant,
    /// Accelerator block size in host (64 B) blocks. Values > 1 enable
    /// block-size translation (paper §2.5) and require
    /// [`XgVariant::FullState`].
    pub block_blocks: usize,
    /// Cycles to wait for an accelerator response to a forwarded
    /// invalidation before fabricating a safe answer and reporting an
    /// error (Guarantee 2c). Zero disables the timeout.
    pub inv_timeout: u64,
    /// Optional request-rate limit.
    pub rate_limit: Option<RateLimit>,
    /// Suppress accelerator `PutS` messages instead of forwarding them to
    /// hosts that track sharers exactly (no effect on the Hammer host,
    /// which has no PutS at all). Paper §2.1 measures the cost of *not*
    /// suppressing at 1–4 % of XG-to-host bandwidth.
    pub suppress_put_s: bool,
    /// Use the host's non-upgradable `GetSOnly` request for read-only
    /// pages. When off, a Full State guard instead shadow-stores the data
    /// of read-only blocks the host granted exclusively (paper §2.3.1);
    /// a Transactional guard cannot store and always behaves as if this
    /// were on.
    pub use_gets_only: bool,
    /// Page permissions for the accelerator (Guarantee 0).
    pub perms: PermissionTable,
    /// **Test-only planted bug**: silently drop demands that should be
    /// forwarded to the accelerator as invalidations — the host requester
    /// never gets an answer and wedges. Exists so the fuzz campaign's
    /// failure detection and schedule minimization can be demonstrated
    /// against a known defect; never set outside tests.
    pub test_swallow_invs: bool,
}

xg_sim::clone_in_place!(impl[] for XgConfig {
    variant,
    block_blocks,
    inv_timeout,
    rate_limit,
    suppress_put_s,
    use_gets_only,
    perms,
    test_swallow_invs,
});

impl Default for XgConfig {
    fn default() -> Self {
        XgConfig {
            variant: XgVariant::FullState,
            block_blocks: 1,
            inv_timeout: 4_000,
            rate_limit: None,
            suppress_put_s: false,
            use_gets_only: true,
            perms: PermissionTable::new(),
            test_swallow_invs: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = XgConfig::default();
        assert_eq!(cfg.variant, XgVariant::FullState);
        assert_eq!(cfg.block_blocks, 1);
        assert!(cfg.inv_timeout > 0);
        assert!(cfg.rate_limit.is_none());
        assert!(cfg.use_gets_only);
        assert_eq!(OsPolicy::default(), OsPolicy::ReportOnly);
    }
}
