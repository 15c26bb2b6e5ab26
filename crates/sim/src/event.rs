//! Internal event plumbing: the payload the scheduler carries.
//!
//! Ordering lives in [`crate::queue::CalendarQueue`], which stamps every
//! push with a global sequence number and pops in ascending `(time, seq)`
//! order — the payload itself carries no ordering state.
//!
//! Message payloads are *not* carried inline: a queued delivery holds a
//! [`SlabId`] into the simulator's message slab (see [`crate::slab`]).
//! This keeps the scheduled event small and constant-sized regardless of
//! the protocol's message type, so the wheel slots move a few dozen bytes
//! per event instead of a max-variant-sized protocol enum — and timer
//! wake-ups never pay for a payload they don't have.

use crate::component::NodeId;
use crate::slab::SlabId;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Deliver the slab-parked message `msg` (sent by `from`) to the
    /// target component.
    Deliver { from: NodeId, msg: SlabId },
    /// Invoke the target component's `wake` with `token`.
    Wake { token: u64 },
}

/// A scheduled event: which component fires, and what it receives.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pending {
    pub target: NodeId,
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued event is one wheel node; what it carries beyond
    /// `(time, seq, next)` is this.
    #[test]
    fn pending_layout_is_pinned() {
        assert!(std::mem::size_of::<Pending>() <= 24);
        assert!(std::mem::size_of::<Option<Pending>>() <= 24, "no niche");
    }
}
