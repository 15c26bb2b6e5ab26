//! The component trait implemented by every simulated controller.

use std::any::Any;
use std::fmt;

use crate::check::CheckDigest;
use crate::report::{FsmRows, Report};
use crate::simulator::Ctx;

/// Identity of a component within a simulation.
///
/// `NodeId`s are handed out by [`crate::SimBuilder::add`] in registration
/// order and are used as message source/destination addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NodeId` from a raw index.
    ///
    /// Intended for tests and for tables that are indexed by node; sending to
    /// a fabricated id that was never registered causes a panic at delivery.
    pub const fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A simulated hardware component (cache controller, directory, core, ...).
///
/// Components are single-threaded state machines: the simulator calls
/// [`handle`](Component::handle) for every message delivered to the
/// component and [`wake`](Component::wake) for every timer the component
/// armed. All outgoing effects (sends, timers) go through the [`Ctx`].
///
/// The `as_any` methods exist so that a test harness can downcast a
/// registered component back to its concrete type after a run to inspect
/// final state; they are mechanical:
///
/// ```rust,ignore
/// fn as_any(&self) -> &dyn std::any::Any { self }
/// fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// ```
///
/// Components must be [`Send`]: a built [`crate::Simulator`] is moved into
/// worker threads by the parallel sweep executor (`xg_harness::sweep`), so a
/// component may not hold thread-bound state like `Rc`. Each simulation is
/// still single-threaded — no component needs `Sync` or internal locking
/// beyond what it shares with other components in the *same* simulation.
pub trait Component<M>: Send {
    /// Short human-readable name used in reports and error messages.
    fn name(&self) -> &str;

    /// Handles a message delivered from `from`.
    fn handle(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>);

    /// Handles a timer wake-up previously armed with [`Ctx::wake_in`]. The
    /// `token` is the value the component passed when arming the timer.
    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_, M>) {
        let _ = (token, ctx);
    }

    /// Contributes statistics and coverage data to a post-run report.
    fn report(&self, out: &mut Report) {
        let _ = out;
    }

    /// Folds this component's *protocol-relevant* state into a canonical
    /// digest at a quiescent point (see [`CheckDigest`] for the
    /// conventions: role-translated addresses/nodes, role-sorted
    /// collections, no timestamps/stats/RNG/recency metadata). The default
    /// contributes nothing, which is correct for traffic generators and
    /// sinks whose state never feeds back into the protocol.
    fn check_state(&self, out: &mut CheckDigest) {
        let _ = out;
    }

    /// A deep copy of this component — behaviour, statistics and fired
    /// counters alike — for [`crate::Simulator::checkpoint`]. The default
    /// `None` marks a component that cannot be checkpointed (a world
    /// containing one makes `checkpoint` fail by name); components that
    /// share state with a peer (`Arc<Mutex<_>>`) must keep it, since a copy
    /// would alias the original.
    fn box_clone(&self) -> Option<Box<dyn Component<M>>> {
        None
    }

    /// Hands each table-driven machine of this component — its row
    /// universe and its dense per-cell fired counters — to `visit`, without
    /// building the string-keyed coverage [`report`](Component::report)
    /// does. The default visits nothing.
    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        let _ = visit;
    }

    /// Upcast for downcasting in harnesses.
    fn as_any(&self) -> &dyn Any;
    /// Upcast for mutable downcasting in harnesses.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}
