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
/// A component writes only its protocol: the simulator downcasts through
/// the [`Any`] supertrait and copies through [`CloneComponent`].
///
/// Components must be [`Send`]: a built [`crate::Simulator`] is moved into
/// worker threads by the parallel sweep executor (`xg_harness::sweep`), so a
/// component may not hold thread-bound state like `Rc`. Each simulation is
/// still single-threaded — no component needs `Sync` or internal locking
/// beyond what it shares with other components in the *same* simulation.
pub trait Component<M>: Send + Any {
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

    /// This component for [`crate::Simulator::checkpoint`]: a `Clone`
    /// component (written with [`clone_in_place!`](crate::clone_in_place))
    /// opts in with `Some(self)`. The default `None` makes `checkpoint`
    /// fail by name; a component sharing state with a peer
    /// (`Arc<Mutex<_>>`) keeps it, since a copy would alias the original.
    fn cloneable(&self) -> Option<&dyn CloneComponent<M>> {
        None
    }

    /// Hands each table-driven machine of this component — its row
    /// universe and its dense per-cell fired counters — to `visit`: the
    /// report's `fsm` section and the checker's coverage both come from
    /// here. The default visits nothing.
    fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        let _ = visit;
    }

    /// Upcast to [`Any`], which `&dyn Component<M>` does by itself; kept
    /// so that implementations of it still compile.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// Mutable [`as_any`](Component::as_any).
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

/// A checkpointable component ([`Component::cloneable`]); implemented
/// once, for every `Clone` component.
pub trait CloneComponent<M> {
    /// A deep copy: behaviour, statistics and fired counters alike.
    fn box_clone(&self) -> Box<dyn Component<M>>;

    /// Copies this component into `dst` with `clone_from`, keeping the
    /// buffers `dst` owns: [`crate::Simulator::restore`], per component.
    /// Panics, naming `dst`, if it is of another type.
    fn restore_into(&self, dst: &mut dyn Component<M>);
}

impl<M: 'static, T: Component<M> + Clone> CloneComponent<M> for T {
    fn box_clone(&self) -> Box<dyn Component<M>> {
        Box::new(self.clone())
    }

    fn restore_into(&self, dst: &mut dyn Component<M>) {
        match (&mut *dst as &mut dyn Any).downcast_mut::<T>() {
            Some(dst) => dst.clone_from(self),
            None => panic!(
                "checkpoint of another simulator: component {:?} is not a {}",
                dst.name(),
                std::any::type_name::<T>()
            ),
        }
    }
}

/// Implements `Clone` for a struct from the list of its fields, `clone` and
/// `clone_from` both field by field.
///
/// `#[derive(Clone)]` leaves `clone_from` at its default, `*self =
/// source.clone()`: every `Vec`, table and string of the destination is
/// freed and allocated again. Field-wise `clone_from` keeps them, which is
/// what makes restoring a checkpoint into a live world cheap. Both methods
/// destructure the struct exhaustively, so a field missing from the list —
/// one added later, say — does not compile, where a hand-written
/// `clone_from` would silently keep its stale value.
///
/// ```rust
/// struct Tally<T> { name: String, seen: Vec<T>, total: u64 }
/// xg_sim::clone_in_place!(impl[T: Clone] for Tally<T> { name, seen, total });
///
/// let a = Tally { name: "a".into(), seen: vec![1, 2, 3], total: 6 };
/// let mut b = Tally { name: "b".into(), seen: Vec::with_capacity(8), total: 0 };
/// let kept = b.seen.as_ptr();
/// b.clone_from(&a);
/// assert_eq!((b.name.as_str(), &b.seen[..], b.total), ("a", &[1, 2, 3][..], 6));
/// assert_eq!(b.seen.as_ptr(), kept, "the buffer was reused");
/// ```
#[macro_export]
macro_rules! clone_in_place {
    (impl[$($generics:tt)*] for $ty:ty { $($field:ident),+ $(,)? }) => {
        impl<$($generics)*> ::core::clone::Clone for $ty {
            fn clone(&self) -> Self {
                let Self { $($field),+ } = self;
                Self { $($field: ::core::clone::Clone::clone($field)),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let Self { $($field),+ } = source;
                $(::core::clone::Clone::clone_from(&mut self.$field, $field);)+
            }
        }
    };
}
