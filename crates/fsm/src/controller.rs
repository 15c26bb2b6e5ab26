//! The action-interpreter trait controllers implement.

use crate::machine::{Machine, Resolution};
use crate::Alphabet;

/// The `(state, event)` pair being dispatched, passed to every hook so
/// action interpreters can branch on provenance without re-deriving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step<S, E> {
    /// Abstract state the controller classified itself into.
    pub state: S,
    /// Abstract event the controller classified the stimulus into.
    pub event: E,
}

/// A controller that executes a table-driven machine.
///
/// The controller classifies its concrete data into `(state, event)`, then
/// calls [`Controller::dispatch`]; the engine resolves the row, counts it,
/// and hands back control through [`apply`](Controller::apply) (one call
/// per symbolic action, in row order), [`stalled`](Controller::stalled), or
/// [`violated`](Controller::violated).
///
/// `Cx` is whatever per-dispatch context the actions need — typically a
/// struct wrapping a reborrowed [`xg_sim::Ctx`] plus the sender and message
/// payload. It is a trait parameter (not an associated type) so controllers
/// can implement the trait generically over the context's lifetimes:
///
/// ```ignore
/// impl<'a, 'b> Controller<DirState, DirEvent, DirAction, DirCx<'a, 'b>> for HammerDirectory {
///     ...
/// }
/// ```
pub trait Controller<S: Alphabet, E: Alphabet, A: Alphabet, Cx> {
    /// The live machine instance (table + fired counters).
    fn machine(&mut self) -> &mut Machine<S, E, A>;

    /// Interprets one symbolic action against concrete data.
    fn apply(&mut self, action: A, step: Step<S, E>, cx: &mut Cx);

    /// The row said [`Resolution::Stall`]: one
    /// [`Parked::park`](crate::Parked::park) behind the blocking record.
    fn stalled(&mut self, step: Step<S, E>, cx: &mut Cx);

    /// The row said [`Resolution::Violation`]: count/flag it.
    fn violated(&mut self, step: Step<S, E>, cx: &mut Cx);

    /// Resolves the pair and runs the row. Provided; controllers normally
    /// never override this.
    fn dispatch(&mut self, state: S, event: E, cx: &mut Cx) {
        let step = Step { state, event };
        match self.machine().resolve(state, event) {
            Resolution::Transition { actions, .. } => {
                for &action in actions {
                    self.apply(action, step, cx);
                }
            }
            Resolution::Stall => self.stalled(step, cx),
            Resolution::Violation => self.violated(step, cx),
        }
    }
}
