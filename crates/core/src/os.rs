//! The OS model: the policy engine of paper §2.2.

use xg_proto::{Ctx, Message, OsMsg};
use xg_sim::{CheckDigest, CloneComponent, Component, NodeId, Report};

use crate::config::OsPolicy;

/// A minimal OS: receives [`XgError`](xg_proto::XgError) reports from
/// Crossing Guard instances and applies a policy. It keeps no error log:
/// each guard counts the errors it raises (`<guard>.errors_total`,
/// `<guard>.errors.<kind>`).
///
/// With [`OsPolicy::DisableAccelerator`], the first error from a guard
/// triggers an [`OsMsg::DisableAccelerator`] back to that guard, after
/// which the guard stops accepting accelerator requests (but keeps
/// answering host demands safely) — the containment action the paper
/// suggests ("disable the accelerator to prevent it from making further
/// accesses").
pub struct Os {
    name: String,
    policy: OsPolicy,
    disabled: Vec<NodeId>,
}

xg_sim::clone_in_place!(impl[] for Os { name, policy, disabled });

impl Os {
    /// Creates an OS model with the given policy.
    pub fn new(name: impl Into<String>, policy: OsPolicy) -> Self {
        Os {
            name: name.into(),
            policy,
            disabled: Vec::new(),
        }
    }

    /// Guards this OS has disabled.
    pub fn disabled_guards(&self) -> &[NodeId] {
        &self.disabled
    }
}

impl Component<Message> for Os {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Os(OsMsg::Error(err)) = msg else {
            return;
        };
        let addr = err.addr.map_or(u64::MAX, |a| a.as_u64());
        ctx.trace(addr, "os", "Error", || format!("{} from {from}", err.kind));
        if self.policy == OsPolicy::DisableAccelerator && !self.disabled.contains(&from) {
            ctx.flag_post_mortem(addr, format!("OS disabling guard {from}"));
            self.disabled.push(from);
            ctx.send(from, OsMsg::DisableAccelerator.into());
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        // The disabled set is the OS's only state, and it feeds back into
        // protocol behavior: a disabled guard drops accelerator requests.
        out.write_str("os");
        let mut disabled: Vec<_> = self.disabled.clone();
        disabled.sort_by_key(|n| out.node_role(*n));
        out.write_u64(disabled.len() as u64);
        for n in disabled {
            out.write_node(n);
        }
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(
            format_args!("{n}.guards_disabled"),
            self.disabled.len() as u64,
        );
    }

    fn cloneable(&self) -> Option<&dyn CloneComponent<Message>> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_mem::BlockAddr;
    use xg_proto::{XgError, XgErrorKind};
    use xg_sim::SimBuilder;

    /// A stub guard that records whether it was disabled.
    struct StubGuard {
        disabled: bool,
    }
    impl Component<Message> for StubGuard {
        fn name(&self) -> &str {
            "stub_guard"
        }
        fn handle(&mut self, _from: NodeId, msg: Message, _ctx: &mut Ctx<'_>) {
            if let Message::Os(OsMsg::DisableAccelerator) = msg {
                self.disabled = true;
            }
        }
    }

    fn err(guard: NodeId, kind: XgErrorKind) -> Message {
        OsMsg::Error(XgError::new(guard, Some(BlockAddr::new(1)), kind)).into()
    }

    #[test]
    fn report_only_never_disables() {
        let mut b = SimBuilder::new(1);
        let guard = b.add(Box::new(StubGuard { disabled: false }));
        let os = b.add(Box::new(Os::new("os", OsPolicy::ReportOnly)));
        let mut sim = b.build();
        sim.post(guard, os, err(guard, XgErrorKind::DuplicateRequest));
        sim.post(guard, os, err(guard, XgErrorKind::ResponseTimeout));
        assert!(sim.run_to_quiescence(1_000).quiescent);
        assert!(sim.get::<Os>(os).unwrap().disabled_guards().is_empty());
        assert!(!sim.get::<StubGuard>(guard).unwrap().disabled);
        assert_eq!(sim.report().get("os.guards_disabled"), 0);
    }

    #[test]
    fn errors_are_attributed_to_the_offending_guard() {
        let mut b = SimBuilder::new(1);
        let guard_a = b.add(Box::new(StubGuard { disabled: false }));
        let guard_b = b.add(Box::new(StubGuard { disabled: false }));
        let os = b.add(Box::new(Os::new("os", OsPolicy::DisableAccelerator)));
        let mut sim = b.build();
        sim.post(guard_a, os, err(guard_a, XgErrorKind::PermissionRead));
        sim.post(guard_a, os, err(guard_a, XgErrorKind::ResponseTimeout));
        assert!(sim.run_to_quiescence(1_000).quiescent);
        assert!(sim.get::<StubGuard>(guard_a).unwrap().disabled);
        assert!(
            !sim.get::<StubGuard>(guard_b).unwrap().disabled,
            "sibling stays enabled"
        );
        assert_eq!(sim.get::<Os>(os).unwrap().disabled_guards(), &[guard_a]);
    }

    #[test]
    fn disable_policy_fires_once() {
        let mut b = SimBuilder::new(1);
        let guard = b.add(Box::new(StubGuard { disabled: false }));
        let os = b.add(Box::new(Os::new("os", OsPolicy::DisableAccelerator)));
        let mut sim = b.build();
        sim.post(guard, os, err(guard, XgErrorKind::PermissionWrite));
        sim.post(guard, os, err(guard, XgErrorKind::PermissionWrite));
        assert!(sim.run_to_quiescence(1_000).quiescent);
        assert!(sim.get::<StubGuard>(guard).unwrap().disabled);
        assert_eq!(sim.get::<Os>(os).unwrap().disabled_guards(), &[guard]);
        assert_eq!(sim.report().get("os.guards_disabled"), 1);
    }
}
