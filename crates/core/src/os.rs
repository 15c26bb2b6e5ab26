//! The OS model: error sink and policy engine (paper §2.2).

use xg_proto::{Ctx, Message, OsMsg, XgError, XgErrorKind};
use xg_sim::{CheckDigest, CloneComponent, Component, NodeId, Report};

use crate::config::OsPolicy;

/// A minimal OS: receives [`XgError`] reports from Crossing Guard
/// instances and applies a policy.
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
    /// Every report, in arrival order. The per-kind and per-guard counts
    /// below are read off it on demand: they are asked for a few times per
    /// run, the log is copied at every checkpoint restore.
    errors: Vec<XgError>,
    disabled: Vec<NodeId>,
}

xg_sim::clone_in_place!(impl[] for Os { name, policy, errors, disabled });

impl Os {
    /// Creates an OS model with the given policy.
    pub fn new(name: impl Into<String>, policy: OsPolicy) -> Self {
        Os {
            name: name.into(),
            policy,
            errors: Vec::new(),
            disabled: Vec::new(),
        }
    }

    /// All error reports received so far, in arrival order.
    pub fn errors(&self) -> &[XgError] {
        &self.errors
    }

    /// Number of errors of a given kind.
    pub fn count(&self, kind: XgErrorKind) -> u64 {
        self.errors.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Total errors received.
    pub fn total(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Total errors attributed to one guard instance (the guard a report
    /// names, so a multi-accelerator OS can blame the *offending* guard,
    /// not the fleet).
    pub fn errors_from(&self, guard: NodeId) -> u64 {
        self.errors.iter().filter(|e| e.guard == guard).count() as u64
    }

    /// Errors of one kind attributed to one guard instance.
    pub fn count_from(&self, guard: NodeId, kind: XgErrorKind) -> u64 {
        let from_guard = self.errors.iter().filter(|e| e.guard == guard);
        from_guard.filter(|e| e.kind == kind).count() as u64
    }

    /// Iterates `(kind, count)` over the kinds one guard reported, in
    /// [`XgErrorKind`] order.
    pub fn kinds_from(&self, guard: NodeId) -> impl Iterator<Item = (XgErrorKind, u64)> + '_ {
        XgErrorKind::ALL
            .into_iter()
            .map(move |kind| (kind, self.count_from(guard, kind)))
            .filter(|&(_, n)| n > 0)
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
        self.errors.push(err);
        if self.policy == OsPolicy::DisableAccelerator && !self.disabled.contains(&from) {
            ctx.flag_post_mortem(addr, format!("OS disabling guard {from}"));
            self.disabled.push(from);
            ctx.send(from, OsMsg::DisableAccelerator.into());
        }
    }

    fn check_state(&self, out: &mut CheckDigest) {
        // Only the disabled set feeds back into protocol behavior (a
        // disabled guard drops accelerator requests); error logs and counts
        // are write-only history and would fracture the explored state
        // space if digested.
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
        out.add(format_args!("{n}.errors_total"), self.total());
        for kind in XgErrorKind::ALL {
            let count = self.count(kind);
            if count > 0 {
                out.add(format_args!("{n}.errors.{kind}"), count);
            }
        }
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
    fn report_only_counts_without_disabling() {
        let mut b = SimBuilder::new(1);
        let guard = b.add(Box::new(StubGuard { disabled: false }));
        let os = b.add(Box::new(Os::new("os", OsPolicy::ReportOnly)));
        let mut sim = b.build();
        sim.post(guard, os, err(guard, XgErrorKind::DuplicateRequest));
        sim.post(guard, os, err(guard, XgErrorKind::DuplicateRequest));
        sim.post(guard, os, err(guard, XgErrorKind::ResponseTimeout));
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let osr = sim.get::<Os>(os).unwrap();
        assert_eq!(osr.total(), 3);
        assert_eq!(osr.count(XgErrorKind::DuplicateRequest), 2);
        assert_eq!(osr.count(XgErrorKind::ResponseTimeout), 1);
        assert_eq!(osr.count(XgErrorKind::Malformed), 0);
        assert!(osr.disabled_guards().is_empty());
        assert!(!sim.get::<StubGuard>(guard).unwrap().disabled);
    }

    #[test]
    fn errors_are_attributed_to_the_offending_guard() {
        let mut b = SimBuilder::new(1);
        let guard_a = b.add(Box::new(StubGuard { disabled: false }));
        let guard_b = b.add(Box::new(StubGuard { disabled: false }));
        let os = b.add(Box::new(Os::new("os", OsPolicy::ReportOnly)));
        let mut sim = b.build();
        sim.post(guard_a, os, err(guard_a, XgErrorKind::PermissionRead));
        sim.post(guard_a, os, err(guard_a, XgErrorKind::PermissionRead));
        sim.post(guard_a, os, err(guard_a, XgErrorKind::ResponseTimeout));
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let osr = sim.get::<Os>(os).unwrap();
        assert_eq!(osr.total(), 3);
        assert_eq!(osr.errors_from(guard_a), 3);
        assert_eq!(osr.errors_from(guard_b), 0, "sibling stays clean");
        assert_eq!(osr.count_from(guard_a, XgErrorKind::PermissionRead), 2);
        assert_eq!(osr.count_from(guard_a, XgErrorKind::ResponseTimeout), 1);
        assert_eq!(osr.count_from(guard_b, XgErrorKind::PermissionRead), 0);
        let kinds: Vec<_> = osr.kinds_from(guard_a).collect();
        assert_eq!(
            kinds,
            vec![
                (XgErrorKind::PermissionRead, 2),
                (XgErrorKind::ResponseTimeout, 1)
            ]
        );
        assert_eq!(osr.kinds_from(guard_b).count(), 0);
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
        let report = sim.report();
        assert_eq!(report.get("os.guards_disabled"), 1);
        assert_eq!(report.get("os.errors_total"), 2);
    }
}
