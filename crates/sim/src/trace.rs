//! Structured protocol tracing with post-mortem dumps.
//!
//! Debugging a coherence protocol failure means answering one question:
//! *what happened to this block address, across every controller, in the
//! cycles before things went wrong?* This module keeps exactly that — a
//! bounded per-address ring buffer of [`TraceEvent`]s, recorded by every
//! component through [`crate::Ctx::trace`] — and renders it on demand as a
//! [`Tracer::post_mortem`] dump when a component flags an address as
//! suspicious (guard kill, safety-invariant trip, fuzz-detected corruption).
//!
//! Tracing is configured per simulation via [`TraceConfig`] and is zero-cost
//! when off: `Ctx::trace` takes the detail text as a closure and never
//! evaluates it unless the level says so, so the steady-state overhead of an
//! instrumented controller is one branch per call site. Post-mortem *flags*,
//! by contrast, are always recorded — they are rare, and keeping them
//! unconditional lets a harness notice a failure in a fast untraced run and
//! then deterministically replay the same seed with tracing enabled.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use xg_prof::Timeline;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (post-mortem flags are still collected).
    Off,
    /// Record events into per-address rings for post-mortem dumps.
    Ring,
    /// Record into rings *and* echo each event to stderr as it happens.
    Echo,
}

/// Events retained per address (oldest evicted first).
pub(crate) const RING_CAPACITY: usize = 64;
/// Distinct addresses tracked; events for further addresses are counted in
/// [`Tracer::dropped`] rather than growing memory unboundedly.
pub(crate) const MAX_ADDRS: usize = 4096;

/// Tracer configuration, fixed at simulator build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Recording level.
    pub level: TraceLevel,
}

impl TraceConfig {
    /// Tracing disabled (the default for production runs).
    pub fn off() -> Self {
        TraceConfig {
            level: TraceLevel::Off,
        }
    }

    /// Ring recording — what failure replays use.
    pub fn ring() -> Self {
        TraceConfig {
            level: TraceLevel::Ring,
        }
    }

    /// Ring recording plus live stderr echo.
    pub fn echo() -> Self {
        TraceConfig {
            level: TraceLevel::Echo,
        }
    }

    /// Honors the `XG_TRACE` environment variable: `1` →
    /// [`TraceLevel::Echo`], unset or `0` → off. A malformed value is off
    /// too: the library never panics or prints over it — the binaries
    /// refuse it by name first, through [`try_from_env`](Self::try_from_env).
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|_| Self::off())
    }

    /// [`from_env`](Self::from_env), with an `XG_TRACE` that is not a
    /// switch reported as an error naming the variable and its value.
    pub fn try_from_env() -> Result<Self, String> {
        Ok(if env_switch("XG_TRACE")? {
            Self::echo()
        } else {
            Self::off()
        })
    }
}

/// Parses an on/off switch variable `name` whose value is `value` (`None`
/// = unset): unset or `0` is off, `1` is on, anything else is an error
/// naming the variable and the value.
fn parse_switch(name: &str, value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("{name}={other:?} is not a switch (0 or 1)")),
    }
}

/// Reads the on/off switch variable `name` from the environment: unset or
/// `0` is off, `1` is on, anything else is an error naming it and its value.
pub fn env_switch(name: &str) -> Result<bool, String> {
    let value = std::env::var_os(name);
    parse_switch(name, value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One recorded protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred at.
    pub tick: u64,
    /// Name of the component that recorded it.
    pub component: String,
    /// Block address the event concerns.
    pub addr: u64,
    /// Controller state at the time (free-form, e.g. `"S"`, `"I_M"`).
    pub state: String,
    /// What happened (free-form, e.g. `"GetM"`, `"InvTimeout"`).
    pub event: String,
    /// Extra context rendered lazily at the call site.
    pub detail: String,
}

/// An address flagged for post-mortem dumping, with why and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostMortemFlag {
    /// Simulated cycle the flag was raised.
    pub tick: u64,
    /// The suspicious address.
    pub addr: u64,
    /// Why it was flagged (e.g. `"guard killed accelerator: DataRace"`);
    /// borrowed when the caller has a `'static` reason.
    pub reason: Cow<'static, str>,
}

/// Bounded per-address event recorder shared by all components of a
/// simulation. Owned by [`crate::Simulator`]; components reach it through
/// [`crate::Ctx::trace`] and [`crate::Ctx::flag_post_mortem`].
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    rings: BTreeMap<u64, VecDeque<TraceEvent>>,
    flags: Vec<PostMortemFlag>,
    dropped: u64,
    /// Optional transaction timeline (`xg-prof`). When present, every
    /// [`crate::Ctx::trace`] record also lands as an instant event on the
    /// component's timeline track, and [`crate::Ctx::span`] records
    /// per-address lifecycle spans. `None` (the default) costs one branch
    /// per call site.
    timeline: Option<Timeline>,
}

impl Tracer {
    /// Creates a tracer with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            config,
            rings: BTreeMap::new(),
            flags: Vec::new(),
            dropped: 0,
            timeline: None,
        }
    }

    /// Installs a timeline recorder. Usually called through
    /// [`crate::Simulator::enable_timeline`], which also names the
    /// component tracks.
    pub fn set_timeline(&mut self, timeline: Timeline) {
        self.timeline = Some(timeline);
    }

    /// The timeline recorder, if one is installed.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Mutable access to the timeline recorder, if one is installed.
    pub fn timeline_mut(&mut self) -> Option<&mut Timeline> {
        self.timeline.as_mut()
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Replaces the configuration. Intended for harnesses that build a
    /// system through a shared constructor and then opt a specific run into
    /// tracing (e.g. a deterministic failure replay); already-recorded
    /// events and flags are kept.
    pub fn set_config(&mut self, config: TraceConfig) {
        self.config = config;
    }

    /// Whether events are being recorded at all. Call sites use this to skip
    /// rendering detail strings when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.level != TraceLevel::Off
    }

    /// Records one event (no-op when disabled).
    pub fn record(
        &mut self,
        tick: u64,
        component: &str,
        addr: u64,
        state: &str,
        event: &str,
        detail: String,
    ) {
        if !self.enabled() {
            return;
        }
        if self.config.level == TraceLevel::Echo {
            eprintln!("[{tick}] {component} {addr:#x} [{state}] {event} {detail}");
        }
        if !self.rings.contains_key(&addr) && self.rings.len() >= MAX_ADDRS {
            self.dropped += 1;
            return;
        }
        let ring = self.rings.entry(addr).or_default();
        if ring.len() >= RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(TraceEvent {
            tick,
            component: component.to_owned(),
            addr,
            state: state.to_owned(),
            event: event.to_owned(),
            detail,
        });
    }

    /// Events recorded but discarded because the address table was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Marks `addr` for post-mortem dumping (always recorded, even with
    /// tracing off — see the module docs for why).
    pub fn flag(&mut self, tick: u64, addr: u64, reason: impl Into<Cow<'static, str>>) {
        self.flags.push(PostMortemFlag {
            tick,
            addr,
            reason: reason.into(),
        });
    }

    /// Drops every flag, keeping the buffer: what
    /// [`crate::Simulator::restore`] does to the flags of the run it
    /// discards.
    pub(crate) fn clear_flags(&mut self) {
        self.flags.clear();
    }

    /// All post-mortem flags raised so far, in raise order.
    pub fn flags(&self) -> &[PostMortemFlag] {
        &self.flags
    }

    /// The retained events touching `addr`, oldest first.
    pub fn events_for(&self, addr: u64) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.rings.get(&addr).into_iter().flatten()
    }

    /// Renders the retained history of one address — the "last N events
    /// touching this block, across all controllers" view.
    pub fn dump(&self, addr: u64) -> String {
        let mut out = format!("--- trace for addr {addr:#x} ---\n");
        let mut any = false;
        for ev in self.events_for(addr) {
            any = true;
            let _ = writeln!(
                out,
                "  [{:>8}] {:<16} [{}] {} {}",
                ev.tick, ev.component, ev.state, ev.event, ev.detail
            );
        }
        if !any {
            out.push_str("  (no events retained; run with tracing enabled)\n");
        }
        out
    }

    /// Renders the full post-mortem: every flagged address's reason(s) and
    /// retained event history. `None` if nothing was flagged.
    pub fn post_mortem(&self) -> Option<String> {
        if self.flags.is_empty() {
            return None;
        }
        let mut out = String::from("=== post-mortem ===\n");
        for flag in &self.flags {
            let _ = writeln!(
                out,
                "flagged addr {:#x} at cycle {}: {}",
                flag.addr, flag.tick, flag.reason
            );
        }
        // Dump each flagged address once, in address order.
        let mut addrs: Vec<u64> = self.flags.iter().map(|f| f.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        for addr in addrs {
            out.push_str(&self.dump(addr));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_but_keeps_flags() {
        let mut t = Tracer::new(TraceConfig::off());
        assert!(!t.enabled());
        t.record(1, "l1", 0x40, "I", "Load", String::new());
        assert_eq!(t.events_for(0x40).count(), 0);
        t.flag(5, 0x40, "corruption");
        let pm = t.post_mortem().unwrap();
        assert!(pm.contains("0x40"));
        assert!(pm.contains("corruption"));
        assert!(pm.contains("no events retained"));
    }

    #[test]
    fn ring_is_bounded_per_address() {
        let mut t = Tracer::new(TraceConfig::ring());
        let n = RING_CAPACITY as u64;
        for tick in 0..n + 3 {
            t.record(tick, "dir", 0x80, "S", "GetS", format!("n{tick}"));
        }
        let ticks: Vec<u64> = t.events_for(0x80).map(|e| e.tick).collect();
        assert_eq!(
            ticks,
            (3..n + 3).collect::<Vec<_>>(),
            "keeps only the newest events"
        );
    }

    #[test]
    fn address_table_is_bounded() {
        let mut t = Tracer::new(TraceConfig::ring());
        let n = MAX_ADDRS as u64;
        for addr in 0..=n {
            t.record(addr, "a", addr, "I", "e", String::new());
        }
        assert_eq!(t.events_for(n).count(), 0);
        assert_eq!(t.dropped(), 1);
        // Known addresses still record.
        t.record(n + 1, "a", 0, "I", "e2", String::new());
        assert_eq!(t.events_for(0).count(), 2);
    }

    #[test]
    fn post_mortem_interleaves_components_and_dedups_addrs() {
        let mut t = Tracer::new(TraceConfig::ring());
        t.record(10, "guard", 0x100, "Busy", "GetM", "from accel".into());
        t.record(12, "dir", 0x100, "M", "Fwd", String::new());
        t.record(13, "l1_0", 0x200, "S", "Inv", String::new());
        t.flag(14, 0x100, "guarantee violated");
        t.flag(15, 0x100, "second reason");
        let pm = t.post_mortem().unwrap();
        assert!(pm.contains("guard") && pm.contains("dir"), "{pm}");
        assert!(pm.contains("guarantee violated") && pm.contains("second reason"));
        assert_eq!(pm.matches("--- trace for addr 0x100 ---").count(), 1);
        assert!(!pm.contains("0x200"), "unflagged addr not dumped");
    }

    #[test]
    fn env_config_defaults_off() {
        // XG_TRACE is not set in the test environment.
        if std::env::var_os("XG_TRACE").is_none() {
            assert_eq!(TraceConfig::from_env().level, TraceLevel::Off);
        }
    }

    #[test]
    fn a_switch_is_unset_zero_or_one_and_nothing_else() {
        assert_eq!(parse_switch("XG_TRACE", None), Ok(false));
        assert_eq!(parse_switch("XG_TRACE", Some("0")), Ok(false));
        assert_eq!(parse_switch("XG_TRACE", Some("1")), Ok(true));
        for bad in ["", "true", "yes", "01", " 1", "banana"] {
            let why = parse_switch("XG_BLESS", Some(bad)).unwrap_err();
            assert!(
                why.contains("XG_BLESS") && why.contains(&format!("{bad:?}")),
                "{why}"
            );
        }
    }
}
