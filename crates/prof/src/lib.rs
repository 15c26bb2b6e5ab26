//! # xg-prof — kernel profiling and transaction timelines
//!
//! Observability primitives for the Crossing Guard simulation kernel,
//! answering the two questions ROADMAP items 1 and 2 (kernel overhaul,
//! intra-run parallelism) will be judged by:
//!
//! * **Where does the events/sec budget go?** — [`Profiler`] keeps
//!   per-component / per-event-class dispatch counters, coarse sampled
//!   host-time attribution, the event queue's depth high-water mark, and
//!   an epoch sampler that turns a run into a time series (events and
//!   progress per epoch). It sees each event once, as it is dispatched:
//!   the kernel's push path carries no profiling branch.
//! * **What happened to this transaction?** — [`Timeline`] records
//!   per-address request lifecycle spans and per-component instants and
//!   renders them as Chrome trace-event JSON, loadable in Perfetto
//!   (<https://ui.perfetto.dev>), so a post-mortem is a zoomable timeline
//!   instead of a ring-buffer dump.
//!
//! Both are **off by default and ~free when off**: the kernel guards every
//! profiling touch behind a single `enabled()` branch, and host-time
//! attribution samples wall-clock only every Nth event so even the enabled
//! mode stays cheap. Neither facility draws from the simulation RNG or
//! schedules events, so enabling them cannot perturb a deterministic run.
//!
//! This crate is a leaf: `xg-sim` depends on it, never the reverse. It
//! therefore speaks in component *indices* and lets the simulator supply
//! component names at dump time.

#![forbid(unsafe_code)]

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

/// One dispatched event in this many is wall-clock timed (coarse TSC-style
/// sampling); `host_ns.*` scales the sampled time back up by it.
pub const HOST_TIME_SAMPLE: u32 = 64;
/// Simulated-cycle length of one epoch of the time series: short enough
/// that even quick CI-scale stress runs (tens of thousands of simulated
/// cycles) produce a usable series.
pub const EPOCH_CYCLES: u64 = 2_000;
/// Epoch samples retained; later epochs are counted in `epoch.dropped`
/// rather than growing memory unboundedly.
pub const MAX_EPOCHS: usize = 256;

/// Profiler switch, applied at simulator build time (or by a harness
/// immediately after build, before any event runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileConfig {
    /// Master switch. When false the kernel pays one branch per event.
    pub enabled: bool,
}

impl ProfileConfig {
    /// Profiling disabled — the default for every production run.
    pub fn off() -> Self {
        ProfileConfig { enabled: false }
    }

    /// Profiling enabled.
    pub fn on() -> Self {
        ProfileConfig { enabled: true }
    }
}

/// Per-(component, event-class) dispatch slot.
#[derive(Debug, Clone, Copy, Default)]
struct DispatchSlot {
    /// Events dispatched.
    count: u64,
    /// Nanoseconds measured across the sampled subset of those events.
    sampled_ns: u64,
    /// How many events were wall-clock sampled.
    samples: u64,
}

/// One epoch of the time-series sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSample {
    /// Events dispatched during the epoch.
    pub events: u64,
    /// Forward-progress units reported during the epoch.
    pub progress: u64,
}

/// Kernel profiler owned by the simulator.
///
/// All hot-path methods are `#[inline]` and do nothing when disabled; the
/// simulator additionally guards each call behind [`Profiler::enabled`] so
/// the disabled-mode cost is one branch per event, not one call per touch.
#[derive(Debug)]
pub struct Profiler {
    config: ProfileConfig,
    /// Dispatch rows, indexed by component, each `(class, slot)` in
    /// first-seen order and linear-scanned by label address. A component
    /// dispatches a handful of classes, and a row that never moves is found
    /// at the same depth every time, so the scan's branches predict well;
    /// moving hot rows forward costs more than it saves (this lookup runs
    /// once per dispatched event). A label whose text lives at two
    /// addresses gets two rows, which [`entries`](Profiler::entries)
    /// merges by name.
    dispatch: Vec<Vec<(&'static str, DispatchSlot)>>,
    /// Deepest the central event queue ever got.
    queue_hwm: u64,
    /// Total events dispatched.
    events_total: u64,
    /// Countdown to the next wall-clock sample.
    sample_countdown: u32,
    epochs: Vec<EpochSample>,
    /// Cycle the current epoch started at.
    epoch_start: u64,
    /// Events dispatched since the current epoch started.
    epoch_events: u64,
    /// Progress total at the start of the current epoch.
    epoch_progress_base: u64,
    /// Epoch samples dropped past [`MAX_EPOCHS`].
    epoch_dropped: u64,
}

impl Profiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: ProfileConfig) -> Self {
        Profiler {
            config,
            dispatch: Vec::new(),
            queue_hwm: 0,
            events_total: 0,
            sample_countdown: HOST_TIME_SAMPLE,
            epochs: Vec::new(),
            epoch_start: 0,
            epoch_events: 0,
            epoch_progress_base: 0,
            epoch_dropped: 0,
        }
    }

    /// Replaces the configuration. Intended for harnesses that build a
    /// system through a shared constructor and then opt a specific run into
    /// profiling, before the first event is dispatched.
    pub fn set_config(&mut self, config: ProfileConfig) {
        self.config = config;
    }

    /// Whether profiling is recording (the kernel's one-branch gate).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Begins accounting one dispatched event. `queue_depth` is the queue
    /// depth *before* the pop. Returns whether this event should be
    /// wall-clock timed (the caller reads the clock so that an untimed
    /// event never touches `Instant`).
    #[inline]
    pub fn begin_event(&mut self, queue_depth: usize) -> bool {
        self.events_total += 1;
        self.epoch_events += 1;
        let depth = queue_depth as u64;
        if depth > self.queue_hwm {
            self.queue_hwm = depth;
        }
        self.sample_countdown -= 1;
        if self.sample_countdown == 0 {
            self.sample_countdown = HOST_TIME_SAMPLE;
            true
        } else {
            false
        }
    }

    /// Finishes accounting one dispatched event: bumps the dispatch counter
    /// for `(component, class)` and, when the event was sampled, adds the
    /// measured nanoseconds.
    #[inline]
    pub fn end_event(&mut self, component: usize, class: &'static str, elapsed_ns: Option<u64>) {
        if component >= self.dispatch.len() {
            self.dispatch.resize_with(component + 1, Vec::new);
        }
        let rows = &mut self.dispatch[component];
        // Address equality only: class labels are `&'static str`s from a
        // fixed set, so repeats of a label share an address, and comparing
        // text on every miss would cost more than the rare second row.
        let at = match rows.iter().position(|&(c, _)| std::ptr::eq(c, class)) {
            Some(i) => i,
            None => {
                rows.push((class, DispatchSlot::default()));
                rows.len() - 1
            }
        };
        let slot = &mut rows[at].1;
        slot.count += 1;
        if let Some(ns) = elapsed_ns {
            slot.sampled_ns += ns;
            slot.samples += 1;
        }
    }

    /// Advances the epoch sampler to simulated time `now`. `progress` is the
    /// simulation's cumulative progress counter, snapshotted at each epoch
    /// boundary.
    #[inline]
    pub fn epoch_tick(&mut self, now: u64, progress: u64) {
        while now >= self.epoch_start + EPOCH_CYCLES {
            if self.epochs.len() < MAX_EPOCHS {
                self.epochs.push(EpochSample {
                    events: self.epoch_events,
                    progress: progress - self.epoch_progress_base,
                });
            } else {
                self.epoch_dropped += 1;
            }
            self.epoch_start += EPOCH_CYCLES;
            self.epoch_events = 0;
            self.epoch_progress_base = progress;
        }
    }

    /// The recorded epoch series.
    pub fn epochs(&self) -> &[EpochSample] {
        &self.epochs
    }

    /// Renders everything the profiler learned as flat `(key, value)` pairs
    /// for the Report `profile` section. `names[i]` labels component `i`.
    ///
    /// Key vocabulary (the `.hwm` suffix is load-bearing: Report merges
    /// those keys with `max`, everything else with `+`):
    ///
    /// * `events.total` — events dispatched
    /// * `queue.hwm` — central queue depth high-water mark
    /// * `dispatch.<component>.<class>` — per-component/per-class counts
    /// * `host_ns.<component>.<class>` — estimated host nanoseconds
    ///   (sampled ns scaled by the sampling interval; absent when never
    ///   sampled)
    /// * `epoch.<i>.events` / `.progress` — time series
    /// * `epoch.dropped` — epochs past [`MAX_EPOCHS`]
    pub fn entries(&self, names: &[String]) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        if self.events_total == 0 && self.dispatch.is_empty() && self.epochs.is_empty() {
            return out;
        }
        let label = |idx: usize| -> String {
            names
                .get(idx)
                .filter(|n| !n.is_empty())
                .cloned()
                .unwrap_or_else(|| format!("node{idx}"))
        };
        out.push(("events.total".to_owned(), self.events_total));
        out.push(("queue.hwm".to_owned(), self.queue_hwm));
        for (idx, rows) in self.dispatch.iter().enumerate() {
            let comp = label(idx);
            // One row per label text (see `dispatch`), in first-seen order.
            let mut merged: Vec<(&str, DispatchSlot)> = Vec::with_capacity(rows.len());
            for &(class, slot) in rows {
                match merged.iter_mut().find(|(c, _)| *c == class) {
                    Some((_, into)) => {
                        into.count += slot.count;
                        into.sampled_ns += slot.sampled_ns;
                        into.samples += slot.samples;
                    }
                    None => merged.push((class, slot)),
                }
            }
            for (class, slot) in merged {
                out.push((format!("dispatch.{comp}.{class}"), slot.count));
                if slot.samples > 0 {
                    // Scale the sampled nanoseconds back up by the sampling
                    // interval to estimate the class's total host time.
                    let est = slot.sampled_ns * u64::from(HOST_TIME_SAMPLE);
                    out.push((format!("host_ns.{comp}.{class}"), est));
                }
            }
        }
        for (i, ep) in self.epochs.iter().enumerate() {
            out.push((format!("epoch.{i:04}.events"), ep.events));
            out.push((format!("epoch.{i:04}.progress"), ep.progress));
        }
        if self.epoch_dropped > 0 {
            out.push(("epoch.dropped".to_owned(), self.epoch_dropped));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Timeline (Chrome trace-event JSON)
// ---------------------------------------------------------------------------

/// The process id timeline events use for per-component instant tracks.
pub const PID_COMPONENTS: u64 = 1;
/// The process id timeline events use for per-address lifecycle span tracks.
pub const PID_ADDRESSES: u64 = 2;

/// Timeline events retained (plenty for a failure replay window); later
/// events are counted in [`Timeline::dropped`].
pub const MAX_TIMELINE_EVENTS: usize = 200_000;

/// Phase of a timeline event, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimelinePhase {
    /// `"i"` — a point-in-time marker on a component track.
    Instant,
    /// `"X"` — a complete span with a duration, on an address track.
    Complete {
        /// Span length in simulated cycles.
        dur: u64,
    },
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TimelineEvent {
    ts: u64,
    pid: u64,
    tid: u64,
    name: String,
    phase: TimelinePhase,
    /// Rendered into the `args` object (Perfetto shows these on click).
    args: Vec<(&'static str, String)>,
}

/// Recorder for Chrome trace-event JSON timelines.
///
/// Two kinds of tracks:
/// * **component tracks** (`pid` [`PID_COMPONENTS`], `tid` = component
///   index) carry instant events — one per protocol trace record;
/// * **address tracks** (`pid` [`PID_ADDRESSES`], `tid` = block address)
///   carry complete spans — one per request lifecycle phase (guard
///   translate, grant, writeback, invalidation round).
///
/// Simulated cycles are emitted as microseconds (`ts`/`dur`), which Perfetto
/// renders 1:1 — read "1 µs" as "1 cycle".
#[derive(Debug, Default)]
pub struct Timeline {
    /// `(pid, tid, name)` thread-name metadata, emitted first.
    tracks: Vec<(u64, u64, String)>,
    events: Vec<TimelineEvent>,
    dropped: u64,
}

impl Timeline {
    /// Names a `(pid, tid)` track (rendered as a thread name in Perfetto).
    pub fn name_track(&mut self, pid: u64, tid: u64, name: impl Into<String>) {
        self.tracks.push((pid, tid, name.into()));
    }

    /// Records an instant event.
    pub fn instant(
        &mut self,
        ts: u64,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(TimelineEvent {
            ts,
            pid,
            tid,
            name: name.into(),
            phase: TimelinePhase::Instant,
            args,
        });
    }

    /// Records a complete span from `ts` lasting `dur` cycles.
    pub fn complete(
        &mut self,
        ts: u64,
        dur: u64,
        pid: u64,
        tid: u64,
        name: impl Into<String>,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(TimelineEvent {
            ts,
            pid,
            tid,
            name: name.into(),
            phase: TimelinePhase::Complete { dur },
            args,
        });
    }

    fn push(&mut self, ev: TimelineEvent) {
        if self.events.len() >= MAX_TIMELINE_EVENTS {
            self.dropped += 1;
            return;
        }
        self.events.push(ev);
    }

    /// Number of retained events (excluding track metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded past the retention cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the timeline as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto.
    ///
    /// Events are sorted by timestamp (stably, so equal-time events keep
    /// record order), which guarantees non-decreasing `ts` within every
    /// `(pid, tid)` track — the invariant trace viewers require.
    pub fn to_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].ts);

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (pid, tid, name) in &self.tracks {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        for &i in &order {
            let ev = &self.events[i];
            if !first {
                out.push(',');
            }
            first = false;
            let mut args = String::from("{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    args.push(',');
                }
                args.push_str(&format!("{}:{}", json_string(k), json_string(v)));
            }
            args.push('}');
            match ev.phase {
                TimelinePhase::Instant => out.push_str(&format!(
                    "{{\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\",\
                     \"name\":{},\"args\":{}}}",
                    ev.ts,
                    ev.pid,
                    ev.tid,
                    json_string(&ev.name),
                    args
                )),
                TimelinePhase::Complete { dur } => out.push_str(&format!(
                    "{{\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
                     \"name\":{},\"args\":{}}}",
                    ev.ts,
                    dur,
                    ev.pid,
                    ev.tid,
                    json_string(&ev.name),
                    args
                )),
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn disabled_profiler_reports_nothing() {
        let p = Profiler::new(ProfileConfig::off());
        assert!(!p.enabled());
        assert!(p.entries(&[]).is_empty());
    }

    #[test]
    fn dispatch_counters_accumulate_per_component_and_class() {
        let mut p = Profiler::new(ProfileConfig::on());
        for _ in 0..3 {
            assert!(!p.begin_event(5));
            p.end_event(0, "GetS", None);
        }
        p.begin_event(9);
        p.end_event(1, "Wake", None);
        let names = vec!["l1".to_owned(), "dir".to_owned()];
        let entries: BTreeMap<String, u64> = p.entries(&names).into_iter().collect();
        assert_eq!(entries["dispatch.l1.GetS"], 3);
        assert_eq!(entries["dispatch.dir.Wake"], 1);
        assert_eq!(entries["events.total"], 4);
        assert_eq!(entries["queue.hwm"], 9);
        assert!(!entries.contains_key("host_ns.l1.GetS"), "never sampled");
    }

    #[test]
    fn one_label_at_two_addresses_is_one_row() {
        let mut p = Profiler::new(ProfileConfig::on());
        let owned = String::from("GetS");
        let copy: &'static str = Box::leak(owned.into_boxed_str());
        for class in ["GetS", copy, "GetS"] {
            p.begin_event(0);
            p.end_event(0, class, None);
        }
        let entries = p.entries(&["l1".to_owned()]);
        let rows: Vec<_> = entries
            .iter()
            .filter(|(k, _)| k.starts_with("dispatch."))
            .collect();
        assert_eq!(rows, [&("dispatch.l1.GetS".to_owned(), 3)]);
    }

    #[test]
    fn host_time_sampling_fires_every_nth_event() {
        let mut p = Profiler::new(ProfileConfig::on());
        let n = HOST_TIME_SAMPLE as usize;
        let sampled: Vec<bool> = (0..3 * n).map(|_| p.begin_event(0)).collect();
        let hits: Vec<usize> = sampled
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits, vec![n - 1, 2 * n - 1, 3 * n - 1]);
        p.end_event(0, "x", Some(100));
        let entries: BTreeMap<String, u64> = p.entries(&["c".to_owned()]).into_iter().collect();
        // 100 ns sampled at 1-in-N → estimated N × 100 ns.
        assert_eq!(entries["host_ns.c.x"], 100 * u64::from(HOST_TIME_SAMPLE));
    }

    #[test]
    fn epoch_sampler_emits_a_bounded_series() {
        const E: u64 = EPOCH_CYCLES;
        let mut p = Profiler::new(ProfileConfig::on());
        p.begin_event(0);
        p.epoch_tick(E / 2, 1);
        assert!(p.epochs().is_empty(), "mid-epoch: nothing emitted");
        p.begin_event(0);
        p.epoch_tick(E + E / 5, 4);
        assert_eq!(
            p.epochs(),
            &[EpochSample {
                events: 2,
                progress: 4
            }]
        );
        p.epoch_tick(2 * E + E / 2, 9);
        assert_eq!(p.epochs().len(), 2);
        assert_eq!(p.epochs()[1].events, 0);
        assert_eq!(p.epochs()[1].progress, 5);
        // Past the cap: dropped, not grown.
        p.epoch_tick((MAX_EPOCHS as u64 + 3) * E, 9);
        assert_eq!(p.epochs().len(), MAX_EPOCHS);
        let entries: BTreeMap<String, u64> = p.entries(&[]).into_iter().collect();
        assert_eq!(entries["epoch.0000.events"], 2);
        assert_eq!(entries["epoch.0001.progress"], 5);
        assert_eq!(entries["epoch.dropped"], 3);
    }

    #[test]
    fn timeline_renders_sorted_chrome_trace_json() {
        let mut tl = Timeline::default();
        tl.name_track(PID_COMPONENTS, 0, "guard");
        tl.complete(
            40,
            10,
            PID_ADDRESSES,
            0x80,
            "grant",
            vec![("component", "xg".into())],
        );
        tl.instant(90, PID_COMPONENTS, 0, "GetM", vec![("state", "I_M".into())]);
        tl.instant(10, PID_COMPONENTS, 0, "GetS", vec![]);
        let json = tl.to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":10"));
        // Sorted: the ts=10 instant precedes the ts=40 span.
        let a = json.find("\"ts\":10,").unwrap();
        let b = json.find("\"ts\":40,").unwrap();
        let c = json.find("\"ts\":90,").unwrap();
        assert!(a < b && b < c, "events ordered by ts: {json}");
    }

    #[test]
    fn timeline_is_bounded() {
        let mut tl = Timeline::default();
        for i in 0..MAX_TIMELINE_EVENTS as u64 + 3 {
            tl.instant(i, PID_COMPONENTS, 0, "e", vec![]);
        }
        assert_eq!(tl.len(), MAX_TIMELINE_EVENTS);
        assert_eq!(tl.dropped(), 3);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
