//! Tracing from outside the program: in-memory spans around the
//! benchmark's own calls, and the fold of the kernel profiler's
//! `dispatch.*` / `host_ns.*` rows into per-layer strata.

use std::collections::BTreeMap;
use std::time::Instant;

use xg_sim::Report;

/// One recorded span. `parent` indexes into the same list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Traced iteration the span belongs to.
    pub run_id: u32,
}

/// Span recorder. Disabled (the untraced runs) it records nothing, so the
/// timed iterations pay one branch per call site.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    stack: Vec<usize>,
    pub run_id: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            run_id: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its handle.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, handle: usize) {
        if !self.enabled {
            return;
        }
        self.spans[handle].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(handle), "spans close innermost first");
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] = self_ns[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *out.entry(span.name).or_insert(0) += ns;
        }
        out
    }

    /// The spans as a JSON array, for `--spans FILE`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"run_id\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.run_id,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// The strata the kernel's components fold into, one per layer of the
/// simulated system.
pub const STRATA: [&str; 7] = [
    "tester",
    "cpu_cache",
    "home",
    "guard",
    "accel_cache",
    "fuzz",
    "os",
];

/// Maps a component name to its stratum. Instance prefixes (`a1_`) and
/// numeric suffixes (`cpu_cache0`, `dir2`, `accel_l1_1`) are covered by
/// matching on the role part of the name.
pub fn stratum_of(component: &str) -> Option<&'static str> {
    let c = component;
    Some(if c.starts_with("tester_") || c.starts_with("wl_") {
        "tester"
    } else if c.contains("fuzz_") {
        "fuzz"
    } else if c.starts_with("cpu_cache") || c.ends_with("hostside_cache") {
        "cpu_cache"
    } else if c.starts_with("dir") || c == "host_l2" || c.starts_with("l2b") {
        "home"
    } else if c.ends_with("xg") {
        "guard"
    } else if c.ends_with("accel_cache") || c.contains("accel_l1") || c.ends_with("accel_l2") {
        "accel_cache"
    } else if c == "os" {
        "os"
    } else {
        return None;
    })
}

/// Events and estimated host time of one stratum.
#[derive(Debug, Clone, Copy, Default)]
pub struct StratumCost {
    pub events: u64,
    pub host_ns: u64,
}

/// A kernel profile folded by stratum.
#[derive(Debug, Default)]
pub struct Strata {
    pub by_stratum: BTreeMap<&'static str, StratumCost>,
    /// Events of components no stratum claims (must stay 0).
    pub unmapped_events: u64,
    /// `Wake` timer dispatches, any component.
    pub wake_events: u64,
    pub total_events: u64,
    pub total_host_ns: u64,
    pub queue_hwm: u64,
}

/// Folds the `dispatch.<component>.<class>` and `host_ns.<component>.<class>`
/// rows of a profiled report.
pub fn fold_profile(report: &Report) -> Strata {
    let mut out = Strata {
        queue_hwm: report.profile_get("queue.hwm"),
        ..Strata::default()
    };
    for (key, value) in report.profile_entries() {
        let (is_dispatch, rest) = match key.split_once('.') {
            Some(("dispatch", rest)) => (true, rest),
            Some(("host_ns", rest)) => (false, rest),
            _ => continue,
        };
        // Component names carry no dots; classes may (`Hammer.Unblock`).
        let (component, class) = rest.split_once('.').unwrap_or((rest, ""));
        match stratum_of(component) {
            Some(stratum) => {
                let cost = out.by_stratum.entry(stratum).or_default();
                if is_dispatch {
                    cost.events += value;
                } else {
                    cost.host_ns += value;
                }
            }
            None if is_dispatch => out.unmapped_events += value,
            None => {}
        }
        if is_dispatch {
            out.total_events += value;
            if class == "Wake" {
                out.wake_events += value;
            }
        } else {
            out.total_host_ns += value;
        }
    }
    out
}
