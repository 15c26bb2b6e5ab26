//! Integration tests for the observability subsystem (`xg-prof`): the
//! byte-identity guarantee of disabled instrumentation, strip-back of
//! profiled reports, the dispatched work of the stress matrix, and the
//! Chrome trace-event schema of emitted timelines.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use xg_harness::{run_stress, run_stress_with, Instrumentation, StressOpts, SystemConfig};
use xg_sim::{JsonValue, ProfileConfig};

/// Same sizing and seed as the golden fixtures in
/// `tests/golden_single_accel.rs`, so profiled runs can be compared
/// against the blessed JSON byte for byte.
const GOLDEN_SEED: u64 = 0xD1FF;

fn opts() -> StressOpts {
    StressOpts {
        ops: 400,
        ..StressOpts::default()
    }
}

fn fixture_path(cfg: &SystemConfig) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{}.json", cfg.name().replace('/', "_")))
}

/// Dispatched work of each matrix configuration's profiled golden run:
/// `events.total`, and the `Wake` timers among them (summed over
/// components). The counts are simulated statistics, exact for a seed, so
/// the gate cannot flake; each is held within [`DRIFT_PCT`] of its pin.
/// A tester that arms a second timer while one is pending (the padding of
/// the tester before it was event-driven) lifts every `Wake` count by
/// 22-33%. A change that moves one on purpose re-pins it here.
const DISPATCHED: [(&str, u64, u64); 12] = [
    ("hammer/accel_side", 2817, 405),
    ("hammer/host_side", 2942, 405),
    ("hammer/xg_full_l1", 3081, 435),
    ("hammer/xg_full_l2", 2942, 442),
    ("hammer/xg_tx_l1", 3245, 470),
    ("hammer/xg_tx_l2", 3091, 450),
    ("mesi/accel_side", 2245, 408),
    ("mesi/host_side", 2252, 409),
    ("mesi/xg_full_l1", 2486, 445),
    ("mesi/xg_full_l2", 2640, 449),
    ("mesi/xg_tx_l1", 2553, 454),
    ("mesi/xg_tx_l2", 2568, 450),
];

/// The event queue's high-water mark, the most over the twelve runs.
const QUEUE_HWM: u64 = 52;

/// How far, in percent of the pin, a dispatched-work count may move.
const DRIFT_PCT: u64 = 20;

/// Whether `now` is further than [`DRIFT_PCT`] from `pinned`.
fn drifted(pinned: u64, now: u64) -> bool {
    pinned.abs_diff(now) * 100 > pinned.max(1) * DRIFT_PCT
}

/// With instrumentation at its default (everything off), the report of
/// every matrix configuration carries no `profile` section at all — the
/// serialized JSON is byte-identical to the pre-observability goldens.
/// And with profiling *on*, stripping the profile section back out
/// recovers those same bytes: instrumentation observes the run without
/// perturbing it. The profile itself holds each run's dispatched work to
/// [`DISPATCHED`] and [`QUEUE_HWM`], and the calendar queue to its wheel
/// (no overflow, migration or rebase); the goldens pin the protocol's
/// own counters exactly.
#[test]
fn profiled_reports_strip_back_to_the_golden_bytes() {
    let mut failures = Vec::new();
    let mut drifts = Vec::new();
    let mut hwm = 0;
    let configs = SystemConfig::matrix(GOLDEN_SEED);
    assert_eq!(configs.len(), DISPATCHED.len(), "one pin per configuration");
    for (cfg, &(pinned_name, pinned_events, pinned_wakes)) in configs.iter().zip(&DISPATCHED) {
        let name = cfg.name();
        assert_eq!(name, pinned_name, "pins are in matrix order");
        let instr = Instrumentation {
            profile: ProfileConfig::on(),
            timeline: true,
            ..Instrumentation::off()
        };
        let out = run_stress_with(cfg, &opts(), &instr);
        assert_eq!(out.data_errors, 0, "{name}: run must be clean");
        assert!(!out.deadlocked, "{name}: run deadlocked");
        let json = out.report.to_json();
        assert!(
            json.contains("\"profile\""),
            "{name}: profiled run recorded no profile section"
        );
        assert!(
            out.timeline.is_some(),
            "{name}: timeline requested but not recorded"
        );
        let report = &out.report;
        let events = report.profile_get("events.total");
        let wakes: u64 = report
            .profile_entries()
            .filter(|(k, _)| k.starts_with("dispatch.") && k.ends_with(".Wake"))
            .map(|(_, n)| n)
            .sum();
        for (what, pinned, now) in [
            ("events.total", pinned_events, events),
            ("Wake", pinned_wakes, wakes),
        ] {
            if drifted(pinned, now) {
                drifts.push(format!("{name}: {what} pinned {pinned}, now {now}"));
            }
        }
        for key in ["sched.overflow", "sched.migrated", "sched.rebases"] {
            let now = report.profile_get(key);
            if now != 0 {
                drifts.push(format!("{name}: {key} pinned 0, now {now}"));
            }
        }
        hwm = hwm.max(report.profile_get("queue.hwm"));
        let stripped = report.without_profile().to_json();
        let want = fs::read_to_string(fixture_path(cfg))
            .unwrap_or_else(|e| panic!("{name}: missing golden fixture: {e}"));
        if stripped != want {
            failures.push(name);
        }
    }
    if drifted(QUEUE_HWM, hwm) {
        drifts.push(format!(
            "queue.hwm (most of all runs): pinned {QUEUE_HWM}, now {hwm}"
        ));
    }
    assert!(
        failures.is_empty() && drifts.is_empty(),
        "profiling perturbed the run (stripped report != golden) for {failures:?}; \
         dispatched work beyond {DRIFT_PCT}% of its pin:\n{}",
        drifts.join("\n")
    );
}

/// A default (uninstrumented) run serializes no `profile` key and attaches
/// no timeline, keeping disabled-mode reports byte-identical by
/// construction.
#[test]
fn disabled_instrumentation_leaves_no_trace_in_the_report() {
    let cfg = SystemConfig::matrix(GOLDEN_SEED)[2].clone();
    let out = run_stress(&cfg, &opts());
    assert_eq!(out.data_errors, 0);
    let json = out.report.to_json();
    assert!(
        !json.contains("\"profile\""),
        "default run serialized a profile section:\n{json}"
    );
    assert!(out.timeline.is_none());
}

/// Validates an emitted timeline against the Chrome trace-event format:
/// the document is `{"traceEvents": [...]}`, every event carries the
/// required `ph`/`ts`/`pid`/`tid`/`name` fields with known phase codes,
/// and `ts` is monotonically non-decreasing within every `(pid, tid)`
/// track (what Perfetto requires to render spans without warnings).
#[test]
fn emitted_timeline_conforms_to_the_chrome_trace_event_schema() {
    let cfg = SystemConfig {
        seed: GOLDEN_SEED,
        ..SystemConfig::default()
    };
    let instr = Instrumentation {
        timeline: true,
        ..Instrumentation::off()
    };
    let out = run_stress_with(&cfg, &opts(), &instr);
    let trace = out.timeline.expect("timeline was requested");

    let doc = JsonValue::parse(&trace).expect("timeline is valid JSON");
    let root = doc.as_obj().expect("timeline root is an object");
    let events = root
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("root has a traceEvents array");
    assert!(!events.is_empty(), "timeline recorded no events");

    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut phases: BTreeMap<String, usize> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_obj()
            .unwrap_or_else(|| panic!("event {i} is an object"));
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("event {i} has a ph field"));
        assert!(
            matches!(ph, "M" | "i" | "X"),
            "event {i}: unknown phase {ph:?}"
        );
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_num)
            .unwrap_or_else(|| panic!("event {i} has a numeric ts"));
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_num)
            .unwrap_or_else(|| panic!("event {i} has a numeric pid"));
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_num)
            .unwrap_or_else(|| panic!("event {i} has a numeric tid"));
        assert!(
            ev.get("name").and_then(JsonValue::as_str).is_some(),
            "event {i} has a string name"
        );
        if ph == "i" {
            assert_eq!(
                ev.get("s").and_then(JsonValue::as_str),
                Some("t"),
                "event {i}: instants carry a thread scope"
            );
        }
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(JsonValue::as_num).is_some(),
                "event {i}: complete events carry a numeric dur"
            );
        }
        *phases.entry(ph.to_owned()).or_insert(0) += 1;
        if ph != "M" {
            let track = (pid, tid);
            if let Some(&prev) = last_ts.get(&track) {
                assert!(
                    ts >= prev,
                    "event {i}: ts {ts} < {prev} on track {track:?} — not monotonic"
                );
            }
            last_ts.insert(track, ts);
        }
    }
    // A guarded stress run must produce all three phases: track metadata,
    // per-component instants, and per-address lifecycle spans.
    for ph in ["M", "i", "X"] {
        assert!(
            phases.get(ph).copied().unwrap_or(0) > 0,
            "timeline has no {ph:?} events (got {phases:?})"
        );
    }
}
