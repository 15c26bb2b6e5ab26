//! Integration tests for the observability subsystem (`xg-prof`): the
//! byte-identity guarantee of disabled instrumentation, strip-back of
//! profiled reports, and the Chrome trace-event schema of emitted
//! timelines.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use xg_core::XgVariant;
use xg_harness::{
    run_stress, run_stress_with, AccelOrg, HostProtocol, Instrumentation, StressOpts, SystemConfig,
};
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

/// With instrumentation at its default (everything off), the report of
/// every matrix configuration carries no `profile` section at all — the
/// serialized JSON is byte-identical to the pre-observability goldens.
/// And with profiling *on*, stripping the profile section back out
/// recovers those same bytes: instrumentation observes the run without
/// perturbing it.
#[test]
fn profiled_reports_strip_back_to_the_golden_bytes() {
    let mut failures = Vec::new();
    for cfg in SystemConfig::matrix(GOLDEN_SEED) {
        let instr = Instrumentation {
            profile: ProfileConfig::on(),
            timeline: true,
            ..Instrumentation::off()
        };
        let out = run_stress_with(&cfg, &opts(), &instr);
        assert_eq!(out.data_errors, 0, "{}: run must be clean", cfg.name());
        assert!(!out.deadlocked, "{}: run deadlocked", cfg.name());
        let json = out.report.to_json();
        assert!(
            json.contains("\"profile\""),
            "{}: profiled run recorded no profile section",
            cfg.name()
        );
        assert!(
            out.report.profile_get("events.total") > 0,
            "{}: no events attributed",
            cfg.name()
        );
        assert!(
            out.timeline.is_some(),
            "{}: timeline requested but not recorded",
            cfg.name()
        );
        let stripped = out.report.without_profile().to_json();
        let want = fs::read_to_string(fixture_path(&cfg))
            .unwrap_or_else(|e| panic!("{}: missing golden fixture: {e}", cfg.name()));
        if stripped != want {
            failures.push(cfg.name());
        }
    }
    assert!(
        failures.is_empty(),
        "profiling perturbed the run (stripped report != golden) for {failures:?}"
    );
}

/// The tester is event-driven: dispatched events scale with completed
/// operations (about 7 per op), and `Wake` issue timers are a minority of
/// them (about one in six). A tester that pads the queue with idle timers
/// reads hundreds of events per op and 99% `Wake`, so the bounds sit an
/// order of magnitude from both. The counts are simulated statistics,
/// exact for a seed: the gate cannot flake.
#[test]
fn dispatched_events_scale_with_completed_ops() {
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        let cfg = SystemConfig {
            host,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
            seed: GOLDEN_SEED,
            ..SystemConfig::default()
        };
        let opts = StressOpts {
            ops: 2_000,
            ..StressOpts::default()
        };
        let out = run_stress_with(&cfg, &opts, &Instrumentation::profiled());
        let name = cfg.name();
        assert!(!out.deadlocked, "{name}: deadlocked");
        assert!(out.completed >= opts.ops, "{name}: {} ops", out.completed);
        let events = out.report.profile_get("events.total");
        let wakes: u64 = out
            .report
            .profile_entries()
            .filter(|(k, _)| k.starts_with("dispatch.") && k.ends_with(".Wake"))
            .map(|(_, n)| n)
            .sum();
        assert!(
            events <= 40 * out.completed,
            "{name}: {events} events for {} ops",
            out.completed
        );
        assert!(
            wakes * 2 < events,
            "{name}: {wakes} of {events} dispatches are Wake timers"
        );
    }
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
