//! Determinism check for the parallel sweep executor, and the keeper of
//! the in-tree deterministic drift gate (`BENCH_sweep.json`).
//!
//! Runs the *same* profiled stress sweep (the full 12-configuration
//! [`SystemConfig::matrix`] crossed with several seeds) twice — once at
//! `jobs=1` (the exact legacy serial path) and once at `jobs=N` — then:
//!
//! * asserts the merged machine-readable reports are **byte-identical**
//!   once the wall-clock-derived `host_ns.*` profile keys are set aside
//!   (every other profile counter — dispatch counts, queue high-water
//!   marks, epoch series — must match exactly too: the determinism
//!   guarantee the sweep executor makes);
//! * prints wall-clock times, simulated-op throughput and the parallel
//!   speedup on stderr (informational: they differ per runner, so they are
//!   never written to the file — wall clock is `benchmark/`'s job);
//! * writes `BENCH_sweep.json`: the sweep shape plus a `profile` section
//!   (total dispatches, events per op, queue high-water mark, scheduler
//!   operation counters, top event types). Every field is a deterministic
//!   function of the code, so the file moves only when a change alters how
//!   much work the sweep does.
//!
//! ```text
//! cargo run --release -p xg-bench --bin xg-sweep-bench -- --out BENCH_sweep.json
//! cargo run --release -p xg-bench --bin xg-sweep-bench -- --jobs 8
//! cargo run --release -p xg-bench --bin xg-sweep-bench -- --check
//! ```
//!
//! `--check` regenerates the numbers and compares every numeric field
//! against the committed file instead of overwriting it. Drift beyond 20%
//! on any field fails with a per-key diff and a regeneration hint, so CI
//! catches when a code change silently changes how much work the sweep
//! does.

use std::collections::BTreeMap;
use std::time::Instant;

use xg_bench::cli::{self, arg_value};
use xg_harness::{run_stress_with, sweep, Instrumentation, StressOpts, SystemConfig};
use xg_sim::{JsonValue, Report};

/// Ops per shard. Unchanged since the first committed `BENCH_sweep.json`.
const OPS: u64 = 800;
/// Seeds crossed with the 12-configuration matrix: 48 shards total.
const SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Hot event types kept in the committed profile section.
const TOP_EVENTS: usize = 8;
/// Relative drift tolerance of `--check`, in percent.
const DRIFT_PCT: u64 = 20;

/// Runs the whole sweep at one worker count with kernel profiling on,
/// returning the merged report and the wall-clock milliseconds it took.
fn run_once(shards: &[(SystemConfig, u64)], jobs: usize) -> (Report, f64) {
    let t0 = Instant::now();
    let reports = sweep(shards.to_vec(), jobs, |(cfg, _), _| {
        run_stress_with(
            &cfg,
            &StressOpts {
                ops: OPS,
                ..StressOpts::default()
            },
            &Instrumentation::profiled(),
        )
        .report
    });
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    (Report::merge_shards(&reports), wall)
}

/// The deterministic profile subset: everything except the sampled
/// wall-clock `host_ns.*` attribution, which legitimately varies run to
/// run and machine to machine.
fn deterministic_profile(report: &Report) -> Vec<(String, u64)> {
    report
        .profile_entries()
        .filter(|(k, _)| !k.starts_with("host_ns."))
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

/// Builds the committed `profile` section: total dispatches and
/// dispatches per requested op (the gate that keeps the tester
/// event-driven), the event-queue high-water mark, and the top event types
/// by dispatch count aggregated by protocol-qualified class (summed across
/// components).
fn profile_section(report: &Report, total_ops: u64) -> JsonValue {
    let mut by_class: BTreeMap<String, u64> = BTreeMap::new();
    for (k, v) in report.profile_entries() {
        if let Some(rest) = k.strip_prefix("dispatch.") {
            // dispatch.<component>.<class>: the class starts after the
            // component segment.
            let class = rest.split_once('.').map_or(rest, |(_, c)| c);
            *by_class.entry(class.to_owned()).or_insert(0) += v;
        }
    }
    let mut ranked: Vec<(String, u64)> = by_class.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    ranked.truncate(TOP_EVENTS);
    let mut top = BTreeMap::new();
    for (class, count) in ranked {
        top.insert(class, JsonValue::Num(count));
    }
    let mut sched = BTreeMap::new();
    for key in ["pushes", "pops", "overflow", "migrated", "rebases"] {
        sched.insert(
            key.to_owned(),
            JsonValue::Num(report.profile_get(&format!("sched.{key}"))),
        );
    }
    let mut section = BTreeMap::new();
    section.insert(
        "events_total".to_owned(),
        JsonValue::Num(report.profile_get("events.total")),
    );
    section.insert(
        "events_per_op_milli".to_owned(),
        JsonValue::Num(report.profile_get("events.total") * 1_000 / total_ops),
    );
    section.insert(
        "queue_hwm".to_owned(),
        JsonValue::Num(report.profile_get("queue.hwm")),
    );
    section.insert("sched".to_owned(), JsonValue::Obj(sched));
    section.insert("top_events".to_owned(), JsonValue::Obj(top));
    JsonValue::Obj(section)
}

/// Renders the benchmark result as a (integer-only, deterministic key
/// order) JSON document. Nothing machine-dependent goes in.
fn bench_json(shards: usize, profile: JsonValue) -> JsonValue {
    let mut doc = BTreeMap::new();
    doc.insert(
        "bench".to_owned(),
        JsonValue::Str("sweep_speedup".to_owned()),
    );
    doc.insert("deterministic".to_owned(), JsonValue::Num(1));
    doc.insert("shards".to_owned(), JsonValue::Num(shards as u64));
    doc.insert("ops_per_shard".to_owned(), JsonValue::Num(OPS));
    doc.insert("profile".to_owned(), profile);
    JsonValue::Obj(doc)
}

/// Flattens every numeric field of a benchmark document to dotted keys.
fn gated_fields(doc: &JsonValue) -> BTreeMap<String, u64> {
    fn flatten(key: &str, v: &JsonValue, out: &mut BTreeMap<String, u64>) {
        match v {
            JsonValue::Num(n) => {
                out.insert(key.to_owned(), *n);
            }
            JsonValue::Obj(m) => {
                for (k, v) in m {
                    flatten(&format!("{key}.{k}"), v, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    for (k, v) in doc.as_obj().into_iter().flatten() {
        flatten(k, v, &mut out);
    }
    out
}

/// Compares fresh numbers against the committed file: every gated field
/// must exist on both sides and agree within [`DRIFT_PCT`] percent.
fn check_drift(committed: &JsonValue, fresh: &JsonValue) -> Vec<String> {
    let old = gated_fields(committed);
    let new = gated_fields(fresh);
    let keys: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
    let mut drifts = Vec::new();
    for key in keys {
        match (old.get(key), new.get(key)) {
            (Some(&o), Some(&n)) => {
                if o.abs_diff(n) * 100 > o.max(1) * DRIFT_PCT {
                    drifts.push(format!("{key}: committed {o}, measured {n}"));
                }
            }
            (Some(&o), None) => drifts.push(format!("{key}: committed {o}, now missing")),
            (None, Some(&n)) => drifts.push(format!("{key}: not committed, now {n}")),
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    drifts
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::refuse_unknown(&args, &["--out", "--jobs"], &["--check"]);
    cli::trace_switch();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_sweep.json".into());
    let check = args.iter().any(|a| a == "--check");
    let jobs = cli::jobs(&args);

    // Read the committed file before the sweep: an unreadable or malformed
    // one is reported at once, not after a minute of simulation.
    let committed = check.then(|| {
        let text = std::fs::read_to_string(&out_path).unwrap_or_else(|e| {
            eprintln!("--check: failed to read {out_path}: {e}");
            std::process::exit(1);
        });
        JsonValue::parse(&text).unwrap_or_else(|e| {
            eprintln!("--check: failed to parse {out_path}: {e}");
            std::process::exit(1);
        })
    });

    let mut shards: Vec<(SystemConfig, u64)> = Vec::new();
    for seed in SEEDS {
        for cfg in SystemConfig::matrix(seed) {
            shards.push((cfg, seed));
        }
    }
    let total_ops = OPS * shards.len() as u64;
    eprintln!(
        "sweep bench: {} shards x {} ops, serial then jobs={jobs}",
        shards.len(),
        OPS
    );

    let (serial_report, serial_ms) = run_once(&shards, 1);
    let (parallel_report, parallel_ms) = run_once(&shards, jobs);

    // Determinism gate. The profile's host-time attribution is sampled
    // wall clock — the one legitimately nondeterministic thing a profiled
    // run records — so it is set aside; everything else must be
    // byte-identical, including the deterministic profile counters.
    let serial_json = serial_report.without_profile().to_json();
    let parallel_json = parallel_report.without_profile().to_json();
    assert_eq!(
        serial_json, parallel_json,
        "determinism violated: jobs=1 and jobs={jobs} merged reports differ"
    );
    assert_eq!(
        deterministic_profile(&serial_report),
        deterministic_profile(&parallel_report),
        "determinism violated: jobs=1 and jobs={jobs} profile counters differ"
    );

    let speedup = serial_ms / parallel_ms.max(1e-9);
    let total_events = serial_report.profile_get("events.total");
    let ops_per_sec = |ms: f64| total_ops as f64 / (ms / 1e3).max(1e-9);
    eprintln!(
        "serial {serial_ms:.0} ms ({:.0} ops/s), jobs={jobs} {parallel_ms:.0} ms \
         ({:.0} ops/s), speedup {speedup:.2}x, {:.1} events/op; merged reports byte-identical",
        ops_per_sec(serial_ms),
        ops_per_sec(parallel_ms),
        total_events as f64 / total_ops as f64,
    );
    let doc = bench_json(shards.len(), profile_section(&serial_report, total_ops));

    if let Some(committed) = committed {
        let drifts = check_drift(&committed, &doc);
        if drifts.is_empty() {
            println!("{out_path} is fresh: every field within {DRIFT_PCT}%");
            return;
        }
        eprintln!(
            "{out_path} drifted beyond {DRIFT_PCT}% on {} field(s):",
            drifts.len()
        );
        for d in &drifts {
            eprintln!("  {d}");
        }
        eprintln!(
            "regenerate it with `cargo run --release -p xg-bench --bin xg-sweep-bench -- \
             --out {out_path}` and commit the result"
        );
        std::process::exit(1);
    }

    let json = format!("{doc}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("written to {out_path}");
}
