//! Self-measuring speedup benchmark for the parallel sweep executor, and
//! the keeper of the in-tree perf trajectory (`BENCH_sweep.json`).
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
//! * writes `BENCH_sweep.json` with wall-clock times, aggregate
//!   simulated-op throughput (the headline, printed first together with
//!   dispatched events per op), dispatched-event throughput, the parallel
//!   speedup, and a `profile` section (total dispatches, events per op,
//!   queue high-water mark, scheduler operation counters, top event
//!   types) so the repo carries a reviewable perf trajectory.
//!
//! It then measures *intra-run* parallelism — ONE simulation partitioned
//! across home-bank/hierarchy/CPU shards on the time-window executor —
//! at `threads=1` vs `threads=W`, asserts the two runs are byte-identical
//! (report and deterministic `par.*` counters), and records the result in
//! an `intra_run` section: partition shape, window/cross-shard counters
//! (drift-gated), and wall-clock speedup (informational).
//!
//! ```text
//! cargo run --release -p xg-bench --bin xg-sweep-bench -- --out BENCH_sweep.json
//! cargo run --release -p xg-bench --bin xg-sweep-bench -- --jobs 8
//! cargo run --release -p xg-bench --bin xg-sweep-bench -- --check
//! ```
//!
//! `--check` regenerates the numbers and compares the *machine-independent*
//! fields (`shards`, `ops_per_shard`, everything under `profile` and
//! `intra_run`) against the committed file instead of overwriting it.
//! Drift beyond 20% on any field fails with a per-key diff and a
//! regeneration hint, so CI catches when a code change silently changes
//! how much work the sweep does. Wall-clock fields — every `*_ns`/`*_ms`
//! key plus the derived speedups and throughputs — are informational and
//! never gated; they differ per runner by design.

use std::collections::BTreeMap;
use std::time::Instant;

use xg_harness::{run_stress_with, sweep, Instrumentation, StressOpts, SystemConfig};
use xg_sim::{JsonValue, Report};

/// Ops per shard. Unchanged since the first committed `BENCH_sweep.json`,
/// so `serial_ops_per_sec` reads as one trajectory across PRs.
const OPS: u64 = 800;
/// Seeds crossed with the 12-configuration matrix: 48 shards total.
const SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Hot event types kept in the committed profile section.
const TOP_EVENTS: usize = 8;
/// Relative drift tolerance of `--check`, in percent.
const DRIFT_PCT: u64 = 20;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("{flag} requires a value argument");
                std::process::exit(2);
            })
            .clone()
    })
}

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

/// The deterministic profile subset: everything except sampled wall clock
/// — `host_ns.*` attribution and any other `*_ns` counter (e.g. the
/// partitioned executor's `par.barrier_wait_ns`) — which legitimately
/// varies run to run and machine to machine.
fn deterministic_profile(report: &Report) -> Vec<(String, u64)> {
    report
        .profile_entries()
        .filter(|(k, _)| !k.starts_with("host_ns.") && !k.ends_with("_ns"))
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

/// Ops for the intra-run measurement: one simulation, so it needs to be
/// long enough that per-window barrier costs amortize.
const INTRA_OPS: u64 = 6_000;
/// Home banks for the intra-run partition (banks + hierarchies + CPU
/// pairs = the shard count the executor can spread across workers).
const INTRA_BANKS: usize = 4;

/// Runs the representative guarded config ONCE on the partitioned
/// executor with `threads` workers, returning the profiled report and
/// wall-clock milliseconds.
fn run_intra(threads: usize) -> (Report, f64) {
    let cfg = SystemConfig {
        home_banks: INTRA_BANKS,
        threads,
        seed: 21,
        ..SystemConfig::default()
    };
    let t0 = Instant::now();
    let out = run_stress_with(
        &cfg,
        &StressOpts {
            ops: INTRA_OPS,
            ..StressOpts::default()
        },
        &Instrumentation::profiled(),
    );
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        !out.deadlocked && out.data_errors == 0,
        "intra-run bench config must run clean (threads={threads})"
    );
    (out.report, wall)
}

/// Measures intra-run scaling at `threads=1` vs `threads=workers`, gates
/// byte-identity, and renders the `intra_run` section. Deterministic
/// partition counters (shards, windows, delta, cross-shard messages) are
/// drift-gated; `*_ms` wall clock and the derived speedup are not.
fn intra_run_section(workers: usize) -> JsonValue {
    let (oracle, serial_ms) = run_intra(1);
    let (parallel, parallel_ms) = run_intra(workers);
    assert_eq!(
        oracle.without_profile().to_json(),
        parallel.without_profile().to_json(),
        "determinism violated: threads=1 and threads={workers} reports differ"
    );
    assert_eq!(
        deterministic_profile(&oracle),
        deterministic_profile(&parallel),
        "determinism violated: threads=1 and threads={workers} par counters differ"
    );
    let speedup_milli = (serial_ms / parallel_ms.max(1e-9) * 1e3) as u64;
    let mut section = BTreeMap::new();
    section.insert("banks".to_owned(), JsonValue::Num(INTRA_BANKS as u64));
    section.insert("threads".to_owned(), JsonValue::Num(workers as u64));
    section.insert("ops".to_owned(), JsonValue::Num(INTRA_OPS));
    section.insert(
        "shards".to_owned(),
        JsonValue::Num(oracle.profile_get("par.shards")),
    );
    section.insert(
        "windows".to_owned(),
        JsonValue::Num(oracle.profile_get("par.windows")),
    );
    section.insert(
        "delta".to_owned(),
        JsonValue::Num(oracle.profile_get("par.delta")),
    );
    section.insert(
        "xshard_sent".to_owned(),
        JsonValue::Num(oracle.profile_get("par.xshard.sent")),
    );
    section.insert(
        "serial_wall_ms".to_owned(),
        JsonValue::Num(serial_ms as u64),
    );
    section.insert(
        "parallel_wall_ms".to_owned(),
        JsonValue::Num(parallel_ms as u64),
    );
    section.insert("speedup_milli".to_owned(), JsonValue::Num(speedup_milli));
    JsonValue::Obj(section)
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

/// Renders the whole benchmark result as a (integer-only, deterministic
/// key order) JSON document.
#[allow(clippy::too_many_arguments)]
fn bench_json(
    shards: usize,
    jobs: usize,
    serial_ms: f64,
    parallel_ms: f64,
    total_ops: u64,
    total_events: u64,
    profile: JsonValue,
    intra_run: JsonValue,
) -> JsonValue {
    let ops_per_sec = |ms: f64| (total_ops as f64 / (ms / 1e3).max(1e-9)) as u64;
    let events_per_sec = |ms: f64| (total_events as f64 / (ms / 1e3).max(1e-9)) as u64;
    let speedup_milli = (serial_ms / parallel_ms.max(1e-9) * 1e3) as u64;
    let mut doc = BTreeMap::new();
    doc.insert(
        "bench".to_owned(),
        JsonValue::Str("sweep_speedup".to_owned()),
    );
    doc.insert("deterministic".to_owned(), JsonValue::Num(1));
    doc.insert("shards".to_owned(), JsonValue::Num(shards as u64));
    doc.insert("ops_per_shard".to_owned(), JsonValue::Num(OPS));
    doc.insert("jobs".to_owned(), JsonValue::Num(jobs as u64));
    doc.insert(
        "serial_wall_ms".to_owned(),
        JsonValue::Num(serial_ms as u64),
    );
    doc.insert(
        "parallel_wall_ms".to_owned(),
        JsonValue::Num(parallel_ms as u64),
    );
    doc.insert(
        "serial_ops_per_sec".to_owned(),
        JsonValue::Num(ops_per_sec(serial_ms)),
    );
    doc.insert(
        "parallel_ops_per_sec".to_owned(),
        JsonValue::Num(ops_per_sec(parallel_ms)),
    );
    // Kernel throughput in dispatched events: machine-dependent,
    // informational, never gated — and not the headline, since it rises
    // with idle timers as happily as with useful work. `*_ops_per_sec`
    // above and `profile.events_per_op_milli` are the figures to quote.
    doc.insert(
        "serial_events_per_sec".to_owned(),
        JsonValue::Num(events_per_sec(serial_ms)),
    );
    doc.insert(
        "parallel_events_per_sec".to_owned(),
        JsonValue::Num(events_per_sec(parallel_ms)),
    );
    doc.insert("speedup_milli".to_owned(), JsonValue::Num(speedup_milli));
    doc.insert(
        "profile".to_owned(),
        JsonValue::Obj(profile.as_obj().cloned().unwrap_or_default()),
    );
    doc.insert(
        "intra_run".to_owned(),
        JsonValue::Obj(intra_run.as_obj().cloned().unwrap_or_default()),
    );
    JsonValue::Obj(doc)
}

/// Flattens the gated (machine-independent) numeric fields of a benchmark
/// document to dotted keys.
fn gated_fields(doc: &JsonValue) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(obj) = doc.as_obj() else { return out };
    for key in ["shards", "ops_per_shard"] {
        if let Some(n) = obj.get(key).and_then(JsonValue::as_num) {
            out.insert(key.to_owned(), n);
        }
    }
    fn flatten(prefix: &str, v: &JsonValue, out: &mut BTreeMap<String, u64>) {
        // Wall clock and anything derived from it (speedups, throughput
        // rates) differ per runner by design — never gate them.
        if prefix.ends_with("_ns")
            || prefix.ends_with("_ms")
            || prefix.contains("speedup")
            || prefix.contains("per_sec")
        {
            return;
        }
        match v {
            JsonValue::Num(n) => {
                out.insert(prefix.to_owned(), *n);
            }
            JsonValue::Obj(m) => {
                for (k, v) in m {
                    flatten(&format!("{prefix}.{k}"), v, out);
                }
            }
            _ => {}
        }
    }
    if let Some(profile) = obj.get("profile") {
        flatten("profile", profile, &mut out);
    }
    if let Some(intra) = obj.get("intra_run") {
        flatten("intra_run", intra, &mut out);
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
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_sweep.json".into());
    let check = args.iter().any(|a| a == "--check");
    let jobs = match arg_value(&args, "--jobs") {
        Some(raw) => xg_harness::resolve_jobs(Some(xg_harness::sweep::parse_jobs(&raw))),
        None => xg_harness::resolve_jobs(None),
    };

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

    // Intra-run scaling: ONE simulation spread across its shard partition.
    let intra_workers = jobs.clamp(2, 8);
    eprintln!(
        "intra-run bench: 1 sim x {INTRA_OPS} ops, {INTRA_BANKS} banks, \
         threads=1 then threads={intra_workers}"
    );
    let intra = intra_run_section(intra_workers);
    let intra_speedup = intra
        .as_obj()
        .and_then(|m| m.get("speedup_milli"))
        .and_then(JsonValue::as_num)
        .unwrap_or(0) as f64
        / 1e3;

    let speedup = serial_ms / parallel_ms.max(1e-9);
    let total_events = serial_report.profile_get("events.total");
    let doc = bench_json(
        shards.len(),
        jobs,
        serial_ms,
        parallel_ms,
        total_ops,
        total_events,
        profile_section(&serial_report, total_ops),
        intra,
    );
    let headline = format!(
        "serial {:.0} ops/s, {:.1} events/op",
        total_ops as f64 / (serial_ms / 1e3).max(1e-9),
        total_events as f64 / total_ops as f64,
    );

    if check {
        let committed_text = std::fs::read_to_string(&out_path).unwrap_or_else(|e| {
            eprintln!("--check: failed to read {out_path}: {e}");
            std::process::exit(1);
        });
        let committed = JsonValue::parse(&committed_text).unwrap_or_else(|e| {
            eprintln!("--check: failed to parse {out_path}: {e}");
            std::process::exit(1);
        });
        let drifts = check_drift(&committed, &doc);
        if drifts.is_empty() {
            println!(
                "{headline}; {out_path} is fresh: all gated fields within {DRIFT_PCT}% \
                 (serial {serial_ms:.0} ms, jobs={jobs} {parallel_ms:.0} ms, \
                 speedup {speedup:.2}x)"
            );
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
    println!(
        "sweep: {headline}; serial {serial_ms:.0} ms, jobs={jobs} {parallel_ms:.0} ms, \
         speedup {speedup:.2}x \
         (merged reports byte-identical); intra-run: threads={intra_workers} speedup \
         {intra_speedup:.2}x (reports byte-identical); written to {out_path}"
    );
}
