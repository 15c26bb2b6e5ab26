//! The repository's benchmark. See `README.md` for the metric and workload
//! tables, and `BENCHMARK.json` at the repository root for the contract.
//!
//! ```text
//! xg-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! xg-benchmark [--seed N] [--runs K] [--out FILE]              every workload, as a table
//! xg-benchmark --compare A.json B.json                         apply the bounds row by row
//! xg-benchmark --selfcheck [--seed N] [--runs K]               two passes of one build must agree
//! ```
//!
//! A run executes its workload in a **child process** (this binary again,
//! with `--worker`) under a wall-clock deadline, because the program can
//! livelock at zero simulated time where none of its own watchdogs fire; a
//! child that has to be killed counts as one attempted, one failed.

mod calib;
mod json;
mod micro;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use calib::Clock;
use json::Json;
use spec::{MetricSpec, Metrics, Spec, EXACT};
use stats::{median, percentile, quartiles};
use trace::{fold_profile, Spans, Strata, STRATA};
use workloads::{generate, run_iteration, Inputs, Iteration};
use xg_sim::Report;

/// Set-ups per run: `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed iterations a run reports a median over.
const MIN_ITERATIONS: usize = 5;
/// Part of a traced run's `--seconds` kept for the micro-timings.
const MICRO_RESERVE_S: f64 = 4.0;
/// Default `--seed`: the parent commit finishes every workload under it
/// with nothing failed.
const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: bool,
    spans: Option<String>,
    deadline_s: Option<f64>,
    out: Option<String>,
    runs: usize,
    compare: Option<(String, String)>,
    selfcheck: bool,
}

fn usage() -> ! {
    let workloads: Vec<String> = Spec::load().workloads.into_iter().map(|w| w.0).collect();
    eprintln!(
        "usage: xg-benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--spans FILE]\n\
         \x20      xg-benchmark [--seed N] [--seconds S] [--runs K] [--out FILE]\n\
         \x20      xg-benchmark --compare A.json B.json\n\
         \x20      xg-benchmark --selfcheck [--seed N] [--seconds S] [--runs K]",
        workloads.join("|")
    );
    std::process::exit(2)
}

fn parse_args(spec: &Spec) -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        worker: false,
        spans: None,
        deadline_s: None,
        out: None,
        runs: 1,
        compare: None,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    fn value<T: std::str::FromStr>(flag: &str, it: &mut impl Iterator<Item = String>) -> T {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a valid value");
            usage()
        })
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)),
            "--seed" => args.seed = value(&flag, &mut it),
            "--seconds" => args.seconds = value(&flag, &mut it),
            "--trace" => args.trace = value::<u8>(&flag, &mut it) != 0,
            "--worker" => args.worker = true,
            "--spans" => args.spans = Some(value(&flag, &mut it)),
            "--deadline-s" => args.deadline_s = Some(value(&flag, &mut it)),
            "--out" => args.out = Some(value(&flag, &mut it)),
            "--runs" => args.runs = value::<usize>(&flag, &mut it).max(1),
            "--compare" => args.compare = Some((value(&flag, &mut it), value(&flag, &mut it))),
            "--selfcheck" => args.selfcheck = true,
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = parse_args(&spec);
    if let Some((a, b)) = &args.compare {
        return compare_files(&spec, a, b);
    }
    if args.selfcheck {
        let first = suite(&spec, &args);
        let second = suite(&spec, &args);
        return compare(&spec, &first, &second);
    }
    let Some(workload) = args.workload.clone() else {
        let doc = suite(&spec, &args);
        if let Some(path) = &args.out {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    };
    if workload != "spin" && generate(&workload, args.seed).is_none() {
        eprintln!("unknown workload {workload:?}");
        usage();
    }
    let result = if args.worker {
        worker(&spec, &workload, &args)
    } else {
        run_child(&spec, &workload, &args)
    };
    println!("{result}");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Result lines
// ---------------------------------------------------------------------------

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(attempted.max(1) as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("metrics".to_owned(), metrics),
    ])
}

fn rows_for(spec: &Spec, trace: bool) -> &[MetricSpec] {
    if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

// ---------------------------------------------------------------------------
// Parent side: the child process and its deadline
// ---------------------------------------------------------------------------

/// Runs `workload` in a child process and returns its result line. A child
/// that outlives its deadline is killed; that, a crash, or an unreadable
/// result all come back as one attempted, one failed.
fn run_child(spec: &Spec, workload: &str, args: &Args) -> Json {
    // Expected: SETUP_REPS + MIN_ITERATIONS iterations or `--seconds`,
    // whichever is longer. Several times that, but inside the 180 s a run
    // may take.
    let deadline = Duration::from_secs_f64(
        args.deadline_s
            .unwrap_or((4.0 * args.seconds + 60.0).min(170.0)),
    );
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.arg("--worker")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(path) = &args.spans {
        cmd.args(["--spans", path]);
    }
    let mut child = cmd.spawn().expect("spawn worker");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().expect("poll worker") {
            Some(status) => break Some(status),
            None if started.elapsed() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().expect("stdout reader");
    let line = text.lines().last().unwrap_or("");
    match (status, Json::parse(line)) {
        (Some(status), Ok(result)) if status.success() && result.get("metrics").is_some() => result,
        (status, _) => {
            match status {
                None => eprintln!(
                    "{workload}: worker killed at its {:.0} s deadline",
                    deadline.as_secs_f64()
                ),
                Some(status) => eprintln!("{workload}: worker failed ({status})"),
            }
            result_line(
                false,
                1,
                1,
                Metrics::default().to_json(rows_for(spec, args.trace)),
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Child side: one run of one workload
// ---------------------------------------------------------------------------

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Running tally of a run's correctness.
struct Tally {
    reference: Option<u64>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts an iteration and holds its digest to the first one's.
    fn count(&mut self, it: &Iteration, what: &str) {
        self.attempted += it.attempted;
        self.failed += it.failed;
        let reference = *self.reference.get_or_insert(it.digest);
        if it.digest != reference {
            eprintln!(
                "sim_digest differs on {what}: {:016x} vs {reference:016x}",
                it.digest
            );
            self.correct = false;
        }
    }
}

fn worker(spec: &Spec, workload: &str, args: &Args) -> Json {
    if workload == "spin" {
        // The deadline test's worker: never finishes.
        loop {
            std::hint::spin_loop();
        }
    }
    let mut tally = Tally {
        reference: None,
        correct: true,
        attempted: 0,
        failed: 0,
    };
    let metrics = if args.trace {
        traced_run(workload, args, &mut tally)
    } else {
        timed_run(workload, args, &mut tally)
    };
    result_line(
        tally.correct,
        tally.attempted,
        tally.failed,
        metrics.to_json(rows_for(spec, args.trace)),
    )
}

/// `--trace 0`: set up [`SETUP_REPS`] times, then time identical
/// iterations for `--seconds` (at least [`MIN_ITERATIONS`]), tracing off.
fn timed_run(workload: &str, args: &Args, tally: &mut Tally) -> Metrics {
    let mut off = Spans::new(false);
    let mut clock = Clock::new();
    let mut setups = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        // Set-up is input generation plus one warm-up iteration, which
        // fills the program's lazily built tables and the allocator.
        let t = Instant::now();
        let generated = generate(workload, args.seed).expect("known workload");
        let generating = t.elapsed().as_secs_f64();
        let warm = run_iteration(&generated, false, &mut off, &mut clock);
        setups.push(generating * warm.speed + warm.ref_s);
        tally.count(&warm, &format!("warm-up {rep}"));
        inputs = Some(generated);
    }
    let inputs = inputs.expect("SETUP_REPS > 0");

    let started = Instant::now();
    let (mut rates, mut raw_rates, mut speeds, mut calls) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut covered_pairs = 0;
    while rates.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < args.seconds {
        let it = run_iteration(&inputs, false, &mut off, &mut clock);
        tally.count(&it, &format!("iteration {}", rates.len()));
        rates.push(it.units as f64 / it.ref_s);
        raw_rates.push(it.units as f64 / it.wall_s);
        speeds.push(it.speed);
        calls += it.call_ms.len();
        covered_pairs = it.covered_pairs;
    }

    let mut m = Metrics::default();
    let (q1, q3) = quartiles(&mut rates);
    eprintln!(
        "{workload}: {} iterations, {calls} program calls; work_per_s quartiles {q1:.1} .. {q3:.1} \
         per reference second; {:.1} per wall second at host speed {:.3}",
        rates.len(),
        median(&mut raw_rates),
        median(&mut speeds),
    );
    m.set("work_per_s", median(&mut rates));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("covered_pairs", covered_pairs as f64);
    m.set("setup_s", median(&mut setups));
    m
}

/// `--trace 1`: pairs of (untraced, traced) iterations for `--seconds`
/// less the micro-timing reserve, then the micro-timings.
fn traced_run(workload: &str, args: &Args, tally: &mut Tally) -> Metrics {
    let inputs = generate(workload, args.seed).expect("known workload");
    let mut off = Spans::new(false);
    let mut spans = Spans::new(true);
    let mut clock = Clock::new();
    tally.count(
        &run_iteration(&inputs, false, &mut off, &mut clock),
        "warm-up",
    );

    let started = Instant::now();
    let (mut plain_ms, mut traced_ms, mut call_ms, mut speeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Iteration> = None;
    // `Report::merge` sums profile rows, so merging the traced iterations'
    // reports pools their sampled host time.
    let mut pooled_profile = Report::new();
    loop {
        let plain = run_iteration(&inputs, false, &mut off, &mut clock);
        tally.count(&plain, "untraced iteration");
        plain_ms.push(plain.ref_s * 1e3);
        speeds.push(plain.speed);
        call_ms.extend(plain.call_ms);
        spans.run_id = traced_ms.len() as u32;
        let traced = run_iteration(&inputs, true, &mut spans, &mut clock);
        tally.count(&traced, "traced iteration");
        traced_ms.push(traced.ref_s * 1e3);
        if let Some(profile) = &traced.profile {
            pooled_profile.merge(profile);
        }
        first.get_or_insert(traced);
        if started.elapsed().as_secs_f64() + MICRO_RESERVE_S >= args.seconds {
            break;
        }
    }
    let first = first.expect("at least one traced iteration");
    let iterations = traced_ms.len() as f64;
    let wall_ms = median(&mut traced_ms);
    let plain_wall_ms = median(&mut plain_ms);

    // The micro-timings run after the iterations, so they are put into
    // reference time with the iterations' median host speed.
    let speed = median(&mut speeds);
    let mut m = Metrics::default();
    micro::run_all(args.seed, |name, value| m.set(name, value * speed));

    // Exact simulated statistics.
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set("sim.digest48", (first.digest & ((1 << 48) - 1)) as f64);
    m.set("sim.cycles_per_op", ratio(first.sim_cycles, first.sim_ops));
    m.set("sim.xg_overhead_pct", first.xg_overhead_pct);
    m.set("sim.findings", first.findings as f64);
    m.set("sim.ops_per_iteration", first.sim_ops as f64);
    m.set("sim.cycles_per_iteration", first.sim_cycles as f64);
    if let Inputs::Check(..) = inputs {
        m.set("check.states", first.attempted as f64);
        m.set("check.replays", first.replays as f64);
        m.set(
            "check.replays_per_state",
            ratio(first.replays, first.attempted),
        );
        m.set(
            "check.build_share_pct",
            first.replays as f64 * m.get("check.build_world_us") / (plain_wall_ms * 1e3) * 100.0,
        );
    }
    if let Inputs::Campaign(..) = inputs {
        m.set(
            "harness.campaign.build_share_pct",
            first.sims as f64 * m.get("harness.build_system_us") / (plain_wall_ms * 1e3) * 100.0,
        );
    }

    // The kernel profile, folded by stratum. Event counts are exact and
    // come from one iteration; host time is sampled, so it is pooled over
    // every traced iteration.
    if let Some(one) = first.profile.as_ref().map(fold_profile) {
        let pooled = fold_profile(&pooled_profile);
        if pooled.total_events != one.total_events * traced_ms.len() as u64 {
            eprintln!("dispatch counts differ between traced iterations");
            tally.correct = false;
        }
        if one.unmapped_events > 0 {
            eprintln!(
                "{} events of components no stratum maps",
                one.unmapped_events
            );
            tally.correct = false;
        }
        for stratum in STRATA {
            let cost = |s: &Strata| s.by_stratum.get(stratum).copied().unwrap_or_default();
            m.set(format!("trace.{stratum}.events"), cost(&one).events as f64);
            m.set(
                format!("trace.{stratum}.host_ns_per_event"),
                ratio(cost(&pooled).host_ns, cost(&pooled).events) * speed,
            );
            m.set(
                format!("trace.{stratum}.share_pct"),
                ratio(cost(&pooled).host_ns, pooled.total_host_ns) * 100.0,
            );
        }
        m.set("trace.unmapped.events", one.unmapped_events as f64);
        m.set(
            "trace.wake_share_pct",
            ratio(one.wake_events, one.total_events) * 100.0,
        );
        m.set("trace.events", one.total_events as f64);
        m.set(
            "trace.host_ns_per_event",
            ratio(pooled.total_host_ns, pooled.total_events) * speed,
        );
        m.set("sim.events_per_op", ratio(one.total_events, first.sim_ops));
        m.set("sim.queue_hwm", one.queue_hwm as f64);
    }
    m.set(
        "trace.overhead_pct",
        (wall_ms / plain_wall_ms - 1.0) * 100.0,
    );
    m.set("run_wall_ms_p50", median(&mut call_ms));
    m.set("run_wall_ms_p90", percentile(&mut call_ms, 90.0));
    m.set("run_wall_samples", call_ms.len() as f64);
    m.set("trace.iterations", iterations);
    m.set("trace.sims_per_iteration", first.sims as f64);
    m.set("trace.iteration_wall_ms", wall_ms);
    m.set("trace.untraced_wall_ms", plain_wall_ms);
    m.set("trace.spans", spans.spans.len() as f64);
    m.set("host.speed", speed);

    // Where an iteration's wall time goes, from the benchmark's own spans.
    let mut self_ns = spans.self_ns_by_name();
    self_ns.remove("calibrate");
    let total_ns: u64 = self_ns.values().sum();
    let share = |name: &str| ratio(self_ns.get(name).copied().unwrap_or(0), total_ns) * 100.0;
    m.set("harness.phase.merge_share_pct", share("merge"));
    match inputs {
        Inputs::Patterns(..) => {
            m.set("harness.phase.build_share_pct", share("build"));
            m.set(
                "harness.phase.run_share_pct",
                share("run") + share("start_cores"),
            );
            m.set("harness.phase.report_share_pct", share("report"));
            if !e3_driver_matches_run_workload(&inputs) {
                tally.correct = false;
            }
        }
        Inputs::Stress(..) => {
            // `run_stress_with` is one call, so its phases cannot be
            // separated from outside: estimate build and report from the
            // micro-timings of the same shrunk-cache systems.
            let est = |us: f64| first.sims as f64 * us / (wall_ms * 1e3) * 100.0;
            let build = est(m.get("harness.build_system_us"));
            let report = est(m.get("harness.report_us"));
            m.set("harness.phase.build_share_pct", build);
            m.set("harness.phase.report_share_pct", report);
            m.set(
                "harness.phase.run_share_pct",
                (share("sim") - build - report).max(0.0),
            );
        }
        _ => {}
    }

    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, spans.to_json()) {
            eprintln!("failed to write {path}: {e}");
        }
    }
    m
}

/// Checks once that the benchmark's E3 driver is the program's: one cell
/// through `run_cell` and through `run_workload` must finish the
/// accelerator at the same cycle.
fn e3_driver_matches_run_workload(inputs: &Inputs) -> bool {
    let Inputs::Patterns(cells) = inputs else {
        return true;
    };
    let (cfg, pattern) = &cells[cells.len() / 2];
    let mine = workloads::run_cell(cfg, *pattern, 2_000, false, &mut Spans::new(false));
    let theirs = xg_harness::run_workload(cfg, *pattern, 2_000);
    if mine.accel_runtime != theirs.accel_runtime {
        eprintln!(
            "E3 driver diverged from run_workload: accel_runtime {} vs {}",
            mine.accel_runtime, theirs.accel_runtime
        );
    }
    mine.accel_runtime == theirs.accel_runtime
}

// ---------------------------------------------------------------------------
// The whole pass, and comparing two of them
// ---------------------------------------------------------------------------

/// Runs every workload `--runs` times untraced and once traced (same seed
/// throughout, so spreads are run-to-run noise), prints the table, and
/// returns the pass as a document `--compare` reads.
fn suite(spec: &Spec, args: &Args) -> Json {
    let started = Instant::now();
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        for run in 0..=args.runs {
            let trace = run == args.runs;
            let run_args = Args {
                trace,
                spans: None,
                ..args.clone()
            };
            let t = Instant::now();
            let result = run_child(spec, workload, &run_args);
            eprintln!(
                "{workload} --trace {} took {:.1} s",
                u8::from(trace),
                t.elapsed().as_secs_f64()
            );
            rows.push(Json::obj([
                ("workload".to_owned(), Json::Str(workload.clone())),
                ("trace".to_owned(), Json::Num(f64::from(u8::from(trace)))),
                ("result".to_owned(), result),
            ]));
        }
    }
    let doc = Json::obj([
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("rows".to_owned(), Json::Arr(rows)),
    ]);
    print_table(spec, &doc);
    eprintln!("pass took {:.1} s", started.elapsed().as_secs_f64());
    doc
}

/// Every value of `metric` on `workload` in a pass, and the failure count.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("rows")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|row| row.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|row| {
            row.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// `failed / attempted` over every run of `workload` in a pass.
fn fail_share(doc: &Json, workload: &str) -> f64 {
    let (mut attempted, mut failed) = (0.0, 0.0);
    for row in doc.get("rows").map(Json::as_arr).unwrap_or_default() {
        if row.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let field = |key| {
            row.get("result")
                .and_then(|r| r.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        attempted += field("attempted");
        failed += field("failed");
        if row.get("result").and_then(|r| r.get("correct")) != Some(&Json::Bool(true)) {
            return 1.0;
        }
    }
    if attempted == 0.0 {
        1.0
    } else {
        failed / attempted
    }
}

fn print_table(spec: &Spec, doc: &Json) {
    for (workload, why) in &spec.workloads {
        println!("\n== {workload} — {why}");
        println!("  {:<36} {:>16}", "fail_share", fail_share(doc, workload));
        for row in &spec.end_to_end {
            let mut v = values(doc, workload, &row.name);
            let (q1, q3) = quartiles(&mut v);
            println!(
                "  {:<36} {:>16.4} {:<6} q1 {:.4} q3 {:.4} n {}",
                row.name,
                median(&mut v),
                row.unit,
                q1,
                q3,
                v.len()
            );
        }
        for row in &spec.per_layer {
            let mut v = values(doc, workload, &row.name);
            println!("  {:<36} {:>16.4} {}", row.name, median(&mut v), row.unit);
        }
    }
}

fn compare_files(spec: &Spec, a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2)
            })
    };
    compare(spec, &load(a), &load(b))
}

/// The verdict on one end-to-end row: the bound applies to the medians;
/// a spread wider than the bound leaves the row unresolved unless every
/// run of B reads better than every run of A.
fn verdict(row: &MetricSpec, a: &mut [f64], b: &mut [f64]) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "missing";
    }
    let (ma, mb) = (median(a), median(b));
    let bound = row.bound.unwrap_or(0.0);
    let sign = if row.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let iqr = |v: &mut [f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / ma.abs().max(f64::MIN_POSITIVE)
    };
    let spread = iqr(a).max(iqr(b));
    // One or two runs a side show no spread to judge an improvement by.
    let enough = a.len() >= 3 && b.len() >= 3;
    let b_always_better = if row.higher_is_better {
        b[0] > a[a.len() - 1]
    } else {
        b[b.len() - 1] < a[0]
    };
    if enough && b_always_better {
        "better"
    } else if spread > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if enough && -worse_by > spread {
        "better"
    } else {
        "within bound"
    }
}

/// Applies `BENCHMARK.json` to two passes, one (metric, workload) row at a
/// time. Fails on a worse end-to-end row, a risen fail share, or an exact
/// metric that differs.
fn compare(spec: &Spec, a: &Json, b: &Json) -> ExitCode {
    let mut ok = true;
    if a.get("seed") != b.get("seed") {
        println!("note: the passes used different seeds; exact rows will differ");
    }
    for (workload, _) in &spec.workloads {
        println!("\n== {workload}");
        let (fa, fb) = (fail_share(a, workload), fail_share(b, workload));
        let rose = fb > fa;
        ok &= !rose;
        println!(
            "  {:<36} {fa:>14} -> {fb:<14} {}",
            "fail_share",
            if rose { "worse" } else { "within bound" }
        );
        for row in spec.end_to_end.iter().chain(&spec.per_layer) {
            let (mut va, mut vb) = (
                values(a, workload, &row.name),
                values(b, workload, &row.name),
            );
            let outcome = if EXACT.contains(&row.name.as_str()) {
                let same = !va.is_empty() && va == vb;
                ok &= same;
                if same {
                    "identical"
                } else {
                    "DIFFERS"
                }
            } else if row.bound.is_some() {
                let v = verdict(row, &mut va, &mut vb);
                ok &= v != "worse" && v != "missing";
                v
            } else {
                ""
            };
            println!(
                "  {:<36} {:>14.4} -> {:<14.4} {:<6} {outcome}",
                row.name,
                median(&mut va),
                median(&mut vb),
                row.unit
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use xg_harness::SystemConfig;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_match_benchmark_json() {
        let spec = Spec::load();
        let names = |rows: &[MetricSpec]| rows.iter().map(|r| r.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&spec.end_to_end), spec::END_TO_END);
        assert_eq!(names(&spec.per_layer), spec::PER_LAYER);
        let workloads: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for name in &workloads {
            assert!(generate(name, 1).is_some(), "{name} has no generator");
        }
        let all: Vec<&str> = spec::END_TO_END
            .iter()
            .chain(&spec::PER_LAYER)
            .copied()
            .chain(workloads)
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "malformed name");
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used twice"
        );
        for name in EXACT {
            assert!(all.contains(&name), "{name} is not declared");
        }
        for row in &spec.end_to_end {
            let bound = row.bound.expect("end-to-end rows carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", row.name);
        }
        assert!(spec.per_layer.iter().all(|r| r.bound.is_none()));
        assert!((1..=60).contains(&spec.run_seconds));
    }

    /// Every component of every configuration the workloads build falls in
    /// a stratum, including banked homes and second accelerator instances.
    #[test]
    fn stratum_map_covers_every_component() {
        let mut configs = SystemConfig::matrix(3);
        configs.extend(workloads::fuzz_bases(3));
        configs.push(SystemConfig {
            host: xg_harness::HostProtocol::Mesi,
            accel: xg_harness::AccelOrg::FuzzXg {
                variant: xg_core::XgVariant::Transactional,
            },
            ..SystemConfig::default()
        });
        configs.push(SystemConfig {
            home_banks: 2,
            num_accels: 2,
            ..SystemConfig::default()
        });
        configs.push(SystemConfig {
            host: xg_harness::HostProtocol::Mesi,
            home_banks: 2,
            accel: xg_harness::AccelOrg::FuzzAccelSide,
            ..SystemConfig::default()
        });
        for cfg in configs {
            let fuzzing = cfg.name().contains("fuzz");
            let system = xg_harness::build_system(
                &cfg,
                xg_core::OsPolicy::ReportOnly,
                fuzzing.then(xg_harness::FuzzOpts::default),
                |slot, cache, _| {
                    let name = match slot {
                        xg_harness::system::CoreSlot::Cpu(i) => format!("tester_cpu{i}"),
                        xg_harness::system::CoreSlot::Accel(i) => format!("wl_acc{i}"),
                    };
                    Box::new(xg_harness::WorkloadCore::new(
                        name,
                        cache,
                        xg_harness::Pattern::Streaming,
                        0,
                        64,
                        0,
                    ))
                },
            );
            let xg_harness::ExecSim::Serial(sim) = &system.sim else {
                panic!("threads = 0 builds the serial simulator");
            };
            for name in sim.component_names() {
                assert!(
                    trace::stratum_of(name).is_some_and(|s| STRATA.contains(&s)),
                    "{}: component {name:?} has no stratum",
                    cfg.name()
                );
            }
        }
    }

    #[test]
    fn e3_driver_reproduces_run_workload() {
        let inputs = generate("perf_patterns", 7).unwrap();
        assert!(e3_driver_matches_run_workload(&inputs));
    }

    #[test]
    fn result_lines_round_trip_with_every_row() {
        let spec = Spec::load();
        let mut m = Metrics::default();
        m.set("work_per_s", 1234.5678901234);
        for trace in [false, true] {
            let line = result_line(true, 10, 0, m.to_json(rows_for(&spec, trace))).to_string();
            assert!(!line.contains('\n'));
            let back = Json::parse(&line).unwrap();
            assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(metrics)) = back.get("metrics") else {
                panic!("metrics object");
            };
            assert_eq!(metrics.len(), rows_for(&spec, trace).len());
            assert!(metrics
                .values()
                .all(|v| v.get("value").is_some() && v.get("unit").is_some()));
        }
        let doc = Json::obj([(
            "rows".to_owned(),
            Json::Arr(vec![Json::obj([
                ("workload".to_owned(), Json::Str("stress_long".into())),
                (
                    "result".to_owned(),
                    result_line(true, 10, 0, m.to_json(&spec.end_to_end)),
                ),
            ])]),
        )]);
        assert_eq!(values(&doc, "stress_long", "work_per_s"), [1234.5678901234]);
        assert_eq!(fail_share(&doc, "stress_long"), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let row = |higher| MetricSpec {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        };
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |k: f64| a.map(|v| v * k);
        assert_eq!(
            verdict(&row(true), &mut a.clone(), &mut scaled(0.95)),
            "within bound"
        );
        assert_eq!(
            verdict(&row(true), &mut a.clone(), &mut scaled(0.85)),
            "worse"
        );
        assert_eq!(
            verdict(&row(true), &mut a.clone(), &mut scaled(1.20)),
            "better"
        );
        assert_eq!(
            verdict(&row(false), &mut a.clone(), &mut scaled(1.20)),
            "worse"
        );
        let mut noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&row(true), &mut a.clone(), &mut noisy),
            "unresolved"
        );
        assert_eq!(
            verdict(&row(true), &mut [100.0], &mut [104.0]),
            "within bound"
        );
    }
}
