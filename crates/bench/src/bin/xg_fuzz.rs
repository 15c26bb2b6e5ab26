//! Coverage-guided fuzz campaign driver for the Crossing Guard simulator.
//!
//! ```text
//! cargo run --release -p xg-bench --bin xg-fuzz -- --campaign quick
//! cargo run --release -p xg-bench --bin xg-fuzz -- --campaign --host mesi --variant tx
//! cargo run --release -p xg-bench --bin xg-fuzz -- --campaign --corpus out/corpus
//! cargo run --release -p xg-bench --bin xg-fuzz -- --minimize failing.xgsched --seed 0x51ab
//! ```
//!
//! `--campaign` runs the AFL-style campaign of [`xg_harness::campaign`]
//! (transition-coverage feedback, structural schedule mutation, link fault
//! injection) on the guarded configurations — all four by default, or one
//! selected with `--host hammer|mesi` and `--variant full|tx`. With
//! `--accels N` (N ≥ 2) every run adds N−1 *correct* guarded sibling
//! hierarchies sharing the host, so the campaign simultaneously checks
//! blast-radius containment: sibling corruption or starvation fails a run
//! exactly like host corruption does. Every
//! failure is automatically ddmin-minimized and emitted as a
//! self-contained `#[test]` plus a JSON artifact; with `--corpus DIR` the
//! interesting schedules, coverage summary, and repro artifacts are
//! written there (one subdirectory per configuration). Exit status is `0`
//! only if every configuration finishes with zero violations, zero data
//! corruption, and zero deadlocks.
//!
//! `--minimize PATH` reads an `xg-schedule v1` text file (e.g. a corpus
//! entry or a failure dumped by `--campaign`), replays it under `--seed`,
//! shrinks it to a minimal failing reproducer, and prints the regression
//! test; `--out DIR` also writes the `.rs`/`.json` artifacts, and
//! `--timeline PATH` writes the failure replay's transaction timeline as
//! Perfetto-loadable Chrome trace-event JSON. Exits `2` if the schedule
//! does not fail in the first place. (Campaign repros written to a
//! `--corpus` directory get a `.trace.json` timeline automatically.)

use std::path::{Path, PathBuf};
use std::time::Instant;

use xg_bench::cli::{self, arg_value};
use xg_bench::experiments::e2_campaign;
use xg_bench::Scale;
use xg_core::XgVariant;
use xg_harness::campaign::{
    minimize, repro_json, repro_test_source, run_schedule, run_schedule_with, CampaignFailure,
    CampaignOpts, CampaignOutcome, FailureKind,
};
use xg_harness::{run_campaign, AccelOrg, HostProtocol, Instrumentation, Schedule, SystemConfig};

fn parse_seed(raw: &str) -> u64 {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("unparseable seed: {raw}");
        std::process::exit(2);
    })
}

/// Filters the four guarded configurations down to the requested subset.
fn selected_configs(host: Option<&str>, variant: Option<&str>) -> Vec<SystemConfig> {
    let want_host = host.map(|h| match h {
        "hammer" => HostProtocol::Hammer,
        "mesi" => HostProtocol::Mesi,
        other => {
            eprintln!("unknown --host {other} (want hammer|mesi)");
            std::process::exit(2);
        }
    });
    let want_variant = variant.map(|v| match v {
        "full" | "full_state" => XgVariant::FullState,
        "tx" | "transactional" => XgVariant::Transactional,
        other => {
            eprintln!("unknown --variant {other} (want full|tx)");
            std::process::exit(2);
        }
    });
    e2_campaign::configs()
        .into_iter()
        .filter(|c| want_host.is_none_or(|h| c.host == h))
        .filter(|c| match (&c.accel, want_variant) {
            (_, None) => true,
            (AccelOrg::FuzzXg { variant }, Some(v)) => *variant == v,
            _ => false,
        })
        .collect()
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Minimizes one campaign failure and renders/writes its repro artifacts.
/// With `timeline_path` set (or an `--corpus`/`--out` directory), the
/// minimized schedule is run once more under tracing and its transaction
/// timeline (Chrome trace-event JSON, Perfetto-loadable) is written
/// alongside the repro.
fn emit_repro(
    base: &SystemConfig,
    opts: &CampaignOpts,
    failure: &CampaignFailure,
    index: usize,
    out_dir: Option<&Path>,
    timeline_path: Option<&Path>,
) {
    let shrunk = minimize(&failure.schedule, |s| {
        failure
            .kind
            .holds(&run_schedule(base, opts, s, failure.seed))
    });
    let minimized = CampaignFailure {
        schedule: shrunk,
        ..failure.clone()
    };
    let name = format!("repro_{}_{index}", failure.kind.tag().replace('-', "_"));
    let test_src = repro_test_source(&name, base, opts, &minimized);
    let json = repro_json(base, opts, &minimized);
    println!(
        "  {}: minimized {} -> {} step(s), seed {:#x}",
        failure.kind.tag(),
        failure.schedule.steps.len(),
        minimized.schedule.steps.len(),
        failure.seed
    );
    match out_dir {
        Some(dir) => {
            write_or_die(&dir.join(format!("{name}.rs")), &test_src);
            write_or_die(&dir.join(format!("{name}.json")), &json);
            println!("  repro artifacts written to {}", dir.display());
        }
        None => print!("{test_src}"),
    }
    let trace_dest = timeline_path
        .map(Path::to_path_buf)
        .or_else(|| out_dir.map(|d| d.join(format!("{name}.trace.json"))));
    if let Some(dest) = trace_dest {
        // The one traced simulation of the whole minimization: ddmin probes
        // run untraced, only the schedule that is kept gets a diagnosis.
        let replay = run_schedule_with(
            base,
            opts,
            &minimized.schedule,
            failure.seed,
            &Instrumentation::replay(),
        );
        if let Some(trace) = replay.timeline {
            write_or_die(&dest, &trace);
            println!("  failure timeline written to {}", dest.display());
        }
    }
}

/// Writes the interesting corpus plus a coverage summary for one config.
fn dump_corpus(dir: &Path, out: &CampaignOutcome) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create {}: {e}", dir.display());
        std::process::exit(1);
    }
    for (i, entry) in out.corpus.iter().enumerate() {
        let path = dir.join(format!("{i:03}_seed{:x}.xgsched", entry.seed));
        write_or_die(&path, &entry.schedule.to_text());
    }
    let mut cov = String::new();
    cov.push_str(&format!("distinct pairs: {}\n", out.distinct_pairs()));
    for (machine, c) in &out.coverage {
        cov.push_str(&format!(
            "{machine}: {}/{} rows fired\n",
            c.fired_rows(),
            c.total_rows()
        ));
    }
    write_or_die(&dir.join("coverage.txt"), &cov);
}

fn campaign_mode(args: &[String]) -> i32 {
    let scale = if args.iter().any(|a| a == "quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let seed = arg_value(args, "--seed").map_or(0xC4A55, |s| parse_seed(&s));
    let jobs = cli::jobs(args);
    let corpus_dir = arg_value(args, "--corpus").map(PathBuf::from);
    let num_accels = arg_value(args, "--accels").map_or(1, |raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("unparseable --accels {raw} (want a count >= 1)");
            std::process::exit(2);
        })
    });
    if num_accels == 0 {
        eprintln!("--accels must be >= 1");
        return 2;
    }
    let configs = selected_configs(
        arg_value(args, "--host").as_deref(),
        arg_value(args, "--variant").as_deref(),
    );
    if configs.is_empty() {
        eprintln!("no configuration matches the --host/--variant filter");
        return 2;
    }

    println!(
        "xg-fuzz campaign (scale: {scale:?}, seed: {seed:#x}, jobs: {jobs}, accels: {num_accels})"
    );
    let mut total_failures = 0usize;
    for base in configs {
        let mut opts = e2_campaign::opts(scale, seed);
        opts.jobs = Some(jobs);
        opts.num_accels = num_accels;
        let label = if num_accels > 1 {
            format!("{}+{}sib", base.name(), num_accels - 1)
        } else {
            base.name()
        };
        let started = Instant::now();
        let out = run_campaign(&base, &opts);
        let wall = started.elapsed().as_secs_f64();
        // Campaign health goes to stderr; stdout is deterministic and diffed.
        eprintln!(
            "{label}: {} executions in {:.0} ms, {:.0} execs/s, {} cut live",
            out.runs,
            wall * 1e3,
            out.runs as f64 / wall.max(1e-9),
            out.report.fuzz_get("campaign_cut_live")
        );
        println!(
            "{label}: {} runs, {} messages injected, {} distinct (state, event) pairs, \
             corpus {}, failures {}",
            out.runs,
            out.injected,
            out.distinct_pairs(),
            out.corpus.len(),
            out.failures.len()
        );
        let config_dir = corpus_dir.as_ref().map(|d| d.join(label.replace('/', "_")));
        if let Some(dir) = &config_dir {
            dump_corpus(dir, &out);
        }
        for (i, failure) in out.failures.iter().enumerate() {
            emit_repro(&base, &opts, failure, i, config_dir.as_deref(), None);
        }
        total_failures += out.failures.len();
    }
    if total_failures > 0 {
        eprintln!("\ncampaign found {total_failures} failure(s)");
        1
    } else {
        0
    }
}

fn minimize_mode(args: &[String], path: &str) -> i32 {
    let seed = arg_value(args, "--seed").map_or(0xC4A55, |s| parse_seed(&s));
    let out_dir = arg_value(args, "--out").map(PathBuf::from);
    let timeline = arg_value(args, "--timeline").map(PathBuf::from);
    let configs = selected_configs(
        arg_value(args, "--host").as_deref(),
        arg_value(args, "--variant").as_deref(),
    );
    let base = configs.into_iter().next().unwrap_or_else(|| {
        eprintln!("no configuration matches the --host/--variant filter");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(2);
    });
    let schedule = Schedule::from_text(&text).unwrap_or_else(|e| {
        eprintln!("failed to parse {path}: {e}");
        std::process::exit(2);
    });
    let opts = e2_campaign::opts(Scale::Quick, seed);

    let Some(kind) = FailureKind::of(&run_schedule(&base, &opts, &schedule, seed)) else {
        eprintln!(
            "{path} does not fail on {} under seed {seed:#x} — nothing to minimize",
            base.name()
        );
        return 2;
    };
    let failure = CampaignFailure {
        kind,
        seed,
        schedule,
        summary: format!("replayed from {path}"),
    };
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {}: {e}", dir.display());
            return 1;
        }
    }
    println!("xg-fuzz minimize ({}, seed {seed:#x})", base.name());
    emit_repro(
        &base,
        &opts,
        &failure,
        0,
        out_dir.as_deref(),
        timeline.as_deref(),
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::trace_switch();
    let code = if let Some(path) = arg_value(&args, "--minimize") {
        minimize_mode(&args, &path)
    } else if args.iter().any(|a| a == "--campaign") {
        campaign_mode(&args)
    } else {
        eprintln!("usage: xg-fuzz --campaign [quick] [--host H] [--variant V] [--seed N] [--jobs N] [--accels N] [--corpus DIR]");
        eprintln!("       xg-fuzz --minimize PATH [--host H] [--variant V] [--seed N] [--out DIR] [--timeline PATH]");
        2
    };
    std::process::exit(code);
}
