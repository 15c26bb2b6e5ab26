//! `xg-check` — run the small-model checker from the command line.
//!
//! ```text
//! xg-check [--persona hammer|mesi]... [--addrs N] [--depth full|K]
//!          [--max-states N] [--jobs N] [--seed N] [--no-races]
//!          [--emit-dir DIR] [--baseline FILE] [--write-baseline FILE]
//! ```
//!
//! Explores each requested persona, prints per-persona statistics and
//! unreachable table rows, and exits nonzero on any property violation
//! (writing the shrunk counterexample transcript and a regression-test
//! source into `--emit-dir`, if given). `--baseline` compares the final
//! state counts and fingerprints against a committed baseline file and
//! fails on drift — the file is read and validated before anything is
//! explored, so a bad path or a malformed line costs no fixpoint run;
//! `--write-baseline` regenerates that file.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use xg_check::{
    explore, minimize_script, repro_test_source, transcript, unreachable_rows, ExploreOpts,
    Persona, WorldSpec,
};

struct Args {
    personas: Vec<Persona>,
    addrs: u64,
    depth: Option<usize>,
    max_states: usize,
    jobs: Option<usize>,
    seed: u64,
    races: bool,
    emit_dir: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xg-check [--persona hammer|mesi]... [--addrs N] [--depth full|K]\n\
         \x20               [--max-states N] [--jobs N] [--seed N] [--no-races]\n\
         \x20               [--emit-dir DIR] [--baseline FILE] [--write-baseline FILE]"
    );
    std::process::exit(2);
}

/// A worker count from `source` (`--jobs` or `XG_JOBS`), or exit 2 naming
/// it.
fn jobs(source: &str, raw: &str) -> usize {
    xg_harness::sweep::parse_jobs(raw).unwrap_or_else(|why| {
        eprintln!("{source}: {why}");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        personas: Vec::new(),
        addrs: 1,
        depth: None,
        max_states: 2_000_000,
        jobs: None,
        seed: 0x00C0_FFEE,
        races: true,
        emit_dir: None,
        baseline: None,
        write_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--persona" => {
                let v = value("--persona");
                match Persona::parse(&v) {
                    Some(p) => args.personas.push(p),
                    None => {
                        eprintln!("unknown persona {v:?}");
                        usage();
                    }
                }
            }
            "--addrs" => args.addrs = value("--addrs").parse().unwrap_or_else(|_| usage()),
            "--depth" => {
                let v = value("--depth");
                args.depth = if v == "full" {
                    None
                } else {
                    Some(v.parse().unwrap_or_else(|_| usage()))
                };
            }
            "--max-states" => {
                args.max_states = value("--max-states").parse().unwrap_or_else(|_| usage())
            }
            "--jobs" => args.jobs = Some(jobs("--jobs", &value("--jobs"))),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--no-races" => args.races = false,
            "--emit-dir" => args.emit_dir = Some(value("--emit-dir")),
            "--baseline" => args.baseline = Some(value("--baseline")),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if args.jobs.is_none() {
        args.jobs = std::env::var("XG_JOBS").ok().map(|v| jobs("XG_JOBS", &v));
    }
    if args.personas.is_empty() {
        args.personas = Persona::ALL.to_vec();
    }
    if let Err(why) = WorldSpec::new(args.personas[0])
        .with_attack_blocks(args.addrs)
        .check()
    {
        eprintln!("--addrs {}: {why}", args.addrs);
        std::process::exit(2);
    }
    if let Err(why) = xg_sim::TraceConfig::try_from_env() {
        eprintln!("{why}");
        std::process::exit(2);
    }
    args
}

/// `(states, fingerprint)` per persona name.
type Baseline = BTreeMap<String, (usize, u64)>;

/// Parses a baseline file: `persona states fingerprint` per line, `#`
/// comments and blank lines aside. Every other line must parse.
fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut rows = Baseline::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what} in {line:?}", i + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [persona, states, fp] = fields.as_slice() else {
            return Err(bad("expected `persona states fingerprint`"));
        };
        let persona = Persona::parse(persona).ok_or_else(|| bad("unknown persona"))?;
        let states = states.parse().map_err(|_| bad("unparsable state count"))?;
        let fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16)
            .map_err(|_| bad("unparsable fingerprint"))?;
        if rows
            .insert(persona.name().to_string(), (states, fp))
            .is_some()
        {
            return Err(bad("second row for this persona"));
        }
    }
    Ok(rows)
}

fn main() -> ExitCode {
    let args = parse_args();
    let baseline = match &args.baseline {
        Some(path) => {
            let parsed = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_baseline(&text));
            match parsed {
                Ok(rows) => rows,
                Err(why) => {
                    eprintln!("bad baseline {path}: {why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Baseline::new(),
    };
    let mut failed = false;
    let mut measured = Baseline::new();

    for &persona in &args.personas {
        let mut spec = WorldSpec::new(persona).with_attack_blocks(args.addrs);
        spec.seed = args.seed;
        let opts = ExploreOpts {
            depth: args.depth,
            max_states: args.max_states,
            jobs: args.jobs,
            race_steps: args.races,
        };
        let depth_label = args.depth.map_or("full".to_string(), |d| d.to_string());
        println!(
            "== {} persona: {} attack block(s), depth {depth_label} ==",
            persona.name(),
            args.addrs
        );
        let started = Instant::now();
        let result = explore(&spec, &opts);
        let wall_s = started.elapsed().as_secs_f64();
        // Result first, then the explorer's own health: work done
        // (expansions from restored states, the kernel events each one
        // dispatched, the components each restore copied back, the
        // mid-step forks they branched at, from-scratch replays), how wide
        // the search got, how much of the work rediscovered known states,
        // what a kept state costs, and the rate it all ran at.
        println!(
            "states {}  levels {}  expansions {}  events/exp {:.1}  restored/exp {:.2}  \
             forks {}  replays {}  fingerprint {:#018x}  peak-frontier {}  dedup {:.1}%  \
             checkpoint {} B/state  {:.0} states/s{}{}",
            result.states,
            result.levels,
            result.expansions,
            result.events_per_expansion(),
            result.restored_per_expansion(),
            result.forks,
            result.replays,
            result.fingerprint,
            result.peak_frontier,
            result.dedup_hit_rate() * 100.0,
            result.checkpoint_bytes_per_state(),
            result.states as f64 / wall_s.max(1e-9),
            if result.fixpoint { "  (fixpoint)" } else { "" },
            if result.hit_state_cap {
                "  (STATE CAP HIT)"
            } else {
                ""
            },
        );
        measured.insert(
            persona.name().to_string(),
            (result.states, result.fingerprint),
        );

        for (machine, rows) in unreachable_rows(&result.coverage) {
            if rows.is_empty() {
                println!("coverage {machine}: every declared row fired");
            } else {
                println!("coverage {machine}: {} row(s) never fired:", rows.len());
                for (s, e) in rows {
                    println!("  {s} / {e}");
                }
            }
        }

        for violation in &result.violations {
            failed = true;
            println!("\nVIOLATION ({}): {}", persona.name(), violation.property);
            let minimized = minimize_script(&spec, &violation.script);
            println!("minimized script:\n{}", minimized.to_text());
            let report = transcript(&spec, &minimized);
            println!("{report}");
            if let Some(dir) = &args.emit_dir {
                let base = format!("{dir}/xg_check_{}", persona.name());
                let _ = std::fs::create_dir_all(dir);
                if let Err(e) = std::fs::write(format!("{base}.txt"), &report) {
                    eprintln!("failed to write transcript: {e}");
                }
                let test_src = repro_test_source(
                    &format!("repro_{}_counterexample", persona.name()),
                    &spec,
                    &minimized,
                );
                if let Err(e) = std::fs::write(format!("{base}_repro.rs"), test_src) {
                    eprintln!("failed to write repro test: {e}");
                }
                println!("counterexample artifacts written under {dir}/");
            }
        }
        println!();
    }

    if let Some(path) = &args.write_baseline {
        let mut out = String::from("# xg-check state baseline: persona states fingerprint\n");
        for (persona, (states, fp)) in &measured {
            out.push_str(&format!("{persona} {states} {fp:#018x}\n"));
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("failed to write baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("baseline written to {path}");
    }

    for (persona, &(want_states, want_fp)) in &baseline {
        let Some(&(got_states, got_fp)) = measured.get(persona) else {
            continue; // persona not explored this run
        };
        if got_states != want_states || got_fp != want_fp {
            eprintln!(
                "STATE DRIFT ({persona}): baseline {want_states} states \
                 {want_fp:#018x}, measured {got_states} states {got_fp:#018x} — \
                 re-run with --write-baseline if the protocol change is intended"
            );
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
