//! Argument handling the `xg-bench` binaries share. Bad input exits 2
//! with a message naming it, before anything runs.

/// Refuses every argument that is neither one of `flags` (each takes the
/// argument after it as its value) nor one of `words` (which stand
/// alone), naming it: a mistyped flag would otherwise be ignored and the
/// run go ahead without it.
pub fn refuse_unknown(args: &[String], flags: &[&str], words: &[&str]) {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if flags.contains(&arg.as_str()) {
            rest.next();
        } else if !words.contains(&arg.as_str()) {
            eprintln!("unknown argument {arg:?}");
            std::process::exit(2);
        }
    }
}

/// The value following `flag`, if `flag` is given.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("{flag} requires a value argument");
                std::process::exit(2);
            })
            .clone()
    })
}

/// Refuses an `XG_TRACE` that is not `0` or `1` (the simulator library
/// would quietly treat it as off).
pub fn trace_switch() {
    if let Err(why) = xg_sim::TraceConfig::try_from_env() {
        eprintln!("{why}");
        std::process::exit(2);
    }
}

/// The worker count of this run: `--jobs N`, else `XG_JOBS`, else one per
/// core (`0` means that too).
pub fn jobs(args: &[String]) -> usize {
    let (source, raw) = match (arg_value(args, "--jobs"), std::env::var("XG_JOBS")) {
        (Some(raw), _) => ("--jobs", raw),
        (None, Ok(raw)) => ("XG_JOBS", raw),
        (None, Err(_)) => return xg_harness::available_jobs(),
    };
    xg_harness::sweep::parse_jobs(&raw).unwrap_or_else(|why| {
        eprintln!("{source}: {why}");
        std::process::exit(2);
    })
}
