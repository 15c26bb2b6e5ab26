//! Profiling-overhead micro-benchmark, with an optional CI gate.
//!
//! Times the E1 stress configuration (hammer/xg_full_l1) two ways:
//!
//! * `disabled` — [`run_stress_with`] carrying [`Instrumentation::off`]:
//!   every probe dark, one branch per event. This is also what
//!   `run_stress` runs (it forwards here), so there is no third variant to
//!   compare it with;
//! * `profiled` — the same run with kernel profiling on (dispatch
//!   counters, sampled host-time attribution, epoch series).
//!
//! With `XG_PROF_GATE=1` in the environment, the bench *asserts* the
//! probe-cost contract the observability subsystem makes: enabled
//! profiling costs at most 25% over disabled instrumentation. (The bound
//! was 10% against the pre-overhaul kernel; the hot-path rework cut the
//! per-event baseline ~2.5x, so the profiler's unchanged absolute cost —
//! a few ns per sampled event — is a larger *fraction* of a much cheaper
//! event, and the shorter wall times leave less room under scheduler
//! noise.)
//! Minimum-of-N wall times over interleaved sampling rounds are compared
//! (the minimum is the estimator least sensitive to scheduler noise), with
//! a small absolute slack so sub-millisecond timer jitter cannot trip the
//! gate on very fast runs.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use xg_harness::{run_stress_with, Instrumentation, StressOpts, SystemConfig};

/// Ops per timed run: long enough that per-event overhead dominates setup.
const OPS: u64 = 2000;
/// Timed samples per variant when gating.
const GATE_SAMPLES: usize = 15;
/// Enabled-profiling limit over disabled instrumentation.
const PROFILED_LIMIT: f64 = 1.25;
/// Absolute slack absorbing timer jitter, in seconds (0.5 ms).
const GATE_SLACK: f64 = 0.0005;

fn e1_cfg() -> SystemConfig {
    SystemConfig::matrix(1)[2].clone() // hammer/xg_full_l1
}

fn opts() -> StressOpts {
    StressOpts {
        ops: OPS,
        ..StressOpts::default()
    }
}

/// Per-variant minimum wall-clock seconds over `samples` *interleaved*
/// rounds (after one warm-up round). Interleaving matters: the variants
/// are compared against each other, and sampling them in separate
/// sequential blocks lets minutes-scale machine drift (frequency
/// scaling, noisy neighbors) masquerade as an overhead difference.
/// Round-robin sampling exposes every variant to the same drift, so the
/// minima stay comparable.
fn min_secs_interleaved<const N: usize>(
    fns: &mut [&mut dyn FnMut(); N],
    samples: usize,
) -> [f64; N] {
    for f in fns.iter_mut() {
        f();
    }
    let mut mins = [f64::INFINITY; N];
    for _ in 0..samples {
        for (min, f) in mins.iter_mut().zip(fns.iter_mut()) {
            let t0 = Instant::now();
            f();
            *min = min.min(t0.elapsed().as_secs_f64());
        }
    }
    mins
}

fn bench(c: &mut Criterion) {
    let cfg = e1_cfg();
    c.bench_function("prof_overhead/disabled_2000ops", |b| {
        b.iter(|| run_stress_with(&cfg, &opts(), &Instrumentation::off()).cycles)
    });
    c.bench_function("prof_overhead/profiled_2000ops", |b| {
        b.iter(|| run_stress_with(&cfg, &opts(), &Instrumentation::profiled()).cycles)
    });

    if std::env::var("XG_PROF_GATE").as_deref() == Ok("1") {
        let [disabled, profiled] = min_secs_interleaved(
            &mut [
                &mut || {
                    black_box(run_stress_with(&cfg, &opts(), &Instrumentation::off()).cycles);
                },
                &mut || {
                    black_box(run_stress_with(&cfg, &opts(), &Instrumentation::profiled()).cycles);
                },
            ],
            GATE_SAMPLES,
        );
        println!(
            "gate: disabled {:.3} ms, profiled {:.3} ms ({:+.2}% over disabled)",
            disabled * 1e3,
            profiled * 1e3,
            (profiled / disabled - 1.0) * 100.0,
        );
        assert!(
            profiled <= disabled * PROFILED_LIMIT + GATE_SLACK,
            "enabled-profiling overhead gate failed: {:.3} ms vs disabled {:.3} ms (limit 25%)",
            profiled * 1e3,
            disabled * 1e3,
        );
        println!("gate: overhead within limits (profiled <= 25% over disabled)");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
