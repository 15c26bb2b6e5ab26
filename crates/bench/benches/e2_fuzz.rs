//! E2/E10: prints the fuzz-safety table and times one fuzz run, untraced
//! and under the failure-replay instrumentation (what a diagnosis costs).

use criterion::{criterion_group, criterion_main, Criterion};
use xg_bench::experiments::e2_fuzz;
use xg_bench::Scale;
use xg_core::XgVariant;
use xg_harness::{
    run_fuzz, run_fuzz_with, AccelOrg, FuzzOpts, HostProtocol, Instrumentation, SystemConfig,
};

fn bench(c: &mut Criterion) {
    let rows = e2_fuzz::run(Scale::Quick, 5);
    println!("{}", e2_fuzz::table(&rows));

    let cfg = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::Transactional,
        },
        seed: 5,
        ..SystemConfig::default()
    };
    let fuzz = FuzzOpts {
        messages: 300,
        ..FuzzOpts::default()
    };
    c.bench_function("e2_fuzz/mesi_tx_300msgs", |b| {
        b.iter(|| {
            let out = run_fuzz(&cfg, &fuzz, 500);
            assert_eq!(out.host_violations, 0);
            out.cycles
        })
    });
    // The same run with ring tracing and a timeline on: the price of the
    // post-mortem `run_fuzz` pays only for a failed run. Informational.
    c.bench_function("e2_fuzz/mesi_tx_300msgs_traced", |b| {
        b.iter(|| {
            let out = run_fuzz_with(&cfg, &fuzz, 500, &Instrumentation::replay());
            assert_eq!(out.host_violations, 0);
            out.cycles
        })
    });
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
