//! Hot-path attribution: profiled runs, the table behind
//! `xg-report --profile`, and timeline capture for `--timeline`.
//!
//! Everything here consumes the report's `profile` section (see
//! `xg_prof`): `dispatch.<component>.<class>` counters, the paired
//! `host_ns.<component>.<class>` sampled host-time attribution, queue
//! high-water marks, and the epoch time-series.

use std::collections::BTreeMap;
use std::fmt::Write;

use xg_harness::{run_stress_with, sweep, Instrumentation, StressOpts, SystemConfig};
use xg_sim::Report;

use crate::table::{percent, Table};
use crate::{stress_findings, Scale};

/// Runs the full 12-configuration stress matrix with kernel profiling
/// enabled and merges the shard reports. Dispatch counters and host-time
/// samples sum across shards; `.hwm` keys take the max (see
/// [`Report::merge`]), so the merged attribution covers every host
/// protocol and accelerator organization at once. Beside the report come
/// the runs' [`stress_findings`].
pub fn collect_profile(scale: Scale, jobs: usize) -> (Report, Vec<String>) {
    let ops = scale.ops(400, 4_000);
    let shards: Vec<(SystemConfig, u64)> = SystemConfig::matrix(13)
        .into_iter()
        .map(|cfg| (cfg, 13))
        .collect();
    let runs = sweep(shards, jobs, |(cfg, seed), _| {
        let out = run_stress_with(
            &cfg,
            &StressOpts {
                ops,
                ..StressOpts::default()
            },
            &Instrumentation::profiled(),
        );
        let findings = stress_findings(&format!("{} seed {seed}", cfg.name()), &out);
        (out.report, findings)
    });
    let (reports, findings): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    (Report::merge_shards(&reports), findings.concat())
}

/// Captures one transaction timeline: a representative guarded stress run
/// with timeline recording on, returned as Chrome trace-event JSON
/// (loadable in Perfetto or `chrome://tracing`).
pub fn capture_timeline(scale: Scale, seed: u64) -> String {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::default()
    };
    let instr = Instrumentation {
        timeline: true,
        ..Instrumentation::off()
    };
    let out = run_stress_with(
        &cfg,
        &StressOpts {
            ops: scale.ops(400, 4_000),
            ..StressOpts::default()
        },
        &instr,
    );
    out.timeline.expect("timeline instrumentation was enabled")
}

/// Renders the hot-path attribution table of a profiled report: the top
/// `top` `component.class` event types by dispatch count, with their share
/// of all dispatches, estimated host time (sampled wall-clock, scaled by
/// the sampling interval), and mean host nanoseconds per event. Backs
/// `xg-report --profile`.
pub fn profile_table(report: &Report, top: usize) -> String {
    // Pair dispatch.<comp>.<class> with host_ns.<comp>.<class>.
    let mut rows: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (k, v) in report.profile_entries() {
        if let Some(rest) = k.strip_prefix("dispatch.") {
            rows.entry(rest.to_owned()).or_insert((0, 0)).0 += v;
        } else if let Some(rest) = k.strip_prefix("host_ns.") {
            rows.entry(rest.to_owned()).or_insert((0, 0)).1 += v;
        }
    }
    let total: u64 = rows.values().map(|&(count, _)| count).sum();
    let mut sorted: Vec<(String, (u64, u64))> = rows.into_iter().collect();
    // Hottest first; ties broken by name so the table is deterministic.
    sorted.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));

    let mut t = Table::new(
        "hot event types (by dispatch count)",
        &[
            "component.class",
            "dispatches",
            "share",
            "host us",
            "ns/event",
        ],
    );
    for (key, (count, ns)) in sorted.iter().take(top) {
        t.row(&[
            key.clone(),
            count.to_string(),
            percent(*count, total),
            (ns / 1_000).to_string(),
            (ns / count.max(&1)).to_string(),
        ]);
    }
    let mut out = t.render();
    let epochs = report
        .profile_entries()
        .filter(|(k, _)| k.starts_with("epoch.") && k.ends_with(".events"))
        .count();
    let _ = writeln!(
        out,
        "events dispatched: {} (showing {} of {} event types)",
        report.profile_get("events.total"),
        sorted.len().min(top),
        sorted.len(),
    );
    let _ = writeln!(
        out,
        "event-queue high-water mark: {}",
        report.profile_get("queue.hwm"),
    );
    let _ = writeln!(out, "epoch samples: {epochs}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_table_ranks_by_dispatch_count() {
        let mut r = Report::default();
        r.profile_add("dispatch.guard.Hammer.GetM", 70);
        r.profile_add("host_ns.guard.Hammer.GetM", 7_000);
        r.profile_add("dispatch.home.Hammer.GetS", 30);
        r.profile_add("events.total", 100);
        r.profile_add("queue.hwm", 9);
        let table = profile_table(&r, 8);
        let getm = table.find("guard.Hammer.GetM").unwrap();
        let gets = table.find("home.Hammer.GetS").unwrap();
        assert!(getm < gets, "hotter event type must rank first:\n{table}");
        assert!(table.contains("events dispatched: 100"));
        assert!(table.contains("high-water mark: 9"));
        // 7000 ns over 70 dispatches = 100 ns/event.
        assert!(table.contains("100"), "{table}");
    }

    #[test]
    fn quick_profile_run_attributes_protocol_classes() {
        let (report, findings) = collect_profile(Scale::Quick, xg_harness::resolve_jobs(None));
        assert!(findings.is_empty(), "{findings:?}");
        assert!(report.profile_get("events.total") > 0);
        // Both host protocols ran, so both protocol families must appear.
        let has = |p: &str| report.profile_entries().any(|(k, _)| k.contains(p));
        assert!(has(".Hammer."), "no Hammer dispatch keys");
        assert!(has(".Mesi."), "no Mesi dispatch keys");
        assert!(has("Wake"), "no Wake dispatch keys");
    }
}
