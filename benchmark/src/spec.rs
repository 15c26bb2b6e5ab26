//! The metric names this program emits, and `BENCHMARK.json` as data.
//!
//! `BENCHMARK.json` is the contract; it is compiled in so `--compare`
//! applies exactly the bounds this binary was built against. The tests
//! hold the two name lists below equal to the file's.

use std::collections::BTreeMap;

use crate::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [&str; 4] = ["work_per_s", "peak_rss_mb", "covered_pairs", "setup_s"];

/// Per-layer metrics, emitted by every workload with `--trace 1`; a figure
/// that does not apply to a workload reads 0 there (see README).
pub const PER_LAYER: [&str; 71] = [
    // exact simulated statistics (identical for a seed on any host)
    "sim.digest48",
    "sim.cycles_per_op",
    "sim.xg_overhead_pct",
    "sim.events_per_op",
    "sim.queue_hwm",
    "check.states",
    "check.replays",
    "check.replays_per_state",
    "sim.findings",
    // the traced iteration, folded by stratum
    "trace.tester.events",
    "trace.tester.host_ns_per_event",
    "trace.tester.share_pct",
    "trace.cpu_cache.events",
    "trace.cpu_cache.host_ns_per_event",
    "trace.cpu_cache.share_pct",
    "trace.home.events",
    "trace.home.host_ns_per_event",
    "trace.home.share_pct",
    "trace.guard.events",
    "trace.guard.host_ns_per_event",
    "trace.guard.share_pct",
    "trace.accel_cache.events",
    "trace.accel_cache.host_ns_per_event",
    "trace.accel_cache.share_pct",
    "trace.fuzz.events",
    "trace.fuzz.host_ns_per_event",
    "trace.fuzz.share_pct",
    "trace.os.events",
    "trace.os.host_ns_per_event",
    "trace.os.share_pct",
    "trace.unmapped.events",
    "trace.wake_share_pct",
    "trace.overhead_pct",
    // the benchmark's own spans and derived shares
    "harness.phase.build_share_pct",
    "harness.phase.run_share_pct",
    "harness.phase.report_share_pct",
    "harness.phase.merge_share_pct",
    "harness.campaign.build_share_pct",
    "check.build_share_pct",
    // micro-timings from outside
    "sim.queue.push_pop_ns",
    "sim.queue.overflow_ns",
    "sim.slab.park_take_ns",
    "sim.dispatch_floor_ns",
    "sim.wake_floor_ns",
    "sim.report.merge_us",
    "sim.report.to_json_us",
    "sim.json.parse_us",
    "harness.build_system_us",
    "harness.report_us",
    "harness.sweep.item_overhead_us",
    "fsm.resolve_ns",
    "mem.cache.lookup_ns",
    "mem.cache.fill_evict_ns",
    "mem.mshr.alloc_free_ns",
    "harness.campaign.run_schedule_us",
    "harness.campaign.mutate_ns",
    "check.build_world_us",
    "check.replay_us",
    // wall time of one call into the program, over the untraced iterations
    // of the traced run (`run_wall_samples` calls)
    "run_wall_ms_p50",
    "run_wall_ms_p90",
    "run_wall_samples",
    // sample counts behind the figures above
    "trace.iterations",
    "trace.sims_per_iteration",
    "trace.iteration_wall_ms",
    "trace.untraced_wall_ms",
    "trace.host_ns_per_event",
    "trace.events",
    "trace.spans",
    "host.speed",
    "sim.ops_per_iteration",
    "sim.cycles_per_iteration",
];

/// Per-layer metrics that are exact for a seed: `--compare` and
/// `--selfcheck` demand equality, not a bound.
pub const EXACT: [&str; 14] = [
    "covered_pairs",
    "sim.digest48",
    "sim.cycles_per_op",
    "sim.xg_overhead_pct",
    "sim.events_per_op",
    "sim.queue_hwm",
    "check.states",
    "check.replays",
    "check.replays_per_state",
    "sim.findings",
    "trace.unmapped.events",
    "trace.events",
    "sim.ops_per_iteration",
    "sim.cycles_per_iteration",
];

/// One metric row of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// rows only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
                .to_owned()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: doc
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Metric values by name, rendered as the result line's `metrics` object
/// with the units `BENCHMARK.json` gives.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            END_TO_END.contains(&name.as_str()) || PER_LAYER.contains(&name.as_str()),
            "{name} is not a declared metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`; a row nothing measured reads 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of a result line, one entry per row of `rows`.
    pub fn to_json(&self, rows: &[MetricSpec]) -> Json {
        Json::obj(rows.iter().map(|row| {
            let value = self.get(&row.name);
            (
                row.name.clone(),
                Json::obj([
                    ("value".to_owned(), Json::Num(value)),
                    ("unit".to_owned(), Json::Str(row.unit.clone())),
                ]),
            )
        }))
    }
}
