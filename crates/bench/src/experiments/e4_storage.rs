//! E4 — Crossing Guard storage: Full State vs. Transactional (§2.3), plus
//! the E7 GetSOnly-vs-shadow ablation (§2.3.1).
//!
//! Paper numbers: a Full State guard needs tag+state storage for every
//! block the accelerator holds (~16 kB for a 256 kB accelerator cache),
//! plus data shadows for read-only blocks held exclusively unless the host
//! offers a non-upgradable `GetSOnly`; a Transactional guard needs only
//! open-transaction storage, independent of accelerator cache size.

use xg_core::{XgConfig, XgVariant};
use xg_harness::{run_workload, sweep, AccelOrg, HostProtocol, Pattern, SystemConfig};
use xg_mem::{Addr, PagePerm, PermissionTable};

use crate::table::{bytes, Table};
use crate::Scale;

/// One measurement row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label (variant + accel cache size / ablation setting).
    pub label: String,
    /// Accelerator cache capacity in 64 B blocks.
    pub accel_blocks: u64,
    /// Peak Crossing Guard storage observed, in bytes.
    pub peak_bytes: u64,
    /// The paper's back-of-envelope model for Full State (tag+state per
    /// resident block): `blocks * 10 B`; 0 for Transactional.
    pub model_bytes: u64,
}

fn measure(cfg: &SystemConfig, pattern: Pattern, ops: u64) -> u64 {
    let out = run_workload(cfg, pattern, ops);
    assert!(!out.incomplete, "{} hung", cfg.name());
    out.report.get("xg.storage_bytes.hwm")
}

/// Runs the storage sweep on `jobs` workers: one shard per measured
/// configuration, rows in the fixed presentation order for any `jobs`.
pub fn run(scale: Scale, seed: u64, jobs: usize) -> Vec<Row> {
    let ops = scale.ops(4_000, 12_000);
    // Each shard carries the finished row minus the measured peak.
    let mut shards: Vec<(SystemConfig, Pattern, Row)> = Vec::new();
    // Sweep accelerator cache sizes; the streaming footprint (256 blocks)
    // exceeds every size here, so Full State tracks a full cache's worth.
    for (sets, ways) in [(8usize, 2usize), (32, 2), (64, 4)] {
        let blocks = (sets * ways) as u64;
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            let cfg = SystemConfig {
                host: HostProtocol::Hammer,
                accel: AccelOrg::Xg {
                    variant,
                    two_level: false,
                },
                accel_cache: (sets, ways),
                seed,
                ..SystemConfig::default()
            };
            let row = Row {
                label: format!(
                    "{} / {} blocks ({} KiB cache)",
                    match variant {
                        XgVariant::FullState => "full_state",
                        XgVariant::Transactional => "transactional",
                    },
                    blocks,
                    blocks * 64 / 1024
                ),
                accel_blocks: blocks,
                peak_bytes: 0,
                model_bytes: match variant {
                    XgVariant::FullState => blocks * 10,
                    XgVariant::Transactional => 0,
                },
            };
            shards.push((cfg, Pattern::Streaming, row));
        }
    }
    // E7 ablation: read-only footprint, Full State, with vs. without the
    // GetSOnly host request. Without it the guard must shadow-store data.
    let mut perms = PermissionTable::new();
    // The workload footprint starts at 0x10_0000 (see runner): mark those
    // pages read-only for the accelerator.
    for page in 0..8 {
        perms.set(Addr::new(0x10_0000 + page * 4096).page(), PagePerm::Read);
    }
    for (label, use_gets_only) in [
        ("full_state + GetSOnly (no shadows)", true),
        ("full_state shadow-store (no GetSOnly)", false),
    ] {
        let cfg = SystemConfig {
            host: HostProtocol::Hammer,
            accel: AccelOrg::Xg {
                variant: XgVariant::FullState,
                two_level: false,
            },
            accel_cache: (64, 4),
            xg: XgConfig {
                use_gets_only,
                perms: perms.clone(),
                ..XgConfig::default()
            },
            seed,
            ..SystemConfig::default()
        };
        let row = Row {
            label: format!("E7: {label}"),
            accel_blocks: 256,
            peak_bytes: 0,
            model_bytes: 0,
        };
        // Graph walk: read-only, data-dependent — the §2.3.1 scenario.
        shards.push((cfg, Pattern::GraphWalk, row));
    }
    sweep(shards, jobs, |(cfg, pattern, mut row), _| {
        row.peak_bytes = measure(&cfg, pattern, ops);
        row
    })
}

/// Renders the E4/E7 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E4 (§2.3) + E7 (§2.3.1): Crossing Guard storage, Full State vs. Transactional",
        &[
            "configuration",
            "accel blocks",
            "peak XG storage",
            "model (tags+state)",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.accel_blocks.to_string(),
            bytes(r.peak_bytes),
            if r.model_bytes > 0 {
                bytes(r.model_bytes)
            } else {
                "—".into()
            },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_state_scales_with_cache_and_transactional_does_not() {
        let rows = run(Scale::Quick, 3, xg_harness::resolve_jobs(None));
        let fs: Vec<&Row> = rows
            .iter()
            .filter(|r| r.label.starts_with("full_state /"))
            .collect();
        let tx: Vec<&Row> = rows
            .iter()
            .filter(|r| r.label.starts_with("transactional"))
            .collect();
        assert_eq!(fs.len(), 3);
        assert_eq!(tx.len(), 3);
        // Full State grows with the cache; Transactional stays flat-ish
        // and far below Full State at the largest size.
        assert!(fs[2].peak_bytes > fs[0].peak_bytes);
        assert!(fs[2].peak_bytes > 4 * tx[2].peak_bytes);
        // Shadow ablation: shadows cost strictly more storage.
        let gets_only = rows
            .iter()
            .find(|r| r.label.contains("GetSOnly (no"))
            .unwrap();
        let shadows = rows
            .iter()
            .find(|r| r.label.contains("shadow-store"))
            .unwrap();
        assert!(shadows.peak_bytes > gets_only.peak_bytes);
    }
}
