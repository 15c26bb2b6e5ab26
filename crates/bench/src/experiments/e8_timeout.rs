//! E8 — Guarantee 2c timeout recovery (§2.2).
//!
//! A scripted accelerator takes ownership of a block and then goes silent.
//! A CPU store to that block forces the host to demand the data back; the
//! guard forwards an invalidation, waits out the configured timeout,
//! fabricates a safe response, and reports the error. We measure the CPU
//! store's end-to-end latency as a function of the timeout setting: it
//! tracks `inv_timeout` plus a small protocol overhead, and the host never
//! hangs.

use xg_core::{OsPolicy, XgConfig, XgVariant};
use xg_harness::system::CoreSlot;
use xg_harness::{build_system, sweep, AccelOrg, HostProtocol, SystemConfig};
use xg_mem::Addr;
use xg_proto::{CoreKind, CoreMsg, Ctx, Message, XgiKind, XgiMsg};
use xg_sim::{Component, NodeId};

use crate::table::Table;
use crate::Scale;

/// A CPU core that issues one store after a delay and records its latency.
struct OneStore {
    cache: NodeId,
    addr: u64,
    delay: u64,
    issued_at: Option<u64>,
    latency: Option<u64>,
}

impl Component<Message> for OneStore {
    fn name(&self) -> &str {
        "one_store"
    }
    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        if let Message::Core(CoreMsg {
            kind: CoreKind::StoreResp,
            ..
        }) = msg
        {
            if let Some(t0) = self.issued_at {
                self.latency = Some(ctx.now().as_u64() - t0);
                ctx.note_progress();
            }
        }
    }
    fn wake(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        if token == 0 {
            ctx.wake_in(self.delay, 1);
            return;
        }
        self.issued_at = Some(ctx.now().as_u64());
        ctx.send(
            self.cache,
            CoreMsg {
                id: 1,
                addr: Addr::new(self.addr),
                kind: CoreKind::Store { value: 99 },
            }
            .into(),
        );
    }
}

/// One timeout setting's outcome.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configured 2c timeout in cycles.
    pub timeout: u64,
    /// CPU store latency in cycles (demand → fabricated recovery → done).
    pub store_latency: u64,
    /// Timeout errors reported to the OS.
    pub timeouts_reported: u64,
    /// Whether the host completed (it always must).
    pub completed: bool,
}

const BLOCK: u64 = 0x9000;

fn one(timeout: u64, host: HostProtocol, seed: u64) -> Row {
    // The fuzzing organization attaches a raw peer directly to the guard;
    // with an empty schedule (no steps, no responses) it is a perfectly
    // silent accelerator (a blind schedule would answer most invalidations
    // with a random response and exercise Guarantee 2b instead). We post a
    // single GetM from it (taking ownership) and never respond to anything
    // again.
    let raw_cfg = SystemConfig {
        host,
        cpu_cores: 1,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        xg: XgConfig {
            inv_timeout: timeout,
            ..XgConfig::default()
        },
        seed,
        ..SystemConfig::default()
    };
    let fuzz = xg_harness::FuzzOpts {
        schedule: Some(xg_harness::Schedule::default()),
        ..xg_harness::FuzzOpts::default()
    };
    let mut system = build_system(&raw_cfg, OsPolicy::ReportOnly, None, |slot, node, _| {
        match slot {
            CoreSlot::Cpu(_) => Box::new(OneStore {
                cache: node,
                addr: BLOCK,
                delay: 400, // let the silent owner take M first
                issued_at: None,
                latency: None,
            }),
            // The one slot past the (no) accelerator cores: the stand-in.
            CoreSlot::Accel(k) => Box::new(fuzz.stand_in(seed, k, node)),
        }
    });
    // The raw peer takes M on the block, then goes silent forever.
    let fuzzer = system.accels[0].fuzzer.expect("fuzz org has a raw peer");
    let xg = system.accels[0].xg.expect("guarded org");
    system.sim.post(
        fuzzer,
        xg,
        XgiMsg::new(Addr::new(BLOCK).block(), XgiKind::GetM).into(),
    );
    system.start_cores();
    let out = system
        .sim
        .run_with_watchdog(10_000_000, timeout * 4 + 100_000);
    let report = system.sim.report();
    let store = system
        .sim
        .get::<OneStore>(system.cpu_cores[0])
        .expect("cpu core");
    Row {
        timeout,
        store_latency: store.latency.unwrap_or(0),
        timeouts_reported: report.get("xg.errors.timeout"),
        completed: store.latency.is_some() && !out.stalled,
    }
}

/// Runs the timeout sweep on `jobs` workers, one shard per setting.
pub fn run(_scale: Scale, seed: u64, jobs: usize) -> Vec<Row> {
    sweep(vec![500u64, 2_000, 8_000], jobs, |t, _| {
        one(t, HostProtocol::Hammer, seed)
    })
}

/// Regression gate: a host that fails to complete fails the report.
pub fn failures(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| !r.completed)
        .map(|r| format!("E8 timeout={}: host did not complete", r.timeout))
        .collect()
}

/// Renders the E8 table.
pub fn table(rows: &[Row]) -> String {
    let mut t = Table::new(
        "E8 (§2.2, Guarantee 2c): recovery from a silent accelerator",
        &[
            "inv_timeout (cycles)",
            "cpu store latency",
            "timeouts reported",
            "host completed",
        ],
    );
    for r in rows {
        t.row(&[
            r.timeout.to_string(),
            r.store_latency.to_string(),
            r.timeouts_reported.to_string(),
            if r.completed { "yes" } else { "NO" }.into(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_tracks_timeout_and_host_always_completes() {
        for seed in 0..24 {
            let rows = run(Scale::Quick, seed, xg_harness::resolve_jobs(None));
            for r in &rows {
                assert!(r.completed, "seed {seed} timeout={}", r.timeout);
                assert!(
                    r.timeouts_reported >= 1,
                    "seed {seed} timeout={}",
                    r.timeout
                );
                assert!(
                    r.store_latency >= r.timeout,
                    "seed {seed}: latency {} below timeout {}",
                    r.store_latency,
                    r.timeout
                );
                assert!(
                    r.store_latency < r.timeout + 5_000,
                    "seed {seed}: latency {} far beyond timeout {}",
                    r.store_latency,
                    r.timeout
                );
            }
            assert!(rows[2].store_latency > rows[0].store_latency, "seed {seed}");
        }
    }
}
