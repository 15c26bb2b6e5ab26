//! Property tests pinning how a fuzz accelerator replays its schedule's
//! data, which blind runs and the campaign alike rely on: an empty
//! response list never answers an invalidation, an all-`respond` list
//! answers every one, and equal step delays give a fixed injection
//! cadence. A blind run is the replay of the schedule it drew.
//!
//! Each case runs a full fuzz simulation, so case counts are small.

use proptest::prelude::*;
use xg_core::XgVariant;
use xg_harness::campaign::CPU_POOL_PAGE;
use xg_harness::fuzz::InvPolicy;
use xg_harness::{run_fuzz, AccelOrg, FuzzOpts, HostProtocol, Schedule, SystemConfig};

fn host_strategy() -> impl Strategy<Value = HostProtocol> {
    prop_oneof![Just(HostProtocol::Hammer), Just(HostProtocol::Mesi)]
}

fn fuzz_cfg(host: HostProtocol, seed: u64) -> SystemConfig {
    SystemConfig {
        host,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        seed,
        ..SystemConfig::default()
    }
}

/// Options that replay `schedule` with the read-only window over the CPU
/// testers' pool open, so invalidations actually reach the fuzzer.
fn scripted(schedule: Schedule) -> FuzzOpts {
    FuzzOpts {
        schedule: Some(schedule),
        read_only_pages: vec![CPU_POOL_PAGE],
        ..FuzzOpts::default()
    }
}

/// The schedule the fuzz accelerator of `cfg` replays under `opts`, read
/// back from the stand-in a fuzz run builds.
fn drawn_schedule(cfg: &SystemConfig, opts: &FuzzOpts) -> Schedule {
    let guard = xg_sim::NodeId::from_index(0);
    opts.stand_in(cfg.seed, 0, guard).schedule().clone()
}

/// A blind run and the replay of the schedule it drew are the same run,
/// byte for byte, on every guarded configuration: blind failures shrink
/// and emit like campaign ones.
#[test]
fn a_blind_run_is_the_replay_of_its_drawn_schedule() {
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            let cfg = SystemConfig {
                host,
                accel: AccelOrg::FuzzXg { variant },
                seed: 0xB11D,
                ..SystemConfig::default()
            };
            let blind = FuzzOpts {
                messages: 300,
                read_only_pages: vec![CPU_POOL_PAGE],
                ..FuzzOpts::default()
            };
            let schedule = drawn_schedule(&cfg, &blind);
            assert_eq!(schedule.steps.len(), 300);
            let replay = FuzzOpts {
                schedule: Some(schedule),
                ..blind.clone()
            };
            let a = run_fuzz(&cfg, &blind, 300).report.to_json();
            let b = run_fuzz(&cfg, &replay, 300).report.to_json();
            assert!(a == b, "{}: blind run and its replay differ", cfg.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5 })]

    /// An empty response list means *zero* invalidation responses, and a
    /// list whose every entry responds means *every* invalidation gets
    /// one — not "approximately none/all".
    #[test]
    fn response_lists_are_honored_exactly(
        host in host_strategy(),
        seed in 0u64..10_000,
        codes in proptest::collection::vec((0u8..5, 1u8..=3), 1..4),
    ) {
        let blind = FuzzOpts {
            messages: 600,
            read_only_pages: vec![CPU_POOL_PAGE],
            ..FuzzOpts::default()
        };
        let steps = blind.schedule_for(seed, "fuzz_accel").steps;
        let silent = Schedule { steps: steps.clone(), responses: Vec::new() };
        let responses = codes
            .into_iter()
            .map(|(kind, payload_blocks)| InvPolicy { respond: true, kind, payload_blocks })
            .collect();
        let answering = Schedule { steps, responses };
        let never = run_fuzz(&fuzz_cfg(host, seed), &scripted(silent), 400).report;
        let always = run_fuzz(&fuzz_cfg(host, seed), &scripted(answering), 400).report;
        let invs = never.get("fuzz_accel.invs_seen") + always.get("fuzz_accel.invs_seen");
        prop_assert!(invs > 0, "{host:?} seed {seed}: no invalidations reached the fuzzer");
        prop_assert_eq!(never.get("fuzz_accel.inv_responses"), 0);
        prop_assert_eq!(
            always.get("fuzz_accel.inv_responses"),
            always.get("fuzz_accel.invs_seen")
        );
    }

    /// Steps that all wait `g` cycles pin the injection cadence completely:
    /// the k-th injection happens exactly `k * g` cycles after the first,
    /// so the whole burst spans `(n-1) * g`.
    #[test]
    fn equal_step_delays_give_fixed_cadence(
        host in host_strategy(),
        seed in 0u64..10_000,
        g in 1u64..40,
    ) {
        let blind = FuzzOpts { messages: 50, ..FuzzOpts::default() };
        let mut schedule = blind.schedule_for(seed, "fuzz_accel");
        for step in &mut schedule.steps {
            step.delay = g;
        }
        let n = schedule.steps.len() as u64;
        let opts = FuzzOpts { schedule: Some(schedule), ..FuzzOpts::default() };
        let out = run_fuzz(&fuzz_cfg(host, seed), &opts, 200);
        let sent = out.report.get("fuzz_accel.sent");
        prop_assert_eq!(sent, n, "{host:?} seed {seed}: injection burst cut short");
        prop_assert_eq!(out.report.get("fuzz_accel.inject_span"), (n - 1) * g);
    }
}
