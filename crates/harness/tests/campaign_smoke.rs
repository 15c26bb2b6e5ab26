//! End-to-end smoke test for the coverage-guided campaign: a tiny
//! campaign against one guarded configuration must run clean and build a
//! corpus whose replays rebuild its coverage.

use std::collections::BTreeMap;

use xg_core::XgVariant;
use xg_harness::campaign::distinct_pairs;
use xg_harness::{
    guarantee_probe, run_campaign, run_campaign_with, run_schedule, run_schedule_with, AccelOrg,
    CampaignOpts, FailureKind, HostProtocol, Instrumentation, SystemConfig,
};
use xg_sim::TransitionCoverage;

#[test]
fn tiny_campaign_runs_clean_and_builds_a_corpus() {
    let base = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        generations: 3,
        batch: 3,
        run_len: 20,
        cpu_ops: 200,
        ..CampaignOpts::default()
    };
    let mut os_errors = 0;
    let out = run_campaign_with(&base, &opts, |_, _, run| {
        os_errors += run.report.get("xg.errors_total");
    });

    assert_eq!(out.runs, 9);
    assert!(out.injected > 0, "schedules inject messages");
    assert!(
        out.failures.is_empty(),
        "guarded host must stay safe: {:?}",
        out.failures.iter().map(|f| &f.summary).collect::<Vec<_>>()
    );
    assert!(out.distinct_pairs() > 0, "coverage feedback is live");
    assert!(!out.corpus.is_empty(), "first generation always discovers");
    // The guard should be reporting plenty of OS errors for this garbage.
    assert!(os_errors > 0, "the guard reported the attack");
    assert_eq!(
        (out.cut_live, out.capped),
        (0, 0),
        "every execution quiesced"
    );

    // The campaign's feedback is exactly what one untraced run of each
    // schedule produces: runs that stayed out of the corpus added no row,
    // so replaying the corpus alone must rebuild the same coverage.
    let mut replayed: BTreeMap<String, TransitionCoverage> = BTreeMap::new();
    for entry in &out.corpus {
        let run = run_schedule(&base, &opts, &entry.schedule, entry.seed);
        for (machine, cov) in run.report.fsms() {
            replayed.entry(machine.to_string()).or_default().merge(cov);
        }
    }
    assert_eq!(distinct_pairs(&replayed), out.distinct_pairs());
}

/// A guard reporting the fuzzer's garbage to the OS is the guard working,
/// not a failure: `run_schedule` is one untraced simulation and attaches no
/// diagnosis, and asking for one explicitly does not perturb the run.
#[test]
fn passing_attacks_are_simulated_once_and_traced_only_on_request() {
    for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
        for variant in [XgVariant::FullState, XgVariant::Transactional] {
            let base = SystemConfig {
                host,
                accel: AccelOrg::FuzzXg { variant },
                ..SystemConfig::default()
            };
            let name = base.name();
            let opts = CampaignOpts {
                cpu_ops: 400,
                ..CampaignOpts::default()
            };
            let out = run_schedule(&base, &opts, &guarantee_probe(), 0xF1);
            assert!(out.os_errors > 0, "{name}: attack must be detected");
            assert_eq!(FailureKind::of(&out), None, "{name}");
            assert_eq!(out.post_mortem, None, "{name}");
            assert_eq!(out.timeline, None, "{name}");

            let traced = run_schedule_with(
                &base,
                &opts,
                &guarantee_probe(),
                0xF1,
                &Instrumentation::replay(),
            );
            assert!(
                traced.post_mortem.is_some(),
                "{name}: post-mortem on request"
            );
            assert!(traced.timeline.is_some(), "{name}: timeline on request");
            assert_eq!(
                traced.report.without_profile().to_json(),
                out.report.without_profile().to_json(),
                "{name}: tracing perturbed the run"
            );
        }
    }
}

/// The multi-guard campaign path: with `num_accels = 2` every run carries
/// a correct guarded sibling. The campaign must still run clean, and every
/// execution's per-guard counters must pin every OS error on the attacked
/// guard while the sibling stays spotless and alive.
#[test]
fn two_guard_campaign_contains_the_blast() {
    let base = SystemConfig {
        host: HostProtocol::Hammer,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::FullState,
        },
        ..SystemConfig::default()
    };
    let opts = CampaignOpts {
        generations: 2,
        batch: 3,
        run_len: 15,
        cpu_ops: 150,
        num_accels: 2,
        ..CampaignOpts::default()
    };
    // Attribution, execution by execution: the attacked guard rejected
    // the garbage; the sibling guard had nothing to reject and its tester
    // saw clean data while still making progress.
    let mut attacked_os_errors = 0;
    let out = run_campaign_with(&base, &opts, |_, seed, run| {
        attacked_os_errors += run.report.get("xg.errors_total");
        assert_eq!(run.report.get("a1_xg.errors_total"), 0, "seed {seed}");
        assert_eq!(run.report.get("guard.a1_xg.data_errors"), 0, "seed {seed}");
        assert!(
            run.report.get("guard.a1_xg.ops_completed") > 0,
            "seed {seed}"
        );
    });

    assert_eq!(out.runs, 6);
    assert!(
        out.failures.is_empty(),
        "two-guard campaign must stay safe: {:?}",
        out.failures.iter().map(|f| &f.summary).collect::<Vec<_>>()
    );
    assert_eq!(
        (out.cut_live, out.capped),
        (0, 0),
        "every execution quiesced"
    );
    assert!(attacked_os_errors > 0, "attack engaged");
}

#[test]
fn campaign_is_deterministic_across_worker_counts() {
    let base = SystemConfig {
        host: HostProtocol::Mesi,
        accel: AccelOrg::FuzzXg {
            variant: XgVariant::Transactional,
        },
        ..SystemConfig::default()
    };
    let opts = |jobs| CampaignOpts {
        generations: 2,
        batch: 3,
        run_len: 15,
        cpu_ops: 150,
        jobs: Some(jobs),
        ..CampaignOpts::default()
    };
    let serial = run_campaign(&base, &opts(1));
    let parallel = run_campaign(&base, &opts(4));
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.injected, parallel.injected);
    assert_eq!(serial.distinct_pairs(), parallel.distinct_pairs());
    assert_eq!(serial.corpus.len(), parallel.corpus.len());
    for (a, b) in serial.corpus.iter().zip(&parallel.corpus) {
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.energy, b.energy);
    }
}
