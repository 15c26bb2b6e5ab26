//! Guarantee 0 holds for any block index an accelerator can name.
//!
//! History: the guard looks up the page permission of a message's block,
//! and `BlockAddr::page` once went through the block's byte address. For a
//! block past 2^58 the multiply wrapped: in release a `GetM` to block
//! 2^58+3 landed on page 0, the read-write attack pool, and every guarded
//! configuration granted it; in debug the same step panicked with
//! `attempt to multiply with overflow`. `Schedule::from_text` accepts any
//! `u64` block, so a corpus file could do the same.

use xg_core::XgVariant;
use xg_harness::campaign::{run_schedule_with, CampaignOpts};
use xg_harness::fuzz::{FuzzStep, Schedule, FUZZ_KIND_CODES};
use xg_harness::{AccelOrg, HostProtocol, Instrumentation, SystemConfig};

#[test]
fn blocks_past_2_58_are_denied_untraced_and_traced() {
    let opts = CampaignOpts {
        cpu_ops: 40,
        ..CampaignOpts::default()
    };
    for instr in [Instrumentation::off(), Instrumentation::replay()] {
        for host in [HostProtocol::Hammer, HostProtocol::Mesi] {
            for variant in [XgVariant::FullState, XgVariant::Transactional] {
                let base = SystemConfig {
                    host,
                    accel: AccelOrg::FuzzXg { variant },
                    ..SystemConfig::default()
                };
                for block in [1u64 << 57, (1 << 58) + 3, u64::MAX] {
                    for kind in 0..FUZZ_KIND_CODES {
                        let schedule = Schedule {
                            steps: vec![FuzzStep {
                                delay: 1,
                                block,
                                kind,
                                payload_blocks: 1,
                                fill: 0,
                            }],
                            responses: Vec::new(),
                        };
                        let out = run_schedule_with(&base, &opts, &schedule, 1, &instr);
                        assert_eq!(
                            out.report.get("fuzz_accel.grants_seen"),
                            0,
                            "{}: kind {kind} at block {block:#x} was granted",
                            base.name()
                        );
                    }
                }
            }
        }
    }
}
