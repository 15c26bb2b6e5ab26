//! A block-based video decoder sharing frames with the host at fine grain.
//!
//! ```text
//! cargo run --example video_decoder
//! ```
//!
//! The scenario the paper's introduction motivates: the CPU produces
//! compressed "frame" data, the accelerator decodes it block by block, and
//! the CPU consumes the result — all through ordinary coherent loads and
//! stores, with flag-based synchronization (no explicit DMA or flushes
//! anywhere). The decoder uses **256-byte accelerator blocks** over the
//! host's 64-byte blocks; Crossing Guard performs the merge/split
//! translation (paper §2.5).

use crossing_guard::core::{OsPolicy, XgConfig, XgVariant};
use crossing_guard::harness::system::CoreSlot;
use crossing_guard::harness::{build_system, AccelOrg, HostProtocol, SystemConfig};
use crossing_guard::mem::Addr;
use crossing_guard::proto::{CoreKind, CoreMsg, Ctx, Message};
use crossing_guard::sim::{Component, NodeId};

const FRAME_WORDS: u64 = 64;
const INPUT: u64 = 0x10_0000;
const OUTPUT: u64 = 0x20_0000;
const FLAG: u64 = 0x30_0000;

/// Decode model: the "codec" doubles each coefficient and adds one.
fn decode(word: u64) -> u64 {
    word * 2 + 1
}

/// A tiny blocking script interpreter: each core runs a list of steps.
enum Step {
    Store(u64, u64),
    /// Load `addr` and stash the value.
    Load(u64),
    /// Spin until loading `addr` yields `value`.
    WaitFor(u64, u64),
}

struct ScriptCore {
    name: String,
    cache: NodeId,
    steps: Vec<Step>,
    pc: usize,
    next_id: u64,
    waiting: Option<(u64, Step)>,
    /// Values captured by `Load`, in order.
    loaded: Vec<u64>,
    done_at: Option<u64>,
}

impl ScriptCore {
    fn new(name: impl Into<String>, cache: NodeId, steps: Vec<Step>) -> Self {
        ScriptCore {
            name: name.into(),
            cache,
            steps,
            pc: 0,
            next_id: 0,
            waiting: None,
            loaded: Vec::new(),
            done_at: None,
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.waiting.is_some() {
            return;
        }
        if self.pc >= self.steps.len() {
            if self.done_at.is_none() {
                self.done_at = Some(ctx.now().as_u64());
            }
            return;
        }
        let step = self.steps[self.pc].take_copy();
        self.pc += 1;
        let id = self.next_id;
        self.next_id += 1;
        let (addr, kind) = match &step {
            Step::Store(a, v) => (*a, CoreKind::Store { value: *v }),
            Step::Load(a) | Step::WaitFor(a, _) => (*a, CoreKind::Load),
        };
        self.waiting = Some((id, step));
        ctx.send(
            self.cache,
            CoreMsg {
                id,
                addr: Addr::new(addr),
                kind,
            }
            .into(),
        );
    }
}

impl Step {
    fn take_copy(&self) -> Step {
        match self {
            Step::Store(a, v) => Step::Store(*a, *v),
            Step::Load(a) => Step::Load(*a),
            Step::WaitFor(a, v) => Step::WaitFor(*a, *v),
        }
    }
}

impl Component<Message> for ScriptCore {
    fn name(&self) -> &str {
        &self.name
    }
    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        let Some((id, step)) = self.waiting.take() else {
            return;
        };
        if c.id != id {
            self.waiting = Some((id, step));
            return;
        }
        match (&step, c.kind) {
            (Step::Load(_), CoreKind::LoadResp { value }) => self.loaded.push(value),
            (Step::WaitFor(_, want), CoreKind::LoadResp { value }) if value != *want => {
                // Not yet: re-execute the wait after a short poll delay.
                self.pc -= 1;
                ctx.wake_in(25, 0);
                return;
            }
            (Step::Store(..), CoreKind::StoreResp) => {}
            _ => {}
        }
        ctx.note_progress();
        self.issue(ctx);
    }
    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.issue(ctx);
    }
}

fn main() {
    // Hammer host; Full State guard translating 256 B accelerator blocks.
    let cfg = SystemConfig {
        host: HostProtocol::Hammer,
        cpu_cores: 1,
        accel: AccelOrg::Xg {
            variant: XgVariant::FullState,
            two_level: false,
        },
        xg: XgConfig {
            block_blocks: 4, // 4 × 64 B = 256 B accelerator blocks
            ..XgConfig::default()
        },
        seed: 7,
        ..SystemConfig::default()
    };
    println!(
        "configuration: {} with {}B accelerator blocks",
        cfg.name(),
        cfg.xg.block_blocks * 64
    );

    // CPU: write the frame, raise flag=1, wait for flag=2, read output.
    let mut cpu_steps = Vec::new();
    for i in 0..FRAME_WORDS {
        cpu_steps.push(Step::Store(INPUT + i * 8, 1000 + i));
    }
    cpu_steps.push(Step::Store(FLAG, 1));
    cpu_steps.push(Step::WaitFor(FLAG, 2));
    for i in 0..FRAME_WORDS {
        cpu_steps.push(Step::Load(OUTPUT + i * 8));
    }

    // Accelerator: wait for flag=1, decode every word, raise flag=2.
    let mut acc_steps = vec![Step::WaitFor(FLAG, 1)];
    for i in 0..FRAME_WORDS {
        acc_steps.push(Step::Load(INPUT + i * 8));
    }
    // The decode happens "inside" the accelerator; we model it by storing
    // the transformed values (computed below when building the script is
    // impossible — the accelerator must *observe* them — so instead the
    // accelerator stores decode(expected) and the CPU verifies both the
    // observation (loads) and the output).
    for i in 0..FRAME_WORDS {
        acc_steps.push(Step::Store(OUTPUT + i * 8, decode(1000 + i)));
    }
    acc_steps.push(Step::Store(FLAG, 2));

    let mut system = build_system(
        &cfg,
        OsPolicy::ReportOnly,
        None,
        |slot, cache, _| match slot {
            CoreSlot::Cpu(_) => Box::new(ScriptCore::new(
                "cpu",
                cache,
                std::mem::take(&mut cpu_steps),
            )),
            CoreSlot::Accel(_) => Box::new(ScriptCore::new(
                "decoder",
                cache,
                std::mem::take(&mut acc_steps),
            )),
        },
    );
    system.start_cores();
    let out = system.sim.run_with_watchdog(50_000_000, 500_000);
    assert!(!out.stalled, "system deadlocked");

    // Verify: the accelerator observed the frame the CPU wrote, and the
    // CPU read back exactly the decoded frame.
    let decoder = system.sim.get::<ScriptCore>(system.accel_cores[0]).unwrap();
    let observed: Vec<u64> = decoder.loaded.clone();
    let cpu = system.sim.get::<ScriptCore>(system.cpu_cores[0]).unwrap();
    let output: Vec<u64> = cpu.loaded.clone();

    let frame_ok = observed
        .iter()
        .enumerate()
        .all(|(i, &v)| v == 1000 + i as u64);
    let decode_ok = output
        .iter()
        .enumerate()
        .all(|(i, &v)| v == decode(1000 + i as u64));
    println!(
        "\ndecoder observed the frame coherently: {}",
        if frame_ok { "yes" } else { "NO" }
    );
    println!(
        "CPU read back the decoded frame:        {}",
        if decode_ok { "yes" } else { "NO" }
    );
    assert!(frame_ok && decode_ok);

    let report = system.sim.report();
    println!("\nfinished at cycle {}", out.now);
    println!(
        "interface messages: {} in / {} out (256 B blocks move 4 host blocks per message)",
        report.get("xg.accel_received"),
        report.get("xg.accel_sent")
    );
    println!(
        "guard errors: {} (a correct accelerator never trips a guarantee)",
        report.get("xg.errors_total")
    );
}
