//! The shell's own capacity bound, driven with the smallest protocol that
//! satisfies [`L1Protocol`].

use xg_mem::Replacement;
use xg_sim::{alphabet, Cycle, SimBuilder};

use super::*;
use crate::OsMsg;

alphabet! { enum ToyState { V, I, Busy } }
alphabet! { enum ToyEvent { Load, Store, Repl } }

#[derive(Debug, Clone, Copy)]
struct Valid;

impl From<Valid> for ToyState {
    fn from(_: Valid) -> ToyState {
        ToyState::V
    }
}

/// One stable state and one kind of transaction. Every network message
/// fills block [`FILL`], whose victim it writes back.
#[derive(Clone)]
struct Toy;

/// The block every network message fills.
const FILL: BlockAddr = BlockAddr::new(4);

impl L1Protocol for Toy {
    /// MSHR entries.
    type Config = usize;
    type Stable = Valid;
    type State = ToyState;
    type Event = ToyEvent;
    type Txn = ();
    type Loan = ();

    const FAMILY: &'static str = "toy";
    const INVALID: ToyState = ToyState::I;
    const LOAD: ToyEvent = ToyEvent::Load;
    const STORE: ToyEvent = ToyEvent::Store;
    const REPL: ToyEvent = ToyEvent::Repl;

    fn build(mshr_entries: usize) -> (SetAssocCache<Line<Valid>>, usize, Self) {
        let cache = SetAssocCache::new(1, 1, Replacement::Lru, 0);
        (cache, mshr_entries, Toy)
    }
    fn txn_state(_: &()) -> ToyState {
        ToyState::Busy
    }
    fn store_hit(state: Valid) -> Option<Valid> {
        Some(state)
    }
    fn open_get(&mut self, _: BlockAddr, _: bool, _: Option<Line<Valid>>) -> ((), Message) {
        unreachable!("every test here keeps the MSHR full")
    }
    fn evict(&mut self, _: BlockAddr, _: &Line<Valid>) -> Option<((), Message)> {
        Some(((), OsMsg::DisableAccelerator.into()))
    }
    fn handle_net(l1: &mut HostL1<Self>, _: NodeId, _: Message, ctx: &mut Ctx<'_>) -> u64 {
        let line = Line {
            state: Valid,
            dirty: true,
            data: DataBlock::default(),
        };
        l1.install_line(FILL, line, (ToyState::Busy, ToyEvent::Load), ctx);
        FILL.as_u64()
    }
    fn digest_txn(_: &(), _: &mut CheckDigest) {}
    fn report(&self, _: &str, _: &mut Report) {}
}

/// A one-line cache holding block 3, its one MSHR taken by block 1.
fn full_l1() -> HostL1<Toy> {
    let mut l1 = HostL1::<Toy>::new("toy", NodeId::from_index(0), 1);
    l1.mshr.open(BlockAddr::new(1), (), Cycle::ZERO, None);
    let line = Line {
        state: Valid,
        dirty: true,
        data: DataBlock::default(),
    };
    l1.cache.insert(BlockAddr::new(3), line);
    l1
}

/// With every MSHR taken, a core miss waits in `stalled` and a fill's
/// victim stays in the array; each counts one stall, and neither opens a
/// record past the bound.
#[test]
fn a_full_mshr_opens_no_record_for_a_miss_or_a_victim() {
    let mut builder = SimBuilder::new(1);
    let l1 = builder.add(Box::new(full_l1()));
    let mut sim = builder.build();
    let load = CoreMsg {
        id: 0,
        addr: BlockAddr::new(2).base(),
        kind: CoreKind::Load,
    };
    sim.post(l1, l1, load.into());
    sim.run_to_quiescence(100);
    let cache = sim.get::<HostL1<Toy>>(l1).unwrap();
    assert_eq!((cache.stats.misses, cache.stats.mshr_stalls), (1, 1));
    assert_eq!((cache.mshr.len(), cache.stalled.len()), (1, 1));

    // The fill finds no MSHR for its dirty victim: the victim goes back,
    // and the fill, with no way left, evicts it unannounced — a counted
    // violation. The stalled load still finds every MSHR taken.
    sim.post(l1, l1, OsMsg::DisableAccelerator.into());
    sim.run_to_quiescence(100);
    let cache = sim.get::<HostL1<Toy>>(l1).unwrap();
    assert_eq!(cache.stats.mshr_stalls, 2);
    assert_eq!((cache.mshr.len(), cache.stalled.len()), (1, 1));
    let why = "fill evicted a line without a writeback";
    assert_eq!(cache.stats.violation_reasons.get(why), Some(&1));
    assert_eq!(cache.protocol_violations(), 1);
    assert_eq!(cache.probe_state(BlockAddr::new(3)), "I");
    assert_eq!(cache.probe_state(FILL), "V");
}
