//! The shell's own failure paths, driven with the smallest protocol that
//! satisfies [`L1Protocol`].

use xg_mem::Replacement;
use xg_sim::alphabet;

use super::*;

alphabet! { enum ToyState { V, I, Busy } }
alphabet! { enum ToyEvent { Load, Store, Repl } }

#[derive(Debug, Clone, Copy)]
struct Valid;

impl From<Valid> for ToyState {
    fn from(_: Valid) -> ToyState {
        ToyState::V
    }
}

/// One stable state, one kind of transaction, nothing to say to a network.
#[derive(Clone)]
struct Toy;

impl L1Protocol for Toy {
    /// MSHR entries.
    type Config = usize;
    type Stable = Valid;
    type State = ToyState;
    type Event = ToyEvent;
    type Txn = ();

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
        unreachable!("no test here sends a core op")
    }
    fn evict(&mut self, _: BlockAddr, _: &Line<Valid>) -> Option<((), Message)> {
        None
    }
    fn handle_net(_: &mut HostL1<Self>, _: NodeId, _: Message, _: &mut Ctx<'_>) -> u64 {
        u64::MAX
    }
    fn digest_txn(_: &(), _: &mut CheckDigest) {}
    fn report(&self, _: &str, _: &mut Report) {}
}

fn open() -> Open<()> {
    Open {
        txn: (),
        started: Cycle::ZERO,
        waiting: Default::default(),
    }
}

/// A one-entry cache whose entry is taken by block 1.
fn full_l1() -> HostL1<Toy> {
    let mut l1 = HostL1::<Toy>::new("toy", NodeId::from_index(0), 1);
    l1.mshr
        .alloc(BlockAddr::new(1), open())
        .expect("the one entry is free");
    l1
}

fn violations(l1: &HostL1<Toy>, why: &str) -> (u64, u64) {
    let mut report = Report::new();
    Component::report(l1, &mut report);
    (
        report.get("toy.protocol_violation"),
        report.get(&format!("toy.violation[{why}]")),
    )
}

/// Both allocations the shell makes into a slot it believes free — a Get
/// past the capacity check, a record a handler removed and puts back —
/// count a violation under their own reason when the slot is taken, drop
/// the record and leave the table as it was. Neither panics.
#[test]
fn a_record_that_finds_its_slot_taken_is_a_counted_violation() {
    let mut l1 = full_l1();
    // `start_get` opens its record through `open_record` with this reason.
    let why = "Get opened past the MSHR's capacity";
    assert!(!l1.open_record(BlockAddr::new(2), open(), why));
    assert_eq!(violations(&l1, why), (1, 1));
    assert_eq!(l1.protocol_violations(), 1);
    assert_eq!(l1.probe_state(BlockAddr::new(2)), "I");

    let mut l1 = full_l1();
    l1.restore(BlockAddr::new(2), Some(open()));
    assert_eq!(
        violations(&l1, "restored record found its slot taken"),
        (1, 1)
    );
    assert_eq!(l1.probe_state(BlockAddr::new(1)), "Busy");
    assert_eq!(l1.probe_state(BlockAddr::new(2)), "I");

    // With the slot free, both open the record and count nothing.
    let mut l1 = HostL1::<Toy>::new("toy", NodeId::from_index(0), 1);
    l1.restore(BlockAddr::new(2), Some(open()));
    l1.restore(BlockAddr::new(3), None);
    assert_eq!(l1.protocol_violations(), 0);
    assert_eq!(l1.probe_state(BlockAddr::new(2)), "Busy");
}
