//! `Records` against a `BTreeMap` reference model: arbitrary `open`,
//! `park`, `close`, drain (`next` until it admits nothing) and
//! checkpoint-restore sequences over a few blocks.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xg_fsm::{Next, Records};
use xg_mem::{BlockAddr, Recycle};
use xg_sim::Cycle;

const BLOCKS: u64 = 4;

/// One step: `(op, block, param)`.
type Op = (u8, u64, u32);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..8, 0u64..BLOCKS, 0u32..16), 0..120)
}

/// A record of the model: the transaction (`None` is idle) and the queue.
type Model = BTreeMap<u64, (Option<u32>, Vec<u32>)>;

/// The admission predicate `param` names: messages `m` with
/// `m % modulus == rest` (modulus 1 admits everything), and while no
/// transaction is open everything, unless `param` is 12 or more.
fn admits(param: u32, txn: &Option<u32>, m: u32) -> bool {
    let modulus = 1 + param % 4;
    txn.is_none() && param < 12 || m % modulus == param / 4 % modulus
}

/// The table as the model writes it: block, transaction, since, queue.
fn dump(records: &Records<Option<u32>, u32>) -> Vec<(u64, Option<u32>, Cycle, Vec<u32>)> {
    let mut rows: Vec<_> = records
        .iter()
        .map(|(a, r)| {
            (
                a.as_u64(),
                r.txn,
                r.since,
                r.queue.iter().copied().collect(),
            )
        })
        .collect();
    rows.sort();
    rows
}

/// Drains `addr` the way a controller does: `next` until it admits
/// nothing, on the table and on the model alike.
fn drain(
    records: &mut Records<Option<u32>, u32>,
    model: &mut Model,
    addr: u64,
    param: u32,
) -> Result<(), TestCaseError> {
    loop {
        let got = records.next(BlockAddr::new(addr), |txn, &m| admits(param, txn, m));
        let want = match model.get_mut(&addr) {
            None => Next::Hold,
            Some((txn, queue)) => match queue.iter().position(|&m| admits(param, txn, m)) {
                Some(i) => Next::Run(queue.remove(i)),
                None if txn.is_none() && queue.is_empty() => {
                    model.remove(&addr);
                    Next::Closed
                }
                None => Next::Hold,
            },
        };
        let done = !matches!(want, Next::Run(_));
        prop_assert_eq!(got, want);
        if done {
            return Ok(());
        }
    }
}

/// Runs `ops` against the table and the model, then drains everything.
/// Returns the buffers the pool kept and the most queues ever open at once.
fn run(ops: Vec<Op>) -> Result<(usize, usize), TestCaseError> {
    let mut records: Records<Option<u32>, u32> = Records::default();
    let mut model = Model::new();
    let mut saved = (records.clone(), model.clone());
    let (mut next, mut most_open) = (0u32, 0usize);
    for (op, addr, param) in ops {
        let block = BlockAddr::new(addr);
        let now = Cycle::new(u64::from(next));
        match op {
            // Open a transaction, with or without a waiter.
            0 | 1 => {
                let waiter = (op == 1).then_some(next);
                records.open(block, Some(param), now, waiter);
                let record = records.get(&block).unwrap();
                prop_assert_eq!(record.txn, Some(param));
                prop_assert_eq!(record.since, now);
                let (txn, queue) = model.entry(addr).or_default();
                *txn = Some(param);
                queue.extend(waiter);
                next += 1;
            }
            // Park behind the open record, if there is one.
            2 => {
                let parked = records.park(block, next);
                let open = model.get_mut(&addr);
                prop_assert_eq!(parked, open.is_some());
                if let Some((_, queue)) = open {
                    queue.push(next);
                }
                next += 1;
            }
            // Take the record out whole and re-dispatch its waiters.
            3 => {
                let got = records.close(block);
                let want = model.remove(&addr);
                prop_assert_eq!(got.is_some(), want.is_some());
                if let (Some(mut got), Some((txn, queue))) = (got, want) {
                    prop_assert_eq!(got.txn, txn);
                    let mut waiters = Vec::new();
                    while let Some(m) = got.queue.pop_first(records.spares(), |_| true) {
                        waiters.push(m);
                    }
                    prop_assert_eq!(waiters, queue);
                }
            }
            // The transaction finishes; the block drains.
            4 => {
                if let Some(record) = records.get_mut(&block) {
                    record.txn = None;
                }
                if let Some((txn, _)) = model.get_mut(&addr) {
                    *txn = None;
                }
                drain(&mut records, &mut model, addr, param)?;
            }
            // A drain while the transaction may still be open.
            5 => drain(&mut records, &mut model, addr, param)?,
            // Checkpoint, and restore the last checkpoint in place.
            6 => saved = (records.clone(), model.clone()),
            _ => {
                records.clone_from(&saved.0);
                model = saved.1.clone();
            }
        }
        // The table holds what the model holds, in arrival order, and
        // a record exists exactly while its transaction or its queue is
        // non-empty.
        let rows: Vec<_> = dump(&records)
            .into_iter()
            .map(|(a, txn, _, queue)| (a, (txn, queue)))
            .collect();
        prop_assert_eq!(&rows, &model.clone().into_iter().collect::<Vec<_>>());
        prop_assert!(model
            .values()
            .all(|(txn, queue)| txn.is_some() || !queue.is_empty()));
        prop_assert_eq!(records.len(), model.len());
        most_open = most_open.max(model.values().filter(|(_, q)| !q.is_empty()).count());
    }
    // A restore copies the checkpoint exactly.
    records.clone_from(&saved.0);
    prop_assert_eq!(dump(&records), dump(&saved.0));
    // Drain everything, to count what the pool kept.
    for addr in 0..BLOCKS {
        if let Some(record) = records.get_mut(&BlockAddr::new(addr)) {
            record.txn = None;
        }
        while let Next::Run(_) = records.next(BlockAddr::new(addr), |_, _| true) {}
    }
    prop_assert!(records.is_empty());
    let mut kept = 0;
    while records.spares().take().capacity() > 0 {
        kept += 1;
    }
    Ok((kept, most_open))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn records_match_a_btreemap_model(ops in ops()) {
        let (kept, most_open) = run(ops)?;
        // The pool never keeps more buffers than were ever open at once,
        // restores included.
        prop_assert!(kept <= most_open, "{} kept, at most {} open", kept, most_open);
    }
}
