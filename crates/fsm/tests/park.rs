//! `Parked` against a plain `Vec` reference model: arbitrary `park`,
//! `park_ahead` and `pop_first` sequences over a few queues that share one
//! spare pool.

use proptest::prelude::*;
use xg_fsm::Parked;
use xg_mem::{Recycle, Spares};

const QUEUES: usize = 3;

/// One step: `(op, queue, param, other queue)`.
type Op = (u8, usize, u32, usize);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec((0u8..3, 0usize..QUEUES, 0u32..16, 0usize..QUEUES), 0..80)
}

/// The admission predicate `param` names: messages `m` with
/// `m % modulus == rest`; modulus 1 admits everything (FIFO).
fn admits(param: u32, m: u32) -> bool {
    let modulus = 1 + param % 4;
    m % modulus == param / 4 % modulus
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn parked_matches_a_vec_model(ops in ops()) {
        let mut spares: Spares<Parked<u32>> = Spares::default();
        let mut queues: Vec<Parked<u32>> = (0..QUEUES).map(|_| Parked::default()).collect();
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); QUEUES];
        let (mut next, mut most_open) = (0u32, 0usize);
        for (op, q, param, other) in ops {
            match op {
                0 => {
                    queues[q].park(next, &mut spares);
                    model[q].push(next);
                    next += 1;
                }
                1 if other != q => {
                    let ahead = std::mem::take(&mut queues[other]);
                    queues[q].park_ahead(ahead, &mut spares);
                    let mut ahead = std::mem::take(&mut model[other]);
                    ahead.append(&mut model[q]);
                    model[q] = ahead;
                }
                1 => {}
                _ => {
                    let got = queues[q].pop_first(&mut spares, |&m| admits(param, m));
                    let want = model[q]
                        .iter()
                        .position(|&m| admits(param, m))
                        .map(|i| model[q].remove(i));
                    prop_assert_eq!(got, want);
                }
            }
            for (queue, model) in queues.iter().zip(&model) {
                prop_assert_eq!(queue.iter().copied().collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(queue.len(), model.len());
                // A queue holds a buffer only while something is parked.
                prop_assert_eq!(queue.capacity() > 0, !model.is_empty());
            }
            most_open = most_open.max(model.iter().filter(|m| !m.is_empty()).count());
        }
        // Drain everything in FIFO order: arrival order within each queue.
        for (queue, model) in queues.iter_mut().zip(&model) {
            let mut drained = Vec::new();
            while let Some(m) = queue.pop_first(&mut spares, |_| true) {
                drained.push(m);
            }
            prop_assert_eq!(&drained, model);
        }
        // The pool never keeps more buffers than were ever open at once.
        let mut kept = 0;
        while spares.take().capacity() > 0 {
            kept += 1;
        }
        prop_assert!(kept <= most_open, "{} kept, at most {} open", kept, most_open);
    }

    #[test]
    fn park_ahead_goes_before_every_later_arrival(
        early in collection::vec(0u32..100, 1..6),
        later in collection::vec(100u32..200, 0..6),
    ) {
        let mut spares = Spares::default();
        let (mut waiting, mut queue) = (Parked::default(), Parked::default());
        early.iter().for_each(|&m| waiting.park(m, &mut spares));
        later.iter().for_each(|&m| queue.park(m, &mut spares));
        queue.park_ahead(waiting, &mut spares);
        let order: Vec<u32> = queue.iter().copied().collect();
        prop_assert_eq!(order, [early, later].concat());
    }
}
