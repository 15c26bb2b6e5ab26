//! Reference seconds: host time with the sandbox's speed drift divided out.
//!
//! The two-core box this runs on changes speed by ±20% for tens of seconds
//! at a time (neighbours on the same host), which is more than any bound a
//! regression gate could use: sets of ten 12-iteration medians of one
//! binary on one input spread 26–37% on raw wall time in a bad quarter of
//! an hour. So every timed
//! iteration interleaves slices of a fixed reference computation with its
//! calls into the program — one slice before the first call and one after
//! each — and scales its wall time by how fast the reference ran against
//! [`REF_STEPS_PER_S`]. The same trace reads 4–13% that way (README,
//! "Reference seconds").
//!
//! The reference is the benchmark's own code and touches nothing of the
//! program, so no change to the program can move it. It is shaped like the
//! program's inner loop (a priority queue, a hash map, small boxed
//! payloads) so that contention slows both alike.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::trace::Spans;

/// Reference steps per second on the reference box at its usual speed; one
/// reference second is the time this many steps take.
pub const REF_STEPS_PER_S: f64 = 14.0e6;

/// Reference steps per iteration, spread evenly over its slices: about a
/// tenth of a second, 5–10% of an iteration.
const STEPS_PER_ITERATION: u64 = 1_500_000;

/// A small event loop: pop the earliest event, update a table entry,
/// sometimes replace a boxed payload, push a successor. The boxes are the
/// point: they give the reference the allocator traffic the program's
/// per-message payloads have.
#[allow(clippy::vec_box)]
struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: HashMap<u64, u64>,
    payloads: Vec<Box<[u64; 8]>>,
    rng: u64,
}

impl Reference {
    fn new() -> Self {
        Reference {
            heap: (0..256).map(|i| Reverse((i % 60, i))).collect(),
            table: HashMap::new(),
            payloads: (0..64).map(|i| Box::new([i; 8])).collect(),
            rng: 0x2545_F491_4F6C_DD1D,
        }
    }

    #[allow(clippy::replace_box)]
    fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            let Reverse((time, id)) = self.heap.pop().expect("standing population");
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let entry = self.table.entry(id % 512).or_insert(0);
            *entry = entry.wrapping_add(time);
            if id % 4 == 0 {
                self.payloads[(id as usize / 4) % 64] = Box::new([*entry; 8]);
            }
            if id % 16 == 0 {
                self.table.remove(&(self.rng % 512));
            }
            self.heap.push(Reverse((time + 1 + self.rng % 64, id + 1)));
        }
        black_box(&self.payloads);
    }
}

/// The calibration clock of a run.
pub struct Clock {
    reference: Reference,
    steps_per_slice: u64,
    steps: u64,
    spent: Duration,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            reference: Reference::new(),
            steps_per_slice: STEPS_PER_ITERATION,
            steps: 0,
            spent: Duration::ZERO,
        }
    }

    /// Starts an iteration that will make `calls` calls into the program,
    /// and runs its first slice.
    pub fn begin(&mut self, calls: usize, spans: &mut Spans) {
        self.steps_per_slice = STEPS_PER_ITERATION / (calls as u64 + 1);
        self.steps = 0;
        self.spent = Duration::ZERO;
        self.tick(spans);
    }

    /// Runs one reference slice; call after each call into the program.
    pub fn tick(&mut self, spans: &mut Spans) {
        let span = spans.open("calibrate");
        let t = Instant::now();
        self.reference.run(self.steps_per_slice);
        self.spent += t.elapsed();
        self.steps += self.steps_per_slice;
        spans.close(span);
    }

    /// Ends the iteration: the time its slices took, and the host's speed
    /// over it relative to the reference box (below 1 when it ran slow).
    pub fn end(&self) -> (Duration, f64) {
        let speed = self.steps as f64 / self.spent.as_secs_f64() / REF_STEPS_PER_S;
        (self.spent, speed)
    }
}
