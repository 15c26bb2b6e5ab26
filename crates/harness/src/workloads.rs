//! Synthetic workload generators — Rodinia proxies (see `DESIGN.md`).
//!
//! The paper's performance evaluation runs GPGPU kernels on gem5-gpu. The
//! performance-relevant property of those kernels is the *shape* of their
//! memory traffic — footprint, reuse, read/write mix, dependence, and how
//! much data crosses between host and accelerator. Each [`Pattern`] below
//! reproduces one such shape with a deterministic index-based generator so
//! runs are exactly repeatable:
//!
//! | pattern | Rodinia analogue | traffic shape |
//! |---------|------------------|---------------|
//! | `Streaming` | srad, streamcluster | long unit-stride scans, some writes |
//! | `Stencil` | hotspot | neighborhood reads, per-point write |
//! | `Blocked` | lud, video decode | high locality within tiles |
//! | `GraphWalk` | bfs | dependent, unpredictable reads |
//! | `Reduction` | kmeans | scans plus hot accumulator writes |
//! | `ProducerConsumer` | host-fed kernels | fine-grained host↔accel sharing |

use rand::Divisor;
use xg_mem::Addr;
use xg_proto::{CoreKind, CoreMsg, Ctx, Message};
use xg_sim::{Component, Cycle, NodeId, Report};

/// A deterministic memory access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Unit-stride scan over the footprint; every 4th access writes.
    Streaming,
    /// 3-point neighborhood reads followed by a write per point.
    Stencil,
    /// Tile-at-a-time: 16 sequential words per tile, half writes.
    Blocked,
    /// Data-dependent pointer chasing: one outstanding access, scrambled
    /// addresses, reads only.
    GraphWalk,
    /// Sequential reads with every 8th access writing one of 4 hot
    /// accumulator words.
    Reduction,
    /// Alternates between a private region and a region shared with other
    /// cores (fine-grained host↔accelerator sharing).
    ProducerConsumer,
    /// Two hot words in one block, alternating store/load: every hierarchy
    /// running this pattern fights for exclusive ownership of the same
    /// block, so it migrates back and forth across the crossing.
    PingPong,
    /// Logically independent words packed into a single block: each store
    /// invalidates every other hierarchy's copy even though no word is
    /// actually shared.
    FalseSharing,
}

impl Pattern {
    /// All patterns, for sweeps.
    pub const ALL: [Pattern; 6] = [
        Pattern::Streaming,
        Pattern::Stencil,
        Pattern::Blocked,
        Pattern::GraphWalk,
        Pattern::Reduction,
        Pattern::ProducerConsumer,
    ];

    /// Cross-hierarchy sharing patterns for multi-accelerator runs. Kept
    /// out of [`Pattern::ALL`] so single-accelerator sweeps are unchanged.
    pub const SHARING: [Pattern; 2] = [Pattern::PingPong, Pattern::FalseSharing];

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Streaming => "streaming",
            Pattern::Stencil => "stencil",
            Pattern::Blocked => "blocked",
            Pattern::GraphWalk => "graph",
            Pattern::Reduction => "reduction",
            Pattern::ProducerConsumer => "prodcons",
            Pattern::PingPong => "pingpong",
            Pattern::FalseSharing => "fsharing",
        }
    }

    /// Maximum outstanding requests for this pattern (1 models true data
    /// dependence).
    pub fn max_in_flight(self) -> usize {
        match self {
            Pattern::GraphWalk | Pattern::PingPong => 1,
            _ => 4,
        }
    }

    /// The `n`-th access: `(word_offset, is_store)` within a footprint of
    /// `footprint_words` 8-byte words (at least one block: a smaller
    /// footprint is rounded up to 8), so `word_offset < footprint_words.max(8)`.
    ///
    /// The reference definition; a [`WorkloadCore`] computes the same
    /// accesses without dividing.
    pub fn access(self, n: u64, footprint_words: u64) -> (u64, bool) {
        let fp = footprint_words.max(8);
        match self {
            Pattern::Streaming => (n % fp, n % 4 == 3),
            Pattern::Stencil => {
                // Per point p: read p-1, p, p+1, then write p.
                let p = (n / 4) % fp;
                match n % 4 {
                    0 => (p.saturating_sub(1), false),
                    1 => (p, false),
                    2 => ((p + 1) % fp, false),
                    _ => (p, true),
                }
            }
            Pattern::Blocked => {
                // A footprint under one tile wraps within itself.
                let tile = (n / 16) % (fp / 16).max(1);
                let word = n % 16;
                ((tile * 16 + word) % fp, word >= 8)
            }
            Pattern::GraphWalk => (scramble(n) % fp, false),
            Pattern::Reduction => {
                if n % 8 == 7 {
                    (scramble(n) % 4, true) // hot accumulators
                } else {
                    let first = reduction_reads_from(fp);
                    (first + n % (fp - first), false)
                }
            }
            Pattern::ProducerConsumer => {
                // Even accesses: private half; odd: shared half (offset so
                // all cores collide there), writes on every 3rd access.
                if n.is_multiple_of(2) {
                    (n % (fp / 2), n.is_multiple_of(3))
                } else {
                    (fp / 2 + scramble(n) % (fp / 2).min(32), n.is_multiple_of(3))
                }
            }
            // 8 words = one 64-byte block: both sharing patterns confine
            // all traffic to a single line so it has to migrate between
            // hierarchies.
            Pattern::PingPong => ((n / 2) % 2, n.is_multiple_of(2)),
            Pattern::FalseSharing => (scramble(n) % 8, n.is_multiple_of(2)),
        }
    }
}

/// The first word `Reduction` scans: the block after the accumulators', or
/// in a one-block footprint the word after them.
fn reduction_reads_from(fp: u64) -> u64 {
    if fp > 8 {
        8
    } else {
        4
    }
}

/// The divisors [`Pattern::access`] takes remainders by, for one
/// footprint, precomputed so a [`WorkloadCore`]'s per-op path does no
/// `div`. [`Footprint::access`] is `Pattern::access` term for term.
struct Footprint {
    /// `fp`: the footprint in words, at least one block.
    words: Divisor,
    /// `(fp / 16).max(1)`: `Blocked`'s tile count.
    tiles: Divisor,
    /// `fp - first`: the words `Reduction` scans, from `reads_from`.
    reads: Divisor,
    reads_from: u64,
    /// `fp / 2`: `ProducerConsumer`'s private half.
    half: Divisor,
    /// `(fp / 2).min(32)`: its hot shared words.
    shared: Divisor,
}

impl Footprint {
    fn new(footprint_words: u64) -> Footprint {
        let fp = footprint_words.max(8);
        let reads_from = reduction_reads_from(fp);
        Footprint {
            words: Divisor::new(fp),
            tiles: Divisor::new((fp / 16).max(1)),
            reads: Divisor::new(fp - reads_from),
            reads_from,
            half: Divisor::new(fp / 2),
            shared: Divisor::new((fp / 2).min(32)),
        }
    }

    /// `pattern.access(n, footprint_words)`.
    #[inline]
    fn access(&self, pattern: Pattern, n: u64) -> (u64, bool) {
        match pattern {
            Pattern::Streaming => (self.words.rem(n), n % 4 == 3),
            Pattern::Stencil => {
                let p = self.words.rem(n / 4);
                match n % 4 {
                    0 => (p.saturating_sub(1), false),
                    1 => (p, false),
                    2 => (self.words.rem(p + 1), false),
                    _ => (p, true),
                }
            }
            Pattern::Blocked => {
                let tile = self.tiles.rem(n / 16);
                let word = n % 16;
                (self.words.rem(tile * 16 + word), word >= 8)
            }
            Pattern::GraphWalk => (self.words.rem(scramble(n)), false),
            Pattern::Reduction => {
                if n % 8 == 7 {
                    (scramble(n) % 4, true)
                } else {
                    (self.reads_from + self.reads.rem(n), false)
                }
            }
            Pattern::ProducerConsumer => {
                if n.is_multiple_of(2) {
                    (self.half.rem(n), n.is_multiple_of(3))
                } else {
                    let shared = self.shared.rem(scramble(n));
                    (self.half.get() + shared, n.is_multiple_of(3))
                }
            }
            Pattern::PingPong => ((n / 2) % 2, n.is_multiple_of(2)),
            Pattern::FalseSharing => (scramble(n) % 8, n.is_multiple_of(2)),
        }
    }
}

/// SplitMix64-style scramble for data-dependent patterns.
fn scramble(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A core that executes a [`Pattern`] for a fixed number of accesses and
/// records when it finished.
pub struct WorkloadCore {
    name: String,
    cache: NodeId,
    pattern: Pattern,
    base: u64,
    footprint: Footprint,
    ops_target: u64,
    issued: u64,
    completed: u64,
    /// Outstanding accesses as `(id, issued_at)` in issue order, at most
    /// `pattern.max_in_flight()`.
    in_flight: Vec<(u64, u64)>,
    next_id: u64,
    done_at: Option<Cycle>,
    latency_sum: u64,
}

impl WorkloadCore {
    /// Creates a workload core over `[base, base + footprint_words * 8)`.
    pub fn new(
        name: impl Into<String>,
        cache: NodeId,
        pattern: Pattern,
        base: u64,
        footprint_words: u64,
        ops_target: u64,
    ) -> Self {
        WorkloadCore {
            name: name.into(),
            cache,
            pattern,
            base,
            footprint: Footprint::new(footprint_words),
            ops_target,
            issued: 0,
            completed: 0,
            in_flight: Vec::with_capacity(pattern.max_in_flight()),
            next_id: 0,
            done_at: None,
            latency_sum: 0,
        }
    }

    /// Accesses completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Cycle at which the last access completed (None if unfinished).
    pub fn done_at(&self) -> Option<Cycle> {
        self.done_at
    }

    /// Average access latency in cycles (0 before any completion).
    pub fn avg_latency(&self) -> u64 {
        self.latency_sum.checked_div(self.completed).unwrap_or(0)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        while self.issued < self.ops_target && self.in_flight.len() < self.pattern.max_in_flight() {
            let (word, store) = self.footprint.access(self.pattern, self.issued);
            let addr = self.base + word * 8;
            let id = self.next_id;
            self.next_id += 1;
            self.issued += 1;
            self.in_flight.push((id, ctx.now().as_u64()));
            let kind = if store {
                CoreKind::Store { value: self.issued }
            } else {
                CoreKind::Load
            };
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
}

impl Component<Message> for WorkloadCore {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, _from: NodeId, msg: Message, ctx: &mut Ctx<'_>) {
        let Message::Core(c) = msg else { return };
        let Some(slot) = self.in_flight.iter().position(|&(id, _)| id == c.id) else {
            return;
        };
        let (_, issued_at) = self.in_flight.remove(slot);
        self.latency_sum += ctx.now().as_u64() - issued_at;
        self.completed += 1;
        ctx.note_progress();
        if self.completed >= self.ops_target {
            self.done_at = Some(ctx.now());
            return;
        }
        self.issue(ctx);
    }

    fn wake(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.issue(ctx);
    }

    fn report(&self, out: &mut Report) {
        let n = &self.name;
        out.add(format_args!("{n}.ops_completed"), self.completed);
        out.add(format_args!("{n}.latency_sum"), self.latency_sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_patterns() -> impl Iterator<Item = Pattern> {
        Pattern::ALL.into_iter().chain(Pattern::SHARING)
    }

    #[test]
    fn patterns_stay_in_footprint() {
        for footprint in (1..=64).chain([256, 2048]) {
            let bound = footprint.max(8);
            for p in all_patterns() {
                for n in 0..10_000u64 {
                    let (word, _) = p.access(n, footprint);
                    assert!(word < bound, "{p:?} escaped {footprint} at n={n}: {word}");
                }
            }
        }
    }

    #[test]
    fn workload_cores_issue_what_the_patterns_define() {
        for footprint in [1, 8, 9, 16, 256, 2048] {
            let divisors = Footprint::new(footprint);
            for p in all_patterns() {
                for n in 0..100_000u64 {
                    assert_eq!(
                        divisors.access(p, n),
                        p.access(n, footprint),
                        "{p:?} at footprint {footprint}, n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharing_patterns_confine_traffic_to_one_block() {
        // 8 words of 8 bytes = one 64-byte block; both cross-hierarchy
        // sharing patterns must keep every access inside it so the block
        // bounces between hierarchies.
        for p in Pattern::SHARING {
            let mut stores = 0;
            for n in 0..1_000u64 {
                let (word, store) = p.access(n, 256);
                assert!(word < 8, "{p:?} left the shared block at n={n}: {word}");
                stores += u64::from(store);
            }
            assert!(stores > 0, "{p:?} never writes — nothing to ping-pong");
        }
        // Ping-pong is dependent (one outstanding); false sharing is not.
        assert_eq!(Pattern::PingPong.max_in_flight(), 1);
        assert!(Pattern::FalseSharing.max_in_flight() > 1);
        // ALL stays at six entries so existing sweeps are unperturbed.
        assert_eq!(Pattern::ALL.len(), 6);
    }

    #[test]
    fn patterns_are_deterministic() {
        for &p in Pattern::ALL.iter().chain(&Pattern::SHARING) {
            for n in [0u64, 7, 123, 9999] {
                assert_eq!(p.access(n, 128), p.access(n, 128));
            }
        }
    }

    #[test]
    fn streaming_is_unit_stride_and_graph_is_not() {
        let a: Vec<u64> = (0..8)
            .map(|n| Pattern::Streaming.access(n, 256).0)
            .collect();
        assert_eq!(a, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let g: Vec<u64> = (0..8)
            .map(|n| Pattern::GraphWalk.access(n, 256).0)
            .collect();
        let sorted = {
            let mut s = g.clone();
            s.sort_unstable();
            s
        };
        assert_ne!(g, sorted, "graph walk should not be sequential");
    }

    #[test]
    fn writes_exist_but_are_minority_for_scans() {
        let stores = (0..1000)
            .filter(|&n| Pattern::Streaming.access(n, 256).1)
            .count();
        assert!(stores > 0 && stores < 500);
        assert!((0..1000).all(|n| !Pattern::GraphWalk.access(n, 256).1));
    }

    /// Swallows every request: the test plays the cache's answers itself.
    struct SinkCache;

    impl Component<Message> for SinkCache {
        fn name(&self) -> &str {
            "sink_cache"
        }
        fn handle(&mut self, _from: NodeId, _msg: Message, _ctx: &mut Ctx<'_>) {}
    }

    #[test]
    fn a_response_that_is_not_in_flight_is_ignored() {
        let mut b = xg_sim::SimBuilder::new(1);
        let cache = b.add(Box::new(SinkCache));
        // GraphWalk keeps one access outstanding: ids go 0, 1, 2.
        let core = b.add(Box::new(WorkloadCore::new(
            "wl",
            cache,
            Pattern::GraphWalk,
            0x1000,
            64,
            3,
        )));
        let mut sim = b.build();
        let answer = |id: u64, sim: &mut xg_sim::Simulator<Message>| {
            let resp = CoreMsg {
                id,
                addr: Addr::new(0x1000),
                kind: CoreKind::LoadResp { value: 0 },
            };
            sim.post(cache, core, resp.into());
            sim.run_to_quiescence(1_000);
            sim.get::<WorkloadCore>(core).unwrap().completed()
        };
        sim.post_wake(core, 1, 0);
        assert_eq!(answer(99, &mut sim), 0, "unknown id completes nothing");
        assert_eq!(answer(0, &mut sim), 1);
        assert_eq!(answer(0, &mut sim), 1, "a duplicate answer is unknown too");
        assert_eq!(answer(1, &mut sim), 2);
        assert_eq!(answer(2, &mut sim), 3);
        let wl = sim.get::<WorkloadCore>(core).unwrap();
        assert!(wl.done_at().is_some());
        assert!(wl.in_flight.is_empty());
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = Pattern::ALL
            .iter()
            .chain(&Pattern::SHARING)
            .map(|p| p.name())
            .collect();
        assert_eq!(names.len(), Pattern::ALL.len() + Pattern::SHARING.len());
    }
}
