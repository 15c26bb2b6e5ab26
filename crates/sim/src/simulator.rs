//! The simulator proper: builder, event loop, and component context.

use std::any::Any;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng, Uniform};
use xg_prof::{ProfileConfig, Profiler, Timeline, PID_ADDRESSES, PID_COMPONENTS};

use crate::component::{CloneComponent, Component, NodeId};
use crate::event::{EventKind, Pending};
use crate::link::Link;
use crate::queue::{CalendarQueue, Head, QueueStats};
use crate::report::{FsmRows, Report};
use crate::slab::{Slab, SlabId};
use crate::time::Cycle;
use crate::trace::{TraceConfig, Tracer};

/// Tally of link faults injected during a run (see [`crate::FaultSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFaultCounts {
    /// Messages delayed by a spike.
    pub delay_spikes: u64,
    /// Reorder bursts opened (the held victim message).
    pub reorder_bursts: u64,
    /// Messages fast-tracked past a burst victim.
    pub burst_overtakes: u64,
}

impl LinkFaultCounts {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.delay_spikes + self.reorder_bursts
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// True if the event queue drained completely (no work left).
    pub quiescent: bool,
    /// True if the run was stopped by the progress watchdog: events were
    /// still queued but no source of stimulus finished a unit of work (a
    /// core op or an injection, see [`Ctx::note_progress`]) for the
    /// configured bound. Either the system is deadlocked or livelocked, or
    /// the stimulus is spent and the controllers are still busy; the caller
    /// tells the two apart by whether the work is done.
    pub stalled: bool,
    /// Simulated time when the run stopped.
    pub now: Cycle,
    /// Number of events processed during this call.
    pub events: u64,
}

/// Deferred effect produced by a component while handling an event.
///
/// Message payloads are parked in the simulator's [`Slab`] the moment the
/// component emits them (see [`Ctx::send`]), so effects — like queued
/// events — are small and constant-sized.
enum Effect {
    Send {
        to: NodeId,
        msg: SlabId,
        extra_delay: u64,
    },
    Wake {
        delay: u64,
        token: u64,
    },
}

/// The execution context handed to a component while it handles an event.
///
/// All interaction with the outside world — sending messages, arming timers,
/// drawing random numbers, reporting progress — goes through the context.
/// Effects are applied after the handler returns, so a component never
/// observes partially-applied state.
pub struct Ctx<'a, M> {
    now: Cycle,
    self_id: NodeId,
    self_name: &'a str,
    effects: &'a mut Vec<Effect>,
    msgs: &'a mut Slab<M>,
    rng: &'a mut SmallRng,
    progress: &'a mut u64,
    tracer: &'a mut Tracer,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The id of the component being invoked.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` over the configured link (latency drawn from the
    /// link's range when the effect is applied). The payload is parked in
    /// the simulator's message slab immediately; the effect and the queued
    /// event carry only its 4-byte handle.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let msg = self.msgs.insert(msg);
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_delay: 0,
        });
    }

    /// Sends `msg` to `to` with `extra_delay` cycles added on top of the
    /// link latency (used to model lookup/occupancy latency at the sender,
    /// e.g. a memory access before the response leaves the controller).
    pub fn send_after(&mut self, to: NodeId, msg: M, extra_delay: u64) {
        let msg = self.msgs.insert(msg);
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_delay,
        });
    }

    /// Arms a timer: the component's `wake(token)` runs `delay` cycles from
    /// now (minimum one cycle).
    pub fn wake_in(&mut self, delay: u64, token: u64) {
        self.effects.push(Effect::Wake { delay, token });
    }

    /// Deterministic simulation RNG: this component's own stream, seeded
    /// from the run seed and the component's name, so one component's draws
    /// never perturb another's.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Records one unit of forward progress: a source of stimulus finished
    /// a unit of its work — a core completed an operation, or a fuzzer sent
    /// an injection. Controllers never call it; a cache or guard that is
    /// busy is not progress. The watchdog in
    /// [`Simulator::run_with_watchdog`] counts cycles since the last call.
    pub fn note_progress(&mut self) {
        *self.progress += 1;
    }

    /// Whether protocol tracing (ring recording or a timeline) is
    /// recording. Instrumented controllers can use this to skip preparing
    /// trace-only data.
    #[inline]
    pub fn trace_active(&self) -> bool {
        self.tracer.enabled() || self.tracer.timeline().is_some()
    }

    /// Records a protocol trace event for `addr`. The `detail` closure is
    /// evaluated only when tracing is on, so a disabled tracer costs one
    /// branch per call site. When a timeline is installed, the event also
    /// lands as an instant on this component's timeline track.
    #[inline]
    pub fn trace(&mut self, addr: u64, state: &str, event: &str, detail: impl FnOnce() -> String) {
        let ring = self.tracer.enabled();
        let timeline = self.tracer.timeline().is_some();
        if !ring && !timeline {
            return;
        }
        let detail = detail();
        if timeline {
            let tl = self.tracer.timeline_mut().expect("checked above");
            tl.instant(
                self.now.as_u64(),
                PID_COMPONENTS,
                self.self_id.index() as u64,
                event,
                vec![
                    ("addr", format!("{addr:#x}")),
                    ("state", state.to_owned()),
                    ("detail", detail.clone()),
                ],
            );
        }
        if ring {
            self.tracer.record(
                self.now.as_u64(),
                self.self_name,
                addr,
                state,
                event,
                detail,
            );
        }
    }

    /// Records a completed request-lifecycle span for `addr` — started at
    /// `start`, finished now — on the address's timeline track. This is the
    /// transaction-timeline counterpart of a latency-histogram observation:
    /// call it where a controller records `lat_*`, naming the lifecycle
    /// phase (`"grant"`, `"wback"`, `"inv"`, `"host_rtt"`, `"miss"`, ...).
    /// No-op (one branch) unless a timeline is installed.
    #[inline]
    pub fn span(&mut self, addr: u64, name: &'static str, start: Cycle) {
        if let Some(tl) = self.tracer.timeline_mut() {
            let ts = start.as_u64().min(self.now.as_u64());
            let dur = self.now.as_u64() - ts;
            tl.complete(
                ts,
                dur,
                PID_ADDRESSES,
                addr,
                name,
                vec![
                    ("component", self.self_name.to_owned()),
                    ("addr", format!("{addr:#x}")),
                ],
            );
        }
    }

    /// Flags `addr` for a post-mortem trace dump (always recorded, even with
    /// tracing off). Call this at the point a failure is detected — guard
    /// killing the accelerator, a safety invariant tripping, a corruption
    /// check failing — and the harness can render
    /// [`Simulator::post_mortem`] afterwards.
    pub fn flag_post_mortem(&mut self, addr: u64, reason: impl Into<Cow<'static, str>>) {
        self.tracer.flag(self.now.as_u64(), addr, reason);
    }
}

/// Builds a [`Simulator`]: register components, configure links, then
/// [`build`](SimBuilder::build).
pub struct SimBuilder<M> {
    components: Vec<Box<dyn Component<M>>>,
    order: Vec<usize>,
    links: HashMap<(NodeId, NodeId), Link>,
    default_link: Link,
    seed: u64,
    trace: TraceConfig,
    profile: ProfileConfig,
    event_label: Option<fn(&M) -> &'static str>,
}

impl<M: 'static> SimBuilder<M> {
    /// Creates a builder whose simulation RNG is seeded with `seed`.
    /// Identical seeds and identical construction sequences produce
    /// bit-identical runs.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            components: Vec::new(),
            order: Vec::new(),
            links: HashMap::new(),
            default_link: Link::default(),
            seed,
            trace: TraceConfig::from_env(),
            profile: ProfileConfig::off(),
            event_label: None,
        }
    }

    /// Sets the tracing configuration (defaults to
    /// [`TraceConfig::from_env`]: off unless `XG_TRACE=1`).
    pub fn trace(&mut self, config: TraceConfig) -> &mut Self {
        self.trace = config;
        self
    }

    /// Sets the kernel-profiling configuration (defaults to
    /// [`ProfileConfig::off`]). Profiling never perturbs the simulation —
    /// it draws no randomness and schedules nothing — so an otherwise
    /// identical run produces identical protocol behavior with it on or
    /// off.
    pub fn profile(&mut self, config: ProfileConfig) -> &mut Self {
        self.profile = config;
        self
    }

    /// Installs the event-class labeler used by dispatch profiling: a
    /// function from a message to a short static label (conventionally
    /// `"<protocol>.<kind>"`). Without one, delivered messages profile
    /// under the class `"event"`; wake-ups always profile as `"Wake"`.
    pub fn event_label(&mut self, f: fn(&M) -> &'static str) -> &mut Self {
        self.event_label = Some(f);
        self
    }

    /// Numbers the nodes in `order`: the `i`-th component
    /// [`add`](Self::add)ed gets id `order[i]`. Empty (the default) numbers
    /// them in the order they are added. A caller that plans its ids with
    /// [`planned_id`](Self::planned_id) is relabelled whole by it, which is
    /// how a test shows that nothing depends on node ids.
    /// [`build`](Self::build) panics unless `order` is a permutation of the
    /// added components' indices.
    pub fn node_order(&mut self, order: Vec<usize>) -> &mut Self {
        self.order = order;
        self
    }

    /// The id the `i`-th component added gets.
    pub fn planned_id(&self, i: usize) -> NodeId {
        NodeId::from_index(self.order.get(i).copied().unwrap_or(i))
    }

    /// Registers a component, returning its [`NodeId`].
    pub fn add(&mut self, component: Box<dyn Component<M>>) -> NodeId {
        let id = self.planned_id(self.components.len());
        self.components.push(component);
        id
    }

    /// Configures the directed link `from → to`.
    pub fn link(&mut self, from: NodeId, to: NodeId, link: Link) -> &mut Self {
        self.links.insert((from, to), link);
        self
    }

    /// Configures both directions between `a` and `b` with the same link.
    pub fn link_bidi(&mut self, a: NodeId, b: NodeId, link: Link) -> &mut Self {
        self.link(a, b, link);
        self.link(b, a, link)
    }

    /// Sets the link used for any pair without an explicit configuration.
    pub fn default_link(&mut self, link: Link) -> &mut Self {
        self.default_link = link;
        self
    }

    /// Finalizes the builder into a runnable [`Simulator`].
    pub fn build(self) -> Simulator<M> {
        let mut components = self.components;
        if !self.order.is_empty() {
            let (n, whole) = (components.len(), self.order.len() == components.len());
            let mut by_id: Vec<_> = self.order.into_iter().zip(components).collect();
            by_id.sort_by_key(|&(id, _)| id);
            let ids = by_id.iter().map(|&(id, _)| id);
            assert!(
                whole && ids.eq(0..n),
                "node order is a permutation of the nodes"
            );
            components = by_id.into_iter().map(|(_, component)| component).collect();
        }
        // Names are captured eagerly so the tracer can label events without
        // borrowing the (possibly checked-out) component.
        let names: Vec<String> = components.iter().map(|c| c.name().to_owned()).collect();
        let mut links = LinkTable::new(components.len(), self.default_link);
        for ((from, to), link) in self.links {
            links.configure(from, to, link);
        }
        let rng = RngBank::new(self.seed, &names);
        Simulator {
            components,
            names,
            queue: CalendarQueue::new(),
            msgs: Slab::new(),
            links,
            now: Cycle::ZERO,
            rng,
            progress: 0,
            last_progress_at: Cycle::ZERO,
            effects: Vec::new(),
            tracer: Tracer::new(self.trace),
            faults: LinkFaultCounts::default(),
            profiler: Profiler::new(self.profile),
            event_label: self.event_label,
            touched: 0,
            restored: None,
        }
    }
}

/// Per-directed-pair link state: the configured link plus the dynamic
/// fields the router mutates (ordered-delivery FIFO point, reorder-burst
/// countdown).
#[derive(Clone, Copy)]
struct PairState {
    link: Link,
    /// The link's latency range, precomputed for division-free draws;
    /// `None` for a fixed latency, which draws nothing.
    latency: Option<Uniform<u64>>,
    /// Whether `link` carries a non-empty [`crate::FaultSpec`], decided
    /// once at configuration so a fault-free route never reads the spec.
    faulty: bool,
    last_delivery: Cycle,
    /// Remaining messages to fast-track past an open reorder burst.
    burst: u8,
}

impl PairState {
    fn new(link: Link) -> PairState {
        let (min, max) = (link.min_latency(), link.max_latency());
        PairState {
            link,
            latency: (min < max).then(|| Uniform::from(min..=max)),
            faulty: !link.faults().is_none(),
            last_delivery: Cycle::ZERO,
            burst: 0,
        }
    }

    /// Draws a delivery latency from the link's range — what
    /// `gen_range(min..=max)` would draw; a fixed-latency link consumes no
    /// randomness.
    #[inline(always)]
    fn draw_latency(&self, rng: &mut SmallRng) -> u64 {
        match &self.latency {
            Some(range) => range.sample(rng),
            None => self.link.min_latency(),
        }
    }

    /// Delivery time of a message sent at `now` that spends `latency` on
    /// the wire; an ordered link pushes it behind the previous delivery.
    #[inline(always)]
    fn arrival(&mut self, now: Cycle, latency: u64, extra: u64) -> Cycle {
        let mut time = now + latency.max(1) + extra;
        if self.link.is_ordered() {
            if time <= self.last_delivery {
                time = self.last_delivery + 1;
            }
            self.last_delivery = time;
        }
        time
    }

    /// Delivery time of a message under the link's fault plan: one uniform
    /// roll (none while a reorder burst is open) after the latency draw.
    #[inline(never)]
    fn route_faulty(
        &mut self,
        rng: &mut SmallRng,
        faults: &mut LinkFaultCounts,
        now: Cycle,
        extra: u64,
    ) -> Cycle {
        let link = self.link;
        let spec = link.faults();
        let mut latency = self.draw_latency(rng);
        if self.burst > 0 {
            self.burst -= 1;
            latency = link.min_latency();
            faults.burst_overtakes += 1;
        } else {
            let roll = rng.gen_range(0u32..100);
            let spike_at = spec.delay_spike_pct as u32;
            let reorder_at = spike_at + spec.reorder_pct as u32;
            if roll < spike_at {
                latency += spec.spike_cycles;
                faults.delay_spikes += 1;
            } else if roll < reorder_at {
                latency = link.max_latency() + spec.spike_cycles;
                self.burst = spec.burst_len;
                faults.reorder_bursts += 1;
            }
        }
        self.arrival(now, latency, extra)
    }
}

/// Dense `n × n` table of directed link state, indexed by
/// `from.index() * n + to.index()`.
///
/// This replaces the two parallel `HashMap<(NodeId, NodeId), _>` maps the
/// simulator used to keep (configured links and lazily-materialized
/// default-link ordering state), which could drift apart: every pair now
/// has exactly one `PairState`, created by one constructor. Component
/// counts are small (a simulated system is tens of controllers), so the
/// quadratic table is a few KiB and a route lookup is one multiply-add
/// instead of a hash.
#[derive(Clone)]
struct LinkTable {
    n: usize,
    pairs: Box<[PairState]>,
    /// The default link's state, which every pair starts as; its latency
    /// also routes between fabricated (unregistered) ids, whose messages
    /// still panic at delivery, as [`NodeId`] documents.
    default: PairState,
}

impl LinkTable {
    /// A table over `n` registered components, every pair on `default`.
    fn new(n: usize, default: Link) -> LinkTable {
        let default = PairState::new(default);
        LinkTable {
            n,
            pairs: vec![default; n * n].into_boxed_slice(),
            default,
        }
    }

    /// Installs a configured link for `from → to`.
    fn configure(&mut self, from: NodeId, to: NodeId, link: Link) {
        let (f, t) = (from.index(), to.index());
        assert!(
            f < self.n && t < self.n,
            "link endpoints must be registered"
        );
        self.pairs[f * self.n + t] = PairState::new(link);
    }

    /// Writes the dynamic routing state of every pair into `out`, for a
    /// checkpoint.
    fn dynamic_into(&self, out: &mut Vec<(Cycle, u8)>) {
        out.clear();
        out.extend(self.pairs.iter().map(|p| (p.last_delivery, p.burst)));
    }

    /// Reinstates what [`LinkTable::dynamic_into`] captured.
    fn set_dynamic(&mut self, saved: &[(Cycle, u8)]) {
        assert_eq!(
            saved.len(),
            self.pairs.len(),
            "checkpoint of another topology"
        );
        for (pair, &(last_delivery, burst)) in self.pairs.iter_mut().zip(saved) {
            pair.last_delivery = last_delivery;
            pair.burst = burst;
        }
    }

    /// Mutable state for `from → to`, or `None` when either id is
    /// fabricated (out of range).
    #[inline]
    fn pair_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut PairState> {
        let (f, t) = (from.index(), to.index());
        if f < self.n && t < self.n {
            Some(&mut self.pairs[f * self.n + t])
        } else {
            None
        }
    }

    /// Delivery time of a message `from` sends `to` at `now`, drawing
    /// from `rng` — the sender's stream. A link without a
    /// [`crate::FaultSpec`] draws only its latency (nothing at all when its
    /// range is a point), so fault-free simulations consume exactly the
    /// random stream they always did.
    #[inline(always)]
    fn route(
        &mut self,
        rng: &mut SmallRng,
        faults: &mut LinkFaultCounts,
        now: Cycle,
        from: NodeId,
        to: NodeId,
        extra: u64,
    ) -> Cycle {
        let default = self.default;
        let Some(state) = self.pair_mut(from, to) else {
            // A fabricated endpoint: route statelessly over the default
            // link (delivery will panic, as NodeId documents).
            let latency = default.draw_latency(rng);
            return now + latency.max(1) + extra;
        };
        if state.faulty {
            return state.route_faulty(rng, faults, now, extra);
        }
        let latency = state.draw_latency(rng);
        state.arrival(now, latency, extra)
    }
}

/// Source of simulation randomness: one stream per registered component,
/// plus a trailing "external" stream used when routing from a fabricated
/// (unregistered) id.
///
/// Streams depend only on the run seed and the component's name, so draw
/// order within a stream depends only on that component's own event
/// sequence, and registering an extra component never re-seeds anyone else.
#[derive(Clone)]
struct RngBank(Vec<SmallRng>);

impl RngBank {
    fn new(seed: u64, names: &[String]) -> RngBank {
        let stream = |name: &str| SmallRng::seed_from_u64(rand::stream_seed(seed, name));
        let mut streams: Vec<SmallRng> = names.iter().map(|name| stream(name)).collect();
        streams.push(stream("\u{0}external"));
        RngBank(streams)
    }

    /// The stream that component `idx` draws from (out-of-range indices —
    /// fabricated ids — share the trailing external stream).
    #[inline]
    fn stream(&mut self, idx: usize) -> &mut SmallRng {
        let last = self.0.len() - 1;
        &mut self.0[idx.min(last)]
    }
}

/// A simulator's state as a value, between any two events: everything that
/// decides what the simulation does next, and everything its components
/// would report.
///
/// Taken by [`Simulator::checkpoint`] (or written over an older one by
/// [`Simulator::checkpoint_into`]), reinstated — any number of times, into
/// the simulator it came from or any other built from the same
/// construction sequence — by [`Simulator::restore`]. It holds a deep copy
/// of every component ([`CloneComponent::box_clone`]), simulated time, the RNG
/// streams, each link's ordered-delivery floor and reorder-burst countdown,
/// the progress and link-fault counters, and every event still in flight,
/// in pop order, each delivery with a copy of its payload. Because event
/// order is relative (`(time, push sequence)`), the scheduler's push counter
/// and the slab's free list need no copy: re-pushing the list in order
/// reproduces it. Effects never outlive the handler that made them, so
/// there are none to keep. The tracer ring, the timeline and the profiler
/// are host-side observers and stay with the simulator.
///
/// Every capture — [`Simulator::checkpoint`] and each
/// [`Simulator::checkpoint_into`] — stamps the checkpoint with an id no
/// other capture ever had, which is how [`Simulator::restore`] knows it is
/// reinstating the same contents it reinstated last time.
pub struct Checkpoint<M> {
    id: u64,
    components: Vec<Box<dyn Component<M>>>,
    now: Cycle,
    rng: RngBank,
    links: Vec<(Cycle, u8)>,
    progress: u64,
    last_progress_at: Cycle,
    faults: LinkFaultCounts,
    pending: Vec<InFlight<M>>,
}

/// An event a [`Checkpoint`] caught in flight.
struct InFlight<M> {
    time: Cycle,
    target: NodeId,
    kind: SavedKind<M>,
}

/// [`EventKind`] with the payload itself in place of its slab handle.
enum SavedKind<M> {
    Deliver { from: NodeId, msg: M },
    Wake { token: u64 },
}

impl<M> Checkpoint<M> {
    /// Bytes the checkpoint holds inline: the components' own structs plus
    /// the kernel state, in-flight events and their payloads included.
    /// Tables the components (or payloads) own on the heap — cache arrays,
    /// transaction maps, fired counters — are not visible from here and are
    /// not counted.
    pub fn inline_bytes(&self) -> usize {
        let components: usize = self
            .components
            .iter()
            .map(|c| std::mem::size_of_val(&**c) + std::mem::size_of::<Box<dyn Component<M>>>())
            .sum();
        let streams = std::mem::size_of_val(&self.rng.0[..]);
        std::mem::size_of::<Self>()
            + components
            + streams
            + std::mem::size_of_val(&self.links[..])
            + std::mem::size_of_val(&self.pending[..])
    }
}

/// Why [`Simulator::checkpoint`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The named component is not [`Component::cloneable`].
    NotCloneable {
        /// The component's name.
        component: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::NotCloneable { component } => {
                write!(f, "component {component:?} is not cloneable")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A [`Checkpoint`] id no capture has had before: the counter is
/// process-wide, so ids are unique whichever simulator or thread takes them.
fn next_checkpoint_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Component `idx`'s bit in [`Simulator`]'s `touched` mask; none past the
/// 64th component, whose simulator always restores in full.
#[inline]
fn touch_bit(idx: usize) -> u64 {
    if idx < 64 {
        1 << idx
    } else {
        0
    }
}

/// `component` as a [`CloneComponent`], or the error naming it.
fn cloneable<M: 'static>(
    component: &dyn Component<M>,
) -> Result<&dyn CloneComponent<M>, CheckpointError> {
    component
        .cloneable()
        .ok_or_else(|| CheckpointError::NotCloneable {
            component: component.name().to_owned(),
        })
}

/// A deterministic discrete-event simulator over message type `M`.
///
/// See the [crate docs](crate) for the execution model and an example.
pub struct Simulator<M> {
    components: Vec<Box<dyn Component<M>>>,
    names: Vec<String>,
    queue: CalendarQueue<Pending>,
    /// In-flight message payloads, referenced by [`SlabId`] from queued
    /// events and pending effects.
    msgs: Slab<M>,
    links: LinkTable,
    now: Cycle,
    rng: RngBank,
    progress: u64,
    last_progress_at: Cycle,
    effects: Vec<Effect>,
    tracer: Tracer,
    faults: LinkFaultCounts,
    profiler: Profiler,
    event_label: Option<fn(&M) -> &'static str>,
    /// Components that may differ from the checkpoint last restored, one
    /// bit per registration index (see [`Simulator::restore`]).
    touched: u64,
    /// The id of the checkpoint last restored; `None` before the first
    /// restore.
    restored: Option<u64>,
}

impl<M: Clone + 'static> Simulator<M> {
    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether no components are registered.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Injects a message from outside the simulation, as if `from` had sent
    /// it to `to` at the current time (link latency applies).
    pub fn post(&mut self, from: NodeId, to: NodeId, msg: M) {
        let rng = self.rng.stream(from.index());
        let time = self
            .links
            .route(rng, &mut self.faults, self.now, from, to, 0);
        let msg = self.msgs.insert(msg);
        let kind = EventKind::Deliver { from, msg };
        self.queue.push(time, Pending { target: to, kind });
    }

    /// Schedules a wake-up for `target` at `delay` cycles from now (one
    /// cycle at least: every event the simulator schedules is strictly
    /// future).
    pub fn post_wake(&mut self, target: NodeId, delay: u64, token: u64) {
        let kind = EventKind::Wake { token };
        self.queue
            .push(self.now + delay.max(1), Pending { target, kind });
    }

    /// Runs until the event queue is empty or `max_cycles` of simulated time
    /// elapse.
    pub fn run_to_quiescence(&mut self, max_cycles: u64) -> RunOutcome {
        // The run loop stays free of bookkeeping: any component may change.
        self.touched = u64::MAX;
        self.run_inner(self.now + max_cycles, None)
    }

    /// Runs with a progress watchdog: stops early (with
    /// [`RunOutcome::stalled`] set) if no component reports progress for
    /// `stall_bound` consecutive cycles while events remain, or when
    /// `max_cycles` elapse.
    pub fn run_with_watchdog(&mut self, max_cycles: u64, stall_bound: u64) -> RunOutcome {
        self.touched = u64::MAX;
        self.run_inner(self.now + max_cycles, Some(stall_bound))
    }

    fn run_inner(&mut self, deadline: Cycle, stall_bound: Option<u64>) -> RunOutcome {
        let mut events = 0u64;
        loop {
            // The head is dispatched only if it is due by the deadline and
            // inside the watchdog's bound, so one probe with the nearer of
            // the two as its limit decides.
            let limit = match stall_bound {
                Some(bound) => deadline.min(Cycle::new(
                    self.last_progress_at.as_u64().saturating_add(bound),
                )),
                None => deadline,
            };
            let (quiescent, stalled, now) = match self.queue.pop_until(limit) {
                Head::Due(time, ev) => {
                    self.dispatch(time, ev);
                    events += 1;
                    continue;
                }
                Head::Empty => (true, false, self.now),
                Head::Later(head_time) if head_time > deadline => (false, false, deadline),
                Head::Later(_) => (false, true, self.now),
            };
            return RunOutcome {
                quiescent,
                stalled,
                now,
                events,
            };
        }
    }

    /// Processes exactly one event if any is pending; returns whether an
    /// event was processed.
    pub fn step(&mut self) -> bool {
        self.touched = u64::MAX;
        match self.queue.pop() {
            Some((time, ev)) => {
                self.dispatch(time, ev);
                true
            }
            None => false,
        }
    }

    /// Runs like [`run_to_quiescence`](Self::run_to_quiescence) up to the
    /// absolute `deadline`, but stops *before* dispatching a delivery that
    /// `stop(target, message)` accepts, and leaves that delivery queued —
    /// `None` says so. The caller can then [`checkpoint`](Self::checkpoint)
    /// the world in front of it, change a component, and resume with
    /// another call. `stop` sees each due delivery once, just before it is
    /// dispatched; wake-ups are not offered to it.
    ///
    /// A loop of its own, so the run loop every simulation spends its time
    /// in carries no predicate; it also marks each component it dispatches
    /// to as touched, so a [`restore`](Self::restore) after it copies back
    /// only those.
    pub fn run_until(
        &mut self,
        deadline: Cycle,
        mut stop: impl FnMut(NodeId, &M) -> bool,
    ) -> Option<RunOutcome> {
        let mut events = 0u64;
        loop {
            let msgs = &self.msgs;
            let head = self.queue.pop_until_unless(deadline, |ev| match ev.kind {
                EventKind::Deliver { msg, .. } => stop(ev.target, msgs.get(msg)),
                EventKind::Wake { .. } => false,
            });
            let (quiescent, now) = match head {
                Head::Due(time, ev) => {
                    self.touched |= touch_bit(ev.target.index());
                    self.dispatch(time, ev);
                    events += 1;
                    continue;
                }
                Head::Empty => (true, self.now),
                Head::Later(head_time) if head_time > deadline => (false, deadline),
                Head::Later(_) => return None,
            };
            return Some(RunOutcome {
                quiescent,
                stalled: false,
                now,
                events,
            });
        }
    }

    /// Runs the handler of the just-popped event `ev` and applies the
    /// effects it produced.
    #[inline(always)]
    fn dispatch(&mut self, time: Cycle, ev: Pending) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        // One branch when profiling is off; the profiler is never touched.
        let profiled = if self.profiler.enabled() {
            Some(self.profile_begin(ev.kind))
        } else {
            None
        };
        let idx = ev.target.index();
        // Destructure so the handler's borrow of its component is disjoint
        // from the context's borrows of the kernel state — no per-event
        // move of the component box in and out of the slot.
        let Simulator {
            components,
            names,
            queue,
            effects,
            msgs,
            links,
            rng,
            progress,
            last_progress_at,
            tracer,
            faults,
            ..
        } = self;
        // The dispatched component's stream serves its handler's draws and,
        // during effect drain, the latency draws of what it sent.
        let rng = rng.stream(idx);
        let Some(comp) = components.get_mut(idx) else {
            panic!("message delivered to unregistered node {}", ev.target)
        };
        let progress_before = *progress;
        {
            let mut ctx = Ctx {
                now: time,
                self_id: ev.target,
                self_name: &names[idx],
                effects,
                msgs,
                rng,
                progress,
                tracer,
            };
            match ev.kind {
                // A delivery reclaims its payload (and slab slot) before the
                // handler runs; the handler receives the message by value,
                // exactly as if it had been carried inline.
                EventKind::Deliver { from, msg } => comp.handle(from, ctx.msgs.take(msg), &mut ctx),
                EventKind::Wake { token } => comp.wake(token, &mut ctx),
            }
        }
        if *progress > progress_before {
            *last_progress_at = time;
        }

        // Every effect lands strictly after `time`: a route adds at least
        // one cycle of latency, and a wake at least one cycle of delay.
        let sender = ev.target;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    extra_delay,
                } => {
                    let at = links.route(rng, faults, time, sender, to, extra_delay);
                    let kind = EventKind::Deliver { from: sender, msg };
                    queue.push(at, Pending { target: to, kind });
                }
                Effect::Wake { delay, token } => {
                    let kind = EventKind::Wake { token };
                    queue.push(
                        time + delay.max(1),
                        Pending {
                            target: sender,
                            kind,
                        },
                    );
                }
            }
        }
        if let Some((class, timer)) = profiled {
            // The measured window covers the handler plus effect
            // application — the full kernel cost of the event.
            let elapsed = timer.map(|t| t.elapsed().as_nanos() as u64);
            self.profiler.end_event(idx, class, elapsed);
        }
    }

    /// The profiler's view of a just-popped event: its class label, and a
    /// running timer if this event is one of the sampled ones.
    #[cold]
    fn profile_begin(&mut self, kind: EventKind) -> (&'static str, Option<Instant>) {
        let class = match kind {
            EventKind::Deliver { msg, .. } => self
                .event_label
                .map_or("event", |label| label(self.msgs.get(msg))),
            EventKind::Wake { .. } => "Wake",
        };
        // Queue depth as the pop found it.
        let timer = self
            .profiler
            .begin_event(self.queue.len() + 1)
            .then(Instant::now);
        self.profiler.epoch_tick(self.now.as_u64(), self.progress);
        (class, timer)
    }

    /// Scheduler-operation counters (pushes, pops, overflow traffic) for
    /// the run so far. Deterministic: they depend only on the simulated
    /// workload, never on the host machine.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Downcasts a registered component to a concrete type for inspection.
    pub fn get<T: 'static>(&self, id: NodeId) -> Option<&T> {
        (&*self.components[id.index()] as &dyn Any).downcast_ref::<T>()
    }

    /// Downcasts a registered component to a concrete type, mutably (and
    /// marks it touched: the next [`restore`](Self::restore) copies it back).
    pub fn get_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.touched |= touch_bit(id.index());
        (&mut *self.components[id.index()] as &mut dyn Any).downcast_mut::<T>()
    }

    /// Link faults injected so far (all zero unless some link carries a
    /// non-empty [`FaultSpec`](crate::FaultSpec)).
    pub fn link_fault_counts(&self) -> LinkFaultCounts {
        self.faults
    }

    /// Collects a [`Report`] from every registered component, plus link
    /// fault-injection counters when any faults fired (fault-free runs keep
    /// their report keys unchanged).
    pub fn report(&self) -> Report {
        let mut out = Report::new();
        for comp in self.components.iter() {
            comp.report(&mut out);
        }
        self.visit_fired(&mut |rows, fired| out.record_fired(rows, fired));
        if self.faults.total() + self.faults.burst_overtakes > 0 {
            out.add("sim.link_faults.delay_spikes", self.faults.delay_spikes);
            out.add("sim.link_faults.reorder_bursts", self.faults.reorder_bursts);
            out.add(
                "sim.link_faults.burst_overtakes",
                self.faults.burst_overtakes,
            );
        }
        // The profile section stays absent (and the report byte-identical
        // to an uninstrumented run's) unless profiling recorded something.
        let entries = self.profiler.entries(&self.names);
        if !entries.is_empty() {
            // The scheduler's far-future traffic rides along with the
            // profile: deterministic (workload-only), but kept out of
            // unprofiled reports so goldens stay byte-identical.
            let stats = self.queue.stats();
            out.profile_add("sched.overflow", stats.overflow_pushes);
            out.profile_add("sched.migrated", stats.migrated);
        }
        for (k, v) in entries {
            out.profile_add(k, v);
        }
        out
    }

    /// Folds the [`Component::check_state`] of each node in `order` into
    /// `out`. The caller passes the node order explicitly (canonical role
    /// order), so the digest never depends on registration order; it also
    /// writes each node's role as a section separator, so two components
    /// with coincidentally colliding byte streams cannot alias.
    pub fn fold_check_state(&self, order: &[NodeId], out: &mut crate::CheckDigest) {
        for &id in order {
            out.write_str("node");
            out.write_node(id);
            self.components[id.index()].check_state(out);
        }
    }

    /// Hands every component's table-driven machines (row universe, dense
    /// fired counters) to `visit`, in registration order. See
    /// [`Component::visit_fired`].
    pub fn visit_fired(&self, visit: &mut dyn FnMut(&'static dyn FsmRows, &[u64])) {
        for comp in self.components.iter() {
            comp.visit_fired(visit);
        }
    }

    /// Captures this simulator's state as a [`Checkpoint`], events in
    /// flight included — at quiescence or in the middle of a run, say where
    /// [`run_until`](Self::run_until) stopped. Refused, by name, only for a
    /// component that is not [`Component::cloneable`].
    pub fn checkpoint(&self) -> Result<Checkpoint<M>, CheckpointError> {
        let components = self
            .components
            .iter()
            .map(|c| cloneable(&**c).map(CloneComponent::box_clone))
            .collect::<Result<Vec<_>, _>>()?;
        let mut checkpoint = Checkpoint {
            id: next_checkpoint_id(),
            components,
            now: Cycle::ZERO,
            rng: RngBank(Vec::new()),
            links: Vec::new(),
            progress: 0,
            last_progress_at: Cycle::ZERO,
            faults: LinkFaultCounts::default(),
            pending: Vec::new(),
        };
        self.capture_kernel(&mut checkpoint);
        Ok(checkpoint)
    }

    /// [`checkpoint`](Self::checkpoint), written over `checkpoint` — one
    /// taken earlier from this simulator or one built the same way — the
    /// way [`restore`](Self::restore) writes a checkpoint over the
    /// simulator: each live component is copied into its saved peer in place
    /// ([`CloneComponent::restore_into`]), and the kernel state and in-flight
    /// list reuse the buffers they have. A reused checkpoint therefore
    /// stays off the allocator. On an error `checkpoint` is left partly
    /// written and must not be restored.
    ///
    /// # Panics
    /// If `checkpoint` came from a simulator with a different component
    /// list: another length, or a component of another type.
    pub fn checkpoint_into(&self, checkpoint: &mut Checkpoint<M>) -> Result<(), CheckpointError> {
        assert_eq!(
            checkpoint.components.len(),
            self.components.len(),
            "checkpoint of another simulator"
        );
        // New contents, new id — before the copy, so even a partly
        // written checkpoint is never mistaken for the one it was.
        checkpoint.id = next_checkpoint_id();
        for (saved, live) in checkpoint.components.iter_mut().zip(&self.components) {
            debug_assert_eq!(saved.name(), live.name(), "checkpoint of another simulator");
            cloneable(&**live)?.restore_into(&mut **saved);
        }
        self.capture_kernel(checkpoint);
        Ok(())
    }

    /// Copies everything but the components into `checkpoint`.
    fn capture_kernel(&self, checkpoint: &mut Checkpoint<M>) {
        checkpoint.now = self.now;
        checkpoint.rng.0.clone_from(&self.rng.0);
        self.links.dynamic_into(&mut checkpoint.links);
        checkpoint.progress = self.progress;
        checkpoint.last_progress_at = self.last_progress_at;
        checkpoint.faults = self.faults;
        debug_assert!(self.effects.is_empty(), "effects outlived their handler");
        let pending = &mut checkpoint.pending;
        pending.clear();
        self.queue.for_each_in_order(|time, ev| {
            let kind = match ev.kind {
                EventKind::Deliver { from, msg } => SavedKind::Deliver {
                    from,
                    msg: self.msgs.get(msg).clone(),
                },
                EventKind::Wake { token } => SavedKind::Wake { token },
            };
            pending.push(InFlight {
                time,
                target: ev.target,
                kind,
            });
        });
    }

    /// Reinstates `checkpoint`, discarding whatever this simulator was
    /// doing (pending events and payloads included — restoring over a run
    /// that failed to drain is how a scratch world is reused). The
    /// simulator then behaves exactly as the checkpointed one would have:
    /// the checkpoint's in-flight events are pushed back in the order they
    /// would have popped, each delivery's payload parked again.
    ///
    /// Nothing is rebuilt that can be overwritten: each saved component is
    /// copied field by field into the tables and buffers its live peer
    /// already owns ([`CloneComponent::restore_into`]), the RNG
    /// streams and link floors are copied into place, and the queue and
    /// the payload slab are emptied in place. Restoring the
    /// same simulator over and over, as a model checker does once per
    /// successor, therefore stays off the allocator.
    ///
    /// Nor is anything copied that cannot have changed. When this simulator
    /// last restored this very checkpoint (same id: no capture since
    /// rewrote it), only the components touched since are copied back.
    /// Touched means dispatched to by [`run_until`](Self::run_until) or
    /// handed out by [`get_mut`](Self::get_mut) — the only two ways to
    /// mutate one component — or any component at all after
    /// [`run_to_quiescence`](Self::run_to_quiescence),
    /// [`run_with_watchdog`](Self::run_with_watchdog) or
    /// [`step`](Self::step). Any other restore — another checkpoint, the
    /// first, or a simulator of more than 64 components — copies every
    /// component. The kernel state is always copied. Returns how many
    /// components were copied back.
    ///
    /// Post-mortem flags record the run the restore discards, so they are
    /// dropped with it: after a restore the tracer holds only the flags
    /// raised since.
    ///
    /// # Panics
    /// If `checkpoint` came from a simulator with a different component
    /// list (a component of another type is named) or topology.
    pub fn restore(&mut self, checkpoint: &Checkpoint<M>) -> usize {
        assert_eq!(
            checkpoint.components.len(),
            self.components.len(),
            "checkpoint of another simulator"
        );
        let full = self.restored != Some(checkpoint.id) || self.components.len() > 64;
        let mut copied = 0;
        for (idx, (slot, saved)) in self
            .components
            .iter_mut()
            .zip(&checkpoint.components)
            .enumerate()
        {
            if !full && self.touched & touch_bit(idx) == 0 {
                continue;
            }
            debug_assert_eq!(slot.name(), saved.name(), "checkpoint of another simulator");
            saved
                .cloneable()
                .expect("a checkpointed component is cloneable")
                .restore_into(&mut **slot);
            copied += 1;
        }
        self.touched = 0;
        self.restored = Some(checkpoint.id);
        self.tracer.clear_flags();
        // Every checkpointed event is due at or after `checkpoint.now`, so
        // with the window moved there the re-pushes are all in its future.
        self.queue.reset_at(checkpoint.now);
        self.msgs.clear();
        self.effects.clear();
        for ev in &checkpoint.pending {
            let kind = match &ev.kind {
                SavedKind::Deliver { from, msg } => EventKind::Deliver {
                    from: *from,
                    msg: self.msgs.insert(msg.clone()),
                },
                SavedKind::Wake { token } => EventKind::Wake { token: *token },
            };
            self.queue.push(
                ev.time,
                Pending {
                    target: ev.target,
                    kind,
                },
            );
        }
        self.now = checkpoint.now;
        self.rng.0.clone_from(&checkpoint.rng.0);
        self.links.set_dynamic(&checkpoint.links);
        self.progress = checkpoint.progress;
        self.last_progress_at = checkpoint.last_progress_at;
        self.faults = checkpoint.faults;
        copied
    }

    /// Names of all registered components, for diagnostics.
    pub fn component_names(&self) -> &[String] {
        &self.names
    }

    /// The protocol tracer (read access: dumps, flags, config).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The protocol tracer, mutably — lets a harness flag addresses for
    /// post-mortem from outside any component (e.g. after an end-of-run
    /// memory consistency sweep). Flags raised here are dropped by the next
    /// [`restore`](Self::restore), like those components raise.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Renders the post-mortem dump for every flagged address, or `None` if
    /// nothing was flagged. See [`Ctx::flag_post_mortem`].
    pub fn post_mortem(&self) -> Option<String> {
        self.tracer.post_mortem()
    }

    /// The kernel profiler, mutably — lets a harness that builds a system
    /// through a shared constructor opt a specific run into profiling
    /// before the first event is dispatched.
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Installs a transaction-timeline recorder and names a track for every
    /// registered component. From here on, [`Ctx::trace`] records land as
    /// instants and [`Ctx::span`] records as spans; retrieve the result
    /// with [`Simulator::timeline_json`].
    pub fn enable_timeline(&mut self) {
        let mut timeline = Timeline::default();
        for (idx, name) in self.names.iter().enumerate() {
            if !name.is_empty() {
                timeline.name_track(PID_COMPONENTS, idx as u64, name.clone());
            }
        }
        self.tracer.set_timeline(timeline);
    }

    /// Renders the recorded timeline as Chrome trace-event JSON (loadable
    /// in Perfetto), or `None` if no timeline was enabled.
    pub fn timeline_json(&self) -> Option<String> {
        self.tracer.timeline().map(Timeline::to_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FaultSpec;
    use crate::queue::WHEEL_SLOTS;

    /// Records every delivery (time, from, payload) it sees.
    struct Recorder {
        seen: Vec<(u64, NodeId, u64)>,
        woken: Vec<(u64, u64)>,
    }
    impl Recorder {
        fn new() -> Self {
            Recorder {
                seen: Vec::new(),
                woken: Vec::new(),
            }
        }
    }
    impl Component<u64> for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn handle(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.seen.push((ctx.now().as_u64(), from, msg));
            ctx.note_progress();
        }
        fn wake(&mut self, token: u64, ctx: &mut Ctx<'_, u64>) {
            self.woken.push((ctx.now().as_u64(), token));
        }
    }

    /// Sends `count` messages to a peer when first poked.
    struct Burst {
        peer: NodeId,
        count: u64,
    }
    impl Component<u64> for Burst {
        fn name(&self) -> &str {
            "burst"
        }
        fn handle(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            for i in 0..self.count {
                ctx.send(self.peer, i);
            }
        }
    }

    fn two_node_sim(link: Link, count: u64, seed: u64) -> Vec<(u64, NodeId, u64)> {
        let mut b = SimBuilder::new(seed);
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Burst { peer: rec, count }));
        b.link(src, rec, link);
        let mut sim = b.build();
        sim.post(rec, src, 0);
        let out = sim.run_to_quiescence(100_000);
        assert!(out.quiescent);
        sim.get::<Recorder>(rec).unwrap().seen.clone()
    }

    #[test]
    fn ordered_link_preserves_send_order() {
        for seed in 0..20 {
            let seen = two_node_sim(Link::ordered(1, 50), 32, seed);
            let payloads: Vec<u64> = seen.iter().map(|&(_, _, p)| p).collect();
            assert_eq!(payloads, (0..32).collect::<Vec<_>>(), "seed {seed}");
            // Delivery times strictly increase on an ordered link.
            for w in seen.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
        }
    }

    #[test]
    fn unordered_link_reorders_eventually() {
        let mut reordered = false;
        for seed in 0..50 {
            let seen = two_node_sim(Link::unordered(1, 50), 32, seed);
            let payloads: Vec<u64> = seen.iter().map(|&(_, _, p)| p).collect();
            if payloads != (0..32).collect::<Vec<_>>() {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "unordered link never reordered in 50 seeds");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = two_node_sim(Link::unordered(1, 50), 64, 7);
        let b = two_node_sim(Link::unordered(1, 50), 64, 7);
        assert_eq!(a, b);
        let c = two_node_sim(Link::unordered(1, 50), 64, 8);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn wake_tokens_fire_in_time_order() {
        let mut b = SimBuilder::new(1);
        let rec = b.add(Box::new(Recorder::new()));
        let mut sim = b.build();
        sim.post_wake(rec, 10, 100);
        sim.post_wake(rec, 5, 200);
        sim.post_wake(rec, 20, 300);
        let out = sim.run_to_quiescence(1_000);
        assert!(out.quiescent);
        let woken = &sim.get::<Recorder>(rec).unwrap().woken;
        assert_eq!(
            woken.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            vec![200, 100, 300]
        );
    }

    #[test]
    fn watchdog_detects_livelock() {
        /// Two components that ping-pong forever without progress.
        struct Pong {
            peer: Option<NodeId>,
        }
        impl Component<u64> for Pong {
            fn name(&self) -> &str {
                "pong"
            }
            fn handle(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                let to = self.peer.unwrap_or(from);
                ctx.send(to, msg);
            }
        }
        let mut b = SimBuilder::new(3);
        let a = b.add(Box::new(Pong { peer: None }));
        let c = b.add(Box::new(Pong { peer: Some(a) }));
        let mut sim = b.build();
        sim.post(a, c, 1);
        let out = sim.run_with_watchdog(1_000_000, 500);
        assert!(out.stalled);
        assert!(!out.quiescent);
    }

    #[test]
    fn run_stops_at_deadline() {
        let mut b = SimBuilder::new(1);
        let rec = b.add(Box::new(Recorder::new()));
        let mut sim = b.build();
        sim.post_wake(rec, 5_000, 0);
        let out = sim.run_to_quiescence(100);
        assert!(!out.quiescent);
        assert!(sim.get::<Recorder>(rec).unwrap().woken.is_empty());
        let out = sim.run_to_quiescence(10_000);
        assert!(out.quiescent);
        assert_eq!(sim.get::<Recorder>(rec).unwrap().woken.len(), 1);
    }

    #[test]
    fn report_collects_from_components() {
        struct Stat;
        impl Component<u64> for Stat {
            fn name(&self) -> &str {
                "stat"
            }
            fn handle(&mut self, _f: NodeId, _m: u64, _c: &mut Ctx<'_, u64>) {}
            fn report(&self, out: &mut Report) {
                out.add("stat.value", 11);
            }
        }
        let mut b = SimBuilder::new(1);
        b.add(Box::new(Stat));
        b.add(Box::new(Stat));
        let sim = b.build();
        assert_eq!(sim.report().get("stat.value"), 22);
    }

    #[test]
    fn ctx_tracing_feeds_post_mortem() {
        use crate::trace::TraceConfig;

        /// Traces each delivery and flags the address on payload 2.
        struct Suspect;
        impl Component<u64> for Suspect {
            fn name(&self) -> &str {
                "suspect"
            }
            fn handle(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                ctx.trace(0xabc0, "S", "Deliver", || format!("payload={msg}"));
                if msg == 2 {
                    ctx.flag_post_mortem(0xabc0, "payload 2 observed");
                }
            }
        }

        let mut b = SimBuilder::new(1);
        let s = b.add(Box::new(Suspect));
        b.trace(TraceConfig::ring());
        let mut sim = b.build();
        for payload in 0..3 {
            sim.post(s, s, payload);
        }
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let pm = sim.post_mortem().expect("flag raised");
        assert!(pm.contains("payload 2 observed"), "{pm}");
        assert!(pm.contains("suspect"), "component name attributed: {pm}");
        assert!(pm.contains("payload=0"), "earlier history retained: {pm}");
    }

    #[test]
    fn tracing_off_is_default_and_silent() {
        let mut b = SimBuilder::new(1);
        let rec = b.add(Box::new(Recorder::new()));
        let mut sim = b.build();
        sim.post(rec, rec, 1);
        assert!(sim.run_to_quiescence(1_000).quiescent);
        if crate::trace::env_switch("XG_TRACE") != Ok(true) {
            assert!(!sim.tracer().enabled());
        }
        assert!(sim.post_mortem().is_none());
    }

    fn faulty_sim(spec: FaultSpec, count: u64, seed: u64) -> (Vec<u64>, LinkFaultCounts, Report) {
        let mut b = SimBuilder::new(seed);
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Burst { peer: rec, count }));
        b.link(src, rec, Link::unordered(1, 20).with_faults(spec));
        let mut sim = b.build();
        sim.post(rec, src, 0);
        assert!(sim.run_to_quiescence(1_000_000).quiescent);
        let seen = sim.get::<Recorder>(rec).unwrap().seen.clone();
        (
            seen.iter().map(|&(_, _, p)| p).collect(),
            sim.link_fault_counts(),
            sim.report(),
        )
    }

    /// A faulted link is still reliable: under the campaign's plan, every
    /// payload sent is delivered exactly once, whatever the seed.
    #[test]
    fn faulted_links_deliver_every_message_exactly_once() {
        for seed in 1..=20 {
            let (mut payloads, counts, report) =
                faulty_sim(FaultSpec::delay_only(25, 10, 800, 3), 200, seed);
            payloads.sort_unstable();
            assert_eq!(payloads, (0..200).collect::<Vec<u64>>(), "seed {seed}");
            assert!(counts.total() > 0, "seed {seed}: no fault fired");
            assert_eq!(
                report.get("sim.link_faults.delay_spikes"),
                counts.delay_spikes
            );
        }
    }

    #[test]
    fn delay_spikes_push_victims_past_the_latency_bound() {
        let spec = FaultSpec {
            delay_spike_pct: 20,
            spike_cycles: 10_000,
            ..FaultSpec::NONE
        };
        let mut b = SimBuilder::new(9);
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Burst {
            peer: rec,
            count: 100,
        }));
        b.link(src, rec, Link::unordered(1, 20).with_faults(spec));
        let mut sim = b.build();
        sim.post(rec, src, 0);
        assert!(sim.run_to_quiescence(1_000_000).quiescent);
        let seen = &sim.get::<Recorder>(rec).unwrap().seen;
        let spiked = seen.iter().filter(|&&(t, _, _)| t > 10_000).count() as u64;
        assert_eq!(seen.len(), 100, "spikes must not lose messages");
        assert_eq!(spiked, sim.link_fault_counts().delay_spikes);
        assert!(spiked > 0);
    }

    #[test]
    fn reorder_bursts_overtake_the_victim() {
        let spec = FaultSpec {
            reorder_pct: 10,
            spike_cycles: 500,
            burst_len: 4,
            ..FaultSpec::NONE
        };
        let (payloads, counts, _) = faulty_sim(spec, 100, 3);
        assert_eq!(payloads.len(), 100, "bursts must not lose messages");
        assert!(counts.reorder_bursts > 0);
        assert!(counts.burst_overtakes > 0);
        let sorted: Vec<u64> = (0..100).collect();
        assert_ne!(payloads, sorted, "bursts should visibly reorder delivery");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let spec = FaultSpec {
            delay_spike_pct: 20,
            reorder_pct: 20,
            spike_cycles: 777,
            burst_len: 3,
        };
        let a = faulty_sim(spec, 150, 42);
        let b = faulty_sim(spec, 150, 42);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert!(a.1.delay_spikes > 0 && a.1.reorder_bursts > 0, "{:?}", a.1);
    }

    #[test]
    fn profiling_records_dispatch_without_perturbing_the_run() {
        fn run(profile: bool) -> (Vec<(u64, NodeId, u64)>, Report) {
            let mut b = SimBuilder::new(11);
            let rec = b.add(Box::new(Recorder::new()));
            let src = b.add(Box::new(Burst {
                peer: rec,
                count: 16,
            }));
            b.link(src, rec, Link::unordered(1, 30));
            b.event_label(|&msg: &u64| if msg % 2 == 0 { "Even" } else { "Odd" });
            if profile {
                b.profile(xg_prof::ProfileConfig::on());
            }
            let mut sim = b.build();
            sim.post(rec, src, 0);
            sim.post_wake(rec, 5, 1);
            assert!(sim.run_to_quiescence(100_000).quiescent);
            (sim.get::<Recorder>(rec).unwrap().seen.clone(), sim.report())
        }
        let (plain_seen, plain_report) = run(false);
        let (prof_seen, prof_report) = run(true);
        assert_eq!(plain_seen, prof_seen, "profiling must not perturb the run");
        assert!(
            !plain_report.to_json().contains("profile"),
            "profiling off → no profile section"
        );
        assert_eq!(
            prof_report.without_profile().to_json(),
            plain_report.to_json(),
            "stripped profiled report matches the plain one byte-for-byte"
        );
        assert_eq!(prof_report.profile_get("dispatch.recorder.Even"), 8);
        assert_eq!(prof_report.profile_get("dispatch.recorder.Odd"), 8);
        assert_eq!(prof_report.profile_get("dispatch.recorder.Wake"), 1);
        assert_eq!(prof_report.profile_get("dispatch.burst.Even"), 1);
        // 16 bursts + 1 trigger + 1 wake.
        assert_eq!(prof_report.profile_get("events.total"), 18);
        assert!(prof_report.profile_get("queue.hwm") >= 1);
    }

    /// A node order numbers the components by it, and a system wired by
    /// planned ids runs as it does unpermuted.
    #[test]
    fn a_node_order_relabels_every_node() {
        let run = |order: Vec<usize>| {
            let mut b = SimBuilder::new(7);
            b.node_order(order);
            let (rec, src) = (b.planned_id(0), b.planned_id(1));
            assert_eq!(b.add(Box::new(Recorder::new())), rec);
            assert_eq!(
                b.add(Box::new(Burst {
                    peer: rec,
                    count: 3
                })),
                src
            );
            let mut sim = b.build();
            sim.post(rec, src, 0);
            assert!(sim.run_to_quiescence(100_000).quiescent);
            let seen = &sim.get::<Recorder>(rec).expect("recorder").seen;
            let seen: Vec<(u64, u64)> = seen.iter().map(|&(at, _, msg)| (at, msg)).collect();
            (sim.component_names().to_vec(), seen)
        };
        let (names, plain) = run(Vec::new());
        let (swapped, relabelled) = run(vec![1, 0]);
        assert_eq!(names, ["recorder", "burst"]);
        assert_eq!(swapped, ["burst", "recorder"]);
        assert_eq!(plain.len(), 3);
        assert_eq!(plain, relabelled);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn a_node_order_that_is_no_permutation_is_refused() {
        let mut b = SimBuilder::<u64>::new(7);
        b.node_order(vec![0, 0]);
        b.add(Box::new(Recorder::new()));
        b.add(Box::new(Recorder::new()));
        b.build();
    }

    #[test]
    fn epoch_series_lands_in_the_report() {
        let mut b = SimBuilder::new(2);
        let rec = b.add(Box::new(Recorder::new()));
        b.profile(xg_prof::ProfileConfig::on());
        let mut sim = b.build();
        for i in 0..4 {
            sim.post_wake(rec, 1 + i * xg_prof::EPOCH_CYCLES, 0);
        }
        assert!(sim.run_to_quiescence(5 * xg_prof::EPOCH_CYCLES).quiescent);
        let report = sim.report();
        assert!(report.profile_get("epoch.0000.events") > 0);
    }

    #[test]
    fn timeline_collects_instants_and_spans() {
        /// Traces deliveries and records a span when payload 2 arrives.
        struct Spanner {
            first_at: Option<Cycle>,
        }
        impl Component<u64> for Spanner {
            fn name(&self) -> &str {
                "spanner"
            }
            fn handle(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
                ctx.trace(0x40, "S", "Deliver", || format!("payload={msg}"));
                if msg == 0 {
                    self.first_at = Some(ctx.now());
                } else if let Some(start) = self.first_at {
                    ctx.span(0x40, "grant", start);
                }
                ctx.note_progress();
            }
        }
        let mut b = SimBuilder::new(4);
        let s = b.add(Box::new(Spanner { first_at: None }));
        let mut sim = b.build();
        assert!(sim.timeline_json().is_none(), "no timeline by default");
        sim.enable_timeline();
        sim.post(s, s, 0);
        sim.post(s, s, 1);
        assert!(sim.run_to_quiescence(1_000).quiescent);
        let json = sim.timeline_json().expect("timeline enabled");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("spanner"), "component track named: {json}");
        assert!(json.contains("\"ph\":\"i\""), "instants recorded: {json}");
        assert!(json.contains("\"ph\":\"X\""), "span recorded: {json}");
        assert!(json.contains("\"name\":\"grant\""));
    }

    #[test]
    fn empty_fault_spec_changes_nothing() {
        let clean = two_node_sim(Link::unordered(1, 50), 64, 7);
        let with_empty_spec = {
            let mut b = SimBuilder::new(7);
            let rec = b.add(Box::new(Recorder::new()));
            let src = b.add(Box::new(Burst {
                peer: rec,
                count: 64,
            }));
            b.link(
                src,
                rec,
                Link::unordered(1, 50).with_faults(FaultSpec::NONE),
            );
            let mut sim = b.build();
            sim.post(rec, src, 0);
            assert!(sim.run_to_quiescence(100_000).quiescent);
            assert_eq!(sim.link_fault_counts(), LinkFaultCounts::default());
            assert_eq!(sim.report().get("sim.link_faults.delay_spikes"), 0);
            sim.get::<Recorder>(rec).unwrap().seen.clone()
        };
        assert_eq!(
            clean, with_empty_spec,
            "empty spec must not perturb the RNG stream"
        );
    }

    /// Sends `count` randomized payloads to `peer` when poked; named so
    /// its stream can be pinned to a stable label.
    struct Chatter {
        name: &'static str,
        peer: NodeId,
        count: u64,
    }
    impl Component<u64> for Chatter {
        fn name(&self) -> &str {
            self.name
        }
        fn handle(&mut self, _from: NodeId, _msg: u64, ctx: &mut Ctx<'_, u64>) {
            for _ in 0..self.count {
                let payload: u64 = ctx.rng().gen_range(0..1_000_000);
                ctx.send(self.peer, payload);
            }
        }
    }

    /// One chatter/recorder pair, optionally preceded by an unrelated
    /// second pair whose draws would shift a stream they shared.
    fn chatter_run(with_noise: bool) -> Vec<(u64, u64)> {
        let mut b = SimBuilder::new(77);
        if with_noise {
            let rec2 = b.add(Box::new(Recorder::new()));
            let noise = b.add(Box::new(Chatter {
                name: "noise",
                peer: rec2,
                count: 32,
            }));
            b.link(noise, rec2, Link::unordered(1, 40));
        }
        let rec = b.add(Box::new(Recorder::new()));
        let src = b.add(Box::new(Chatter {
            name: "src",
            peer: rec,
            count: 32,
        }));
        b.link(src, rec, Link::unordered(1, 40));
        let mut sim = b.build();
        if with_noise {
            // Poke the bystander pair (registered first, at indices 0/1)
            // ahead of the pair under test, so its draws come first.
            sim.post(NodeId::from_index(0), NodeId::from_index(1), 0);
        }
        sim.post(rec, src, 0);
        assert!(sim.run_to_quiescence(100_000).quiescent);
        sim.get::<Recorder>(rec)
            .unwrap()
            .seen
            .iter()
            .map(|&(t, _, p)| (t, p))
            .collect()
    }

    #[test]
    fn per_component_streams_are_deterministic() {
        let a = chatter_run(false);
        let b = chatter_run(false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn per_component_streams_are_isolated_from_other_components() {
        // Streams are keyed by component name: the pair's latencies and
        // payloads are identical with or without an unrelated busy pair
        // drawing ahead of it.
        assert_eq!(
            chatter_run(false),
            chatter_run(true),
            "per-component streams must not be perturbed by bystanders"
        );
    }

    /// A [`Recorder`] that can be checkpointed, and restored in place.
    #[derive(Clone)]
    struct Tape(Vec<(u64, u64)>);
    impl Component<u64> for Tape {
        fn name(&self) -> &str {
            "tape"
        }
        fn handle(&mut self, _from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.0.push((ctx.now().as_u64(), msg));
            // Every delivery below 3 fans out again, so later behaviour
            // depends on RNG state, link floors and component state alike.
            if msg % 4 < 3 {
                let next: u64 = ctx.rng().gen_range(0..1_000);
                let me = ctx.self_id();
                ctx.send(me, next);
            }
        }
        fn wake(&mut self, token: u64, ctx: &mut Ctx<'_, u64>) {
            self.0.push((ctx.now().as_u64(), token));
        }
        fn report(&self, out: &mut Report) {
            out.add("tape.seen", self.0.len() as u64);
        }
        fn cloneable(&self) -> Option<&dyn CloneComponent<u64>> {
            Some(self)
        }
    }

    /// Named like a [`Tape`], but of another type.
    #[derive(Clone)]
    struct NotATape;
    impl Component<u64> for NotATape {
        fn name(&self) -> &str {
            "tape"
        }
        fn handle(&mut self, _from: NodeId, _msg: u64, _ctx: &mut Ctx<'_, u64>) {}
        fn cloneable(&self) -> Option<&dyn CloneComponent<u64>> {
            Some(self)
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint of another simulator: component \"tape\" is not a")]
    fn restore_from_refuses_a_component_of_another_type() {
        let (sim, _) = tape_sim();
        let cp = sim.checkpoint().expect("tapes clone");
        let mut b = SimBuilder::new(5);
        b.add(Box::new(NotATape));
        b.build().restore(&cp);
    }

    fn tape_sim() -> (Simulator<u64>, NodeId) {
        let mut b = SimBuilder::new(5);
        let tape = b.add(Box::new(Tape(Vec::new())));
        b.link(tape, tape, Link::ordered(1, 30));
        (b.build(), tape)
    }

    #[test]
    fn restore_replays_the_checkpointed_future_exactly() {
        let (mut sim, tape) = tape_sim();
        sim.post(tape, tape, 0);
        assert!(sim.run_to_quiescence(100_000).quiescent);
        let cp = sim.checkpoint().expect("quiescent and cloneable");
        let taken_at = sim.now();
        assert!(cp.inline_bytes() > 0);

        let future = |sim: &mut Simulator<u64>| {
            sim.post(tape, tape, 4);
            assert!(sim.run_to_quiescence(100_000).quiescent);
            (sim.get::<Tape>(tape).unwrap().0.clone(), sim.now())
        };
        let first = future(&mut sim);
        sim.restore(&cp);
        assert_eq!(sim.now(), taken_at);
        assert_eq!(future(&mut sim), first, "same simulator, restored");

        // A second simulator built the same way takes the checkpoint too,
        // even while it is mid-run: its pending work is discarded.
        let (mut other, _) = tape_sim();
        other.post(tape, tape, 1);
        other.post_wake(tape, 50_000, 9);
        assert!(!other.run_to_quiescence(10).quiescent);
        other.restore(&cp);
        assert_eq!(future(&mut other), first, "fresh simulator, restored");
    }

    /// Two tapes on unordered links: deliveries race and fan out on both.
    fn two_tape_sim() -> (Simulator<u64>, NodeId, NodeId) {
        let mut b = SimBuilder::new(9);
        let a = b.add(Box::new(Tape(Vec::new())));
        let c = b.add(Box::new(Tape(Vec::new())));
        b.default_link(Link::unordered(1, 30));
        (b.build(), a, c)
    }

    /// Both tapes — what each target saw, when, in order — plus the
    /// simulator's time and report.
    type Ending = (Vec<(u64, u64)>, Vec<(u64, u64)>, Cycle, String);

    fn run_out(sim: &mut Simulator<u64>, a: NodeId, c: NodeId) -> Ending {
        assert!(sim.run_to_quiescence(1_000_000).quiescent);
        let tape = |id| sim.get::<Tape>(id).unwrap().0.clone();
        (tape(a), tape(c), sim.now(), sim.report().to_json())
    }

    #[test]
    fn a_checkpoint_with_events_in_flight_resumes_exactly() {
        let (mut sim, a, c) = two_tape_sim();
        // Parked payloads, a same-cycle tie of wakes on each node, and
        // wakes beyond the wheel's horizon (the overflow heap).
        for payload in [0, 1, 2, 5] {
            sim.post(a, c, payload);
            sim.post(c, a, payload + 8);
        }
        for token in [100, 101] {
            sim.post_wake(a, 40, token);
            sim.post_wake(c, 40, token + 10);
        }
        let far = WHEEL_SLOTS as u64 + 500;
        sim.post_wake(c, far, 102);
        sim.post_wake(a, 3 * far, 103);
        for _ in 0..5 {
            assert!(sim.step());
        }
        let cp = sim.checkpoint().expect("tapes clone");
        let parked = cp
            .pending
            .iter()
            .filter(|ev| matches!(ev.kind, SavedKind::Deliver { .. }))
            .count();
        assert!(
            parked > 0 && cp.pending.len() > parked,
            "payloads and wakes"
        );
        let horizon = sim.now() + WHEEL_SLOTS as u64;
        assert!(cp.pending.iter().any(|ev| ev.time >= horizon));
        assert!(cp.pending.windows(2).any(|w| w[0].time == w[1].time));
        assert!(cp.pending.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(cp.inline_bytes() >= cp.pending.len() * std::mem::size_of::<InFlight<u64>>());

        let first = run_out(&mut sim, a, c);
        sim.restore(&cp);
        assert_eq!(run_out(&mut sim, a, c), first, "restored after it ran on");

        let (mut fresh, ..) = two_tape_sim();
        fresh.post(a, a, 1);
        fresh.post_wake(c, 9_000, 7);
        fresh.restore(&cp);
        assert_eq!(run_out(&mut fresh, a, c), first, "fresh simulator");

        // Written over a checkpoint of another (drained) state.
        let mut slot = fresh.checkpoint().expect("tapes clone");
        sim.restore(&cp);
        sim.checkpoint_into(&mut slot).expect("tapes clone");
        assert_eq!(slot.pending.len(), cp.pending.len());
        assert_eq!(slot.inline_bytes(), cp.inline_bytes());
        fresh.restore(&slot);
        assert_eq!(run_out(&mut fresh, a, c), first, "checkpoint_into");
    }

    /// Restoring the checkpoint a simulator restored last copies back only
    /// the components touched since — and a component is restored however
    /// it was changed: by a dispatch in `run_until`, `step`,
    /// `run_to_quiescence` or `run_with_watchdog`, or through `get_mut`.
    #[test]
    fn a_restore_copies_back_what_was_touched_however_it_was_touched() {
        let (mut sim, a, c) = two_tape_sim();
        for payload in [0, 1, 2] {
            sim.post(a, c, payload);
            sim.post(c, a, payload + 8);
        }
        let cp = sim.checkpoint().expect("tapes clone");
        let tapes = |sim: &Simulator<u64>| {
            let tape = |id| sim.get::<Tape>(id).unwrap().0.clone();
            (tape(a), tape(c))
        };
        let want = tapes(&sim);
        let first = run_out(&mut sim, a, c);
        assert_eq!(sim.restore(&cp), 2, "a first restore copies everything");
        assert_eq!(sim.restore(&cp), 0, "nothing touched, nothing copied");
        let _ = tapes(&sim);
        assert_eq!(sim.restore(&cp), 0, "reading touches nothing");

        type Change = fn(&mut Simulator<u64>, NodeId);
        let changes: [(&str, Change, usize); 5] = [
            (
                "get_mut",
                |sim, a| sim.get_mut::<Tape>(a).unwrap().0.push((0, 99)),
                1,
            ),
            (
                "run_until",
                |sim, _| {
                    sim.run_until(Cycle::new(1_000_000), |_, _| false);
                },
                2,
            ),
            (
                "step",
                |sim, _| {
                    sim.step();
                },
                2,
            ),
            (
                "run_to_quiescence",
                |sim, _| {
                    sim.run_to_quiescence(1_000_000);
                },
                2,
            ),
            (
                "run_with_watchdog",
                |sim, _| {
                    sim.run_with_watchdog(1_000_000, 1_000_000);
                },
                2,
            ),
        ];
        for (how, change, copied) in changes {
            change(&mut sim, a);
            assert_ne!(tapes(&sim), want, "{how} changed nothing");
            assert_eq!(sim.restore(&cp), copied, "{how}");
            assert_eq!(tapes(&sim), want, "{how}");
            assert_eq!(run_out(&mut sim, a, c), first, "{how}");
            assert_eq!(sim.restore(&cp), 2, "{how}: run out");
        }

        // A checkpoint written over is another checkpoint: the next restore
        // of it copies everything, as does one of a different checkpoint.
        let mut slot = sim.checkpoint().expect("tapes clone");
        assert_eq!(sim.restore(&slot), 2);
        sim.checkpoint_into(&mut slot).expect("tapes clone");
        assert_eq!(sim.restore(&slot), 2, "rewritten");
        assert_eq!(sim.restore(&cp), 2, "another checkpoint");
        assert_eq!(run_out(&mut sim, a, c), first);
    }

    /// Flags `addr` on every delivery.
    #[derive(Clone)]
    struct Alarm;
    impl Component<u64> for Alarm {
        fn name(&self) -> &str {
            "alarm"
        }
        fn handle(&mut self, _from: NodeId, addr: u64, ctx: &mut Ctx<'_, u64>) {
            ctx.flag_post_mortem(addr, "alarm");
        }
        fn cloneable(&self) -> Option<&dyn CloneComponent<u64>> {
            Some(self)
        }
    }

    /// A run's post-mortem flags stay until a restore discards the run: a
    /// run never restored over keeps every one of them (which is what the
    /// stress and fuzz post-mortems read), and a restored simulator holds
    /// only the flags raised since.
    #[test]
    fn post_mortem_flags_last_until_a_restore_discards_their_run() {
        let mut b = SimBuilder::new(1);
        let alarm = b.add(Box::new(Alarm));
        let mut sim = b.build();
        let cp = sim.checkpoint().expect("alarm clones");
        let flagged = |sim: &Simulator<u64>| -> Vec<u64> {
            sim.tracer().flags().iter().map(|f| f.addr).collect()
        };
        for run in 0..3 {
            sim.post(alarm, alarm, 0x40 + run);
            assert!(sim.run_to_quiescence(1_000).quiescent);
        }
        assert_eq!(flagged(&sim), [0x40, 0x41, 0x42], "never restored: kept");
        sim.restore(&cp);
        assert!(sim.post_mortem().is_none(), "discarded with their run");
        sim.post(alarm, alarm, 0x80);
        assert!(sim.run_to_quiescence(1_000).quiescent);
        assert_eq!(flagged(&sim), [0x80]);
    }

    #[test]
    fn run_until_stops_in_front_of_an_accepted_delivery_and_resumes() {
        let (mut sim, a, c) = two_tape_sim();
        let (mut twin, ..) = two_tape_sim();
        for s in [&mut sim, &mut twin] {
            s.post(a, c, 6);
            s.post(c, a, 4);
            s.post_wake(a, 2, 5);
        }
        let deadline = Cycle::new(100_000);
        let mut offered = Vec::new();
        let stopped = sim.run_until(deadline, |to, &msg| {
            offered.push((to, msg));
            to == c && msg % 2 == 1
        });
        assert_eq!(stopped, None);
        assert!(!offered.contains(&(a, 5)), "a wake is never offered");
        let &(to, msg) = offered.last().expect("stopped at a delivery");
        // Still queued: a checkpoint carries it, and the run resumes with it.
        let cp = sim.checkpoint().expect("tapes clone");
        assert!(cp.pending.iter().any(|ev| ev.target == to
            && matches!(ev.kind, SavedKind::Deliver { msg: m, .. } if m == msg)));
        let done = sim.run_until(deadline, |_, _| false).expect("never stops");
        assert!(done.quiescent);
        let resumed = run_out(&mut sim, a, c);
        assert_eq!(resumed, run_out(&mut twin, a, c), "as if never stopped");

        // A head past the deadline is not a stop.
        let (mut late, ..) = two_tape_sim();
        late.post_wake(a, 500, 1);
        let out = late.run_until(Cycle::new(100), |_, _| true);
        assert_eq!(
            out,
            Some(RunOutcome {
                quiescent: false,
                stalled: false,
                now: Cycle::new(100),
                events: 0,
            })
        );
    }

    /// One `Effect` is written and read back per send and wake.
    #[test]
    fn effect_layout_is_pinned() {
        assert!(std::mem::size_of::<Effect>() <= 32);
    }

    /// How often each payload ever made — constructed or cloned — has been
    /// dropped so far, by creation order.
    type Tally = std::sync::Arc<std::sync::Mutex<Vec<u32>>>;

    /// A payload with a hop budget that reports its own drop to a [`Tally`].
    struct Counted {
        hops: u32,
        id: usize,
        tally: Tally,
    }
    impl Counted {
        fn new(hops: u32, tally: &Tally) -> Counted {
            let mut drops = tally.lock().unwrap();
            drops.push(0);
            Counted {
                hops,
                id: drops.len() - 1,
                tally: tally.clone(),
            }
        }
    }
    impl Clone for Counted {
        fn clone(&self) -> Counted {
            Counted::new(self.hops, &self.tally)
        }
    }
    impl Drop for Counted {
        fn drop(&mut self) {
            self.tally.lock().unwrap()[self.id] += 1;
        }
    }

    /// Spends a payload's hop budget on sends to its peer, fan-out and
    /// sends to itself; every payload it is handed dies with the handler.
    #[derive(Clone)]
    struct Relay {
        peer: NodeId,
    }
    impl Component<Counted> for Relay {
        fn name(&self) -> &str {
            "relay"
        }
        fn handle(&mut self, _from: NodeId, msg: Counted, ctx: &mut Ctx<'_, Counted>) {
            let Some(hops) = msg.hops.checked_sub(1) else {
                return;
            };
            let next = || Counted::new(hops, &msg.tally);
            match hops % 4 {
                0 => ctx.send(ctx.self_id(), next()),
                1 => {
                    ctx.send(self.peer, next());
                    ctx.send_after(self.peer, Counted::new(0, &msg.tally), 7);
                }
                _ => ctx.send(self.peer, next()),
            }
        }
        fn cloneable(&self) -> Option<&dyn CloneComponent<Counted>> {
            Some(self)
        }
    }

    fn relay_sim(link: Link) -> (Simulator<Counted>, NodeId, NodeId) {
        let mut b = SimBuilder::new(11);
        let a = b.add(Box::new(Relay {
            peer: NodeId::from_index(1),
        }));
        let c = b.add(Box::new(Relay { peer: a }));
        b.default_link(link);
        (b.build(), a, c)
    }

    #[track_caller]
    fn assert_each_dropped_once(tally: &Tally) {
        let drops = tally.lock().unwrap();
        assert!(!drops.is_empty());
        for (id, &n) in drops.iter().enumerate() {
            assert_eq!(n, 1, "payload {id} of {} dropped {n} times", drops.len());
        }
    }

    #[test]
    fn payload_lifetime_every_payload_is_dropped_exactly_once() {
        // Delivered, fanned out and sent to itself over a clean link.
        let tally = Tally::default();
        let (mut sim, a, c) = relay_sim(Link::unordered(1, 9));
        for hops in [5, 12, 30] {
            sim.post(a, c, Counted::new(hops, &tally));
        }
        assert!(sim.run_to_quiescence(100_000).quiescent);
        assert!(
            sim.msgs.is_empty(),
            "{} payloads still parked",
            sim.msgs.len()
        );
        assert_each_dropped_once(&tally);
        let clean = tally.lock().unwrap().len();

        // Held back by delay spikes and reorder bursts, from inside a run
        // and from `post`.
        let tally = Tally::default();
        let faults = FaultSpec::delay_only(20, 30, 50, 2);
        let (mut sim, a, c) = relay_sim(Link::unordered(1, 9).with_faults(faults));
        for _ in 0..8 {
            sim.post(a, c, Counted::new(30, &tally));
        }
        assert!(sim.run_to_quiescence(100_000).quiescent);
        let counts = sim.link_fault_counts();
        assert!(
            counts.delay_spikes > 0 && counts.reorder_bursts > 0,
            "{counts:?}"
        );
        assert!(
            sim.msgs.is_empty(),
            "{} payloads still parked",
            sim.msgs.len()
        );
        assert_each_dropped_once(&tally);
        assert_ne!(tally.lock().unwrap().len(), clean);

        // Discarded by a restore over a run that has not drained.
        let tally = Tally::default();
        let (mut sim, a, c) = relay_sim(Link::unordered(1, 9));
        let cp = sim.checkpoint().expect("nothing in flight yet");
        for hops in [40, 41, 42] {
            sim.post(a, c, Counted::new(hops, &tally));
        }
        assert!(!sim.run_to_quiescence(20).quiescent);
        assert!(!sim.msgs.is_empty() && !sim.queue.is_empty());
        sim.restore(&cp);
        assert!(sim.msgs.is_empty() && sim.queue.is_empty());
        assert_each_dropped_once(&tally);

        // Copied into a checkpoint taken mid-run and parked again by every
        // restore of it: each copy still dies exactly once.
        let tally = Tally::default();
        let (mut sim, a, c) = relay_sim(Link::unordered(1, 9));
        for hops in [7, 8, 9] {
            sim.post(a, c, Counted::new(hops, &tally));
        }
        assert!(!sim.run_to_quiescence(5).quiescent);
        let cp = sim.checkpoint().expect("relays clone");
        assert!(!cp.pending.is_empty());
        for _ in 0..2 {
            sim.restore(&cp);
            assert!(sim.run_to_quiescence(100_000).quiescent);
        }
        drop(cp);
        assert!(sim.msgs.is_empty());
        assert_each_dropped_once(&tally);
    }

    /// A component that does not opt in with `cloneable` — being `Clone`
    /// is not enough — makes `checkpoint` fail, naming it.
    #[test]
    fn checkpoint_names_the_component_that_cannot_clone() {
        #[derive(Clone)]
        struct Plain;
        impl Component<u64> for Plain {
            fn name(&self) -> &str {
                "plain"
            }
            fn handle(&mut self, _from: NodeId, _msg: u64, _ctx: &mut Ctx<'_, u64>) {}
        }
        let refused: [(Box<dyn Component<u64>>, &str); 2] = [
            (Box::new(Recorder::new()), "recorder"),
            (Box::new(Plain), "plain"),
        ];
        for (component, name) in refused {
            let mut b = SimBuilder::new(1);
            b.add(Box::new(Tape(Vec::new())));
            b.add(component);
            let err = b.build().checkpoint().err().expect("not cloneable");
            assert_eq!(
                err,
                CheckpointError::NotCloneable {
                    component: name.into()
                }
            );
            assert!(err.to_string().contains(name), "{err}");
        }
    }
}
