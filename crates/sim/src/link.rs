//! Link (network channel) latency, ordering, and fault-injection models.

/// Deterministic fault-injection plan for an **unordered** link.
///
/// Percentages are per-message probabilities (drawn from the simulation RNG,
/// so runs stay bit-reproducible for a fixed seed). Every fault is a
/// latency fault: a faulted link is still reliable, delivering each message
/// exactly once. The two kinds model distinct host-network pathologies:
///
/// * **delay spike** — the message is delivered `spike_cycles` later than
///   its drawn latency (a congested switch, a retried NoC hop). This is what
///   drives the guard's invalidation-timeout machinery (paper guarantee 2c).
/// * **reorder burst** — the message is held for `max + spike_cycles` while
///   the next `burst_len` messages on the same link are delivered at the
///   link's *minimum* latency, so they overtake it. This concentrates the
///   reordering an unordered link already permits into adversarial bursts.
///
/// A zeroed spec (`FaultSpec::NONE`) is free: the delivery path draws no
/// extra randomness, so pre-existing seeded runs are byte-identical.
///
/// Faults are rejected on **ordered** links: the guard ↔ accelerator network
/// is contractually ordered and reliable (paper §2.1), and that contract is
/// exactly what the fault injector must not break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultSpec {
    /// Percent of messages delayed by an extra `spike_cycles` (0-100).
    pub delay_spike_pct: u8,
    /// Percent of messages that open a reorder burst (0-100).
    pub reorder_pct: u8,
    /// Extra latency applied by a delay spike or a reorder-burst victim.
    pub spike_cycles: u64,
    /// How many following messages overtake a reorder-burst victim.
    pub burst_len: u8,
}

impl FaultSpec {
    /// The no-fault spec (also `Default`).
    pub const NONE: FaultSpec = FaultSpec {
        delay_spike_pct: 0,
        reorder_pct: 0,
        spike_cycles: 0,
        burst_len: 0,
    };

    /// A plan of delay spikes and reorder bursts. This is the plan a
    /// *reliable but congested* host network exhibits, and the default
    /// adversary used by the fuzz campaign: it never violates the host
    /// protocol's delivery assumptions, only its timing assumptions.
    pub fn delay_only(spike_pct: u8, reorder_pct: u8, spike_cycles: u64, burst_len: u8) -> Self {
        FaultSpec {
            delay_spike_pct: spike_pct,
            reorder_pct,
            spike_cycles,
            burst_len,
        }
    }

    /// Whether this spec injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.delay_spike_pct == 0 && self.reorder_pct == 0
    }

    /// Sum of all trigger percentages (must stay ≤ 100 so a single uniform
    /// draw can classify each message).
    pub fn total_pct(&self) -> u32 {
        self.delay_spike_pct as u32 + self.reorder_pct as u32
    }
}

/// Latency and ordering configuration for a directed link between two
/// components.
///
/// * An **unordered** link delivers each message after an independently
///   chosen random latency in `[min, max]`. Messages can therefore pass one
///   another in flight — this is the source of the races a realistic host
///   coherence protocol must tolerate (paper §2.4). Unordered links may
///   additionally carry a [`FaultSpec`].
/// * An **ordered** link also draws a random latency per message, but
///   guarantees that delivery order matches send order by pushing each
///   delivery time to at least one cycle after the previous delivery on the
///   same link. The Crossing Guard ↔ accelerator network is required to be
///   ordered (paper §2.1), which is exactly what eliminates all but one race
///   from the accelerator's view. Ordered links never inject faults.
///
/// ```rust
/// use xg_sim::{FaultSpec, Link};
/// let fast = Link::ordered(1, 1);
/// let noisy = Link::unordered(5, 40).with_faults(FaultSpec::delay_only(10, 5, 500, 4));
/// assert!(noisy.max_latency() >= fast.max_latency());
/// assert!(!noisy.faults().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    min: u64,
    max: u64,
    ordered: bool,
    faults: FaultSpec,
}

impl Link {
    /// An unordered link with latency uniformly drawn from `[min, max]`.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn unordered(min: u64, max: u64) -> Self {
        assert!(min <= max, "link latency range inverted: [{min}, {max}]");
        Link {
            min,
            max,
            ordered: false,
            faults: FaultSpec::NONE,
        }
    }

    /// An ordered (FIFO) link with latency uniformly drawn from `[min, max]`.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn ordered(min: u64, max: u64) -> Self {
        assert!(min <= max, "link latency range inverted: [{min}, {max}]");
        Link {
            min,
            max,
            ordered: true,
            faults: FaultSpec::NONE,
        }
    }

    /// Attaches a fault-injection plan to this link.
    ///
    /// # Panics
    /// Panics if the link is ordered and `faults` is non-empty (the §2.1
    /// ordered-link contract includes reliable in-order delivery), or if the
    /// trigger percentages sum past 100.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        assert!(
            !self.ordered || faults.is_none(),
            "fault injection is only supported on unordered links (§2.1 contract)"
        );
        assert!(
            faults.total_pct() <= 100,
            "fault trigger percentages sum past 100: {}",
            faults.total_pct()
        );
        self.faults = faults;
        self
    }

    /// Minimum one-way latency in cycles.
    pub const fn min_latency(&self) -> u64 {
        self.min
    }

    /// Maximum one-way latency in cycles.
    pub const fn max_latency(&self) -> u64 {
        self.max
    }

    /// Whether the link preserves send order.
    pub const fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// The fault-injection plan (zeroed unless set via
    /// [`with_faults`](Link::with_faults)).
    pub const fn faults(&self) -> FaultSpec {
        self.faults
    }
}

impl Default for Link {
    /// A one-cycle ordered link (the closest thing to a wire).
    fn default() -> Self {
        Link::ordered(1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let l = Link::unordered(2, 9);
        assert_eq!(l.min_latency(), 2);
        assert_eq!(l.max_latency(), 9);
        assert!(!l.is_ordered());
        assert!(l.faults().is_none());
        assert!(Link::ordered(1, 1).is_ordered());
        assert!(Link::default().is_ordered());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = Link::unordered(5, 1);
    }

    #[test]
    fn faults_attach_to_unordered() {
        let spec = FaultSpec {
            delay_spike_pct: 3,
            reorder_pct: 4,
            spike_cycles: 100,
            burst_len: 3,
        };
        let l = Link::unordered(1, 10).with_faults(spec);
        assert_eq!(l.faults(), spec);
        assert_eq!(spec.total_pct(), 7);
        assert!(!spec.is_none());
        assert!(FaultSpec::NONE.is_none());
        assert!(FaultSpec::default().is_none());
    }

    #[test]
    fn empty_faults_allowed_on_ordered() {
        let l = Link::ordered(1, 4).with_faults(FaultSpec::NONE);
        assert!(l.faults().is_none());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn faults_rejected_on_ordered_links() {
        let _ = Link::ordered(1, 4).with_faults(FaultSpec::delay_only(10, 0, 100, 0));
    }

    #[test]
    #[should_panic(expected = "sum past 100")]
    fn overcommitted_percentages_rejected() {
        let _ = Link::unordered(1, 4).with_faults(FaultSpec {
            delay_spike_pct: 60,
            reorder_pct: 60,
            ..FaultSpec::NONE
        });
    }
}
