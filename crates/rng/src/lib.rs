//! # xg-rng — vendored subset of the `rand` 0.8 API
//!
//! This workspace builds in fully offline environments, so it cannot pull
//! `rand` from crates.io. This crate re-implements exactly the slice of the
//! rand 0.8 surface the simulator uses — [`SeedableRng::seed_from_u64`],
//! [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`], and
//! [`rngs::SmallRng`] — on top of xoshiro256++ (the same family rand's
//! `small_rng` feature uses). The workspace `Cargo.toml` aliases it as
//! `rand`, so downstream code keeps the idiomatic `use rand::Rng;` imports.
//!
//! Determinism matters more than statistical perfection here: every stress
//! and fuzz run must be replayable from a seed. The generator and all
//! distributions below are stable — changing them would silently change
//! every seeded experiment, so treat the output streams as a compatibility
//! surface.

#![forbid(unsafe_code)]

/// Derives a per-stream seed from a run seed and a stable stream label.
///
/// Components that own their own [`rngs::SmallRng`] seed it with
/// `stream_seed(run_seed, component_name)`: the label is FNV-1a hashed,
/// XORed into the run seed, and scrambled once with the SplitMix64
/// finalizer, so nearby run seeds and similarly named components still get
/// unrelated streams. Crucially the derived seed depends only on the pair —
/// adding or removing *other* components cannot perturb this stream, which
/// is what keeps the model checker's worlds invariant under node-order
/// relabelling.
pub fn stream_seed(seed: u64, label: &str) -> u64 {
    // FNV-1a (64-bit) over the label bytes.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // One SplitMix64 finalizer round over the combined value (the same
    // constants `seed_from_u64` uses for its expansion).
    let mut z = seed ^ h;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construction of seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion
    /// (the construction recommended by the xoshiro authors).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable by [`Rng::gen`] (subset of `rand::distributions::Standard`).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

/// Ranges samplable by [`Rng::gen_range`] (subset of
/// `rand::distributions::uniform::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_range<R: RngCore>(self, rng: &mut R) -> T;
}

/// The raw generator interface: everything else is derived from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of an inferred type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_range(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} not in [0,1]"
        );
        // 53 random bits → uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore> Rng for R {}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — small, fast, and plenty for simulation latency draws.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion so nearby seeds give unrelated streams.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [mut s0, mut s1, mut s2, mut s3] = self.s;
            let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
            self.s = [s0, s1, s2, s3];
            result
        }
    }
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    #[inline]
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    #[inline]
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Uniform draw from `[0, bound)` by Lemire-style widening multiply with a
/// rejection step (unbiased).
#[inline]
fn uniform_below<R: RngCore>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Rejection sampling over the largest multiple of `bound` that fits.
    let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % bound;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_range<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_range<R: RngCore>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (start as i128 + uniform_below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = [false; 13];
        for _ in 0..2_000 {
            let v: i32 = rng.gen_range(0..13);
            assert!((0..13).contains(&v));
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 13 values reachable");
        for _ in 0..1_000 {
            let v: u64 = rng.gen_range(5..=9);
            assert!((5..=9).contains(&v));
        }
        // Degenerate and extreme inclusive ranges.
        assert_eq!(rng.gen_range(3u64..=3), 3);
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "got {heads}");
    }

    #[test]
    fn standard_draws_all_used_types() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _: bool = rng.gen();
        let _: u8 = rng.gen();
        let _: u32 = rng.gen();
        let _: u64 = rng.gen();
        let _: usize = rng.gen();
    }

    #[test]
    fn stream_seeds_depend_only_on_the_pair() {
        use super::stream_seed;
        // Stable across calls, distinct across labels and across seeds.
        assert_eq!(stream_seed(1, "guard"), stream_seed(1, "guard"));
        assert_ne!(stream_seed(1, "guard"), stream_seed(1, "guard2"));
        assert_ne!(stream_seed(1, "guard"), stream_seed(2, "guard"));
        // Similar labels diverge immediately in the derived stream.
        let mut a = SmallRng::seed_from_u64(stream_seed(7, "cpu_cache0"));
        let mut b = SmallRng::seed_from_u64(stream_seed(7, "cpu_cache1"));
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }
}
