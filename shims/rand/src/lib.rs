//! Minimal, API-compatible stand-in for the subset of the `rand` crate used
//! by this workspace.
//!
//! The build environment has no access to a cargo registry, so the external
//! `rand` dependency is replaced by this in-tree shim (path dependency with
//! the same crate name). It provides:
//!
//! * [`RngCore`], [`Rng`], [`SeedableRng`] traits,
//! * [`rngs::SmallRng`] — xoshiro256++ seeded via SplitMix64, deterministic
//!   and portable across platforms,
//! * [`distributions::Standard`] / [`distributions::Distribution`],
//! * uniform range sampling via [`Rng::gen_range`],
//! * [`seq::SliceRandom`] (shuffle / choose / choose_multiple),
//! * a [`prelude`] mirroring `rand::prelude`.
//!
//! The algorithms differ from the real `rand` crate (sequences are NOT
//! bit-compatible with upstream), but every stream is fully deterministic in
//! the seed, which is the property the simulator relies on.

/// Low-level source of randomness: 64 random bits per call.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs that can be deterministically constructed from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Creates an RNG whose entire stream is a function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing random-value methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value via the [`distributions::Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        use distributions::Distribution as _;
        distributions::Standard.sample(self)
    }

    /// Samples uniformly from a range (`lo..hi` or `lo..=hi`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`, like the real `rand` crate.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p = {p} is outside [0, 1]"
        );
        self.gen::<f64>() < p
    }

    /// Consumes the RNG into an infinite iterator of samples from `distr`.
    fn sample_iter<T, D>(self, distr: D) -> distributions::DistIter<D, Self, T>
    where
        D: distributions::Distribution<T>,
        Self: Sized,
    {
        distributions::DistIter::new(distr, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete RNG implementations.
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic RNG (xoshiro256++ seeded via SplitMix64).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            // Expand the 64-bit seed with SplitMix64, as rand does.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod distributions {
    //! Sampling distributions (the subset the workspace uses).
    use super::RngCore;
    use std::marker::PhantomData;

    /// Types that can produce values of `T` from an RNG.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" full-range distribution for primitive types.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Standard;

    macro_rules! impl_standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 uniform mantissa bits in [0, 1).
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    /// Infinite iterator of samples, returned by `Rng::sample_iter`.
    pub struct DistIter<D, R, T> {
        distr: D,
        rng: R,
        _marker: PhantomData<fn() -> T>,
    }

    impl<D, R, T> DistIter<D, R, T> {
        pub(crate) fn new(distr: D, rng: R) -> Self {
            DistIter {
                distr,
                rng,
                _marker: PhantomData,
            }
        }
    }

    impl<D, R, T> Iterator for DistIter<D, R, T>
    where
        D: Distribution<T>,
        R: RngCore,
    {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            Some(self.distr.sample(&mut self.rng))
        }
    }

    pub mod uniform {
        //! Uniform range sampling used by `Rng::gen_range`.
        use super::super::RngCore;
        use std::ops::{Range, RangeInclusive};

        /// Types `gen_range` can sample uniformly.
        pub trait SampleUniform: Sized {
            /// Uniform sample from `[lo, hi)` (`inclusive` widens to `[lo, hi]`).
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self;
        }

        macro_rules! impl_sample_uniform_int {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_uniform<R: RngCore + ?Sized>(
                        lo: Self,
                        hi: Self,
                        inclusive: bool,
                        rng: &mut R,
                    ) -> Self {
                        let lo_w = lo as i128;
                        let hi_w = hi as i128;
                        // Check before casting: an inverted range would wrap
                        // the u128 cast and silently pass a `span > 0` check.
                        let span_w = hi_w - lo_w + if inclusive { 1 } else { 0 };
                        assert!(span_w > 0, "cannot sample from empty range");
                        let span = span_w as u128;
                        // Modulo bias is negligible for the ranges used here
                        // (all far below 2^64). When the span fits in u64 —
                        // always, except for (near-)full 64-bit ranges — the
                        // reduction is done in u64: `x % span` is the same
                        // value either way, but the u64 form is a single
                        // hardware division instead of a libcall-based u128
                        // one, which matters in the simulator's event loop.
                        let draw = if span <= u64::MAX as u128 {
                            let span = span as u64;
                            if span.is_power_of_two() {
                                // Same value as `% span`, without the divide.
                                (rng.next_u64() & (span - 1)) as u128
                            } else {
                                (rng.next_u64() % span) as u128
                            }
                        } else {
                            rng.next_u64() as u128 % span
                        };
                        (lo_w + draw as i128) as $t
                    }
                }
            )*};
        }
        impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        macro_rules! impl_sample_uniform_float {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    fn sample_uniform<R: RngCore + ?Sized>(
                        lo: Self,
                        hi: Self,
                        _inclusive: bool,
                        rng: &mut R,
                    ) -> Self {
                        assert!(lo <= hi, "cannot sample from empty range");
                        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                        lo + (unit as $t) * (hi - lo)
                    }
                }
            )*};
        }
        impl_sample_uniform_float!(f32, f64);

        /// Range arguments accepted by `Rng::gen_range`.
        pub trait SampleRange<T> {
            /// Draws one uniform sample from the range.
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_uniform(self.start, self.end, false, rng)
            }
        }

        impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_uniform(*self.start(), *self.end(), true, rng)
            }
        }
    }
}

pub mod seq {
    //! Random sequence operations.
    use super::{Rng, RngCore};

    /// Random operations on slices: shuffling and element choice.
    pub trait SliceRandom {
        /// The slice element type.
        type Item;

        /// Fisher-Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Up to `amount` distinct elements, in random order.
        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&T> {
            let mut indices: Vec<usize> = (0..self.len()).collect();
            indices.shuffle(rng);
            indices.truncate(amount.min(self.len()));
            indices
                .into_iter()
                .map(|i| &self[i])
                .collect::<Vec<_>>()
                .into_iter()
        }
    }
}

pub mod prelude {
    //! Mirror of `rand::prelude`.
    pub use super::distributions::Distribution;
    pub use super::rngs::SmallRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}
