//! Offline stand-in for `rand` 0.9, used only by the `grail-perf` build.
//!
//! It implements the subset the measured crates call — `SeedableRng::
//! seed_from_u64`, `Rng::random::<{f64,i64,u64,u32,i32}>` and
//! `Rng::random_range` over integer and `f64` ranges — following the
//! published algorithms of rand 0.9 / rand_core 0.9 (PCG32 seed
//! expansion, widening-multiply integer ranges, 52-bit `[1,2)` float
//! ranges), so generated inputs are meant to match a registry build.
//! That equivalence could not be checked offline; the benchmark's
//! simulated-value metrics are defined by *this* generator.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Build from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a `u64`, expanded to a full seed with PCG32 as
    /// rand_core does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::random` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for i32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> i32 {
        rng.next_u32() as i32
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for i64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> i64 {
        rng.next_u64() as i64
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::random_range` can produce.
pub trait SampleUniform: Sized {
    /// Uniform over `[low, high)`.
    fn sample_range<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform over `[low, high]`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $uty:ty, $wide:ty, $bits:expr) => {
        impl SampleUniform for $ty {
            fn sample_range<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low < high, "cannot sample empty range");
                Self::sample_range_inclusive(low, high - 1, rng)
            }

            fn sample_range_inclusive<R: RngCore + ?Sized>(
                low: $ty,
                high: $ty,
                rng: &mut R,
            ) -> $ty {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $uty;
                if range == 0 {
                    return <$uty as Standard>::sample(rng) as $ty;
                }
                // Canon's method, one bias-reduction step.
                let wide = <$uty as Standard>::sample(rng) as $wide * range as $wide;
                let mut result = (wide >> $bits) as $uty;
                let lo_order = wide as $uty;
                if lo_order > range.wrapping_neg() {
                    let wide2 = <$uty as Standard>::sample(rng) as $wide * range as $wide;
                    let new_hi_order = (wide2 >> $bits) as $uty;
                    result += lo_order.checked_add(new_hi_order).is_none() as $uty;
                }
                low.wrapping_add(result as $ty)
            }
        }
    };
}

uniform_int!(i32, u32, u64, 32);
uniform_int!(u32, u32, u64, 32);
uniform_int!(i64, u64, u128, 64);
uniform_int!(u64, u64, u128, 64);

impl SampleUniform for usize {
    fn sample_range<R: RngCore + ?Sized>(low: usize, high: usize, rng: &mut R) -> usize {
        assert!(low < high, "cannot sample empty range");
        Self::sample_range_inclusive(low, high - 1, rng)
    }

    /// Samples as `u32` when the bounds fit, as rand does for
    /// portability across pointer widths.
    fn sample_range_inclusive<R: RngCore + ?Sized>(low: usize, high: usize, rng: &mut R) -> usize {
        if high <= u32::MAX as usize {
            u32::sample_range_inclusive(low as u32, high as u32, rng) as usize
        } else {
            u64::sample_range_inclusive(low as u64, high as u64, rng) as usize
        }
    }
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low < high, "cannot sample empty range");
        let scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // 52 random mantissa bits under exponent 0 give [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
        }
    }

    fn sample_range_inclusive<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low <= high, "cannot sample empty range");
        let scale = (high - low) / (1.0 - f64::EPSILON);
        let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
        (value1_2 - 1.0) * scale + low
    }
}

/// Range types `Rng::random_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_range_inclusive(low, high, rng)
    }
}

/// User-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform over `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
