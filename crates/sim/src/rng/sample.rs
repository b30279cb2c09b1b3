//! `rand` 0.8's samplers over an [`RngCore`]: floats take the top 53 bits;
//! `gen_range` on integers is the widening-multiply rejection sampler with
//! `rand`'s rejection zone; `gen_bool` is `Bernoulli`'s 64-bit threshold;
//! `shuffle` is Fisher-Yates drawing `u32` indexes.

use super::RngCore;
use std::ops::{Range, RangeInclusive};

/// A type [`Rng::gen`] draws uniformly over its natural domain (`[0, 1)`
/// for floats): `rand`'s `Standard` distribution.
pub trait Standard: Sized {
    /// One draw.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty => $next:ident),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.$next() as $t
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
    i64 => next_u64, isize => next_u64);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (1.0 / (1u64 << 53) as f64) * (rng.next_u64() >> 11) as f64
    }
}

/// A range [`Rng::gen_range`] can draw from.
pub trait SampleRange<T> {
    /// One uniform draw from the range; panics if it is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// A type [`Rng::gen_range`] can draw uniformly from `lo..hi`.
pub trait SampleUniform: Sized + PartialOrd + Copy {
    /// One draw from `lo..hi`.
    fn sample_exclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

/// Integers also draw from `lo..=hi`.
pub trait SampleInclusive: SampleUniform {
    /// One draw from `lo..=hi`.
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleInclusive> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(lo, hi, rng)
    }
}

macro_rules! int_uniform {
    ($($t:ty, $unsigned:ty, $large:ty, $wide:ty, $next:ident);*) => {$(
        impl SampleInclusive for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                let range = hi.wrapping_sub(lo).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    // The type's whole domain.
                    return rng.$next() as $t;
                }
                let zone = if <$unsigned>::MAX <= u16::MAX as $unsigned {
                    let max = <$large>::MAX;
                    max - (max - range + 1) % range
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let m = (rng.$next() as $large as $wide) * (range as $wide);
                    if m as $large <= zone {
                        return lo.wrapping_add((m >> <$large>::BITS) as $t);
                    }
                }
            }
        }
        impl SampleUniform for $t {
            fn sample_exclusive<R: RngCore + ?Sized>(lo: $t, hi: $t, rng: &mut R) -> $t {
                Self::sample_inclusive(lo, hi - 1, rng)
            }
        }
    )*};
}
int_uniform!(u8, u8, u32, u64, next_u32; u16, u16, u32, u64, next_u32;
    u32, u32, u32, u64, next_u32; u64, u64, u64, u128, next_u64;
    usize, usize, u64, u128, next_u64; i8, u8, u32, u64, next_u32;
    i16, u16, u32, u64, next_u32; i32, u32, u32, u64, next_u32;
    i64, u64, u64, u128, next_u64; isize, usize, u64, u128, next_u64);

impl SampleUniform for f64 {
    fn sample_exclusive<R: RngCore + ?Sized>(lo: f64, hi: f64, rng: &mut R) -> f64 {
        let scale = hi - lo;
        loop {
            // 52 random bits as the mantissa of a float in [1, 2).
            let one_two = f64::from_bits(1023u64 << 52 | rng.next_u64() >> 12);
            let v = (one_two - 1.0) * scale + lo;
            if v < hi {
                return v;
            }
        }
    }
}

/// The sampling methods every generator gets.
pub trait Rng: RngCore {
    /// A uniform draw over `T`'s natural domain.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from `range` (`lo..hi`, or `lo..=hi` for integers).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`: `p` becomes a 64-bit threshold, and
    /// `p == 1` always holds.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        if p == 1.0 {
            return true;
        }
        let scale = 2.0 * (1u64 << 63) as f64;
        self.next_u64() < (p * scale) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Random reordering of a slice.
pub trait SliceRandom {
    /// Fisher-Yates shuffle in place.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = if i < u32::MAX as usize {
                rng.gen_range(0..(i + 1) as u32) as usize
            } else {
                rng.gen_range(0..i + 1)
            };
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rand`'s test generator: PCG32 (XSH RR) on a fixed stream.
    struct Pcg32(u64, u64);

    impl RngCore for Pcg32 {
        fn next_u32(&mut self) -> u32 {
            let state = self.0;
            self.0 = state.wrapping_mul(6364136223846793005).wrapping_add(self.1);
            let rot = (state >> 59) as u32;
            ((((state >> 18) ^ state) >> 27) as u32).rotate_right(rot)
        }
        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            u64::from(self.next_u32()) << 32 | lo
        }
    }

    fn test_rng(seed: u64) -> Pcg32 {
        let inc = (11634580027462260723u64 << 1) | 1;
        let mut pcg = Pcg32(seed.wrapping_add(inc), inc);
        pcg.next_u32();
        pcg
    }

    #[test]
    fn gen_range_value_stability() {
        // `rand` 0.8's value-stability cases for single-sample ranges.
        let mut rng = test_rng(897);
        let u8s: Vec<u8> = (0..3).map(|_| rng.gen_range(11..219)).collect();
        assert_eq!(u8s, [17, 66, 214]);
        let mut rng = test_rng(897);
        let u32s: Vec<u32> = (0..3).map(|_| rng.gen_range(11..219)).collect();
        assert_eq!(u32s, [17, 66, 214]);
        let mut rng = test_rng(897);
        let f64s: Vec<f64> = (0..3).map(|_| rng.gen_range(-1e10..1e10)).collect();
        assert_eq!(
            f64s,
            [-4673848682.871551, 6388267422.932352, 4857075081.198343]
        );
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = test_rng(1);
        assert!((0..64).all(|_| rng.gen_bool(1.0)));
        assert!((0..64).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = test_rng(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
