//! Offline stand-in for `rand` 0.10: exactly the surface bgl-rs uses
//! (`StdRng::seed_from_u64`, `random`, `random_range`, `random_bool`,
//! `shuffle`, `choose`), over xoshiro256++ seeded through SplitMix64.
//!
//! The streams differ from the published crate's ChaCha12 `StdRng`, so
//! generated graphs and sampled neighbourhoods differ from a build against
//! crates.io; every determinism contract in the repo is relative (threaded
//! == serial, TCP == in-process) and holds under any seeded generator.

use std::ops::{Range, RangeInclusive};

pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::seq::{IndexedRandom, SliceRandom};
    pub use crate::{Rng, RngExt, SeedableRng};
}

pub mod rngs {
    /// xoshiro256++ (Blackman & Vigna), 256 bits of state.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

pub trait SeedableRng: Sized {
    type Seed;
    fn from_seed(seed: Self::Seed) -> Self;
    fn seed_from_u64(state: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0; 4] {
            // The all-zero state is xoshiro's one fixed point.
            return StdRng::seed_from_u64(0);
        }
        StdRng { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        let mut sm = state;
        StdRng { s: std::array::from_fn(|_| splitmix64(&mut sm)) }
    }
}

/// The generator core plus the typed draws (`rand` 0.10 splits these into
/// `Rng` and `RngExt`; both names resolve to this one trait here).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn random<T: Random>(&mut self) -> T
    where
        Self: Sized,
    {
        T::random(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample(self)
    }

    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        f64::random(self) < p
    }
}

pub use Rng as RngExt;

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types `Rng::random` can draw: integers over their full range, floats
/// uniform in `[0, 1)`.
pub trait Random {
    fn random<R: Rng>(rng: &mut R) -> Self;
}

impl Random for u64 {
    fn random<R: Rng>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random<R: Rng>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Random for usize {
    fn random<R: Rng>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Random for bool {
    fn random<R: Rng>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Random for f64 {
    fn random<R: Rng>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    fn random<R: Rng>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Unbiased draw from `[0, span)` by widening multiply with rejection
/// (Lemire 2019). `span` must be non-zero.
fn below<R: Rng>(rng: &mut R, span: u64) -> u64 {
    let mut m = (rng.next_u64() as u128) * (span as u128);
    if (m as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
        }
    }
    (m >> 64) as u64
}

/// Ranges `Rng::random_range` accepts.
pub trait SampleRange<T> {
    fn sample<R: Rng>(self, rng: &mut R) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u64;
                let offset = if span == u64::MAX { rng.next_u64() } else { below(rng, span + 1) };
                (lo as i128 + offset as i128) as $t
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! float_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                self.start + (self.end - self.start) * <$t as Random>::random(rng)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                lo + (hi - lo) * <$t as Random>::random(rng)
            }
        }
    )*};
}

float_ranges!(f32, f64);

pub mod seq {
    use crate::Rng;

    pub trait SliceRandom {
        /// Fisher–Yates, in place.
        fn shuffle<R: Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.random_range(0..=i));
            }
        }
    }

    pub trait IndexedRandom {
        type Item;
        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> IndexedRandom for [T] {
        type Item = T;

        fn choose<R: Rng>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.random_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
            let x = a.random_range(3..17usize);
            assert!((3..17).contains(&x));
            let _ = b.random_range(3..17usize);
            let f: f64 = a.random();
            assert!((0.0..1.0).contains(&f));
            let _: f64 = b.random();
        }
        assert_eq!(a.random_range(5..=5u32), 5);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(1));
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
