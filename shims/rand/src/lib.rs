//! Offline shim for the `rand` 0.8 API surface this workspace uses.
//!
//! Semantics are kept bit-compatible with rand 0.8 where simulation
//! determinism depends on them: `seed_from_u64` uses the same PCG32
//! expansion as rand_core 0.6, `Standard` samples floats with the
//! 53-bit multiply method, and [`distributions::Bernoulli`] (behind
//! `gen_bool`) uses the 64-bit-integer comparison.

/// Low-level source of randomness (subset of `rand_core::RngCore`).
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// A generator seedable from a fixed-size byte seed.
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed exactly like rand_core 0.6
    /// (PCG32 output function over an LCG), then seeds the generator.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A distribution over values of type `T` (subset of
/// `rand::distributions::Distribution`).
pub trait Distribution<T> {
    /// Samples one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard (uniform-bits) distribution.
pub struct Standard;

impl Distribution<u8> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u8 {
        rng.next_u32() as u8
    }
}

impl Distribution<u16> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u16 {
        rng.next_u32() as u16
    }
}

impl Distribution<u32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Distribution<u64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // rand 0.8's 53-bit multiply method: uniform in [0, 1).
        let value = rng.next_u64() >> 11;
        value as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f32 {
        let value = rng.next_u32() >> 8;
        value as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

pub mod distributions {
    //! Distributions beyond [`Standard`](crate::Standard) (subset of
    //! `rand::distributions`).

    use std::fmt;

    pub use crate::Distribution;
    use crate::RngCore;

    /// 2^64 as `f64`.
    const SCALE: f64 = 2.0 * (1u64 << 63) as f64;
    /// The `p_int` of p = 1, which draws nothing. No p < 1 reaches it:
    /// the largest, 1 − 2^-53, scales to 2^64 − 2^11.
    const ALWAYS_TRUE: u64 = u64::MAX;

    /// `true` with a fixed probability p, with rand 0.8's rule: p = 1
    /// returns `true` without a draw; any other p returns
    /// `next_u64() < (p · 2^64) as u64`. Building it once moves the
    /// scaling and the range check off the per-draw path.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Bernoulli {
        p_int: u64,
    }

    /// A probability outside [0, 1] (or NaN).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BernoulliError {
        /// `p < 0`, `p > 1` or NaN.
        InvalidProbability,
    }

    impl fmt::Display for BernoulliError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("p is outside [0, 1] in Bernoulli distribution")
        }
    }

    impl std::error::Error for BernoulliError {}

    impl Bernoulli {
        /// The distribution of `true` with probability `p`.
        ///
        /// # Errors
        ///
        /// [`BernoulliError::InvalidProbability`] unless `p` is in [0, 1].
        pub fn new(p: f64) -> Result<Bernoulli, BernoulliError> {
            if (0.0..1.0).contains(&p) {
                Ok(Bernoulli {
                    p_int: (p * SCALE) as u64,
                })
            } else if p == 1.0 {
                Ok(Bernoulli { p_int: ALWAYS_TRUE })
            } else {
                Err(BernoulliError::InvalidProbability)
            }
        }
    }

    impl Distribution<bool> for Bernoulli {
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            self.p_int == ALWAYS_TRUE || rng.next_u64() < self.p_int
        }
    }
}

/// User-facing convenience methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples a value from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
        Self: Sized,
    {
        Standard.sample(self)
    }

    /// Returns `true` with probability `p`: one
    /// [`distributions::Bernoulli`] draw.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`, like rand 0.8.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        distributions::Bernoulli::new(p)
            .unwrap_or_else(|_| panic!("p={p} is outside range [0.0, 1.0]"))
            .sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::distributions::{Bernoulli, BernoulliError};
    use super::*;

    /// SplitMix64: a small generator whose state can be compared.
    #[derive(Debug, Clone, PartialEq)]
    struct SplitMix(u64);

    impl RngCore for SplitMix {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// `Bernoulli::sample`, `gen_bool` and the written-out rule return the
    /// same bits and leave the generator in the same state, at the edges
    /// of the range and between.
    #[test]
    fn bernoulli_and_gen_bool_draw_identically() {
        let tiny = 1.0 / (1u64 << 60) as f64;
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for p in [0.0, tiny, 0.5, 0.94, below_one, 1.0] {
            let d = Bernoulli::new(p).expect("p is in [0, 1]");
            let (mut a, mut b, mut c) = (SplitMix(7), SplitMix(7), SplitMix(7));
            for _ in 0..1000 {
                let by_rule = p == 1.0 || c.next_u64() < (p * 2f64.powi(64)) as u64;
                let sampled = d.sample(&mut a);
                assert_eq!(sampled, b.gen_bool(p), "p = {p}");
                assert_eq!(sampled, by_rule, "p = {p}");
            }
            assert_eq!(a, b, "p = {p}");
            assert_eq!(a, c, "p = {p}");
        }
    }

    #[test]
    fn bernoulli_rejects_probabilities_outside_the_unit_interval() {
        for p in [-0.1, 1.0 + f64::EPSILON, f64::NAN] {
            assert_eq!(Bernoulli::new(p), Err(BernoulliError::InvalidProbability));
        }
    }
}
