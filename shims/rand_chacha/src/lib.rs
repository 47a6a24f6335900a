//! Offline shim for `rand_chacha` 0.3: a bit-exact ChaCha8 generator.
//!
//! The simulation's workload generators are seeded ChaCha8 streams, so
//! this shim reproduces the upstream keystream exactly: the original
//! (djb) ChaCha variant with a 64-bit block counter at state words
//! 12–13 and a 64-bit stream id at words 14–15, consumed in rand_core's
//! `BlockRng` word order, including its split read of a `next_u64` that
//! straddles a refill.
//!
//! Each refill computes eight consecutive blocks (128 `u32` words). On an
//! x86-64 CPU with AVX2 they run side by side, block `b` in lane `b` of
//! one 256-bit register per state word; elsewhere the scalar [`block`]
//! computes them one at a time, and it is the reference the AVX2 path is
//! tested against. No caller can observe the refill size: `next_u32` and
//! `next_u64` always read the next consecutive keystream words, so any
//! whole number of blocks per refill yields the same values.
//!
//! [`block`]: ChaCha8Rng::block

use rand::{RngCore, SeedableRng};

/// ChaCha blocks computed per refill: one per AVX2 lane.
const BLOCKS: usize = 8;
const BUF_WORDS: usize = 16 * BLOCKS;

/// A ChaCha generator with 8 rounds.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

/// "expand 32-byte k", state words 0–3.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut state = [
            SIGMA[0],
            SIGMA[1],
            SIGMA[2],
            SIGMA[3],
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter as u32,
            (counter >> 32) as u32,
            self.stream as u32,
            (self.stream >> 32) as u32,
        ];
        let initial = state;
        for _ in 0..4 {
            // One double round: a column round then a diagonal round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (o, (s, i)) in out.iter_mut().zip(state.iter().zip(initial.iter())) {
            *o = s.wrapping_add(*i);
        }
    }

    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            // SAFETY: this CPU has AVX2, the only feature `avx2::blocks`
            // enables.
            unsafe { avx2::blocks(&self.key, self.counter, self.stream, &mut self.buf) };
        } else {
            self.scalar_blocks();
        }
        #[cfg(not(target_arch = "x86_64"))]
        self.scalar_blocks();
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
        self.index = 0;
    }

    /// Fills the buffer one [`block`](Self::block) at a time.
    fn scalar_blocks(&mut self) {
        for b in 0..BLOCKS {
            let mut words = [0u32; 16];
            self.block(self.counter.wrapping_add(b as u64), &mut words);
            self.buf[16 * b..16 * b + 16].copy_from_slice(&words);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Eight ChaCha8 blocks at once: state word `i` of block `b` lives in
    //! lane `b` of `x[i]`, so every quarter-round step is one AVX2
    //! instruction across all eight blocks.

    use super::{BLOCKS, BUF_WORDS, SIGMA};
    use std::arch::x86_64::*;

    /// Writes the `BLOCKS` blocks at `counter`, `counter + 1`, ... to
    /// `out`, block `b` at words `16 b .. 16 b + 16`, exactly as
    /// `BLOCKS` calls of the scalar `block` would.
    ///
    /// # Safety
    ///
    /// Calling it is `unsafe` outside AVX2 code: the CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn blocks(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BUF_WORDS]) {
        let splat = |w: u32| _mm256_set1_epi32(w as i32);
        // Lane b runs block counter + b: the 64-bit add carries from word
        // 12 into word 13 and wraps past u64::MAX, like the scalar path.
        #[cfg(not(mutant = "chacha-lane-bug"))]
        let counters: [u64; BLOCKS] = std::array::from_fn(|b| counter.wrapping_add(b as u64));
        // Seeded bug: word 12 wraps on its own, so a lane past a 2^32
        // boundary keeps the old word 13.
        #[cfg(mutant = "chacha-lane-bug")]
        let counters: [u64; BLOCKS] = std::array::from_fn(|b| {
            counter & !0xFFFF_FFFF | u64::from((counter as u32).wrapping_add(b as u32))
        });
        let lanes = |shift: u32| {
            let w = counters.map(|c| (c >> shift) as u32 as i32);
            _mm256_setr_epi32(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
        };
        let initial = [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            lanes(0),
            lanes(32),
            splat(stream as u32),
            splat((stream >> 32) as u32),
        ];
        let mut x = initial;
        for _ in 0..4 {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (x, i) in x.iter_mut().zip(initial) {
            *x = _mm256_add_epi32(*x, i);
        }
        // Transpose lanes into blocks: words 0–7, then 8–15, of each.
        let low = transpose(&x[..8]);
        let high = transpose(&x[8..]);
        for (block, (low, high)) in out.chunks_exact_mut(16).zip(low.into_iter().zip(high)) {
            store(&mut block[..8], low);
            store(&mut block[8..], high);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotate_16(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotate::<12, 20>(_mm256_xor_si256(x[b], x[c]));
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotate_8(_mm256_xor_si256(x[d], x[a]));
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotate::<7, 25>(_mm256_xor_si256(x[b], x[c]));
    }

    /// Rotates each 32-bit word left by `L` (`R` = 32 − `L`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotate<const L: i32, const R: i32>(v: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
    }

    /// Rotates each 32-bit word left by 16: a byte shuffle.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotate_16(v: __m256i) -> __m256i {
        let m = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        );
        _mm256_shuffle_epi8(v, m)
    }

    /// Rotates each 32-bit word left by 8: a byte shuffle.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotate_8(v: __m256i) -> __m256i {
        let m = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        );
        _mm256_shuffle_epi8(v, m)
    }

    /// Transposes eight rows of eight words: lane `b` of row `i` becomes
    /// word `i` of result `b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(r: &[__m256i]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // Rows 0–3 (u0–u3) and 4–7 (u4–u7) of lanes {0, 4}, {1, 5},
        // {2, 6}, {3, 7}; each 128-bit half holds one lane.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Stores `v` as the eight words of `out`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(out: &mut [u32], v: __m256i) {
        assert_eq!(out.len(), 8);
        // SAFETY: `out` is 8 writable `u32`s, the 32 bytes written, and
        // `storeu` needs no alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    fn next_u64(&mut self) -> u64 {
        // Mirrors rand_core's BlockRng::next_u64 so mixed u32/u64 reads
        // consume the keystream in exactly the upstream order.
        if self.index < BUF_WORDS - 1 {
            let lo = u64::from(self.buf[self.index]);
            let hi = u64::from(self.buf[self.index + 1]);
            self.index += 2;
            lo | (hi << 32)
        } else if self.index >= BUF_WORDS {
            self.refill();
            let lo = u64::from(self.buf[0]);
            let hi = u64::from(self.buf[1]);
            self.index = 2;
            lo | (hi << 32)
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill();
            let hi = u64::from(self.buf[0]);
            self.index = 1;
            lo | (hi << 32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The all-zero-key ChaCha8 keystream's first block, from the
    /// published chacha test vectors (TC1, 8 rounds, djb variant).
    #[test]
    fn zero_key_first_block_matches_reference() {
        let rng_seeded = ChaCha8Rng::from_seed([0u8; 32]);
        let mut words = [0u32; 16];
        rng_seeded.block(0, &mut words);
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let expected: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(&bytes[..32], &expected);
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a 64 over `bytes`, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// The first 2^20 words of the canonical `SpecTrace` stream (seed
    /// 12345), read with `next_u32`. Any change to the keystream or its
    /// word order changes the hash.
    #[test]
    fn canonical_keystream_is_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(12345 ^ 0x9E37_79B9_7F4A_7C15);
        let h = (0..1 << 20).fold(FNV_OFFSET, |h, _| fnv1a(h, &rng.next_u32().to_le_bytes()));
        assert_eq!(h, 0x7187_5cf8_7c42_df81, "{h:#018x}");
    }

    /// A seeded mix of `next_u32` and `next_u64` reads, pinned by hash.
    /// The mix reads a `next_u64` that starts exactly at a refill and one
    /// that straddles a refill, so the split read is pinned at both word
    /// parities whatever the refill size.
    #[test]
    fn mixed_width_reads_are_pinned() {
        let mut rng = ChaCha8Rng::seed_from_u64(2004);
        let mut pick = 0x2545_F491_4F6C_DD1Du64;
        let (mut word, mut h) = (0usize, FNV_OFFSET);
        let (mut at_refill, mut straddling) = (0, 0);
        for _ in 0..1 << 16 {
            pick ^= pick << 13;
            pick ^= pick >> 7;
            pick ^= pick << 17;
            if pick & 1 == 0 {
                h = fnv1a(h, &rng.next_u32().to_le_bytes());
                word += 1;
            } else {
                match word % BUF_WORDS {
                    0 => at_refill += 1,
                    w if w == BUF_WORDS - 1 => straddling += 1,
                    _ => {}
                }
                h = fnv1a(h, &rng.next_u64().to_le_bytes());
                word += 2;
            }
        }
        assert!(at_refill > 0 && straddling > 0, "{at_refill} {straddling}");
        assert_eq!(h, 0x429e_469d_42fd_3757, "{h:#018x}");
    }

    /// A refill equals `BLOCKS` scalar blocks, also where the lanes'
    /// counters carry into word 13 (2^32 − 3) and wrap past u64::MAX,
    /// with the stream words zero and nonzero. On an AVX2 CPU this is
    /// the differential test of the lane kernel against `block`; the
    /// scalar fallback is checked on every CPU.
    #[test]
    fn refill_matches_eight_scalar_blocks() {
        for stream in [0, 0x0123_4567_89AB_CDEF] {
            for counter in [0, (1 << 32) - 3, u64::MAX - 3] {
                let mut rng = ChaCha8Rng::seed_from_u64(99);
                rng.stream = stream;
                rng.counter = counter;
                let mut expected = [0u32; BUF_WORDS];
                for (b, out) in expected.chunks_exact_mut(16).enumerate() {
                    rng.block(counter.wrapping_add(b as u64), out);
                }
                let mut fallback = rng.clone();
                fallback.scalar_blocks();
                rng.refill();
                assert!(
                    rng.buf == expected,
                    "refill at counter {counter:#x}, stream {stream:#x} differs from scalar blocks"
                );
                assert!(fallback.buf == expected, "the scalar fallback differs");
                assert_eq!(rng.counter, counter.wrapping_add(BLOCKS as u64));
            }
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
