//! The workspace's one random number generator: ChaCha with 12 rounds,
//! seeded and sampled the way `rand_chacha` 0.9 and `rand` 0.9 do it
//! (PCG32 seed expansion, a 64-bit block counter with a zero stream id,
//! four blocks buffered per refill, word-position seeks, widening-multiply
//! integer ranges and 52-bit `[1, 2)` float ranges).
//!
//! The stream is a pinned contract, not an implementation detail: every
//! generated table, fault draw and access trace behind a pinned digest or
//! a published figure was measured on it. The known-answer tests at the
//! bottom fail if any draw moves.

use std::ops::{Range, RangeInclusive};

const ROUNDS: usize = 12;
const BUF_WORDS: usize = 64;

/// ChaCha with 12 rounds as a seeded random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha12Rng {
    /// A generator keyed by `state`, expanded to 32 key bytes with PCG32.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            chunk.copy_from_slice(&xorshifted.rotate_right(rot).to_le_bytes());
        }
        Self::from_seed(seed)
    }

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha12Rng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (o, (a, b)) in out.iter_mut().zip(s.iter().zip(init.iter())) {
            *o = a.wrapping_add(*b);
        }
    }

    fn refill(&mut self, index: usize) {
        let mut buf = [0u32; BUF_WORDS];
        for (i, chunk) in buf.chunks_mut(16).enumerate() {
            self.block(self.counter.wrapping_add(i as u64), chunk);
        }
        self.buf = buf;
        self.counter = self.counter.wrapping_add((BUF_WORDS / 16) as u64);
        self.index = index;
    }

    /// The keystream position in 32-bit words: how many words the
    /// stream has handed out since block 0 (`rand_chacha`'s meaning).
    pub fn word_pos(&self) -> u128 {
        let block = self
            .counter
            .wrapping_sub((BUF_WORDS / 16) as u64)
            .wrapping_add((self.index / 16) as u64);
        u128::from(block) * 16 + (self.index % 16) as u128
    }

    /// Seek to keystream word `pos`: refill the buffer at block
    /// `pos / 16` and skip `pos % 16` words, so the next draw is the one
    /// a fresh stream makes after `pos` words.
    pub fn set_word_pos(&mut self, pos: u128) {
        self.counter = (pos / 16) as u64;
        self.refill((pos % 16) as usize);
    }

    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    /// Two buffered words, low word first; a pair straddling a refill
    /// takes its high word from the new buffer.
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
        } else if index >= BUF_WORDS {
            self.refill(2);
            (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
        } else {
            let x = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill(1);
            (u64::from(self.buf[0]) << 32) | x
        }
    }

    /// A value of `T` from its standard distribution.
    pub fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform over `range` (half-open or inclusive).
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

/// Types [`ChaCha12Rng::random`] can draw.
pub trait Standard {
    /// Draw one value.
    fn sample(rng: &mut ChaCha12Rng) -> Self;
}

impl Standard for i64 {
    fn sample(rng: &mut ChaCha12Rng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample(rng: &mut ChaCha12Rng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`ChaCha12Rng::random_range`] can draw from. The range's
/// element type is the drawn type, so an unsuffixed literal range
/// infers its type from how the draw is used.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample(self, rng: &mut ChaCha12Rng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut ChaCha12Rng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut ChaCha12Rng) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// Types [`ChaCha12Rng::random_range`] can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform over `[low, high)`.
    fn sample_half_open(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self;
    /// Uniform over `[low, high]`.
    fn sample_inclusive(low: Self, high: Self, rng: &mut ChaCha12Rng) -> Self;
}

macro_rules! uniform_int {
    ($($ty:ty => $uty:ty, $wide:ty, $draw:ident);* $(;)?) => {$(
        impl SampleUniform for $ty {
            fn sample_half_open(low: $ty, high: $ty, rng: &mut ChaCha12Rng) -> $ty {
                assert!(low < high, "cannot sample empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }

            fn sample_inclusive(low: $ty, high: $ty, rng: &mut ChaCha12Rng) -> $ty {
                assert!(low <= high, "cannot sample empty range");
                let range = high.wrapping_sub(low).wrapping_add(1) as $uty;
                if range == 0 {
                    return rng.$draw() as $ty;
                }
                // Canon's method, one bias-reduction step.
                let wide = rng.$draw() as $wide * range as $wide;
                let mut result = (wide >> <$uty>::BITS) as $uty;
                let lo_order = wide as $uty;
                if lo_order > range.wrapping_neg() {
                    let wide2 = rng.$draw() as $wide * range as $wide;
                    let new_hi_order = (wide2 >> <$uty>::BITS) as $uty;
                    result += lo_order.checked_add(new_hi_order).is_none() as $uty;
                }
                low.wrapping_add(result as $ty)
            }
        }
    )*};
}

uniform_int! {
    i32 => u32, u64, next_u32;
    u32 => u32, u64, next_u32;
    i64 => u64, u128, next_u64;
    u64 => u64, u128, next_u64;
}

impl SampleUniform for usize {
    fn sample_half_open(low: usize, high: usize, rng: &mut ChaCha12Rng) -> usize {
        assert!(low < high, "cannot sample empty range");
        Self::sample_inclusive(low, high - 1, rng)
    }

    /// Sampled as `u32` when the bounds fit, so a draw does not depend
    /// on the pointer width.
    fn sample_inclusive(low: usize, high: usize, rng: &mut ChaCha12Rng) -> usize {
        if high <= u32::MAX as usize {
            u32::sample_inclusive(low as u32, high as u32, rng) as usize
        } else {
            u64::sample_inclusive(low as u64, high as u64, rng) as usize
        }
    }
}

/// 52 random mantissa bits under exponent 0: a value in `[1, 2)`.
fn one_to_two(rng: &mut ChaCha12Rng) -> f64 {
    f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52))
}

impl SampleUniform for f64 {
    fn sample_half_open(low: f64, high: f64, rng: &mut ChaCha12Rng) -> f64 {
        assert!(low < high, "cannot sample empty range");
        let scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            let res = (one_to_two(rng) - 1.0) * scale + low;
            if res < high {
                return res;
            }
        }
    }

    fn sample_inclusive(low: f64, high: f64, rng: &mut ChaCha12Rng) -> f64 {
        assert!(low <= high, "cannot sample empty range");
        let scale = (high - low) / (1.0 - f64::EPSILON);
        (one_to_two(rng) - 1.0) * scale + low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The all-zero key's well-known ChaCha12 keystream prefix
    /// (`9b f4 9a 6a 07 55 f9 53 …`).
    #[test]
    fn zero_key_keystream_prefix() {
        let mut rng = ChaCha12Rng::from_seed([0; 32]);
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x9b, 0xf4, 0x9a, 0x6a]));
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x07, 0x55, 0xf9, 0x53]));
    }

    #[test]
    fn seeded_first_draws_are_pinned() {
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        assert_eq!(rng.random_range(0..1000u32), 133);
        assert_eq!(rng.random_range(-99_999..999_999i64), 173_612);
        assert_eq!(rng.random_range(0..=10usize), 5);
        assert_eq!(
            rng.random_range(0.0f64..1.0).to_bits(),
            0.6364650991438949f64.to_bits()
        );
        assert_eq!(
            rng.random::<f64>().to_bits(),
            0.4059017582307767f64.to_bits()
        );
        assert_eq!(rng.random::<i64>(), 633_513_173_585_076_202);
        // An unsuffixed literal range falls back to `i32`, as in `tpch`.
        assert_eq!(rng.random_range(0..100), 61);
    }

    /// The words a stream hands out after `p` draws of one word.
    fn words_after(mut rng: ChaCha12Rng, p: u128, n: usize) -> Vec<u32> {
        for _ in 0..p {
            rng.next_u32();
        }
        (0..n).map(|_| rng.next_u32()).collect()
    }

    fn seeked(mut rng: ChaCha12Rng, p: u128, n: usize) -> Vec<u32> {
        rng.set_word_pos(p);
        assert_eq!(rng.word_pos(), p);
        (0..n).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn seeking_equals_drawing_up_to_the_position() {
        let rng = ChaCha12Rng::seed_from_u64(42);
        assert_eq!(rng.word_pos(), 0);
        for p in [0, 1, 15, 16, 17, 63, 64, 65, 200] {
            assert_eq!(
                seeked(rng.clone(), p, 80),
                words_after(rng.clone(), p, 80),
                "p={p}"
            );
        }
        // The last word of block 2^32 - 1, then block 2^32, whose counter
        // carries into the high word: a seek there must equal a stream
        // that reached it through ordinary refills from a block-aligned
        // seek, and block 2^32 must not be block 0 again.
        let p = 16 * (1u128 << 32) - 1;
        let mut aligned = rng.clone();
        aligned.set_word_pos(p - 63);
        assert_eq!(seeked(rng.clone(), p, 80), words_after(aligned, 63, 80));
        assert_ne!(seeked(rng.clone(), p + 1, 16), seeked(rng.clone(), 0, 16));
        // Word 15 of block 2^32 - 1 and word 0 of block 2^32 under seed
        // 42's key, from a ChaCha12 block function written apart from
        // this one (counter low word in state word 12, high in 13).
        assert_eq!(seeked(rng.clone(), p, 2), [0x56b0_7aff, 0x9f72_f8c9]);
    }

    /// `word_pos` counts one word per `u32` draw and two per `u64`
    /// draw, also when a `u64` straddles a refill (index 63).
    #[test]
    fn word_pos_tracks_mixed_draws() {
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        let mut words = 0u128;
        let mut g = grail_prop::Gen::new(3);
        let mut straddled = 0;
        for _ in 0..2_000 {
            if g.bool() {
                rng.next_u32();
                words += 1;
            } else {
                straddled += usize::from(rng.index == BUF_WORDS - 1);
                rng.next_u64();
                words += 2;
            }
            assert_eq!(rng.word_pos(), words);
        }
        assert!(straddled > 0, "no u64 draw straddled a refill");
        let mut fresh = ChaCha12Rng::seed_from_u64(9);
        fresh.set_word_pos(words);
        assert_eq!(fresh.next_u64(), rng.next_u64());
    }

    /// One-word and two-word draws alternate, so pairs straddle refills.
    #[test]
    fn mixed_width_stream_is_pinned() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut acc = 0u64;
        for _ in 0..200 {
            let x = rng.random_range(0..u32::MAX);
            let y = rng.random::<i64>();
            acc = acc.wrapping_mul(31).wrapping_add(x as u64) ^ y as u64;
        }
        assert_eq!(acc, 0xee31_2545_3d10_43aa);
    }
}
