//! Offline stand-in for `rand_chacha` 0.9: a portable [`ChaCha12Rng`]
//! with rand_chacha's layout — 64-bit block counter in words 12–13,
//! zero stream id, four blocks buffered per refill, and `BlockRng`'s
//! word-pairing rules for `next_u64`.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 12;
const BUF_WORDS: usize = 64;

/// ChaCha with 12 rounds as a random number generator.
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
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

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
}

impl RngCore for ChaCha12Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill(0);
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 uses 20 rounds; the 12-round core shares every
    /// step but the round count, so check the structure with the
    /// all-zero key's well-known ChaCha12 keystream prefix.
    #[test]
    fn zero_key_keystream_prefix() {
        let mut rng = ChaCha12Rng::from_seed([0; 32]);
        // First keystream bytes of ChaCha12, zero key and nonce:
        // 9b f4 9a 6a 07 55 f9 53 ...
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x9b, 0xf4, 0x9a, 0x6a]));
        assert_eq!(rng.next_u32(), u32::from_le_bytes([0x07, 0x55, 0xf9, 0x53]));
    }
}
