//! grail-prop: the workspace's one way to generate a test input.
//!
//! A property is a closure over a [`Gen`] that draws its input and
//! asserts on it with the ordinary `assert!` / `assert_eq!`. [`check`]
//! runs it on `cases` generated inputs; an oracle loop that wants raw
//! draws builds a [`Gen::new`] from its own seed.
//!
//! * **One generator.** [`Gen`] is Knuth's MMIX LCG
//!   (`state · 6364136223846793005 + 1442695040888963407`) read through
//!   its high bits (`>> 33`). Nothing else seeds a test input: no
//!   environment variable, no entropy, no file. (`pins.txt` holds
//!   expected values only, never an input.)
//! * **Sized cases.** Case `i` gets the seed `splitmix64(i)` and a
//!   `size` that ramps linearly from 0 on the first case to 4 096 on the
//!   last. Every length [`Gen::vec`] draws is capped by the size, so
//!   early cases are the small ones.
//! * **Shrinking by size.** When a case panics, [`check`] re-runs the
//!   same seed at `size/2, size/4, …, 0` and reports the smallest size
//!   that still fails. Draw scalars before collections: the re-runs then
//!   see the same scalars and a prefix of the same elements.
//! * **Replayable failures.** The panic message names `seed 0x…, size N`
//!   and the [`replay`] call that runs exactly that input again.
//!
//! [`Fnv1a`] is the other half of a pinned test: the one digest the
//! workspace's `*_are_pinned` tests compute and hand to
//! [`assert_pinned`], which holds them to the root `pins.txt`.
//!
//! ```
//! grail_prop::check(64, |g| {
//!     let bound = g.range(-5i64..5);
//!     let v = g.vec(0..300, |g| g.range(-10i64..10));
//!     let kept = v.iter().filter(|x| **x > bound).count();
//!     assert!(kept <= v.len());
//! });
//! ```

#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod pins;
pub use pins::assert_pinned;

use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// The size of the last case [`check`] runs: lengths up to this many
/// elements are drawn at full size.
const FULL_SIZE: usize = 4096;

/// A seeded stream of test-input draws, with a cap (`size`) on the
/// lengths it draws.
#[derive(Debug)]
pub struct Gen {
    state: u64,
    size: usize,
}

impl Gen {
    /// A generator at `seed` whose lengths are not capped: an oracle
    /// loop's hand-seeded stream.
    pub fn new(seed: u64) -> Gen {
        Gen::sized(seed, usize::MAX)
    }

    fn sized(seed: u64, size: usize) -> Gen {
        Gen { state: seed, size }
    }

    /// The next 31 bits: one LCG step, high bits.
    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 33
    }

    /// A draw in `0..n` (one LCG step).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// 64 bits from three LCG steps.
    pub fn word(&mut self) -> u64 {
        (self.next() << 32) ^ self.next() ^ (self.next() << 50)
    }

    /// True once in `n` draws, on average.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.one_in(2)
    }

    /// One element of `from`, uniformly.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// A draw in the half-open range `r`: an integer range of at most
    /// 2^31 values costs one LCG step, a wider one or a float range a
    /// [`Gen::word`].
    pub fn range<T: Uniform>(&mut self, r: Range<T>) -> T {
        T::draw(self, r)
    }

    /// A vector whose length is drawn from `len`, capped at the size
    /// (never below `len.start`), with elements drawn by `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let end = len.end.min(len.start.max(self.size).saturating_add(1));
        let n = self.range(len.start..end);
        (0..n).map(|_| f(self)).collect()
    }
}

/// A type [`Gen::range`] draws uniformly from a half-open range.
pub trait Uniform: Sized {
    /// One draw from `r`, which must be non-empty.
    fn draw(g: &mut Gen, r: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn draw(g: &mut Gen, r: Range<$t>) -> $t {
                assert!(r.start < r.end, "empty range {r:?}");
                let span = (r.end as i128 - r.start as i128) as u64;
                let offset = if span <= 1 << 31 { g.below(span) } else { g.word() % span };
                (r.start as i128 + offset as i128) as $t
            }
        }
    )*};
}

uniform_int!(u8, u16, u32, u64, usize, i32, i64);

impl Uniform for f64 {
    fn draw(g: &mut Gen, r: Range<f64>) -> f64 {
        assert!(r.start < r.end, "empty range {r:?}");
        let unit = (g.word() >> 11) as f64 / (1u64 << 53) as f64;
        let x = r.start + (r.end - r.start) * unit;
        // Rounding can land on the excluded end.
        if x < r.end {
            x
        } else {
            r.start
        }
    }
}

/// Run `property` on `cases` generated inputs. On the first case that
/// panics, shrink it by halving the size and panic with the smallest
/// failing `(seed, size)`, its [`replay`] call, and its panic message.
pub fn check(cases: u32, mut property: impl FnMut(&mut Gen)) {
    for case in 0..cases {
        let seed = splitmix64(u64::from(case));
        let size = if cases <= 1 {
            FULL_SIZE
        } else {
            FULL_SIZE * case as usize / (cases as usize - 1)
        };
        let Err(mut cause) = run(seed, size, &mut property) else {
            continue;
        };
        let (mut smallest, mut at) = (size, size);
        while at > 0 {
            at /= 2;
            if let Err(c) = run(seed, at, &mut property) {
                (smallest, cause) = (at, c);
            }
        }
        panic!(
            "property failed: seed {seed:#018x}, size {smallest} \
             (case {case} of {cases}, first failed at size {size})\n\
             replay: grail_prop::replay({seed:#018x}, {smallest}, |g| …)\n\
             cause: {cause}"
        );
    }
}

/// Run `property` once on the input `(seed, size)` names: the line a
/// [`check`] failure prints, pasted into a `#[test]`.
pub fn replay(seed: u64, size: usize, property: impl FnOnce(&mut Gen)) {
    property(&mut Gen::sized(seed, size));
}

fn run(seed: u64, size: usize, property: &mut impl FnMut(&mut Gen)) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(|| property(&mut Gen::sized(seed, size)))).map_err(
        |payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "a panic without a message".to_string())
        },
    )
}

/// FNV-1a (64-bit) of every byte written into it, as [`Fnv1a::bytes`],
/// as little-endian [`Fnv1a::word`]s or as formatted text (`write!`):
/// a big `{:?}` rendering is hashed as it is formatted, never held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The digest of nothing yet: the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Hash `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash `v`'s eight little-endian bytes.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest of everything hashed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        use std::fmt::Write;
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Formatted in pieces, hashed as one stream.
        let (mut text, bar) = (Fnv1a::new(), "bar");
        write!(text, "foo{bar}").expect("hashing cannot fail");
        assert_eq!(text.finish(), 0x8594_4171_f739_67e8);
        let (mut word, mut bytes) = (Fnv1a::new(), Fnv1a::new());
        word.word(0x0102_0304_0506_0708);
        bytes.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(word, bytes);
    }

    #[test]
    fn draws_are_the_mmix_lcg_high_bits() {
        let mut state = 0x5EED_u64;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let want: Vec<u64> = (0..8).map(|_| step()).collect();
        let mut g = Gen::new(0x5EED);
        assert_eq!(g.below(1 << 31), want[0]);
        assert_eq!(g.below(1_000), want[1] % 1_000);
        assert_eq!(g.word(), (want[2] << 32) ^ want[3] ^ (want[4] << 50));
        assert_eq!(g.range(0usize..7), (want[5] % 7) as usize);
        assert_eq!(g.range(-(1i64 << 30)..1 << 30), want[6] as i64 - (1 << 30));
        assert_eq!(g.pick(&[10, 20, 30]), [10, 20, 30][(want[7] % 3) as usize]);
        // Pinned, so a change to the formula cannot pass by changing both sides.
        assert_eq!(want[0], 0x77c6_95c6);
    }

    #[test]
    fn ranges_stay_inside_their_bounds() {
        let mut g = Gen::new(7);
        for _ in 0..2_000 {
            assert!((3u8..9).contains(&g.range(3u8..9)));
            assert_eq!(g.range(-40i64..-39), -40);
            let wide = g.range(i64::MIN..i64::MAX);
            assert!(wide < i64::MAX);
            assert!(g.range(u64::MAX - 1..u64::MAX) == u64::MAX - 1);
            let x = g.range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&x));
        }
    }

    #[test]
    fn lengths_are_capped_by_the_size() {
        for size in [0, 1, 5, 64] {
            let mut g = Gen::sized(99, size);
            for _ in 0..200 {
                let v = g.vec(0..1_000, |g| g.bool());
                assert!(v.len() <= size);
                // The minimum length wins over a smaller size.
                assert!(g.vec(3..10, |g| g.bool()).len() >= 3);
            }
        }
        assert!(Gen::new(1).vec(0..1_000, |g| g.below(2)).len() < 1_000);
    }

    #[test]
    fn a_seed_replays_the_same_input() {
        let draw = |g: &mut Gen| (g.range(0u32..1_000), g.vec(0..50, |g| g.word()));
        let mut a = None;
        replay(0xABCD, 40, |g| a = Some(draw(g)));
        let mut b = None;
        replay(0xABCD, 40, |g| b = Some(draw(g)));
        assert_eq!(a, b);
    }

    #[test]
    fn sizes_ramp_from_zero_to_full() {
        let mut sizes = Vec::new();
        check(5, |g| sizes.push(g.size));
        assert_eq!(sizes, [0, 1024, 2048, 3072, FULL_SIZE]);
        let mut one = Vec::new();
        check(1, |g| one.push(g.size));
        assert_eq!(one, [FULL_SIZE]);
    }

    #[test]
    fn a_failure_shrinks_and_prints_its_replay_line() {
        let property = |g: &mut Gen| {
            let v = g.vec(0..4_000, |g| g.range(0u32..100));
            assert!(v.len() < 10, "{} elements", v.len());
        };
        let err = panic::catch_unwind(|| check(64, property)).expect_err("long vectors fail");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        let field = |key: &str| -> &str {
            let at = msg.find(key).expect(key) + key.len();
            msg[at..].split([',', ' ', ')']).next().expect("value")
        };
        let seed = u64::from_str_radix(field("seed 0x"), 16).expect("hex seed");
        let size: usize = field("size ").parse().expect("size");
        let first: usize = field("at size ").parse().expect("case size");
        assert!(
            (10..first).contains(&size),
            "shrunk below the case's size: {msg}"
        );
        assert!(msg.contains(&format!("grail_prop::replay({seed:#018x}, {size}, |g| …)")));
        assert!(msg.contains("elements"), "the cause rides along: {msg}");
        let replayed = panic::catch_unwind(|| replay(seed, size, property));
        assert!(replayed.is_err(), "the replay line reproduces the failure");
    }
}
