//! The host-speed yardstick: a frozen arithmetic kernel that turns
//! wall seconds into *reference seconds*.
//!
//! The sandbox's cores run in phases up to a quarter apart in speed —
//! a busy SMT sibling, a frequency step — that last from seconds to
//! minutes, so no amount of repetition inside a run averages them
//! away, and two runs of the same code read 20 % apart. The phases
//! slow arithmetic and cache-resident work alike, which makes them
//! measurable: this kernel does a fixed number of dependent
//! multiply–rotate steps over a table that fits the L2 cache, so its
//! duration is inversely proportional to the core's speed at that
//! moment and to nothing else.
//!
//! Every interval the benchmark times is bracketed by two readings of
//! the kernel and reported as
//! `wall seconds × REFERENCE_SECS ÷ mean(reading before, reading after)`,
//! i.e. the seconds the interval would have taken had the core run at
//! the speed at which the kernel takes [`REFERENCE_SECS`]. On a host
//! running at that speed a reference second is a wall second. The
//! kernel lives in the benchmark's own frozen files, so no change to
//! the measured crates can move it. What it cannot see is contention
//! for memory bandwidth, which slows only code that misses the caches.

use std::time::Instant;

/// Table size: 32 Ki words, 256 KiB, inside a private L2 cache.
const TABLE_WORDS: usize = 1 << 15;
/// Sweeps over the table per reading (about 1.3 ms).
const ROUNDS: u64 = 100;

/// Seconds one reading takes on the 2-core sandbox this benchmark was
/// defined on, in its usual (slower) phase. Only a scale: it makes
/// reference seconds equal wall seconds there.
pub const REFERENCE_SECS: f64 = 1.36e-3;

/// The kernel and its table.
#[derive(Debug)]
pub struct Yardstick {
    table: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// A yardstick with a warm table.
    pub fn new() -> Self {
        let mut y = Yardstick {
            table: vec![7; TABLE_WORDS],
        };
        y.reading();
        y
    }

    /// Seconds the kernel takes right now on this thread's core.
    pub fn reading(&mut self) -> f64 {
        kernel(&mut self.table)
    }

    /// Reference seconds of an interval of `wall_secs` bracketed by the
    /// readings `before` and `after`.
    pub fn reference_secs(wall_secs: f64, before: f64, after: f64) -> f64 {
        wall_secs * REFERENCE_SECS / ((before + after) / 2.0)
    }
}

/// One reading: a fixed number of multiply–rotate steps over `table`.
fn kernel(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    // Eight independent streams keep the multiplier pipelined; the
    // table round-trip keeps the compiler from folding the rounds.
    let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for round in 0..ROUNDS {
        for chunk in table.chunks_exact_mut(8) {
            for (word, s) in chunk.iter_mut().zip(&mut s) {
                *s = (*word ^ *s)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(29)
                    ^ round;
                *word = *s >> 3;
            }
        }
    }
    std::hint::black_box(s);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_the_kernel_is_deterministic() {
        let mut y = Yardstick::new();
        assert!(y.reading() > 0.0);
        let (mut a, mut b) = (vec![7u64; 64], vec![7u64; 64]);
        kernel(&mut a);
        kernel(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, vec![7u64; 64], "the kernel writes what it computes");
    }

    #[test]
    fn a_slower_core_stretches_wall_seconds_not_reference_seconds() {
        // The same work on a core at half speed: twice the wall time,
        // twice the kernel time, the same reference seconds.
        let quiet = Yardstick::reference_secs(2.0, REFERENCE_SECS, REFERENCE_SECS);
        let slow = Yardstick::reference_secs(4.0, 2.0 * REFERENCE_SECS, 2.0 * REFERENCE_SECS);
        assert_eq!(quiet, 2.0);
        assert_eq!(slow, quiet);
        // A phase change inside the interval is split down the middle.
        let mixed = Yardstick::reference_secs(3.0, REFERENCE_SECS, 2.0 * REFERENCE_SECS);
        assert_eq!(mixed, 2.0);
    }
}
