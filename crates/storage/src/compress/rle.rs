//! Run-length encoding: `(value, run)` pairs, both varint-coded.
//!
//! The natural codec for sorted or low-churn columns (order status,
//! dates loaded in batches) and the cheapest to decode — which matters
//! once decode CPU is a power cost (Sec. 4.1). A range predicate costs
//! one test per run.

use super::varint::{read_u32, read_varint, unzigzag, write_u32, write_varint, zigzag};
use crate::error::StorageError;
use std::ops::Range;

/// Encode `values` as RLE.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + values.len() / 4);
    write_u32(&mut out, values.len() as u32);
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1u64;
        while i + (run as usize) < values.len() && values[i + run as usize] == v {
            run += 1;
        }
        write_varint(&mut out, zigzag(v));
        write_varint(&mut out, run);
        i += run as usize;
    }
    out
}

/// Decode RLE `bytes`. The output grows as runs arrive: a header's
/// count is only a claim until the runs back it, so at most one row per
/// encoded byte is reserved up front (all of them when runs are short).
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>, StorageError> {
    let mut runs = Runs::new(bytes)?;
    let mut out = Vec::with_capacity(runs.count.min(bytes.len()));
    while runs.end < runs.count {
        runs.step(bytes)?;
        out.resize(runs.end, runs.value);
    }
    if runs.next != bytes.len() {
        return Err(StorageError::CorruptSegment("rle trailing bytes"));
    }
    Ok(out)
}

/// A forward cursor over the runs of an RLE segment: the current run
/// covers rows `start..end` with `value`, and the next run's bytes begin
/// at `next`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Runs {
    count: usize,
    next: usize,
    start: usize,
    end: usize,
    value: i64,
}

impl Runs {
    /// A cursor before the first run.
    pub(crate) fn new(bytes: &[u8]) -> Result<Runs, StorageError> {
        let mut next = 0;
        let count = read_u32(bytes, &mut next)? as usize;
        Ok(Runs {
            count,
            next,
            start: 0,
            end: 0,
            value: 0,
        })
    }

    /// Read the next run.
    fn step(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        let value = unzigzag(read_varint(bytes, &mut self.next)?);
        let run = read_varint(bytes, &mut self.next)?;
        if run == 0 || run > (self.count - self.end) as u64 {
            return Err(StorageError::CorruptSegment("rle run overflows count"));
        }
        self.start = self.end;
        self.end += run as usize;
        self.value = value;
        Ok(())
    }

    /// Move to the run holding `row` (`row < count`), starting over when
    /// that run lies behind the cursor.
    fn seek(&mut self, bytes: &[u8], row: usize) -> Result<(), StorageError> {
        if row < self.start {
            *self = Runs::new(bytes)?;
        }
        while self.end <= row {
            self.step(bytes)?;
        }
        Ok(())
    }

    /// Append the rows of `rows` whose value lies in `[lo, hi]`: one test
    /// per run. The cursor stays at the window's first run.
    pub(crate) fn select(
        &mut self,
        bytes: &[u8],
        rows: Range<usize>,
        lo: i64,
        hi: i64,
        out: &mut Vec<u32>,
    ) -> Result<(), StorageError> {
        if rows.is_empty() {
            return Ok(());
        }
        self.seek(bytes, rows.start)?;
        let mut run = *self;
        loop {
            if lo <= run.value && run.value <= hi {
                out.extend((run.start.max(rows.start)..run.end.min(rows.end)).map(|r| r as u32));
            }
            if run.end >= rows.end {
                return Ok(());
            }
            run.step(bytes)?;
        }
    }

    /// Call `each(i, value)` for the `i`-th of `positions` (ascending,
    /// each `< count`). The cursor stays at the first position's run.
    #[inline]
    pub(crate) fn visit(
        &mut self,
        bytes: &[u8],
        positions: &[u32],
        mut each: impl FnMut(usize, i64),
    ) -> Result<(), StorageError> {
        let Some(first) = positions.first() else {
            return Ok(());
        };
        self.seek(bytes, *first as usize)?;
        let mut run = *self;
        for (i, p) in positions.iter().enumerate() {
            while run.end <= *p as usize {
                run.step(bytes)?;
            }
            each(i, run.value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_runs() {
        let vals: Vec<i64> = (0..1000).map(|i| i / 100).collect();
        let enc = encode(&vals);
        assert!(enc.len() < 100, "10 runs should encode tiny: {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), vals);
    }

    #[test]
    fn round_trip_no_runs() {
        let vals: Vec<i64> = (0..100).map(|i| i * 7 - 350).collect();
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn round_trip_negative_and_extremes() {
        let vals = vec![i64::MIN, i64::MIN, -1, -1, -1, i64::MAX];
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let mut enc = encode(&[1, 1, 1, 2, 2]);
        enc.push(0); // trailing garbage
        assert!(decode(&enc).is_err());
        assert!(decode(&[1, 0, 0]).is_err()); // truncated header
                                              // Run overflowing declared count.
        let mut bad = Vec::new();
        write_u32(&mut bad, 2);
        write_varint(&mut bad, zigzag(5));
        write_varint(&mut bad, 100);
        assert!(decode(&bad).is_err());
    }

    /// A count of 2³² − 1 with no runs behind it used to reserve 32 GiB
    /// before reading the first run: an abort, not an error.
    #[test]
    fn huge_count_without_runs_is_an_error_not_an_allocation() {
        assert_eq!(
            decode(&[0xff; 4]),
            Err(StorageError::CorruptSegment("varint truncated"))
        );
    }

    #[test]
    fn compression_ratio_on_runs() {
        let vals: Vec<i64> = (0..100_000).map(|i| i / 10_000).collect();
        let enc = encode(&vals);
        let ratio = (vals.len() * 8) as f64 / enc.len() as f64;
        assert!(ratio > 1000.0, "ratio {ratio}");
    }
}
