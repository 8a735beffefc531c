//! Frame-of-reference bit-packing: subtract the column minimum, pack the
//! residuals at the minimal fixed width.
//!
//! Layout: `[count: u32][min: i64][width: u8][packed bits…]`, bits filled
//! little-endian within a `u64` carry. Row `i`'s residual occupies bits
//! `[i·width, (i+1)·width)` of the packed words, so it is read in place:
//! one shift and mask, no unpacked copy.

use super::varint::{read_i64, read_u32, write_i64, write_u32};
use crate::error::StorageError;
use std::ops::Range;

/// Bits needed for the residual range of `values` (0 for constant
/// columns).
fn width_for(values: &[i64]) -> (i64, u8) {
    let min = values.iter().copied().min().unwrap_or(0);
    let max = values.iter().copied().max().unwrap_or(0);
    let range = (max as i128 - min as i128) as u128;
    let width = (128 - range.leading_zeros()) as u8;
    (min, width.min(64))
}

/// Encode `values` with frame-of-reference bit-packing.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let (min, width) = width_for(values);
    let mut out = Vec::with_capacity(16 + (values.len() * width as usize).div_ceil(8));
    write_u32(&mut out, values.len() as u32);
    write_i64(&mut out, min);
    out.push(width);
    if width == 0 {
        return out;
    }
    let mut carry: u64 = 0;
    let mut bits: u32 = 0;
    for v in values {
        let residual = (*v as i128 - min as i128) as u128;
        let mut rem_bits = width as u32;
        let mut rem = residual as u64; // width ≤ 64 ⇒ residual fits u64
        while rem_bits > 0 {
            let take = (64 - bits).min(rem_bits);
            carry |= (rem & mask(take)) << bits;
            bits += take;
            rem = if take == 64 { 0 } else { rem >> take };
            rem_bits -= take;
            if bits == 64 {
                out.extend_from_slice(&carry.to_le_bytes());
                carry = 0;
                bits = 0;
            }
        }
    }
    if bits > 0 {
        out.extend_from_slice(&carry.to_le_bytes());
    }
    out
}

/// Decode bit-packed `bytes`.
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>, StorageError> {
    let packed = Packed::parse(bytes, &mut 0)?;
    let mut out = vec![0; packed.count];
    packed.unpack(bytes, 0, &mut out, |r| packed.value(r));
    Ok(out)
}

/// The checked header of one bit-packed block inside a byte buffer (a
/// whole segment, or the code block of a dictionary segment). Residuals
/// are read from that buffer in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packed {
    /// Offset of the first packed word in the buffer.
    data: usize,
    /// Values in the block.
    pub(crate) count: usize,
    pub(crate) min: i64,
    pub(crate) width: u32,
}

impl Packed {
    /// Read the header at `*pos` and check that the packed words cover
    /// `count` values, leaving `*pos` at the first word. The checks and
    /// their errors are [`decode`]'s, in its order; a width-0 block is
    /// header-only, whatever its count.
    pub(crate) fn parse(bytes: &[u8], pos: &mut usize) -> Result<Packed, StorageError> {
        let count = read_u32(bytes, pos)? as usize;
        let min = read_i64(bytes, pos)?;
        let width = *bytes
            .get(*pos)
            .ok_or(StorageError::CorruptSegment("bitpack width truncated"))?
            as u32;
        *pos += 1;
        if width > 64 {
            return Err(StorageError::CorruptSegment("bitpack width > 64"));
        }
        // A short last word counts as a whole one (it reads zero-padded).
        let words = (bytes.len() - *pos).div_ceil(8) as u64;
        if width > 0 && words * 64 < count as u64 * width as u64 {
            return Err(StorageError::CorruptSegment("bitpack data truncated"));
        }
        Ok(Packed {
            data: *pos,
            count,
            min,
            width,
        })
    }

    /// The value a residual stands for.
    #[inline]
    pub(crate) fn value(&self, residual: u64) -> i64 {
        self.min.wrapping_add(residual as i64)
    }

    /// Write `map(residual)` of rows `first..first + out.len()` into
    /// `out`. A row whose bits start at least 8 bytes before the end of
    /// the data is read with one unaligned little-endian load (its bits
    /// start at most 7 into it, so any width up to 57 fits); the rows
    /// past that, and every row of a wider block, go through
    /// [`Self::residual_at`].
    #[inline]
    pub(crate) fn unpack<T>(
        &self,
        bytes: &[u8],
        first: usize,
        out: &mut [T],
        map: impl Fn(u64) -> T,
    ) {
        let data = &bytes[self.data..];
        let loaded = self.loaded_rows(data).saturating_sub(first).min(out.len());
        let (head, tail) = out.split_at_mut(loaded);
        for (i, slot) in head.iter_mut().enumerate() {
            *slot = map(self.load(data, first + i));
        }
        for (i, slot) in tail.iter_mut().enumerate() {
            *slot = map(self.residual_at(bytes, first + loaded + i));
        }
    }

    /// How many leading rows [`Self::load`] can read: row `i` qualifies
    /// when its first byte `i·width / 8` has 8 bytes behind it. A width-0
    /// block needs no bytes at all.
    #[inline]
    fn loaded_rows(&self, data: &[u8]) -> usize {
        match self.width {
            0 => usize::MAX,
            1..=57 => (data.len().saturating_sub(7) * 8).div_ceil(self.width as usize),
            _ => 0,
        }
    }

    /// The residual of row `i` from one unaligned load; `i` must be below
    /// [`Self::loaded_rows`].
    #[inline]
    fn load(&self, data: &[u8], i: usize) -> u64 {
        if self.width == 0 {
            return 0;
        }
        let bit = i * self.width as usize;
        let at = bit / 8;
        let word = u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
        (word >> (bit % 8)) & mask(self.width)
    }

    /// The residual of row `i`: one or two word reads, one shift, one mask.
    #[inline]
    pub(crate) fn residual_at(&self, bytes: &[u8], i: usize) -> u64 {
        let data = &bytes[self.data..];
        let bit = i * self.width as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let low = word(data, w) >> off;
        let v = if off + self.width > 64 {
            low | (word(data, w + 1) << (64 - off))
        } else {
            low
        };
        v & mask(self.width)
    }

    /// Write `map(residual)` of each of `positions` (strictly ascending)
    /// into `out`, each read where it lies: one unaligned load, or
    /// [`Self::residual_at`] near the end of the data.
    #[inline]
    pub(crate) fn fill<T>(
        &self,
        bytes: &[u8],
        positions: &[u32],
        out: &mut [T],
        map: impl Fn(u64) -> T,
    ) {
        // A copy, so that the stores to `out` cannot make the header reload.
        let packed = *self;
        let data = &bytes[packed.data..];
        let loaded = packed.loaded_rows(data);
        let split = positions.partition_point(|p| (*p as usize) < loaded);
        let (head, tail) = out.split_at_mut(split);
        for (r, p) in head.iter_mut().zip(&positions[..split]) {
            *r = map(packed.load(data, *p as usize));
        }
        for (r, p) in tail.iter_mut().zip(&positions[split..]) {
            *r = map(packed.residual_at(bytes, *p as usize));
        }
    }

    /// Append the rows of `rows` whose value lies in `[lo, hi]`,
    /// comparing residuals against `lo − min` / `hi − min` without forming
    /// a value.
    pub(crate) fn select(
        &self,
        bytes: &[u8],
        rows: Range<usize>,
        lo: i64,
        hi: i64,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u64>,
    ) {
        let top = mask(self.width) as i128;
        let rlo = (lo as i128 - self.min as i128).max(0);
        let rhi = (hi as i128 - self.min as i128).min(top);
        if rlo > rhi {
            return;
        }
        let (rlo, span) = (rlo as u64, (rhi - rlo) as u64);
        scratch.resize(rows.len(), 0);
        self.unpack(bytes, rows.start, scratch, |r| r);
        let hits = scratch.iter().map(|r| r.wrapping_sub(rlo) <= span);
        append_hits(out, rows.start, hits);
    }
}

/// Append `start + i` for each `i` whose `hits` entry holds. Every
/// candidate is written and only a kept one is stepped past, so no branch
/// depends on the data.
pub(crate) fn append_hits(
    out: &mut Vec<u32>,
    start: usize,
    hits: impl ExactSizeIterator<Item = bool>,
) {
    let base = out.len();
    out.resize(base + hits.len(), 0);
    let dst = &mut out[base..];
    let mut kept = 0;
    for (i, hit) in hits.enumerate() {
        dst[kept] = (start + i) as u32;
        kept += hit as usize;
    }
    out.truncate(base + kept);
}

/// Packed word `w`, zero-padded when the buffer ends inside it.
#[inline]
fn word(data: &[u8], w: usize) -> u64 {
    match data.get(w * 8..w * 8 + 8) {
        Some(full) => u64::from_le_bytes(full.try_into().expect("8 bytes")),
        None => {
            let mut b = [0u8; 8];
            let tail = data.get(w * 8..).unwrap_or(&[]);
            b[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(b)
        }
    }
}

#[inline]
fn mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small_range() {
        let vals: Vec<i64> = (0..10_000).map(|i| 100 + (i * 37) % 250).collect();
        let enc = encode(&vals);
        // 8-bit residuals: ~10 KB vs 80 KB plain.
        assert!(enc.len() < 11_000, "{}", enc.len());
        assert_eq!(decode(&enc).unwrap(), vals);
    }

    #[test]
    fn constant_column_is_header_only() {
        let vals = vec![42i64; 100_000];
        let enc = encode(&vals);
        assert_eq!(enc.len(), 13);
        assert_eq!(decode(&enc).unwrap(), vals);
    }

    #[test]
    fn round_trip_negative_frame() {
        let vals: Vec<i64> = (-500..500).collect();
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn round_trip_full_width() {
        let vals = vec![i64::MIN, i64::MAX, 0, -1, 1];
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn round_trip_awkward_widths() {
        // Exercise widths that straddle word boundaries (e.g. 33 bits).
        let vals: Vec<i64> = (0..1000).map(|i| (i as i64) * 8_589_934_592).collect();
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn truncated_rejected() {
        let vals: Vec<i64> = (0..100).collect();
        let mut enc = encode(&vals);
        enc.truncate(enc.len() - 8);
        assert!(decode(&enc).is_err());
        assert!(decode(&[0, 0]).is_err());
    }

    #[test]
    fn random_access_matches_sequential_at_every_offset() {
        let vals: Vec<i64> = (0..300).map(|i| (i * 7_919) % 100_003 - 50_000).collect();
        let enc = encode(&vals);
        let p = Packed::parse(&enc, &mut 0).unwrap();
        for first in 0..140 {
            let mut seq = vec![0; 300 - first];
            p.unpack(&enc, first, &mut seq, |r| p.value(r));
            assert_eq!(seq, vals[first..], "from row {first}");
            assert_eq!(p.value(p.residual_at(&enc, first)), vals[first]);
        }
    }
}
