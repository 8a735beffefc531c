//! Dictionary encoding: distinct values in first-appearance order, codes
//! bit-packed at the minimal width.
//!
//! Layout: `[count: u32][dict_len: u32][dict entries: i64…][codes]`,
//! where the codes are an i64 column in the [`super::bitpack`] layout
//! (its own count, frame and width), which keeps one packer
//! implementation. Decode maps each packed code through the dictionary as
//! it is read; a range predicate becomes one pass/fail bit per entry.

use super::bitpack::{self, Packed};
use super::varint::{read_i64, read_u32, write_i64, write_u32};
use crate::error::StorageError;
use std::cell::Cell;
#[expect(
    clippy::disallowed_types,
    reason = "per-value lookups only; dict order is first-appearance"
)]
use std::collections::HashMap;
use std::ops::Range;

/// Encode `values` with a dictionary.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut dict: Vec<i64> = Vec::new();
    let mut codes: Vec<i64> = Vec::with_capacity(values.len());
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only code assignment; emitted dict follows input order"
    )]
    let mut index: HashMap<i64, u32> = HashMap::new();
    for v in values {
        let code = *index.entry(*v).or_insert_with(|| {
            dict.push(*v);
            (dict.len() - 1) as u32
        });
        codes.push(code as i64);
    }
    let mut out = Vec::new();
    write_u32(&mut out, values.len() as u32);
    write_u32(&mut out, dict.len() as u32);
    for d in &dict {
        write_i64(&mut out, *d);
    }
    let packed = bitpack::encode(&codes);
    out.extend_from_slice(&packed);
    out
}

/// Decode dictionary-encoded `bytes`: each code is mapped through the
/// dictionary as it is unpacked.
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>, StorageError> {
    let dict = Dict::parse(bytes)?;
    let mut out = vec![0; dict.codes.count];
    let corrupt = Cell::new(None);
    dict.codes
        .unpack(bytes, 0, &mut out, |r| dict.lookup(r, &corrupt));
    corrupt.get().map_or(Ok(out), |r| Err(dict.code_error(r)))
}

/// A dictionary segment with its entries read and its code block's
/// header checked.
#[derive(Debug, Clone)]
pub(crate) struct Dict {
    entries: Vec<i64>,
    codes: Packed,
    /// The last range asked of [`Self::select`], whether each entry
    /// lies inside, and how many do.
    pass: Option<((i64, i64), Vec<bool>, usize)>,
}

impl Dict {
    /// Read the entries and the code header, each checked against the
    /// bytes that remain.
    pub(crate) fn parse(bytes: &[u8]) -> Result<Dict, StorageError> {
        let mut pos = 0;
        let count = read_u32(bytes, &mut pos)? as usize;
        let dict_len = read_u32(bytes, &mut pos)? as usize;
        // Checked before allocating: a corrupt length must not reserve
        // gigabytes. Reading the entries would fail the same way.
        if dict_len as u64 * 8 > (bytes.len() - pos) as u64 {
            return Err(StorageError::CorruptSegment("i64 truncated"));
        }
        let entries = (0..dict_len)
            .map(|_| read_i64(bytes, &mut pos))
            .collect::<Result<Vec<_>, _>>()?;
        let codes = Packed::parse(bytes, &mut pos)?;
        if codes.count != count {
            return Err(StorageError::CorruptSegment("dict code count mismatch"));
        }
        Ok(Dict {
            entries,
            codes,
            pass: None,
        })
    }

    /// Check that every code residual names an entry: one pass when they
    /// all do, else the error of the first that does not.
    fn check(&self, codes: impl Iterator<Item = u64> + Clone) -> Result<(), StorageError> {
        // A negative index is a huge `u64`: one comparison checks both ends.
        let (first, len) = (self.codes.min, self.entries.len() as u64);
        let names = |r: u64| (first.wrapping_add(r as i64) as u64) < len;
        if codes.clone().fold(true, |ok, r| ok & names(r)) {
            return Ok(());
        }
        let bad = codes.clone().find(|r| !names(*r)).expect("a corrupt code");
        Err(self.code_error(bad))
    }

    /// The entry a code residual names, if it names one.
    #[inline]
    fn entry(&self, code: u64) -> Option<i64> {
        let index = usize::try_from(self.codes.value(code)).ok()?;
        self.entries.get(index).copied()
    }

    /// The dictionary's entries, in first-appearance order.
    pub(crate) fn entries(&self) -> &[i64] {
        &self.entries
    }

    /// The entry a code residual names; a corrupt code reads 0 and, when
    /// it is the first, is kept in `corrupt` for [`Self::code_error`].
    #[inline]
    fn lookup(&self, code: u64, corrupt: &Cell<Option<u64>>) -> i64 {
        self.entry(code).unwrap_or_else(|| {
            corrupt.set(corrupt.get().or(Some(code)));
            0
        })
    }

    /// What is wrong with a code residual that names no entry.
    fn code_error(&self, code: u64) -> StorageError {
        StorageError::CorruptSegment(match self.codes.value(code) < 0 {
            true => "dict negative code",
            false => "dict code out of range",
        })
    }

    /// The entry index of a code residual that passed [`Self::check`].
    #[inline]
    fn index(&self, code: u64) -> usize {
        self.codes.value(code) as usize
    }

    /// Append the rows of `rows` whose value lies in `[lo, hi]`: the
    /// range is tested once per dictionary entry, then once per row on
    /// its code.
    pub(crate) fn select(
        &mut self,
        bytes: &[u8],
        rows: Range<usize>,
        lo: i64,
        hi: i64,
        out: &mut Vec<u32>,
        scratch: &mut Vec<u64>,
    ) -> Result<(), StorageError> {
        if !matches!(&self.pass, Some((range, ..)) if *range == (lo, hi)) {
            let pass: Vec<bool> = self.entries.iter().map(|v| lo <= *v && *v <= hi).collect();
            let inside = pass.iter().filter(|p| **p).count();
            self.pass = Some(((lo, hi), pass, inside));
        }
        let (_, pass, inside) = self.pass.as_ref().expect("filled above");
        if *inside == 0 {
            return Ok(());
        }
        if *inside == pass.len() {
            out.extend(rows.map(|r| r as u32));
            return Ok(());
        }
        scratch.resize(rows.len(), 0);
        self.codes.unpack(bytes, rows.start, scratch, |r| r);
        self.check(scratch.iter().copied())?;
        let hits = scratch.iter().map(|r| pass[self.index(*r)]);
        bitpack::append_hits(out, rows.start, hits);
        Ok(())
    }

    /// Write the entry index of each of `positions` (strictly ascending)
    /// into `out`. A corrupt code is the error of the first such
    /// position.
    #[inline]
    pub(crate) fn indices(
        &self,
        bytes: &[u8],
        positions: &[u32],
        out: &mut [i64],
    ) -> Result<(), StorageError> {
        let first = self.codes.min;
        self.codes
            .fill(bytes, positions, out, |r| first.wrapping_add(r as i64));
        self.check(out.iter().map(|i| i.wrapping_sub(first) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_low_cardinality() {
        let statuses = [0i64, 1, 2, 3, 4]; // 'F','O','P'… as codes
        let vals: Vec<i64> = (0..100_000).map(|i| statuses[i % 5]).collect();
        let enc = encode(&vals);
        // 3-bit codes: ~37.5 KB vs 800 KB plain.
        assert!(enc.len() < 50_000, "{}", enc.len());
        assert_eq!(decode(&enc).unwrap(), vals);
    }

    #[test]
    fn dictionary_preserves_first_appearance_order() {
        let vals = vec![9i64, 9, -2, 9, 7, -2];
        let enc = encode(&vals);
        assert_eq!(decode(&enc).unwrap(), vals);
    }

    #[test]
    fn all_distinct_still_correct() {
        let vals: Vec<i64> = (0..1000).map(|i| i * 1_000_000_007).collect();
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
    }

    #[test]
    fn extremes_and_empty() {
        let vals = vec![i64::MIN, i64::MAX, 0];
        assert_eq!(decode(&encode(&vals)).unwrap(), vals);
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn corrupt_code_rejected() {
        // Hand-build: 1 value, dict of 1 entry, but code points past it.
        let mut bad = Vec::new();
        write_u32(&mut bad, 1);
        write_u32(&mut bad, 1);
        write_i64(&mut bad, 42);
        bad.extend_from_slice(&bitpack::encode(&[5i64]));
        assert!(decode(&bad).is_err());
        let dict = Dict::parse(&bad).expect("the header is whole");
        assert_eq!(
            dict.indices(&bad, &[0], &mut [0]),
            Err(StorageError::CorruptSegment("dict code out of range"))
        );
    }

    #[test]
    fn count_mismatch_rejected() {
        let mut bad = Vec::new();
        write_u32(&mut bad, 3);
        write_u32(&mut bad, 1);
        write_i64(&mut bad, 42);
        bad.extend_from_slice(&bitpack::encode(&[0i64])); // only one code
        assert!(decode(&bad).is_err());
    }

    /// A dictionary whose `n` codes `i % entries.len()` are packed at
    /// `width` bits on a frame that puts the last code at the widest
    /// residual: a hand-built block (the encoder packs codes at their
    /// minimal width, on a frame of 0).
    fn coded_at(width: u32, n: usize, entries: &[i64]) -> Vec<u8> {
        let min = (entries.len() as i128 - (1i128 << width)).max(i64::MIN as i128) as i64;
        let mut words = vec![0u64; (n * width as usize).div_ceil(64)];
        for i in 0..n {
            let residual = ((i % entries.len()) as i128 - min as i128) as u64;
            let (w, off) = (i * width as usize / 64, (i * width as usize % 64) as u32);
            words[w] |= residual << off;
            if off + width > 64 {
                words[w + 1] |= residual >> (64 - off);
            }
        }
        let mut out = Vec::new();
        write_u32(&mut out, n as u32);
        write_u32(&mut out, entries.len() as u32);
        entries.iter().for_each(|e| write_i64(&mut out, *e));
        write_u32(&mut out, n as u32);
        write_i64(&mut out, min);
        out.push(width as u8);
        words
            .iter()
            .for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
        out
    }

    /// `unpack`, `fill` and `indices` from each of the last 128 rows (the
    /// 8-byte loads run out up to 119 rows before the end) read what
    /// `residual_at` reads row by row, at every width.
    #[test]
    fn every_read_matches_residual_at_near_the_end_of_the_data() {
        let all = [-7, i64::MIN, 0, i64::MAX, 42];
        for width in 1..=64 {
            let entries = &all[..all.len().min(1 << width.min(3))];
            for n in [1, 9, 63, 64, 65, 200, 333] {
                let bytes = coded_at(width, n, entries);
                let dict = Dict::parse(&bytes).expect("valid");
                let p = dict.codes;
                let truth: Vec<u64> = (0..n).map(|i| p.residual_at(&bytes, i)).collect();
                let values: Vec<i64> = (0..n).map(|i| entries[i % entries.len()]).collect();
                assert_eq!(decode(&bytes).as_ref(), Ok(&values), "width {width}");
                for start in n.saturating_sub(128)..n {
                    let mut unpacked = vec![0; n - start];
                    p.unpack(&bytes, start, &mut unpacked, |r| r);
                    assert_eq!(unpacked, truth[start..], "width {width}, from {start}");
                    let positions: Vec<u32> =
                        (start as u32..n as u32).step_by(1 + start % 3).collect();
                    let at = |i: &u32| *i as usize;
                    let mut picked = vec![0; positions.len()];
                    p.fill(&bytes, &positions, &mut picked, |r| r);
                    assert_eq!(
                        picked,
                        positions.iter().map(|i| truth[at(i)]).collect::<Vec<_>>()
                    );
                    let want: Vec<i64> = positions.iter().map(|i| values[at(i)]).collect();
                    let mut indices = vec![0; positions.len()];
                    dict.indices(&bytes, &positions, &mut indices)
                        .expect("valid");
                    let looked_up: Vec<i64> =
                        indices.iter().map(|c| entries[*c as usize]).collect();
                    assert_eq!(looked_up, want, "width {width}, from {start}");
                }
            }
        }
    }

    /// A dictionary length past the end of the bytes used to reserve
    /// `dict_len × 8` bytes first: 32 GiB for this header, an abort.
    #[test]
    fn huge_dictionary_length_is_an_error_not_an_allocation() {
        assert_eq!(
            decode(&[1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]),
            Err(StorageError::CorruptSegment("i64 truncated"))
        );
    }
}
