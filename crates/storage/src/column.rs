//! Columnar segments: one column's values under one encoding.
//!
//! The storage unit of the Fig. 2 scanner (a "high-performance
//! column-oriented relational scanner", \[HLA+06\]): each projected column
//! is an independently encoded segment, so a 5-of-7-column projection
//! moves only those five columns' bytes. A [`SegmentReader`] answers a
//! range predicate on the encoded form and decodes only the rows asked
//! for, or hands out their stored codes undecoded.

use crate::compress::bitpack::{append_hits, Packed};
use crate::compress::dict::Dict;
use crate::compress::rle::Runs;
use crate::compress::varint::read_u32;
use crate::compress::{self, Encoding};
use crate::error::StorageError;
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// One encoded column segment.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSegment {
    encoding: Encoding,
    rows: u32,
    data: SegmentData,
}

/// A segment's payload. The in-memory column already is the
/// [`Encoding::Plain`] image (fixed 8 bytes per value), so a Plain
/// segment shares it instead of holding a second copy as bytes. Encoded
/// bytes are shared with the segment's readers.
#[derive(Debug, Clone, PartialEq)]
enum SegmentData {
    Plain(Arc<Vec<i64>>),
    Encoded(Arc<Vec<u8>>),
}

impl ColumnSegment {
    /// Encode `values` under `encoding`.
    pub fn encode(values: &[i64], encoding: Encoding) -> Self {
        let data = match encoding {
            Encoding::Plain => SegmentData::Plain(Arc::new(values.to_vec())),
            _ => SegmentData::Encoded(Arc::new(compress::encode(values, encoding))),
        };
        ColumnSegment {
            encoding,
            rows: values.len() as u32,
            data,
        }
    }

    /// [`Self::encode`] for a column that is already shared: a Plain
    /// segment keeps a reference to `values`, copying nothing.
    pub fn encode_shared(values: &Arc<Vec<i64>>, encoding: Encoding) -> Self {
        match encoding {
            Encoding::Plain => ColumnSegment {
                encoding,
                rows: values.len() as u32,
                data: SegmentData::Plain(Arc::clone(values)),
            },
            _ => ColumnSegment::encode(values, encoding),
        }
    }

    /// Decode the segment back to values. A Plain segment hands out the
    /// column it shares.
    pub fn decode(&self) -> Result<Arc<Vec<i64>>, StorageError> {
        let vals = match &self.data {
            SegmentData::Plain(vals) => Arc::clone(vals),
            SegmentData::Encoded(bytes) => Arc::new(compress::decode(bytes, self.encoding)?),
        };
        if vals.len() != self.rows as usize {
            return Err(StorageError::CorruptSegment("segment row count mismatch"));
        }
        Ok(vals)
    }

    /// A reader over the encoded form, for scans that select before they
    /// decode. Reading the header is all it does up front (a dictionary's
    /// entries included); a delta segment is decoded.
    pub fn reader(&self) -> Result<SegmentReader, StorageError> {
        let rows = self.rows as usize;
        if let SegmentData::Encoded(bytes) = &self.data {
            // Every encoded layout starts with its row count.
            if read_u32(bytes, &mut 0)? as usize != rows {
                return Err(StorageError::CorruptSegment("segment row count mismatch"));
            }
        }
        let codec = match (&self.data, self.encoding) {
            (SegmentData::Encoded(bytes), Encoding::Rle) => {
                Codec::Rle(Cell::new(Runs::new(bytes)?), Arc::clone(bytes))
            }
            (SegmentData::Encoded(bytes), Encoding::Dict) => {
                Codec::Dict(Dict::parse(bytes)?, Arc::clone(bytes))
            }
            (SegmentData::Encoded(bytes), Encoding::BitPack) => {
                Codec::BitPack(Packed::parse(bytes, &mut 0)?, Arc::clone(bytes))
            }
            _ => Codec::Plain(self.decode()?),
        };
        Ok(SegmentReader {
            rows,
            codec,
            scratch: Vec::new(),
        })
    }

    /// The encoding in use.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Rows stored.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Encoded (on-device) size in bytes.
    pub fn compressed_bytes(&self) -> u64 {
        match &self.data {
            SegmentData::Plain(vals) => vals.len() as u64 * 8,
            SegmentData::Encoded(bytes) => bytes.len() as u64,
        }
    }
}

/// Reads one segment's rows in its encoded form: which rows of a window
/// hold a value in an inclusive range, the values at chosen rows, and
/// the codes at chosen rows with the [`Codebook`] they index.
///
/// * Plain compares on the shared column;
/// * RLE tests each run once;
/// * Dict tests each dictionary entry once, then each row's code;
/// * BitPack compares residuals against `lo − min` / `hi − min`;
/// * Delta, whose every value depends on all the deltas before it, is
///   decoded when the reader opens and then read as Plain.
///
/// RLE keeps a forward cursor: calls cost the runs between consecutive
/// requests, so a scan asks for ascending windows and, within a window,
/// ascending positions. Asking behind the cursor is correct but starts
/// over from the first run.
#[derive(Debug)]
pub struct SegmentReader {
    rows: usize,
    codec: Codec,
    /// Unpacked residuals of the current window, reused across calls.
    scratch: Vec<u64>,
}

#[derive(Debug)]
enum Codec {
    Plain(Arc<Vec<i64>>),
    Rle(Cell<Runs>, Arc<Vec<u8>>),
    Dict(Dict, Arc<Vec<u8>>),
    BitPack(Packed, Arc<Vec<u8>>),
}

impl SegmentReader {
    /// Append to `out`, ascending, the rows of `rows` (clipped to the
    /// segment) whose value lies in `[lo, hi]`. `lo > hi` selects nothing.
    pub fn select_range(
        &mut self,
        rows: Range<usize>,
        lo: i64,
        hi: i64,
        out: &mut Vec<u32>,
    ) -> Result<(), StorageError> {
        let rows = rows.start..rows.end.min(self.rows);
        if rows.is_empty() || lo > hi {
            return Ok(());
        }
        match &mut self.codec {
            Codec::Plain(vals) => {
                let hits = vals[rows.clone()].iter().map(|v| lo <= *v && *v <= hi);
                append_hits(out, rows.start, hits);
                Ok(())
            }
            Codec::Rle(runs, bytes) => runs.get_mut().select(bytes, rows, lo, hi, out),
            Codec::Dict(dict, bytes) => dict.select(bytes, rows, lo, hi, out, &mut self.scratch),
            Codec::BitPack(packed, bytes) => {
                packed.select(bytes, rows, lo, hi, out, &mut self.scratch);
                Ok(())
            }
        }
    }

    /// Append to `out` the values at `positions`, which strictly ascend
    /// (a selection): each code read by [`Self::codes`], then decoded. A
    /// corrupt code appends nothing.
    ///
    /// # Panics
    /// Panics when a position lies past the segment's end.
    pub fn gather(&mut self, positions: &[u32], out: &mut Vec<i64>) -> Result<(), StorageError> {
        if let Codec::Plain(vals) = &self.codec {
            out.extend(positions.iter().map(|p| vals[*p as usize]));
            return Ok(());
        }
        let (base, book) = (out.len(), self.codebook());
        out.reserve(positions.len());
        let read = self.codes(positions, |_, codes| match book {
            Codebook::Values => out.extend_from_slice(codes),
            Codebook::Entries(e) => out.extend(codes.iter().map(|c| e[*c as usize])),
            Codebook::Frame { min, .. } => out.extend(codes.iter().map(|c| min.wrapping_add(*c))),
        });
        read.inspect_err(|_| out.truncate(base))
    }

    /// What the codes of [`Self::codes`] stand for.
    pub fn codebook(&self) -> Codebook<'_> {
        match &self.codec {
            Codec::Plain(_) | Codec::Rle(..) => Codebook::Values,
            Codec::Dict(dict, _) => Codebook::Entries(dict.entries()),
            Codec::BitPack(packed, _) => Codebook::Frame {
                min: packed.min,
                bits: packed.width,
            },
        }
    }

    /// Hand `each(i, codes)` the stored codes of `positions[i..]`
    /// (strictly ascending), read in place 1 024 at a time into a scratch
    /// `each` may overwrite, for a caller that folds rows without
    /// decoding them. Dictionary codes are checked against the entries: a
    /// corrupt one is the error of the first position that holds one.
    ///
    /// # Panics
    /// Panics when a position lies past the segment's end.
    #[inline]
    pub fn codes(
        &self,
        positions: &[u32],
        mut each: impl FnMut(usize, &mut [i64]),
    ) -> Result<(), StorageError> {
        if let Some(last) = positions.last() {
            assert!(
                (*last as usize) < self.rows,
                "position {last} past the segment"
            );
        }
        let mut buf = [0; CODE_CHUNK];
        for (n, chunk) in positions.chunks(CODE_CHUNK).enumerate() {
            let codes = &mut buf[..chunk.len()];
            match &self.codec {
                Codec::Plain(vals) => {
                    for (code, p) in codes.iter_mut().zip(chunk) {
                        *code = vals[*p as usize];
                    }
                }
                Codec::Rle(runs, bytes) => {
                    let mut cursor = runs.get();
                    let read = cursor.visit(bytes, chunk, |i, v| codes[i] = v);
                    runs.set(cursor);
                    read?;
                }
                Codec::Dict(dict, bytes) => dict.indices(bytes, chunk, codes)?,
                Codec::BitPack(packed, bytes) => packed.fill(bytes, chunk, codes, |r| r as i64),
            }
            each(n * CODE_CHUNK, codes);
        }
        Ok(())
    }
}

/// How many codes [`SegmentReader::codes`] hands out at a time.
const CODE_CHUNK: usize = 1024;

/// What a [`SegmentReader::codes`] code stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codebook<'a> {
    /// The code is the value: Plain and RLE segments, and Delta, decoded
    /// when the reader opened.
    Values,
    /// The code indexes these dictionary entries, and is below their
    /// count.
    Entries(&'a [i64]),
    /// The code is a residual over `min`, at most `bits` wide (a 64-bit
    /// residual's bits, as an `i64`).
    Frame {
        /// The frame of reference.
        min: i64,
        /// The residuals' width.
        bits: u32,
    },
}

impl Codebook<'_> {
    /// The value `code` stands for.
    #[inline]
    pub fn value(self, code: i64) -> i64 {
        match self {
            Codebook::Values => code,
            Codebook::Entries(entries) => entries[code as usize],
            Codebook::Frame { min, .. } => min.wrapping_add(code),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_round_trip_all_encodings() {
        let vals: Vec<i64> = (0..5000).map(|i| (i % 100) * 3).collect();
        for enc in Encoding::ALL {
            let seg = ColumnSegment::encode(&vals, enc);
            assert_eq!(seg.rows(), 5000);
            assert_eq!(*seg.decode().unwrap(), vals, "{}", enc.name());
        }
    }

    #[test]
    fn auto_encoding_compresses_structured_data() {
        let vals: Vec<i64> = (0..100_000).map(|i| i / 1000).collect();
        let seg = ColumnSegment::encode(&vals, compress::choose_encoding(&vals));
        assert!(seg.compressed_bytes() * 10 < 8 * 100_000);
        assert_eq!(*seg.decode().unwrap(), vals);
    }

    #[test]
    fn sizes() {
        let vals: Vec<i64> = (0..1000).collect();
        let plain = ColumnSegment::encode(&vals, Encoding::Plain);
        assert_eq!(plain.compressed_bytes(), 8 * 1000);
        let packed = ColumnSegment::encode(&vals, Encoding::BitPack);
        assert!(packed.compressed_bytes() * 5 < 8 * 1000);
    }

    #[test]
    fn empty_segment() {
        let seg = ColumnSegment::encode(&[], Encoding::Rle);
        assert_eq!(seg.rows(), 0);
        assert_eq!(*seg.decode().unwrap(), Vec::<i64>::new());
        // The RLE header alone: the row count.
        assert_eq!(seg.compressed_bytes(), 4);
        let plain = ColumnSegment::encode(&[], Encoding::Plain);
        assert_eq!(plain.compressed_bytes(), 0);
    }

    #[test]
    fn shared_plain_segment_is_the_column_itself() {
        let col = Arc::new((0..1000).collect::<Vec<i64>>());
        let seg = ColumnSegment::encode_shared(&col, Encoding::Plain);
        assert!(Arc::ptr_eq(&seg.decode().unwrap(), &col));
        // Same segment, whichever constructor built it.
        assert_eq!(seg, ColumnSegment::encode(&col, Encoding::Plain));
        assert_eq!(seg.compressed_bytes(), 8000);
        // Any other encoding owns its bytes and decodes to a fresh column.
        let packed = ColumnSegment::encode_shared(&col, Encoding::BitPack);
        assert_eq!(packed, ColumnSegment::encode(&col, Encoding::BitPack));
        let back = packed.decode().unwrap();
        assert!(!Arc::ptr_eq(&back, &col));
        assert_eq!(back, col);
    }

    /// Each code mapped through the reader's codebook is the value
    /// `gather` reads, under every encoding, from windows asked in order.
    #[test]
    fn codes_through_their_codebook_are_the_gathered_values() {
        let vals: Vec<i64> = (0..5000).map(|i| (i / 3 % 7) * 1_000 - 3_000).collect();
        for enc in Encoding::ALL {
            let mut reader = ColumnSegment::encode(&vals, enc).reader().unwrap();
            for window in [0..1000u32, 1000..4096, 4096..5000] {
                let positions: Vec<u32> = window.step_by(3).collect();
                let mut want = Vec::new();
                reader.gather(&positions, &mut want).unwrap();
                let mut got = Vec::new();
                let book = reader.codebook();
                let read = |at: usize, codes: &mut [i64]| {
                    assert_eq!(at, got.len());
                    got.extend(codes.iter().map(|c| book.value(*c)));
                };
                reader.codes(&positions, read).unwrap();
                assert_eq!(got, want, "{}", enc.name());
            }
        }
    }

    #[test]
    fn tampered_segment_detected() {
        let vals: Vec<i64> = (0..100).collect();
        for enc in [Encoding::Delta, Encoding::Plain] {
            let mut seg = ColumnSegment::encode(&vals, enc);
            seg.rows = 99; // header/payload disagreement
            assert!(seg.decode().is_err(), "{}", enc.name());
        }
    }
}
