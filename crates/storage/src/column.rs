//! Columnar segments: one column's values under one encoding.
//!
//! The storage unit of the Fig. 2 scanner (a "high-performance
//! column-oriented relational scanner", \[HLA+06\]): each projected column
//! is an independently encoded segment, so a 5-of-7-column projection
//! moves only those five columns' bytes. A [`SegmentReader`] answers a
//! range predicate on the encoded form and decodes only the rows asked
//! for.

use crate::compress::bitpack::{append_hits, Packed};
use crate::compress::dict::Dict;
use crate::compress::rle::Runs;
use crate::compress::varint::read_u32;
use crate::compress::{self, Encoding};
use crate::error::StorageError;
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
                Codec::Rle(Runs::new(bytes)?, Arc::clone(bytes))
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

    /// Uncompressed size in bytes (8 bytes per value).
    pub fn raw_bytes(&self) -> u64 {
        self.rows as u64 * 8
    }

    /// Compression ratio `raw / compressed` (1.0 for empty segments).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            1.0
        } else {
            self.raw_bytes() as f64 / self.compressed_bytes() as f64
        }
    }
}

/// Reads one segment's rows in its encoded form: which rows of a window
/// hold a value in an inclusive range, and the values at chosen rows.
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
    Rle(Runs, Arc<Vec<u8>>),
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
            Codec::Rle(runs, bytes) => runs.select(bytes, rows, lo, hi, out),
            Codec::Dict(dict, bytes) => dict.select(bytes, rows, lo, hi, out, &mut self.scratch),
            Codec::BitPack(packed, bytes) => {
                packed.select(bytes, rows, lo, hi, out, &mut self.scratch);
                Ok(())
            }
        }
    }

    /// Append to `out` the values at `positions`, which strictly ascend
    /// (a selection).
    ///
    /// # Panics
    /// Panics when a position lies past the segment's end.
    pub fn gather(&mut self, positions: &[u32], out: &mut Vec<i64>) -> Result<(), StorageError> {
        if let Some(last) = positions.last() {
            assert!(
                (*last as usize) < self.rows,
                "position {last} past the segment"
            );
        }
        match &mut self.codec {
            Codec::Plain(vals) => {
                out.extend(positions.iter().map(|p| vals[*p as usize]));
                Ok(())
            }
            Codec::Rle(runs, bytes) => runs.gather(bytes, positions, out),
            Codec::Dict(dict, bytes) => dict.gather(bytes, positions, out),
            Codec::BitPack(packed, bytes) => {
                packed.pick(bytes, positions, out, |r| packed.value(r));
                Ok(())
            }
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
        assert!(seg.ratio() > 10.0, "ratio {}", seg.ratio());
        assert_eq!(*seg.decode().unwrap(), vals);
    }

    #[test]
    fn sizes_and_ratio() {
        let vals: Vec<i64> = (0..1000).collect();
        let plain = ColumnSegment::encode(&vals, Encoding::Plain);
        assert_eq!(plain.raw_bytes(), 8000);
        assert_eq!(plain.compressed_bytes(), 8000);
        assert!((plain.ratio() - 1.0).abs() < 1e-12);
        let packed = ColumnSegment::encode(&vals, Encoding::BitPack);
        assert!(packed.ratio() > 5.0);
    }

    #[test]
    fn empty_segment() {
        let seg = ColumnSegment::encode(&[], Encoding::Rle);
        assert_eq!(seg.rows(), 0);
        assert_eq!(*seg.decode().unwrap(), Vec::<i64>::new());
        assert!((seg.ratio() - 0.0).abs() < 1.01); // defined, finite
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
