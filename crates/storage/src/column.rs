//! Columnar segments: one column's values under one encoding.
//!
//! The storage unit of the Fig. 2 scanner (a "high-performance
//! column-oriented relational scanner", \[HLA+06\]): each projected column
//! is an independently encoded segment, so a 5-of-7-column projection
//! moves only those five columns' bytes.

use crate::compress::{self, Encoding};
use crate::error::StorageError;
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
/// segment shares it instead of holding a second copy as bytes.
#[derive(Debug, Clone, PartialEq)]
enum SegmentData {
    Plain(Arc<Vec<i64>>),
    Encoded(Vec<u8>),
}

impl ColumnSegment {
    /// Encode `values` under `encoding`.
    pub fn encode(values: &[i64], encoding: Encoding) -> Self {
        let data = match encoding {
            Encoding::Plain => SegmentData::Plain(Arc::new(values.to_vec())),
            _ => SegmentData::Encoded(compress::encode(values, encoding)),
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
