//! Dictionary encoding: distinct values in first-appearance order, codes
//! bit-packed at the minimal width.
//!
//! Layout: `[count: u32][dict_len: u32][dict entries: i64…][codes:
//! bitpacked u32 block]`. Codes reuse the [`super::bitpack`] format by
//! packing them as an i64 column, which keeps one packer implementation.

use super::bitpack;
use super::varint::{read_i64, read_u32, write_i64, write_u32};
use crate::error::StorageError;
use std::collections::HashMap; // grail-lint: allow(hash-order, per-value lookups only; dict order is first-appearance)

/// Encode `values` with a dictionary.
pub fn encode(values: &[i64]) -> Vec<u8> {
    let mut dict: Vec<i64> = Vec::new();
    let mut codes: Vec<i64> = Vec::with_capacity(values.len());
    // grail-lint: allow(hash-order, lookup-only code assignment; emitted dict follows input order)
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

/// Decode dictionary-encoded `bytes`.
pub fn decode(bytes: &[u8]) -> Result<Vec<i64>, StorageError> {
    let mut pos = 0;
    let count = read_u32(bytes, &mut pos)? as usize;
    let dict_len = read_u32(bytes, &mut pos)? as usize;
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(read_i64(bytes, &mut pos)?);
    }
    let codes = bitpack::decode(&bytes[pos..])?;
    if codes.len() != count {
        return Err(StorageError::CorruptSegment("dict code count mismatch"));
    }
    let mut out = Vec::with_capacity(count);
    for c in codes {
        let idx =
            usize::try_from(c).map_err(|_| StorageError::CorruptSegment("dict negative code"))?;
        out.push(
            *dict
                .get(idx)
                .ok_or(StorageError::CorruptSegment("dict code out of range"))?,
        );
    }
    Ok(out)
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
}
