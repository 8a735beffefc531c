//! Compression codecs.
//!
//! Fig. 2's entire argument is one compression decision: a compressed
//! table trades ~1.9 s of extra CPU for ~4.5 s of saved disk time and
//! *loses* on energy because the CPU is 18× the power of the flash
//! drives. These codecs are real implementations — every encode is
//! exercised by a decode in tests and property tests — but the CPU work
//! the executor charges for them is the paper's model, not a measurement
//! of the host: the simulated scan decompresses every value (Sec. 3.2),
//! while the host selects on runs, codes and packed words and decodes
//! only the rows that survive a predicate
//! ([`crate::column::SegmentReader`]). Host work and charged work
//! diverge by design.
//!
//! The codecs ([`rle`], [`dict`], [`bitpack`], [`delta`]) operate on
//! `&[i64]` columns.

pub mod bitpack;
pub mod delta;
pub mod dict;
pub mod rle;
pub mod varint;

use crate::error::StorageError;

/// Available integer-column encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Raw little-endian i64s.
    Plain,
    /// Run-length encoding.
    Rle,
    /// Dictionary encoding with bit-packed codes.
    Dict,
    /// Frame-of-reference bit-packing.
    BitPack,
    /// Delta + zigzag + varint.
    Delta,
}

impl Encoding {
    /// All encodings, for exhaustive tests and sweeps.
    pub const ALL: [Encoding; 5] = [
        Encoding::Plain,
        Encoding::Rle,
        Encoding::Dict,
        Encoding::BitPack,
        Encoding::Delta,
    ];

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Rle => "rle",
            Encoding::Dict => "dict",
            Encoding::BitPack => "bitpack",
            Encoding::Delta => "delta",
        }
    }
}

/// Encode `values` under `enc`.
pub fn encode(values: &[i64], enc: Encoding) -> Vec<u8> {
    match enc {
        Encoding::Plain => plain_encode(values),
        Encoding::Rle => rle::encode(values),
        Encoding::Dict => dict::encode(values),
        Encoding::BitPack => bitpack::encode(values),
        Encoding::Delta => delta::encode(values),
    }
}

/// Decode `bytes` under `enc`.
pub fn decode(bytes: &[u8], enc: Encoding) -> Result<Vec<i64>, StorageError> {
    match enc {
        Encoding::Plain => plain_decode(bytes),
        Encoding::Rle => rle::decode(bytes),
        Encoding::Dict => dict::decode(bytes),
        Encoding::BitPack => bitpack::decode(bytes),
        Encoding::Delta => delta::decode(bytes),
    }
}

fn plain_encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn plain_decode(bytes: &[u8]) -> Result<Vec<i64>, StorageError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(StorageError::CorruptSegment(
            "plain length not multiple of 8",
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect())
}

/// Pick a good encoding for `values` by inspecting run structure,
/// cardinality, and range — the codec-selection step of a column store's
/// physical designer.
pub fn choose_encoding(values: &[i64]) -> Encoding {
    if values.is_empty() {
        return Encoding::Plain;
    }
    // Runs and min/max read the whole column; only the cardinality probe
    // and the sortedness check look at a prefix.
    let n = values.len();
    let mut runs = 1usize;
    for w in values.windows(2) {
        if w[0] != w[1] {
            runs += 1;
        }
    }
    let avg_run = n as f64 / runs as f64;
    if avg_run >= 4.0 {
        return Encoding::Rle;
    }
    #[expect(
        clippy::disallowed_types,
        reason = "cardinality probe; only .len() is read"
    )]
    let mut distinct = std::collections::HashSet::new();
    for v in values.iter().take(65_536) {
        distinct.insert(*v);
        if distinct.len() > 4096 {
            break;
        }
    }
    if distinct.len() <= 4096 && (distinct.len() as f64) < n as f64 / 8.0 {
        return Encoding::Dict;
    }
    let min = *values.iter().min().expect("non-empty");
    let max = *values.iter().max().expect("non-empty");
    if let Some(range) = max.checked_sub(min) {
        let width = 64 - (range as u64).leading_zeros();
        if width <= 32 {
            return Encoding::BitPack;
        }
    }
    // Sorted-ish data deltas well.
    let mut sorted_pairs = 0usize;
    for w in values.windows(2).take(4096) {
        if w[1] >= w[0] {
            sorted_pairs += 1;
        }
    }
    if sorted_pairs as f64 > 0.9 * values.windows(2).take(4096).count().max(1) as f64 {
        return Encoding::Delta;
    }
    Encoding::Plain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_round_trip() {
        let vals = vec![0i64, 1, -1, i64::MAX, i64::MIN, 42];
        let enc = encode(&vals, Encoding::Plain);
        assert_eq!(enc.len(), vals.len() * 8);
        assert_eq!(decode(&enc, Encoding::Plain).unwrap(), vals);
    }

    #[test]
    fn plain_rejects_ragged_input() {
        assert!(plain_decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn all_encodings_round_trip_smoke() {
        let vals: Vec<i64> = (0..1000).map(|i| (i % 7) * 3).collect();
        for enc in Encoding::ALL {
            let bytes = encode(&vals, enc);
            let back = decode(&bytes, enc).unwrap_or_else(|e| panic!("{}: {e}", enc.name()));
            assert_eq!(back, vals, "{}", enc.name());
        }
    }

    #[test]
    fn all_encodings_handle_empty() {
        let vals: Vec<i64> = Vec::new();
        for enc in Encoding::ALL {
            let bytes = encode(&vals, enc);
            assert_eq!(decode(&bytes, enc).unwrap(), vals, "{}", enc.name());
        }
    }

    #[test]
    fn chooser_picks_rle_for_runs() {
        let vals: Vec<i64> = (0..1000).map(|i| i / 100).collect();
        assert_eq!(choose_encoding(&vals), Encoding::Rle);
    }

    #[test]
    fn chooser_picks_dict_for_low_cardinality() {
        let vals: Vec<i64> = (0..10_000).map(|i| [10, 99, -5][i % 3]).collect();
        assert_eq!(choose_encoding(&vals), Encoding::Dict);
    }

    #[test]
    fn chooser_picks_bitpack_for_small_range() {
        // High cardinality, alternating (no runs), range < 2^32.
        let vals: Vec<i64> = (0..100_000)
            .map(|i| ((i * 2_654_435_761u64) % 1_000_000) as i64)
            .collect();
        assert_eq!(choose_encoding(&vals), Encoding::BitPack);
    }

    #[test]
    fn chooser_picks_delta_for_sorted_wide_values() {
        let vals: Vec<i64> = (0..10_000)
            .map(|i| i as i64 * 10_000_000_000 + (i as i64 % 3))
            .collect();
        assert_eq!(choose_encoding(&vals), Encoding::Delta);
    }

    #[test]
    fn chooser_handles_empty() {
        assert_eq!(choose_encoding(&[]), Encoding::Plain);
    }

    #[test]
    fn chosen_encoding_actually_compresses() {
        // For each chooser-steered shape, the chosen codec beats Plain.
        let shapes: Vec<Vec<i64>> = vec![
            (0..10_000).map(|i| i / 500).collect(),
            (0..10_000).map(|i| [7, 8][i % 2]).collect(),
            (0..10_000).map(|i| (i as i64 * 37) % 50_000).collect(),
        ];
        for vals in shapes {
            let enc = choose_encoding(&vals);
            let chosen = encode(&vals, enc).len();
            let plain = encode(&vals, Encoding::Plain).len();
            assert!(
                chosen < plain,
                "{} produced {chosen} >= plain {plain}",
                enc.name()
            );
        }
    }
}
