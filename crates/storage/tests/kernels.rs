//! The codec kernels against the decoders they replaced
//! (`common/reference.rs`), on `grail_prop::Gen` columns: every bit-pack
//! width 0..=64 (33, 63 and 64 straddle words), dictionaries of
//! 1..=4096 entries, runs of 1..=300.
//!
//! * `compress::decode` returns what the reference returns, `Ok` or the
//!   same `Err`, on every generated column, every existing corrupt input
//!   and every truncation of a valid encoding.
//! * `SegmentReader::select_range` and `gather` return what filtering and
//!   indexing the reference's decoded column return, under every encoding,
//!   for bounds at `i64::MIN` / `i64::MAX`, empty and one-value ranges,
//!   and windows that cross the segment's end, walked the way a scan walks
//!   them and then out of order.
//! * Near the end of the packed data, where a row's 8-byte load would run
//!   past the buffer, reads that start at each of the last rows agree
//!   with the reference at every bit-pack width 1..=64 and every
//!   dictionary code width 1..=13.

use grail_prop::Gen;
use grail_storage::column::ColumnSegment;
use grail_storage::compress::varint::{write_i64, write_u32, write_varint, zigzag};
use grail_storage::compress::{self, bitpack, Encoding};
use grail_storage::error::StorageError;

#[path = "common/reference.rs"]
mod reference;

fn reference_decode(bytes: &[u8], enc: Encoding) -> Result<Vec<i64>, StorageError> {
    match enc {
        Encoding::Rle => reference::rle_decode(bytes),
        Encoding::Dict => reference::dict_decode(bytes),
        Encoding::BitPack => reference::bitpack_decode(bytes),
        Encoding::Plain | Encoding::Delta => compress::decode(bytes, enc),
    }
}

const KERNELS: [Encoding; 3] = [Encoding::Rle, Encoding::Dict, Encoding::BitPack];

/// `n` values whose residual range needs exactly `width` bits (for
/// `n >= 2`), on a random frame.
fn of_width(rng: &mut Gen, n: usize, width: u32) -> Vec<i64> {
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let span = i64::MAX as i128 - i64::MIN as i128 - mask as i128;
    let min = (i64::MIN as i128 + (rng.word() as i128 % (span + 1))) as i64;
    let mut vals: Vec<i64> = (0..n)
        .map(|_| min.wrapping_add((rng.word() & mask) as i64))
        .collect();
    if n >= 2 {
        vals[rng.range(0..n)] = min;
        vals[rng.range(0..n)] = min.wrapping_add(mask as i64);
    }
    vals
}

/// `n` values drawn from `k` distinct ones, extremes among them.
fn of_dictionary(rng: &mut Gen, n: usize, k: usize) -> Vec<i64> {
    let mut dict: Vec<i64> = (0..k).map(|_| rng.word() as i64).collect();
    dict[0] = i64::MIN;
    dict[k - 1] = i64::MAX;
    (0..n).map(|_| dict[rng.range(0..k)]).collect()
}

/// Runs of 1..=`max_run` over a few values.
fn of_runs(rng: &mut Gen, n: usize, max_run: usize) -> Vec<i64> {
    const VALUES: [i64; 6] = [i64::MIN, -7, 0, 3, 1 << 40, i64::MAX];
    let mut vals = Vec::with_capacity(n);
    while vals.len() < n {
        let v = VALUES[rng.range(0..VALUES.len())];
        vals.extend(std::iter::repeat_n(v, 1 + rng.range(0..max_run)));
    }
    vals.truncate(n);
    vals
}

/// The generated columns, each with a label for failure messages.
fn columns() -> Vec<(String, Vec<i64>)> {
    let mut out = Vec::new();
    let mut rng = Gen::new(0x00C0_DEC5);
    for width in 0..=64 {
        for n in [1 + rng.range(0..40), 200 + rng.range(0..900)] {
            out.push((
                format!("width {width}, {n} rows"),
                of_width(&mut rng, n, width),
            ));
        }
    }
    let mut sizes = vec![1, 2, 3, 255, 256, 257, 4095, 4096];
    sizes.extend((0..24).map(|_| 1 + rng.range(0..4096)));
    for k in sizes {
        let n = k + rng.range(0..k + 50);
        out.push((
            format!("{k}-entry dictionary"),
            of_dictionary(&mut rng, n, k),
        ));
    }
    for max_run in [1, 2, 5, 60, 300] {
        for _ in 0..6 {
            let n = rng.range(0..1500);
            out.push((
                format!("runs of 1..={max_run}"),
                of_runs(&mut rng, n, max_run),
            ));
        }
    }
    out.push(("empty".into(), Vec::new()));
    out
}

#[test]
fn decoders_match_the_reference() {
    for (label, vals) in columns() {
        for enc in KERNELS {
            let bytes = compress::encode(&vals, enc);
            let got = compress::decode(&bytes, enc);
            assert_eq!(
                got,
                reference_decode(&bytes, enc),
                "{label}, {}",
                enc.name()
            );
            assert_eq!(got.as_ref(), Ok(&vals), "{label}, {}", enc.name());
        }
    }
}

/// The corrupt inputs of the codec unit tests, plus hand-built ones for
/// every other check of the reference decoders.
fn corrupt_inputs() -> Vec<(Encoding, Vec<u8>)> {
    let mut out = Vec::new();
    let mut trailing = compress::encode(&[1, 1, 1, 2, 2], Encoding::Rle);
    trailing.push(0);
    out.push((Encoding::Rle, trailing));
    out.push((Encoding::Rle, vec![1, 0, 0]));
    let mut overflow = Vec::new();
    write_u32(&mut overflow, 2);
    write_varint(&mut overflow, zigzag(5));
    write_varint(&mut overflow, 100);
    out.push((Encoding::Rle, overflow));
    let mut zero_run = Vec::new();
    write_u32(&mut zero_run, 2);
    write_varint(&mut zero_run, zigzag(5));
    write_varint(&mut zero_run, 0);
    out.push((Encoding::Rle, zero_run));
    let dict = |count: u32, codes: &[i64]| {
        let mut bad = Vec::new();
        write_u32(&mut bad, count);
        write_u32(&mut bad, 1);
        write_i64(&mut bad, 42);
        bad.extend_from_slice(&bitpack::encode(codes));
        (Encoding::Dict, bad)
    };
    out.push(dict(1, &[5])); // code out of range
    out.push(dict(3, &[0])); // code count mismatch
    out.push(dict(2, &[-1, 0])); // negative code
    out.push(dict(2, &[0, i64::MIN])); // negative code, 64-bit width
    out.push(dict(1, &[])); // no codes for one row
    let mut short = compress::encode(&(0..100).collect::<Vec<_>>(), Encoding::BitPack);
    short.truncate(short.len() - 8);
    out.push((Encoding::BitPack, short));
    out.push((Encoding::BitPack, vec![0, 0]));
    let mut wide = Vec::new();
    write_u32(&mut wide, 1);
    write_i64(&mut wide, 0);
    wide.push(65);
    wide.extend_from_slice(&[0; 16]);
    out.push((Encoding::BitPack, wide));
    out
}

#[test]
fn corrupt_inputs_fail_alike() {
    let mut cases = corrupt_inputs();
    // Every prefix of a valid encoding, and every valid encoding with a
    // byte appended.
    let mut rng = Gen::new(0xBAD);
    let samples = [
        of_runs(&mut rng, 40, 9),
        of_dictionary(&mut rng, 30, 5),
        of_width(&mut rng, 25, 33),
        of_width(&mut rng, 9, 64),
        of_width(&mut rng, 50, 0),
        // Two whole 64-row blocks: a prefix can end inside a block's word.
        of_width(&mut rng, 128, 7),
    ];
    for vals in &samples {
        for enc in KERNELS {
            let bytes = compress::encode(vals, enc);
            cases.extend((0..bytes.len()).map(|n| (enc, bytes[..n].to_vec())));
            let mut longer = bytes.clone();
            longer.push(0x80);
            cases.push((enc, longer));
        }
    }
    let mut failures = 0;
    for (enc, bytes) in &cases {
        let want = reference_decode(bytes, *enc);
        assert_eq!(
            compress::decode(bytes, *enc),
            want,
            "{} {bytes:?}",
            enc.name()
        );
        failures += want.is_err() as u32;
    }
    assert!(failures > 500, "only {failures} of the inputs were corrupt");
}

/// Ranges worth asking about `vals`: everything, nothing (`lo > hi`),
/// one-sided bounds at the `i64` ends, and bounds on, next to and between
/// the column's own values.
fn ranges(rng: &mut Gen, vals: &[i64]) -> Vec<(i64, i64)> {
    let mut out = vec![(i64::MIN, i64::MAX), (i64::MAX, i64::MIN), (1, 0)];
    let pick = |rng: &mut Gen| match vals.len() {
        0 => rng.word() as i64,
        n => vals[rng.range(0..n)].saturating_add(rng.range(0..3) as i64 - 1),
    };
    for _ in 0..2 {
        let (a, b) = (pick(rng), pick(rng));
        out.extend([(i64::MIN, a), (a, i64::MAX), (a, a), (a.min(b), a.max(b))]);
        out.push((a.max(b), a.min(b)));
    }
    out
}

#[test]
fn select_and_gather_match_the_reference() {
    let mut rng = Gen::new(0x5E1EC7);
    let (mut selected, mut crossed) = (0usize, 0u32);
    for (label, vals) in columns() {
        let n = vals.len();
        for enc in Encoding::ALL {
            let seg = ColumnSegment::encode(&vals, enc);
            let truth = match enc {
                Encoding::Rle | Encoding::Dict | Encoding::BitPack => {
                    reference_decode(&compress::encode(&vals, enc), enc).expect("valid")
                }
                _ => vals.clone(),
            };
            for (lo, hi) in ranges(&mut rng, &vals) {
                let mut reader = seg.reader().expect("a fresh segment reads");
                // A scan's walk: ascending windows, the last one past the
                // end; select, then gather inside the window.
                let window = [5, 64, 333, 4096][rng.range(0..4)];
                let mut start = 0;
                while start < n || start == 0 {
                    let rows = start..start + window;
                    crossed += (rows.end > n) as u32;
                    let want: Vec<u32> = (rows.start..rows.end.min(n))
                        .filter(|r| lo <= truth[*r] && truth[*r] <= hi)
                        .map(|r| r as u32)
                        .collect();
                    let mut got = vec![u32::MAX];
                    reader.select_range(rows, lo, hi, &mut got).expect("valid");
                    let ctx = || format!("{label}, {}, [{lo}, {hi}] from {start}", enc.name());
                    assert_eq!(got[1..], want, "{}", ctx());
                    selected += want.len();
                    let some: Vec<u32> = want
                        .iter()
                        .copied()
                        .filter(|_| rng.range(0..3) > 0)
                        .collect();
                    for positions in [&want, &some] {
                        let mut values = vec![7];
                        reader.gather(positions, &mut values).expect("valid");
                        let expect: Vec<i64> =
                            positions.iter().map(|p| truth[*p as usize]).collect();
                        assert_eq!(values[1..], expect, "{}", ctx());
                    }
                    start += window;
                }
                // Out of order: the forward cursors start over.
                for _ in 0..3 {
                    let (a, b) = (rng.range(0..n + 2), rng.range(0..n + 2));
                    let rows = a.min(b)..a.max(b);
                    let mut got = Vec::new();
                    reader
                        .select_range(rows.clone(), lo, hi, &mut got)
                        .expect("valid");
                    let want: Vec<u32> = (rows.start..rows.end.min(n))
                        .filter(|r| lo <= truth[*r] && truth[*r] <= hi)
                        .map(|r| r as u32)
                        .collect();
                    assert_eq!(got, want, "{label}, {}, {rows:?}", enc.name());
                    let mut values = Vec::new();
                    reader.gather(&got, &mut values).expect("valid");
                    assert!(values
                        .iter()
                        .zip(&got)
                        .all(|(v, p)| *v == truth[*p as usize]));
                }
            }
        }
    }
    assert!(
        selected > 1_000_000 && crossed > 1000,
        "coverage: {selected} rows selected, {crossed} windows crossed the end"
    );
}

/// `n` values over `k` random dictionary entries, each entry appearing
/// by row `k`: the codes are `0..k`, packed at the width of `k − 1`.
fn of_codes(rng: &mut Gen, n: usize, k: usize) -> Vec<i64> {
    let dict: Vec<i64> = (0..k).map(|_| rng.word() as i64).collect();
    (0..n)
        .map(|i| dict[if i < k { i } else { rng.range(0..k) }])
        .collect()
}

/// Every start row of the last `TAIL` rows: at width 1 the last row an
/// 8-byte load reads whole lies up to 119 rows (7 bytes plus a padded
/// word) before the end, so the reads from each start cross it.
#[test]
fn reads_from_the_last_rows_match_the_reference() {
    const TAIL: usize = 128;
    let mut rng = Gen::new(0x7A11);
    let mut cases = Vec::new();
    for width in 1..=64 {
        for n in [1 + rng.range(0..TAIL), TAIL + rng.range(0..200)] {
            let label = format!("width {width}, {n} rows");
            cases.push((label, Encoding::BitPack, of_width(&mut rng, n, width)));
        }
    }
    for bits in 1..=13 {
        let k = (1 << (bits - 1)) + 1;
        let n = k + rng.range(0..TAIL);
        let label = format!("{bits}-bit codes, {n} rows");
        cases.push((label, Encoding::Dict, of_codes(&mut rng, n, k)));
    }
    for (label, enc, vals) in cases {
        let truth = reference_decode(&compress::encode(&vals, enc), enc).expect("valid");
        let n = truth.len();
        let mut reader = ColumnSegment::encode(&vals, enc)
            .reader()
            .expect("a fresh segment reads");
        for start in n.saturating_sub(TAIL)..n {
            let ctx = || format!("{label}, {} from row {start}", enc.name());
            // A one-value range unpacks every row of the window.
            let v = truth[start];
            let want: Vec<u32> = (start..n)
                .filter(|r| truth[*r] == v)
                .map(|r| r as u32)
                .collect();
            let mut got = Vec::new();
            reader
                .select_range(start..n, v, v, &mut got)
                .expect("valid");
            assert_eq!(got, want, "{}", ctx());
            // Every row from `start`, then `start` alone.
            let all: Vec<u32> = (start as u32..n as u32).collect();
            for positions in [&all[..], &all[..1]] {
                let mut values = Vec::new();
                reader.gather(positions, &mut values).expect("valid");
                assert_eq!(values, truth[start..start + positions.len()], "{}", ctx());
            }
        }
    }
}
