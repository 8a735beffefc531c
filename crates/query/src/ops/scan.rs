//! Table scans over stored (physically encoded) tables.
//!
//! [`StoredTable`] binds an in-memory logical table to a physical
//! incarnation: per-column encodings (real
//! [`grail_storage::column::ColumnSegment`]s, so compressed sizes are
//! measured, not assumed) and a storage target. [`ColumnarScan`] reads
//! only projected columns and pays decode CPU per encoding — Fig. 2's
//! two bars are this scan over a plain and a compressed store.

use crate::batch::{Batch, Table, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::schema::Schema;
use grail_power::units::Bytes;
use grail_sim::perf::AccessPattern;
use grail_sim::StorageTarget;
use grail_storage::column::ColumnSegment;
use grail_storage::compress::{self, Encoding};
use std::sync::Arc;

/// A logical table stored column-wise on a storage target.
#[derive(Debug, Clone)]
pub struct StoredTable {
    /// The decoded truth (used to validate scans in tests).
    pub table: Arc<Table>,
    /// Per-column physical segments.
    pub segments: Vec<ColumnSegment>,
    /// The device holding the table.
    pub target: StorageTarget,
}

impl StoredTable {
    /// Store `table` column-wise with explicit per-column encodings.
    /// [`Encoding::Plain`] segments share the table's columns.
    pub fn columnar(table: Arc<Table>, target: StorageTarget, encodings: &[Encoding]) -> Self {
        assert_eq!(
            encodings.len(),
            table.schema.arity(),
            "one encoding per column"
        );
        let segments = table
            .columns
            .iter()
            .zip(encodings)
            .map(|(col, enc)| ColumnSegment::encode_shared(col, *enc))
            .collect();
        StoredTable {
            table,
            segments,
            target,
        }
    }

    /// Store `table` column-wise, choosing encodings automatically.
    pub fn columnar_auto(table: Arc<Table>, target: StorageTarget) -> Self {
        let encodings: Vec<Encoding> = table
            .columns
            .iter()
            .map(|col| compress::choose_encoding(col))
            .collect();
        StoredTable::columnar(table, target, &encodings)
    }

    /// Store `table` column-wise, uncompressed.
    pub fn columnar_plain(table: Arc<Table>, target: StorageTarget) -> Self {
        let encodings = vec![Encoding::Plain; table.schema.arity()];
        StoredTable::columnar(table, target, &encodings)
    }

    /// On-device bytes a scan of `projection` moves.
    pub fn scan_bytes(&self, projection: &[usize]) -> u64 {
        projection
            .iter()
            .filter_map(|i| self.segments.get(*i))
            .map(|s| s.compressed_bytes())
            .sum()
    }

    /// The whole table's stored footprint.
    pub fn footprint(&self) -> u64 {
        self.segments.iter().map(|s| s.compressed_bytes()).sum()
    }
}

/// A column scan: reads projected segments, decodes them (real decode,
/// charged per encoding), and streams batches.
pub struct ColumnarScan {
    stored: Arc<StoredTable>,
    projection: Vec<usize>,
    schema: Arc<Schema>,
    decoded: Option<Vec<Arc<Vec<i64>>>>,
    cursor: usize,
}

impl ColumnarScan {
    /// Scan `projection` (column indices) of `stored`.
    pub fn new(stored: Arc<StoredTable>, projection: Vec<usize>) -> Self {
        let schema = stored.table.schema.project(&projection);
        ColumnarScan {
            stored,
            projection,
            schema,
            decoded: None,
            cursor: 0,
        }
    }

    fn ensure_decoded(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.decoded.is_some() {
            return Ok(());
        }
        // A bad projection is a plan error: it must not charge anything.
        let segments = &self.stored.segments;
        if let Some(bad) = self.projection.iter().find(|i| **i >= segments.len()) {
            return Err(QueryError::UnknownColumn(*bad));
        }
        // IO: one sequential read per projected segment.
        ctx.charge_read(
            self.stored.target,
            Bytes::new(self.stored.scan_bytes(&self.projection)),
            AccessPattern::Sequential,
        );
        // CPU: real decode of each projected segment, charged per value
        // (a Plain segment decodes to the stored column itself).
        let mut cols = Vec::with_capacity(self.projection.len());
        for seg in self.projection.iter().map(|i| &segments[*i]) {
            let decode_cost = ctx.charge.decode_cycles(seg.encoding());
            let scan_cost = ctx.charge.scan_cycles_per_value;
            let vals = seg.decode()?;
            ctx.charge_cpu((decode_cost + scan_cost) * vals.len() as f64);
            cols.push(vals);
        }
        self.decoded = Some(cols);
        Ok(())
    }
}

impl ColumnarScan {
    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure_decoded(ctx)?;
        let cols = self.decoded.as_ref().expect("decoded above");
        let total = cols.first().map(|c| c.len()).unwrap_or(0);
        if self.cursor >= total {
            return Ok(None);
        }
        let end = (self.cursor + BATCH_ROWS).min(total);
        // Window over the decoded columns: no per-batch copying.
        let batch = Batch::from_shared(
            self.schema.clone(),
            cols.clone(),
            self.cursor,
            end - self.cursor,
        );
        self.cursor = end;
        Ok(Some(batch))
    }
}

impl Operator for ColumnarScan {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("scan");
        let out = self.next_inner(ctx);
        ctx.end_op(op);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_collect;
    use crate::schema::ColumnType;
    use grail_sim::DiskId;

    fn table() -> Arc<Table> {
        let schema = Schema::new(vec![
            ("k", ColumnType::Id),
            ("flag", ColumnType::Code),
            ("price", ColumnType::Decimal),
        ]);
        let n = 10_000i64;
        Arc::new(Table::new(
            "t",
            schema,
            vec![
                (0..n).collect(),
                (0..n).map(|i| i % 3).collect(),
                (0..n).map(|i| (i * 37) % 10_000).collect(),
            ],
        ))
    }

    fn target() -> StorageTarget {
        StorageTarget::Disk(DiskId(0))
    }

    #[test]
    fn columnar_scan_returns_exact_data() {
        let stored = Arc::new(StoredTable::columnar_auto(table(), target()));
        let mut scan = ColumnarScan::new(stored.clone(), vec![0, 2]);
        let mut ctx = ExecContext::calibrated();
        let batches = run_collect(&mut scan, &mut ctx).unwrap();
        let rows: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(rows, 10_000);
        // Spot-check values decode identically to the truth.
        assert_eq!(batches[0].column(0)[5], 5);
        assert_eq!(batches[0].column(1)[5], 5 * 37);
        // Batching respects BATCH_ROWS.
        assert_eq!(batches[0].len(), BATCH_ROWS);
    }

    #[test]
    fn columnar_projection_reads_fewer_bytes() {
        let stored = Arc::new(StoredTable::columnar_plain(table(), target()));
        let narrow = stored.scan_bytes(&[0]);
        let wide = stored.scan_bytes(&[0, 1, 2]);
        assert_eq!(narrow, 10_000 * 8);
        assert_eq!(wide, 3 * 10_000 * 8);
    }

    #[test]
    fn compression_reduces_io_but_adds_cpu() {
        let plain = Arc::new(StoredTable::columnar_plain(table(), target()));
        let auto = Arc::new(StoredTable::columnar_auto(table(), target()));
        assert!(auto.footprint() < plain.footprint());

        let run = |stored: Arc<StoredTable>| {
            let mut scan = ColumnarScan::new(stored, vec![0, 1, 2]);
            let mut ctx = ExecContext::calibrated();
            let batches = run_collect(&mut scan, &mut ctx).unwrap();
            let phases = ctx.finish();
            (batches, phases)
        };
        let (b_plain, p_plain) = run(plain);
        let (b_auto, p_auto) = run(auto);
        // Same answers.
        assert_eq!(b_plain, b_auto);
        // Less IO, more CPU.
        let io =
            |p: &Vec<crate::exec::Tally>| -> u64 { p.iter().map(|t| t.io_bytes().get()).sum() };
        let cpu = |p: &Vec<crate::exec::Tally>| -> u64 { p.iter().map(|t| t.cpu.get()).sum() };
        assert!(io(&p_auto) < io(&p_plain));
        assert!(cpu(&p_auto) > cpu(&p_plain));
    }

    #[test]
    fn stored_table_requires_matching_encodings() {
        let t = table();
        let result =
            std::panic::catch_unwind(|| StoredTable::columnar(t, target(), &[Encoding::Plain]));
        assert!(result.is_err());
    }

    #[test]
    fn unknown_projection_column_errors_before_charging() {
        let stored = Arc::new(StoredTable::columnar_plain(table(), target()));
        // The valid column comes first: its bytes must not be charged
        // on the way to the error.
        let mut scan = ColumnarScan::new(stored, vec![0, 99]);
        let mut ctx = ExecContext::calibrated();
        assert!(matches!(
            scan.next(&mut ctx),
            Err(QueryError::UnknownColumn(99))
        ));
        assert_eq!(ctx.total_io_bytes().get(), 0);
        assert_eq!(ctx.total_cpu().get(), 0);
    }

    #[test]
    fn plain_segments_share_the_table_columns() {
        let t = table();
        let encodings = [Encoding::Plain, Encoding::Dict, Encoding::Plain];
        for stored in [
            StoredTable::columnar_plain(t.clone(), target()),
            StoredTable::columnar(t.clone(), target(), &encodings),
        ] {
            for (i, seg) in stored.segments.iter().enumerate() {
                let shared = Arc::ptr_eq(&seg.decode().unwrap(), &t.columns[i]);
                assert_eq!(shared, seg.encoding() == Encoding::Plain, "column {i}");
                if shared {
                    assert_eq!(seg.compressed_bytes(), 8 * t.row_count() as u64);
                }
            }
        }
    }

    #[test]
    fn plain_scan_hands_out_the_stored_columns() {
        let t = table();
        let stored = Arc::new(StoredTable::columnar_plain(t.clone(), target()));
        let mut scan = ColumnarScan::new(stored, vec![2, 0]);
        let mut ctx = ExecContext::calibrated();
        scan.next(&mut ctx).unwrap().expect("first batch");
        let decoded = scan.decoded.as_ref().expect("decoded by next");
        assert!(Arc::ptr_eq(&decoded[0], &t.columns[2]));
        assert!(Arc::ptr_eq(&decoded[1], &t.columns[0]));
    }

    #[test]
    fn footprint_is_the_all_columns_scan() {
        let all = [0, 1, 2];
        for stored in [
            StoredTable::columnar_plain(table(), target()),
            StoredTable::columnar_auto(table(), target()),
        ] {
            assert_eq!(stored.footprint(), stored.scan_bytes(&all));
        }
    }
}
