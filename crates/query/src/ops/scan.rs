//! Table scans over stored (physically encoded) tables.
//!
//! [`StoredTable`] binds an in-memory logical table to a physical
//! incarnation: per-column encodings (real
//! [`grail_storage::column::ColumnSegment`]s, so compressed sizes are
//! measured, not assumed) and a storage target. [`ColumnarScan`] reads
//! only projected columns and is charged decode CPU per value and
//! encoding — Fig. 2's two bars are this scan over a plain and a
//! compressed store.
//!
//! Built by [`ColumnarScan::filtered`] with a predicate of per-column
//! ranges, the scan tests the ranges on the encoded columns window by
//! window and decodes only the surviving rows of its projection. That
//! saves host time only: it charges exactly what a [`Filter`] over a
//! fully decoding scan charges, call for call. [`ColumnarScan::aggregated`]
//! goes one step further for a [`HashAggregate`] over such a scan: it
//! folds each window's survivors from their stored codes and decodes
//! nothing but a new group's key, charging what the two operators charge.

use crate::batch::{Batch, Table, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::expr::Expr;
use crate::ops::agg::{AggSpec, Groups, HashAggregate, Values};
use crate::ops::filter::Filter;
use crate::ops::group_table::GroupTable;
use crate::schema::Schema;
use crate::value::Datum;
use grail_power::units::Bytes;
use grail_sim::perf::AccessPattern;
use grail_sim::StorageTarget;
use grail_storage::column::{Codebook, ColumnSegment, SegmentReader};
use grail_storage::compress::{self, Encoding};
use grail_storage::error::StorageError;
use std::ops::Range;
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

/// A column scan: reads projected segments and streams them in
/// `BATCH_ROWS` windows, charged one sequential read plus decode and scan
/// cycles per stored value. Built by [`Self::new`] it decodes each
/// segment whole (a Plain segment decodes to the stored column itself);
/// built by [`Self::filtered`] it decodes only the rows that survive.
pub struct ColumnarScan {
    stored: Arc<StoredTable>,
    projection: Vec<usize>,
    schema: Arc<Schema>,
    decoded: Option<Vec<Arc<Vec<i64>>>>,
    cursor: usize,
    pushed: Option<Pushdown>,
}

/// A predicate the scan tests on the encoded columns.
struct Pushdown {
    /// `(projected column, lo, hi)`, from [`Expr::column_ranges`].
    ranges: Vec<(usize, i64, i64)>,
    /// The predicate's [`Expr::cost_terms`].
    terms: u64,
    /// One reader per projected column, opened by the first pull.
    readers: Vec<SegmentReader>,
    /// The stored columns, when every projected segment is Plain: the
    /// survivors then reach the batch as a selection over them.
    shared: Option<Vec<Arc<Vec<i64>>>>,
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
            pushed: None,
        }
    }

    /// The rows of a scan of `projection` that satisfy `predicate`
    /// (whose columns index the projection).
    ///
    /// When the predicate is per-column ranges ([`Expr::column_ranges`]),
    /// this is one `ColumnarScan` that, window by window, selects on the
    /// encoded column of the first range, narrows the candidates column
    /// by column, and decodes only the survivors of the projection. It
    /// makes the calls a [`Filter`] over a [`Self::new`] scan makes —
    /// `begin_op("filter")`, then `begin_op("scan")` per window pulled,
    /// the same read, per-column and per-window cycles, one batch per
    /// non-empty window — so every tally and row is theirs. Any other
    /// predicate gets that `Filter`.
    pub fn filtered(
        stored: Arc<StoredTable>,
        projection: Vec<usize>,
        predicate: Expr,
    ) -> Box<dyn Operator> {
        match ColumnarScan::pushed(&stored, &projection, &predicate) {
            Some(scan) => Box::new(scan),
            None => Box::new(Filter::new(
                Box::new(ColumnarScan::new(stored, projection)),
                predicate,
            )),
        }
    }

    /// A [`HashAggregate`] of the rows [`Self::filtered`] returns.
    ///
    /// When that scan tests the predicate on the encoded columns, the
    /// aggregate reads it without a batch: it selects each window's
    /// survivors as the scan does and folds them straight from the segment
    /// readers, group ids from the key columns' codes and aggregates from
    /// each value where it is stored. It makes the calls the
    /// `HashAggregate` over the scan makes, in order, so every tally,
    /// phase and row is theirs. Any other predicate gets that
    /// `HashAggregate`.
    pub fn aggregated(
        stored: Arc<StoredTable>,
        projection: Vec<usize>,
        predicate: Expr,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
    ) -> Box<dyn Operator> {
        match ColumnarScan::pushed(&stored, &projection, &predicate) {
            Some(scan) => Box::new(HashAggregate::over_scan(scan, group_by, aggs)),
            None => {
                let input = ColumnarScan::filtered(stored, projection, predicate);
                Box::new(HashAggregate::new(input, group_by, aggs))
            }
        }
    }

    /// The scan that tests `predicate` on the encoded columns, when it is
    /// per-column ranges over the projection.
    fn pushed(
        stored: &Arc<StoredTable>,
        projection: &[usize],
        predicate: &Expr,
    ) -> Option<ColumnarScan> {
        let ranges = predicate.column_ranges()?;
        if ranges.iter().any(|r| r.0 >= projection.len()) {
            return None;
        }
        let mut scan = ColumnarScan::new(stored.clone(), projection.to_vec());
        scan.pushed = Some(Pushdown {
            ranges,
            terms: predicate.cost_terms(),
            readers: Vec::new(),
            shared: None,
        });
        Some(scan)
    }

    /// The first pull's work, however the scan then decodes: check the
    /// projection (a plan error charges nothing), charge one sequential
    /// read of the projected segments, then `open` each segment in turn
    /// and charge its decode and scan cycles per stored row.
    fn open<T>(
        &self,
        ctx: &mut ExecContext,
        open: impl Fn(&ColumnSegment) -> Result<T, StorageError>,
    ) -> Result<Vec<T>, QueryError> {
        let segments = &self.stored.segments;
        if let Some(bad) = self.projection.iter().find(|i| **i >= segments.len()) {
            return Err(QueryError::UnknownColumn(*bad));
        }
        ctx.charge_read(
            self.stored.target,
            Bytes::new(self.stored.scan_bytes(&self.projection)),
            AccessPattern::Sequential,
        );
        let mut opened = Vec::with_capacity(self.projection.len());
        for seg in self.projection.iter().map(|i| &segments[*i]) {
            let decode_cost = ctx.charge.decode_cycles(seg.encoding());
            let scan_cost = ctx.charge.scan_cycles_per_value;
            opened.push(open(seg)?);
            ctx.charge_cpu((decode_cost + scan_cost) * seg.rows() as f64);
        }
        Ok(opened)
    }

    /// The next `BATCH_ROWS` window of `total` rows.
    fn advance(&mut self, total: usize) -> Option<Range<usize>> {
        if self.cursor >= total {
            return None;
        }
        let start = self.cursor;
        self.cursor = (start + BATCH_ROWS).min(total);
        Some(start..self.cursor)
    }

    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        if self.decoded.is_none() {
            self.decoded = Some(self.open(ctx, ColumnSegment::decode)?);
        }
        let cols = self.decoded.clone().expect("decoded above");
        let Some(rows) = self.advance(cols.first().map_or(0, |c| c.len())) else {
            return Ok(None);
        };
        // Window over the decoded columns: no per-batch copying.
        let batch = Batch::from_shared(self.schema.clone(), cols, rows.start, rows.len());
        Ok(Some(batch))
    }

    /// A pushed-down scan's pull, bracketed as a `Filter`'s pull of its
    /// scan: the same `"scan"` pull per window, the same charges.
    fn next_window(&mut self, ctx: &mut ExecContext) -> Result<Option<Range<usize>>, QueryError> {
        let pushed = self.pushed.as_ref().expect("a filtered scan");
        if pushed.readers.is_empty() {
            let readers = self.open(ctx, ColumnSegment::reader)?;
            let segments = || self.projection.iter().map(|i| &self.stored.segments[*i]);
            let shared = match segments().all(|s| s.encoding() == Encoding::Plain) {
                true => Some(
                    segments()
                        .map(ColumnSegment::decode)
                        .collect::<Result<_, _>>()?,
                ),
                false => None,
            };
            let pushed = self.pushed.as_mut().expect("a filtered scan");
            (pushed.readers, pushed.shared) = (readers, shared);
        }
        let total = self.stored.segments[self.projection[0]].rows() as usize;
        Ok(self.advance(total))
    }

    /// Fill `sel` with the survivors of the next window that has any,
    /// pulling windows as a `Filter` pulls its scan; `false` at the end.
    fn next_survivors(
        &mut self,
        ctx: &mut ExecContext,
        sel: &mut Vec<u32>,
    ) -> Result<bool, QueryError> {
        loop {
            let op = ctx.begin_op("scan");
            let window = self.next_window(ctx);
            ctx.end_op(op);
            let Some(rows) = window? else {
                return Ok(false);
            };
            let pushed = self.pushed.as_mut().expect("a filtered scan");
            ctx.charge_cpu(
                ctx.charge.expr_cycles_per_term * pushed.terms as f64 * rows.len() as f64,
            );
            pushed.select(rows, sel)?;
            if !sel.is_empty() {
                return Ok(true);
            }
        }
    }

    fn next_filtered(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let mut sel = Vec::new();
        if !self.next_survivors(ctx, &mut sel)? {
            return Ok(None);
        }
        let pushed = self.pushed.as_mut().expect("a filtered scan");
        Ok(Some(pushed.survivors(&self.schema, sel)?))
    }

    /// Fold the survivors of the next window that has any into `groups`,
    /// pulled as a `HashAggregate` pulls a filtered scan; `false` at the
    /// end. `gids` is scratch.
    pub(crate) fn fold_window(
        &mut self,
        ctx: &mut ExecContext,
        groups: &mut Groups,
        gids: &mut Vec<u32>,
    ) -> Result<bool, QueryError> {
        let mut sel = Vec::new();
        let op = ctx.begin_op("filter");
        let found = self.next_survivors(ctx, &mut sel);
        ctx.end_op(op);
        if !found? {
            return Ok(false);
        }
        let readers = &self.pushed.as_ref().expect("a filtered scan").readers;
        let keys = &groups.keys;
        ColumnarScan::group_ids(readers, &sel, &mut groups.table, keys, gids)?;
        groups.fold(gids, |c| (&readers[c], sel.as_slice()))?;
        Ok(true)
    }

    /// Fill `gids` with the groups of the survivors `sel`: their key codes
    /// packed into the direct map when they fit, else their decoded keys
    /// hashed.
    fn group_ids(
        readers: &[SegmentReader],
        sel: &[u32],
        table: &mut GroupTable,
        keys: &[usize],
        gids: &mut Vec<u32>,
    ) -> Result<(), QueryError> {
        // Bits per key code: a dictionary index is below the entry count,
        // a residual as wide as its frame; a value is sized by ORing the
        // codes as they are packed, and packed again if it outgrew the
        // layout.
        let books: Vec<Codebook<'_>> = keys.iter().map(|k| readers[*k].codebook()).collect();
        let mut needed: Vec<u32> = (books.iter())
            .map(|book| match book {
                Codebook::Entries(e) => usize::BITS - e.len().saturating_sub(1).leading_zeros(),
                Codebook::Frame { bits, .. } => *bits,
                Codebook::Values => 0,
            })
            .collect();
        while table.fit_direct(&needed) {
            gids.clear();
            gids.resize(sel.len(), 0);
            let ids = &mut gids[..sel.len()];
            let (mut shift, mut fits) = (0, true);
            for ((k, bits), need) in keys.iter().zip(table.direct_bits()).zip(&mut needed) {
                let mut any = 0;
                readers[*k].codes(sel, |at, codes| {
                    for (id, c) in ids[at..at + codes.len()].iter_mut().zip(codes) {
                        any |= *c as u64;
                        *id |= (*c as u32) << shift;
                    }
                })?;
                *need = (*need).max(64 - any.leading_zeros());
                fits &= *need <= *bits;
                shift += bits;
            }
            if fits {
                table.resolve(gids, |k, code| books[k].value(code as i64));
                return Ok(());
            }
        }
        let mut cols: Vec<Vec<Datum>> = vec![Vec::with_capacity(sel.len()); keys.len()];
        for ((col, k), book) in cols.iter_mut().zip(keys).zip(&books) {
            readers[*k].codes(sel, |_, codes| {
                col.extend(codes.iter().map(|c| book.value(*c)))
            })?;
        }
        let cols: Vec<&[Datum]> = cols.iter().map(Vec::as_slice).collect();
        gids.clear();
        table.intern_hashed(&cols, sel.len(), gids);
        Ok(())
    }
}

impl Pushdown {
    /// Replace `sel` with the rows of window `rows` inside every range.
    fn select(&mut self, rows: Range<usize>, sel: &mut Vec<u32>) -> Result<(), StorageError> {
        sel.clear();
        let mut vals = Vec::new();
        let (&(first, lo, hi), rest) = self.ranges.split_first().expect("at least one range");
        self.readers[first].select_range(rows, lo, hi, sel)?;
        for &(col, lo, hi) in rest {
            if sel.is_empty() {
                break;
            }
            vals.clear();
            self.readers[col].gather(sel, &mut vals)?;
            let mut kept = 0;
            for (j, v) in vals.iter().enumerate() {
                sel[kept] = sel[j];
                kept += (lo <= *v && *v <= hi) as usize;
            }
            sel.truncate(kept);
        }
        Ok(())
    }

    /// The survivors `sel` as a batch of the projection.
    fn survivors(&mut self, schema: &Arc<Schema>, sel: Vec<u32>) -> Result<Batch, StorageError> {
        if let Some(cols) = &self.shared {
            return Ok(Batch::from_selection(schema.clone(), cols.clone(), sel));
        }
        let cols = self
            .readers
            .iter_mut()
            .map(|reader| {
                let mut col = Vec::with_capacity(sel.len());
                reader.gather(&sel, &mut col).map(|()| col)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Batch::new(schema.clone(), cols))
    }
}

/// A reader's column at the survivors `sel`, handed over as stored codes.
impl Values for (&SegmentReader, &[u32]) {
    fn each(self, mut sink: impl FnMut(usize, &[i64], Codebook<'_>)) -> Result<(), QueryError> {
        let (reader, sel) = self;
        let book = reader.codebook();
        Ok(reader.codes(sel, |at, codes| sink(at, codes, book))?)
    }
}

impl Operator for ColumnarScan {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let filtered = self.pushed.is_some();
        let op = ctx.begin_op(if filtered { "filter" } else { "scan" });
        let out = if filtered {
            self.next_filtered(ctx)
        } else {
            self.next_inner(ctx)
        };
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
    fn filtered_plain_scan_selects_over_the_stored_columns() {
        let t = table();
        let stored = Arc::new(StoredTable::columnar_plain(t.clone(), target()));
        let flag_one = Expr::eq(Expr::Col(0), Expr::Lit(1));
        let mut scan = ColumnarScan::filtered(stored, vec![1, 2], flag_one);
        let mut ctx = ExecContext::calibrated();
        let batch = scan.next(&mut ctx).unwrap().expect("a first window");
        let sel = batch.selection().expect("survivors travel as a selection");
        assert_eq!(sel.len(), (0..BATCH_ROWS).filter(|r| r % 3 == 1).count());
        assert!(sel.iter().all(|r| r % 3 == 1));
        assert_eq!(
            batch.gather(1),
            sel.iter()
                .map(|r| t.columns[2][*r as usize])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn filtered_compressed_scan_returns_the_plain_rows() {
        let pred = || {
            Expr::and(
                Expr::lt(Expr::Lit(2_000), Expr::Col(2)),
                Expr::and(
                    Expr::eq(Expr::Col(1), Expr::Lit(2)),
                    Expr::le(Expr::Col(2), Expr::Lit(9_000)),
                ),
            )
        };
        let run = |stored: StoredTable| {
            let mut scan = ColumnarScan::filtered(Arc::new(stored), vec![0, 1, 2], pred());
            let mut ctx = ExecContext::calibrated();
            let rows = run_collect(scan.as_mut(), &mut ctx).unwrap();
            (rows, ctx.finish())
        };
        let (plain, plain_phases) = run(StoredTable::columnar_plain(table(), target()));
        for enc in Encoding::ALL {
            let (rows, phases) = run(StoredTable::columnar(table(), target(), &[enc; 3]));
            assert_eq!(rows, plain, "{}", enc.name());
            assert_eq!(phases.len(), plain_phases.len());
        }
        let kept: usize = plain.iter().map(|b| b.len()).sum();
        assert!(kept > 100 && kept < 3_000, "{kept}");
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
