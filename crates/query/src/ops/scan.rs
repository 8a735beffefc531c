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
//! It folds contiguous ranges of windows (one per core at four windows a
//! core or more, outside a sweep's point), each recording its windows'
//! survivor verdicts, and makes those charges from the records.

use crate::batch::{Batch, Table, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::expr::Expr;
use crate::ops::agg::{AggSpec, Groups, HashAggregate, Values};
use crate::ops::filter::Filter;
use crate::ops::group_table::GroupTable;
use crate::schema::Schema;
use crate::value::Datum;
use grail_par::Runner;
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
    /// The predicate a pushed-down scan tests on the encoded columns.
    test: Option<RangeTest>,
    /// Whether a pushed-down pull has opened the projected segments.
    opened: bool,
    /// A filtered scan's reader of each projected column.
    readers: Vec<SegmentReader>,
    /// The stored columns, when every projected segment is Plain: a
    /// filtered scan's survivors reach the batch as a selection over them.
    shared: Option<Vec<Arc<Vec<i64>>>>,
    /// A filtered scan's values of one column at the candidates, reused
    /// from window to window.
    vals: Vec<Datum>,
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
            test: None,
            opened: false,
            readers: Vec::new(),
            shared: None,
            vals: Vec::new(),
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
        scan.test = Some(RangeTest {
            ranges,
            terms: predicate.cost_terms(),
            #[cfg(test)]
            fault: None,
            #[cfg(test)]
            threads: None,
        });
        Some(scan)
    }

    /// The projected segments, or the first projected column the table
    /// lacks.
    fn segments(&self) -> Result<Vec<&ColumnSegment>, QueryError> {
        let segments = &self.stored.segments;
        (self.projection.iter())
            .map(|i| segments.get(*i).ok_or(QueryError::UnknownColumn(*i)))
            .collect()
    }

    /// The first pull's work, however the scan then decodes: check the
    /// projection (a plan error charges nothing), `open` its segments (all,
    /// or how many did before one failed, and its error), then charge one
    /// sequential read and each opened segment's cycles per stored row.
    fn open<T>(
        &self,
        ctx: &mut ExecContext,
        open: impl FnOnce(&[&ColumnSegment]) -> Result<T, (usize, QueryError)>,
    ) -> Result<T, QueryError> {
        let segments = self.segments()?;
        let opened = open(&segments);
        ctx.charge_read(
            self.stored.target,
            Bytes::new(self.stored.scan_bytes(&self.projection)),
            AccessPattern::Sequential,
        );
        let failed = opened.as_ref().err().map_or(segments.len(), |(k, _)| *k);
        for seg in &segments[..failed] {
            let decode_cost = ctx.charge.decode_cycles(seg.encoding());
            let scan_cost = ctx.charge.scan_cycles_per_value;
            ctx.charge_cpu((decode_cost + scan_cost) * seg.rows() as f64);
        }
        opened.map_err(|(_, e)| e)
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
            let decode = |segments: &[&ColumnSegment]| {
                (segments.iter().enumerate())
                    .map(|(k, seg)| seg.decode().map_err(|e| (k, e.into())))
                    .collect()
            };
            self.decoded = Some(self.open(ctx, decode)?);
        }
        let cols = self.decoded.clone().expect("decoded above");
        let Some(rows) = self.advance(cols.first().map_or(0, |c| c.len())) else {
            return Ok(None);
        };
        // Window over the decoded columns: no per-batch copying.
        let batch = Batch::from_shared(self.schema.clone(), cols, rows.start, rows.len());
        Ok(Some(batch))
    }

    /// A pushed-down scan's `"scan"` pull of a window, as a `Filter` pulls
    /// its scan, then the window's predicate charge; the first pull that
    /// succeeds runs `open`.
    fn next_window(
        &mut self,
        ctx: &mut ExecContext,
        open: impl FnOnce(&mut Self, &mut ExecContext) -> Result<(), QueryError>,
    ) -> Result<Option<Range<usize>>, QueryError> {
        let op = ctx.begin_op("scan");
        let opened = if self.opened { Ok(()) } else { open(self, ctx) };
        self.opened = opened.is_ok();
        let window = opened.map(|()| {
            let total = self.stored.segments[self.projection[0]].rows();
            self.advance(total as usize)
        });
        ctx.end_op(op);
        if let Ok(Some(rows)) = &window {
            let terms = self.test.as_ref().expect("a filtered scan").terms;
            ctx.charge_cpu(ctx.charge.expr_cycles_per_term * terms as f64 * rows.len() as f64);
        }
        window
    }

    /// A filtered scan's first pull: open its readers, and share the
    /// stored columns when every projected segment is Plain.
    fn open_readers(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        let test = self.test.as_ref().expect("a filtered scan");
        self.readers = self.open(ctx, |segments| test.readers(segments))?;
        let segments = self.segments()?;
        let plain = segments.iter().all(|s| s.encoding() == Encoding::Plain);
        let shared = plain.then(|| segments.iter().map(|s| s.decode()).collect());
        self.shared = shared.transpose()?;
        Ok(())
    }

    /// Pull windows as a `Filter` pulls its scan until one has survivors,
    /// returned as a batch of the projection; `None` at the end.
    fn next_filtered(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let mut sel = Vec::new();
        while let Some(rows) = self.next_window(ctx, Self::open_readers)? {
            let test = self.test.as_ref().expect("a filtered scan");
            test.select(&mut self.readers, rows, &mut sel, &mut self.vals)?;
            if !sel.is_empty() {
                return Ok(Some(self.survivors(sel)?));
            }
        }
        Ok(None)
    }

    /// The survivors `sel` of a filtered scan as a batch of the projection.
    fn survivors(&mut self, sel: Vec<u32>) -> Result<Batch, StorageError> {
        let schema = self.schema.clone();
        if let Some(cols) = &self.shared {
            return Ok(Batch::from_selection(schema, cols.clone(), sel));
        }
        let cols = (self.readers.iter_mut())
            .map(|reader| {
                let mut col = Vec::with_capacity(sel.len());
                reader.gather(&sel, &mut col).map(|()| col)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Batch::new(schema, cols))
    }

    /// Fold the survivors of every window left into `groups`, charged as
    /// a `HashAggregate` pulling a filtered scan is charged.
    ///
    /// The windows fold in the contiguous ranges [`Runner::split`] cuts at
    /// [`MIN_WINDOWS_PER_THREAD`] on [`Runner::current`] (one, on the
    /// caller, inside a sweep's point), each a [`Part`] that opens its own
    /// readers, folds its own groups and records how it went. The pulls'
    /// calls are then made on `ctx` from the records, up to the first
    /// failed open or window. The groups merge in range order and leave
    /// sorted by key, so the rows are the batch aggregate's, and so is
    /// every charge.
    pub(crate) fn fold(
        &mut self,
        ctx: &mut ExecContext,
        groups: &mut Groups,
    ) -> Result<(), QueryError> {
        let segments = self.segments();
        let total = segments.as_ref().map_or(0, |s| s[0].rows() as usize);
        let windows = total.saturating_sub(self.cursor).div_ceil(BATCH_ROWS);
        let test = self.test.as_ref().expect("a filtered scan");
        let (runner, min) = (Runner::current(), MIN_WINDOWS_PER_THREAD);
        #[cfg(test)]
        let (runner, min) = (test.threads).map_or((runner, min), |n| (Runner::with_threads(n), 1));
        let mut parts: Vec<Part> = (runner.split(windows, min).into_iter())
            .map(|windows| Part {
                windows,
                groups: groups.empty_like(),
                survived: Vec::new(),
                opened: Ok(()),
                failed: None,
            })
            .collect();
        // No window left: only a scan not yet opened needs a range's open.
        if let (Ok(segments), true) = (&segments, windows > 0 || !self.opened) {
            let rows = self.cursor..total;
            runner.for_each_mut(&mut parts, |_, part| {
                part.failed = part.fold(segments, test, rows.clone()).err();
            });
        }
        // The pulls a `HashAggregate` makes of the scan, from the records.
        let mut verdicts = parts.iter().flat_map(|part| {
            let survived = part.survived.iter().map(|s| Ok(*s));
            survived.chain(part.failed.clone().map(Err))
        });
        let open = |scan: &mut Self, ctx: &mut _| scan.open(ctx, |_| parts[0].opened.clone());
        let mut op = ctx.begin_op("filter");
        let pulled = (|| -> Result<(), QueryError> {
            while self.next_window(ctx, open)?.is_some() {
                if verdicts.next().expect("a verdict per window")? {
                    ctx.end_op(op);
                    op = ctx.begin_op("filter");
                }
            }
            Ok(())
        })();
        ctx.end_op(op);
        pulled?;
        parts.iter().try_for_each(|part| groups.merge(&part.groups))
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

/// Fewest windows per range for which an aggregated scan folds on more
/// than one thread rather than in one range on the caller. Measured on
/// a 2-vCPU VM, Q1 plus Q6 at 2–12 LINEITEM windows, folded inline and
/// split alternately: a second thread costs Q6 (~20 µs a window) 25–100
/// µs, so the pair breaks even at 4–6 windows and gains from 8.
const MIN_WINDOWS_PER_THREAD: usize = 4;

/// A conjunction of per-column ranges, tested on the encoded columns.
struct RangeTest {
    /// `(projected column, lo, hi)`, from [`Expr::column_ranges`].
    ranges: Vec<(usize, i64, i64)>,
    /// The predicate's [`Expr::cost_terms`].
    terms: u64,
    /// A reader open or a window's selection that fails as a corrupt
    /// segment's would.
    #[cfg(test)]
    fault: Option<tests::Fault>,
    /// The threads an aggregate folds on, at one window a range or more
    /// (`None`: [`Runner::current`]'s, at [`MIN_WINDOWS_PER_THREAD`]).
    #[cfg(test)]
    threads: Option<usize>,
}

impl RangeTest {
    /// A reader of each of `segments`, the projected columns, in order:
    /// all of them, or how many opened before one failed, and its error.
    fn readers(
        &self,
        segments: &[&ColumnSegment],
    ) -> Result<Vec<SegmentReader>, (usize, QueryError)> {
        (segments.iter().enumerate())
            .map(|(k, seg)| {
                #[cfg(test)]
                if self.fault == Some(tests::Fault::Open(k)) {
                    return Err((k, StorageError::CorruptSegment("injected fault").into()));
                }
                seg.reader().map_err(|e| (k, e.into()))
            })
            .collect()
    }

    /// Replace `sel` with the rows of window `rows` inside every range,
    /// read through `readers`, one per projected column; `vals` is
    /// scratch for one column's values at the candidates.
    fn select(
        &self,
        readers: &mut [SegmentReader],
        rows: Range<usize>,
        sel: &mut Vec<u32>,
        vals: &mut Vec<Datum>,
    ) -> Result<(), StorageError> {
        #[cfg(test)]
        if matches!(self.fault, Some(tests::Fault::Select(row)) if rows.contains(&row)) {
            return Err(StorageError::CorruptSegment("injected fault"));
        }
        sel.clear();
        let (&(first, lo, hi), rest) = self.ranges.split_first().expect("at least one range");
        readers[first].select_range(rows, lo, hi, sel)?;
        for &(col, lo, hi) in rest {
            if sel.is_empty() {
                break;
            }
            vals.clear();
            readers[col].gather(sel, vals)?;
            let mut kept = 0;
            for (j, v) in vals.iter().enumerate() {
                sel[kept] = sel[j];
                kept += (lo <= *v && *v <= hi) as usize;
            }
            sel.truncate(kept);
        }
        Ok(())
    }
}

/// One contiguous range of an aggregated scan's windows, folded on a
/// runner thread, and its record: what the charges of its pulls need.
struct Part {
    /// Its windows, counted from the first window left to the scan.
    windows: Range<usize>,
    /// The groups its survivors fold into.
    groups: Groups,
    /// Per window, in order, whether any row survived.
    survived: Vec<bool>,
    /// How its readers opened: all of them, or how many before the
    /// projected column that failed, and its error.
    opened: Result<(), (usize, QueryError)>,
    /// The error that ended the range early (an open's or a window's).
    failed: Option<QueryError>,
}

impl Part {
    /// Open readers of `segments`, the projected columns, then select and
    /// fold this range's windows of `rows`, window `w` starting at row
    /// `rows.start + w * BATCH_ROWS`, up to the first error: group ids
    /// from the key columns' codes, each aggregate from its column's codes.
    fn fold(
        &mut self,
        segments: &[&ColumnSegment],
        test: &RangeTest,
        rows: Range<usize>,
    ) -> Result<(), QueryError> {
        let mut readers = test.readers(segments).map_err(|(k, e)| {
            self.opened = Err((k, e.clone()));
            e
        })?;
        let (mut sel, mut gids, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for w in self.windows.clone() {
            let start = rows.start + w * BATCH_ROWS;
            let window = start..(start + BATCH_ROWS).min(rows.end);
            test.select(&mut readers, window, &mut sel, &mut vals)?;
            if !sel.is_empty() {
                let groups = &mut self.groups;
                ColumnarScan::group_ids(
                    &readers,
                    &sel,
                    &mut groups.table,
                    &groups.keys,
                    &mut gids,
                )?;
                groups.fold(&gids, |c| (&readers[c], sel.as_slice()))?;
            }
            self.survived.push(!sel.is_empty());
        }
        Ok(())
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
        let filtered = self.test.is_some();
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
    use crate::exec::{run_collect, OpTally, Tally};
    use crate::ops::agg::AggFunc;
    use crate::schema::ColumnType;
    use grail_power::units::Cycles;
    use grail_sim::DiskId;

    /// Where [`RangeTest::fault`] fails, as a corrupt segment would.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) enum Fault {
        /// The open of this projected column's reader.
        Open(usize),
        /// The selection of the window holding this row.
        Select(usize),
    }

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

    /// Everything a caller or the simulator sees of an aggregate driven
    /// to its end, or to its first error and one pull past it.
    #[derive(Debug, PartialEq)]
    struct Seen {
        rows: Vec<Vec<i64>>,
        error: Option<QueryError>,
        /// The pull past the error: whether it returned rows, or its error.
        past: Option<Result<bool, QueryError>>,
        tallies: Vec<OpTally>,
        total_cpu: Cycles,
        total_io: Bytes,
        phases: Vec<Tally>,
    }

    fn drive(mut agg: HashAggregate) -> Seen {
        let mut ctx = ExecContext::calibrated();
        let mut rows = Vec::new();
        let mut pull = |rows: &mut Vec<Vec<i64>>| {
            let batch = agg.next(&mut ctx)?;
            rows.extend(batch.iter().flat_map(|b| (0..b.len()).map(|r| b.row(r))));
            Ok(batch.is_some())
        };
        let error = loop {
            match pull(&mut rows) {
                Ok(true) => {}
                Ok(false) => break None,
                Err(e) => break Some(e),
            }
        };
        let past = error.is_some().then(|| pull(&mut rows));
        Seen {
            rows,
            error,
            past,
            tallies: ctx.op_tallies().to_vec(),
            total_cpu: ctx.total_cpu(),
            total_io: ctx.total_io_bytes(),
            phases: ctx.finish(),
        }
    }

    /// The aggregated scan folded in one range on the caller or in 2–8 on
    /// the runner against a `HashAggregate` over the same filtered scan's
    /// batches: every row, the error, every `OpTally`, both totals and
    /// every phase. One to eight threads at a window a range, or the
    /// current runner's rule; zero to eight windows, the last one full or
    /// partial; each window keeps all, none
    /// or some of its rows (so the first and the last may keep none);
    /// Plain, RLE, Dict, BitPack and Delta segments; keys that pack, that
    /// hash, or none; every `AggFunc` over values that wrap a sum; a
    /// storage error injected into one window's selection or into the
    /// open of one projected column's reader, then one pull past it; and
    /// bad projection and group columns.
    #[test]
    fn split_fold_matches_the_batch_aggregate() {
        const FUNCS: [AggFunc; 5] = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ];
        let (mut split, mut single, mut faulted, mut failed) = (0, 0, 0, 0);
        let (mut opens, mut bare_opens, mut resumed, mut refailed) = (0, 0, 0, 0);
        let (mut first_empty, mut last_empty, mut partial, mut hashed) = (0, 0, 0, 0);
        grail_prop::check(320, |g| {
            let threads = match g.range(0..8) {
                0 => None,
                1 => Some(1),
                _ => Some(g.range(2..9)),
            };
            let last = match g.one_in(4) {
                true => BATCH_ROWS,
                false => g.range(1..BATCH_ROWS),
            };
            let keys = g.range(1..20);
            let wide: Vec<i64> = (0..g.range(1..6)).map(|_| g.word() as i64).collect();
            let big = g.bool();
            // Per window: 0 keeps nothing, 1 everything, 2 some rows.
            let kinds = g.vec(0..9, |g| g.pick(&[0, 1, 2, 2]));
            let rows =
                kinds.len().saturating_sub(1) * BATCH_ROWS + last * !kinds.is_empty() as usize;
            let mut cols: [Vec<i64>; 5] = Default::default();
            for r in 0..rows {
                let kind = kinds[r / BATCH_ROWS];
                let tag = match kind {
                    2 if r % 7 == 0 || cols[0].is_empty() => g.range(0..3),
                    2 => *cols[0].last().expect("a row"),
                    _ => kind,
                };
                cols[0].push(tag);
                cols[1].push(g.range(0..keys));
                cols[2].push(g.pick(&wide));
                cols[3].push(match big {
                    true => i64::MAX - g.range(0..1_000),
                    false => g.range(-50..50),
                });
                cols[4].push(g.range(0..100));
            }
            let schema = Schema::new((0..5).map(|_| ("c", ColumnType::Int)).collect());
            let table = Arc::new(Table::new("t", schema, cols.to_vec()));
            let encodings: Vec<Encoding> = (0..5)
                .map(|_| {
                    g.pick(&[
                        Encoding::Plain,
                        Encoding::Rle,
                        Encoding::Dict,
                        Encoding::BitPack,
                        Encoding::Delta,
                    ])
                })
                .collect();
            let stored = Arc::new(StoredTable::columnar(table, target(), &encodings));
            let mut projection: Vec<usize> = (0..5).collect();
            if g.one_in(16) {
                projection.push(7);
            }
            let tag = Expr::eq(Expr::Col(0), Expr::Lit(1));
            let (lo, hi) = (g.range(-5..60), g.range(40..105));
            let band = Expr::and(
                Expr::le(Expr::Lit(lo), Expr::Col(4)),
                Expr::le(Expr::Col(4), Expr::Lit(hi)),
            );
            let predicate = match g.range(0..3) {
                0 => tag,
                1 => Expr::and(tag, band),
                _ => Expr::and(band, tag),
            };
            let mut group_by = g
                .pick(&[&[][..], &[1], &[2], &[0], &[1, 2], &[2, 1], &[1, 0]])
                .to_vec();
            if g.one_in(32) {
                group_by.push(9);
            }
            let aggs: Vec<AggSpec> = (0..g.range(0..5))
                .map(|_| AggSpec::new(g.pick(&FUNCS), g.range(1..5), "a"))
                .collect();
            let fault = match (rows > 0 && g.one_in(4)).then(|| g.range(0..rows)) {
                Some(row) => Some(Fault::Select(row)),
                None => g
                    .one_in(3)
                    .then(|| Fault::Open(g.range(0..projection.len()))),
            };
            let scan = || {
                let mut scan = ColumnarScan::pushed(&stored, &projection, &predicate)
                    .expect("per-column ranges over the projection");
                let test = scan.test.as_mut().expect("pushed");
                (test.fault, test.threads) = (fault, threads);
                scan
            };
            // What `filtered` returns for this predicate, with the fault set.
            let want = drive(HashAggregate::new(
                Box::new(scan()),
                group_by.clone(),
                aggs.clone(),
            ));
            let got = drive(HashAggregate::over_scan(
                scan(),
                group_by.clone(),
                aggs.clone(),
            ));
            assert_eq!(
                got, want,
                "{threads:?} threads, windows {kinds:?} (last {last} rows), {encodings:?}, \
                 fault {fault:?}, by {group_by:?} {aggs:?}"
            );
            split += threads.is_some_and(|n| n.min(kinds.len()) > 1) as u32;
            single += (threads == Some(1) && kinds.len() > 1) as u32;
            faulted += matches!(fault, Some(Fault::Select(_))) as u32;
            opens += matches!(fault, Some(Fault::Open(_))) as u32;
            bare_opens += (kinds.is_empty() && matches!(fault, Some(Fault::Open(_)))) as u32;
            failed += want.error.is_some() as u32;
            resumed += matches!(want.past, Some(Ok(true))) as u32;
            refailed += matches!(want.past, Some(Err(_))) as u32;
            first_empty += (kinds.len() > 1 && kinds[0] == 0) as u32;
            last_empty += (kinds.len() > 1 && kinds.last() == Some(&0)) as u32;
            partial += (kinds.len() > 1 && last < BATCH_ROWS) as u32;
            hashed +=
                (group_by.contains(&2) && want.error.is_none() && !want.rows.is_empty()) as u32;
        });
        assert!(
            split > 150 && faulted > 40 && failed > 50 && first_empty > 25 && last_empty > 25,
            "coverage: {split} split, {faulted} faulted, {failed} failed, \
             {first_empty} with the first window empty, {last_empty} with the last"
        );
        assert!(
            single > 20 && partial > 100 && hashed > 40,
            "coverage: {single} in one range on the caller, {partial} with a partial last \
             window, {hashed} hashed keys"
        );
        assert!(
            opens > 40 && bare_opens > 5 && resumed > 40 && refailed > 50,
            "coverage: {opens} with a failed open ({bare_opens} with no window), {resumed} \
             returning rows on the pull past their error, {refailed} failing it again"
        );
    }
}
