//! Index access paths: B+tree range scans and index nested-loop join.
//!
//! The access paths OLTP lives on (Sec. 5.3's SSD-for-transactions
//! claim) and the third join strategy an energy-aware optimizer weighs:
//! an index descent costs a handful of *random* page touches — nearly
//! free on flash, a seek per level on disk — instead of streaming the
//! whole inner table.

use crate::batch::{Batch, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::ops::scan::StoredTable;
use crate::schema::Schema;
use crate::value::Datum;
use grail_power::units::Bytes;
use grail_sim::perf::AccessPattern;
use grail_storage::btree::BTreeIndex;
use grail_storage::page::PAGE_SIZE;
use std::sync::Arc;

/// A stored table plus a B+tree over one of its columns.
#[derive(Debug, Clone)]
pub struct IndexedTable {
    /// The underlying stored table.
    pub stored: Arc<StoredTable>,
    /// The indexed column.
    pub key_col: usize,
    index: BTreeIndex,
    /// Sorted-position → row-position permutation.
    perm: Vec<u32>,
}

impl IndexedTable {
    /// Build a secondary index over `key_col` of `stored`.
    ///
    /// # Panics
    /// Panics if the column is out of range.
    pub fn build(stored: Arc<StoredTable>, key_col: usize) -> Self {
        let col = stored
            .table
            .columns
            .get(key_col)
            .expect("key column exists");
        let mut pairs: Vec<(i64, u32)> = col
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        pairs.sort_unstable();
        let keys: Vec<i64> = pairs.iter().map(|(k, _)| *k).collect();
        let perm: Vec<u32> = pairs.iter().map(|(_, r)| *r).collect();
        IndexedTable {
            stored,
            key_col,
            index: BTreeIndex::build(keys),
            perm,
        }
    }

    /// The index itself (page accounting).
    pub fn index(&self) -> &BTreeIndex {
        &self.index
    }

    /// Row positions whose key equals `key`.
    pub fn lookup_rows(&self, key: i64) -> Vec<usize> {
        let (s, e) = self.index.range(key, key);
        self.perm[s..e].iter().map(|r| *r as usize).collect()
    }

    /// Row positions whose key falls in `[lo, hi]`.
    pub fn range_rows(&self, lo: i64, hi: i64) -> Vec<usize> {
        let (s, e) = self.index.range(lo, hi);
        self.perm[s..e].iter().map(|r| *r as usize).collect()
    }

    fn materialize(&self, rows: &[usize], projection: &[usize]) -> Vec<Vec<Datum>> {
        rows.iter()
            .map(|r| {
                projection
                    .iter()
                    .map(|c| self.stored.table.columns[*c][*r])
                    .collect()
            })
            .collect()
    }
}

/// B+tree range scan: `key ∈ [lo, hi]`, projected.
///
/// IO charge: one descent plus the leaf pages walked, plus one data
/// page per qualifying row (an unclustered secondary index — the
/// pessimistic, honest assumption).
pub struct IndexRangeScan {
    table: Arc<IndexedTable>,
    lo: i64,
    hi: i64,
    projection: Vec<usize>,
    schema: Arc<Schema>,
    rows: Option<Vec<Vec<Datum>>>,
    cursor: usize,
}

impl IndexRangeScan {
    /// Scan `projection` of rows with `lo ≤ key ≤ hi`.
    pub fn new(table: Arc<IndexedTable>, lo: i64, hi: i64, projection: Vec<usize>) -> Self {
        let schema = table.stored.table.schema.project(&projection);
        IndexRangeScan {
            table,
            lo,
            hi,
            projection,
            schema,
            rows: None,
            cursor: 0,
        }
    }

    fn ensure(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.rows.is_some() {
            return Ok(());
        }
        for c in &self.projection {
            if *c >= self.table.stored.table.schema.arity() {
                return Err(QueryError::UnknownColumn(*c));
            }
        }
        let positions = self.table.range_rows(self.lo, self.hi);
        let index_pages = self.table.index.range_pages(positions.len());
        let data_pages = positions.len() as u32;
        let pages = index_pages + data_pages;
        if pages > 0 {
            ctx.charge_read(
                self.table.stored.target,
                Bytes::new(pages as u64 * PAGE_SIZE as u64),
                AccessPattern::Random { ios: pages },
            );
        }
        ctx.charge_cpu(
            ctx.charge.scan_cycles_per_value * (positions.len() * self.projection.len()) as f64,
        );
        self.rows = Some(self.table.materialize(&positions, &self.projection));
        Ok(())
    }
}

impl IndexRangeScan {
    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure(ctx)?;
        let rows = self.rows.as_ref().expect("ensured");
        if self.cursor >= rows.len() {
            return Ok(None);
        }
        let end = (self.cursor + BATCH_ROWS).min(rows.len());
        let batch = Batch::from_rows(self.schema.clone(), &rows[self.cursor..end]);
        self.cursor = end;
        Ok(Some(batch))
    }
}

impl Operator for IndexRangeScan {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("index_scan");
        let out = self.next_inner(ctx);
        ctx.end_op(op);
        out
    }
}

/// Index nested-loop join: for each outer row, descend the inner index.
///
/// Output schema is outer columns followed by the inner projection.
pub struct IndexNlJoin {
    outer: Box<dyn Operator>,
    inner: Arc<IndexedTable>,
    outer_key: usize,
    inner_projection: Vec<usize>,
    schema: Arc<Schema>,
    pending: Vec<Vec<Datum>>,
}

impl IndexNlJoin {
    /// Join `outer.outer_key = inner.key_col`, appending
    /// `inner_projection` columns.
    pub fn new(
        outer: Box<dyn Operator>,
        inner: Arc<IndexedTable>,
        outer_key: usize,
        inner_projection: Vec<usize>,
    ) -> Self {
        let inner_schema = inner.stored.table.schema.project(&inner_projection);
        let schema = outer.schema().join(&inner_schema);
        IndexNlJoin {
            outer,
            inner,
            outer_key,
            inner_projection,
            schema,
            pending: Vec::new(),
        }
    }
}

impl IndexNlJoin {
    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        loop {
            if !self.pending.is_empty() {
                let take = self.pending.len().min(BATCH_ROWS);
                let rows: Vec<Vec<Datum>> = self.pending.drain(..take).collect();
                return Ok(Some(Batch::from_rows(self.schema.clone(), &rows)));
            }
            let Some(batch) = self.outer.next(ctx)? else {
                return Ok(None);
            };
            if self.outer_key >= batch.schema().arity() {
                return Err(QueryError::UnknownColumn(self.outer_key));
            }
            // Each outer row pays one index descent (+ data pages for
            // its matches) and the probe CPU.
            let mut pages = 0u32;
            let mut matched_rows = Vec::new();
            for r in 0..batch.len() {
                let orow = batch.row(r);
                let matches = self.inner.lookup_rows(orow[self.outer_key]);
                pages += self.inner.index.point_pages() + matches.len() as u32;
                for inner_row in self.inner.materialize(&matches, &self.inner_projection) {
                    let mut joined = orow.clone();
                    joined.extend(inner_row);
                    matched_rows.push(joined);
                }
            }
            ctx.charge_cpu(ctx.charge.hash_probe_cycles_per_row * batch.len() as f64);
            if pages > 0 {
                ctx.charge_read(
                    self.inner.stored.target,
                    Bytes::new(pages as u64 * PAGE_SIZE as u64),
                    AccessPattern::Random { ios: pages },
                );
            }
            self.pending = matched_rows;
        }
    }
}

impl Operator for IndexNlJoin {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("index_nl_join");
        let out = self.next_inner(ctx);
        ctx.end_op(op);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Table;
    use crate::exec::{run_collect, total_rows};
    use crate::ops::hash_join::HashJoin;
    use crate::ops::scan::ColumnarScan;
    use crate::schema::ColumnType;
    use grail_sim::{DiskId, StorageTarget};

    fn stored_of(cols: Vec<(&str, Vec<i64>)>) -> Arc<StoredTable> {
        let schema = Schema::new(cols.iter().map(|(n, _)| (*n, ColumnType::Int)).collect());
        let data = cols.into_iter().map(|(_, c)| c).collect();
        let table = Arc::new(Table::new("t", schema, data));
        Arc::new(StoredTable::columnar_plain(
            table,
            StorageTarget::Disk(DiskId(0)),
        ))
    }

    #[test]
    fn range_scan_matches_filtered_scan() {
        let stored = stored_of(vec![
            ("k", (0..5000).map(|i| (i * 7) % 1000).collect()),
            ("v", (0..5000).collect()),
        ]);
        let idx = Arc::new(IndexedTable::build(stored.clone(), 0));
        let mut scan = IndexRangeScan::new(idx, 100, 110, vec![0, 1]);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut scan, &mut ctx).unwrap();
        // Reference: count matching keys directly.
        let expect = stored.table.columns[0]
            .iter()
            .filter(|k| (100..=110).contains(*k))
            .count();
        assert_eq!(total_rows(&out), expect);
        for b in &out {
            assert!(b.column(0).iter().all(|k| (100..=110).contains(k)));
        }
        // Far fewer random-page bytes than a full scan.
        assert!(ctx.total_io_bytes().get() < stored.scan_bytes(&[0, 1]) * 64);
    }

    #[test]
    fn point_lookup_rows() {
        let stored = stored_of(vec![("k", vec![5, 1, 5, 9, 5])]);
        let idx = IndexedTable::build(stored, 0);
        let mut rows = idx.lookup_rows(5);
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 2, 4]);
        assert!(idx.lookup_rows(7).is_empty());
    }

    #[test]
    fn index_nl_join_matches_hash_join() {
        let outer = stored_of(vec![
            ("fk", vec![3, 1, 4, 1, 5, 9]),
            ("x", (0..6).collect()),
        ]);
        let inner = stored_of(vec![
            ("k", (0..10).collect()),
            ("name", (100..110).collect()),
        ]);
        let idx = Arc::new(IndexedTable::build(inner.clone(), 0));
        let outer_scan = || Box::new(ColumnarScan::new(outer.clone(), vec![0, 1]));

        let mut inl = IndexNlJoin::new(outer_scan(), idx, 0, vec![0, 1]);
        let mut ctx = ExecContext::calibrated();
        let inl_out = run_collect(&mut inl, &mut ctx).unwrap();

        let inner_scan = Box::new(ColumnarScan::new(inner, vec![0, 1]));
        let mut hj = HashJoin::new(inner_scan, outer_scan(), 0, 0);
        let mut ctx2 = ExecContext::calibrated();
        let hj_out = run_collect(&mut hj, &mut ctx2).unwrap();

        let mut a: Vec<Vec<i64>> = inl_out
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)).collect::<Vec<_>>())
            // INL: (fk, x, k, name); HJ: (k, name, fk, x). Normalize.
            .map(|r| vec![r[2], r[3], r[0], r[1]])
            .collect();
        let mut b: Vec<Vec<i64>> = hj_out
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)).collect::<Vec<_>>())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn index_join_io_is_random_and_per_probe() {
        let outer = stored_of(vec![("fk", (0..100).collect())]);
        let inner = stored_of(vec![("k", (0..100_000).collect())]);
        let idx = Arc::new(IndexedTable::build(inner, 0));
        let descent = idx.index().point_pages();
        let mut inl =
            IndexNlJoin::new(Box::new(ColumnarScan::new(outer, vec![0])), idx, 0, vec![0]);
        let mut ctx = ExecContext::calibrated();
        run_collect(&mut inl, &mut ctx).unwrap();
        // 100 probes × (descent + 1 data page) + the outer scan bytes.
        let probe_pages = 100 * (descent as u64 + 1);
        let expect = probe_pages * PAGE_SIZE as u64 + 100 * 8;
        assert_eq!(ctx.total_io_bytes().get(), expect);
    }

    #[test]
    fn empty_range_and_bad_projection() {
        let stored = stored_of(vec![("k", vec![1, 2, 3])]);
        let idx = Arc::new(IndexedTable::build(stored, 0));
        let mut scan = IndexRangeScan::new(idx.clone(), 50, 60, vec![0]);
        let mut ctx = ExecContext::calibrated();
        assert!(run_collect(&mut scan, &mut ctx).unwrap().is_empty());
        let mut bad = IndexRangeScan::new(idx, 0, 10, vec![9]);
        assert!(matches!(
            bad.next(&mut ctx),
            Err(QueryError::UnknownColumn(9))
        ));
    }
}
