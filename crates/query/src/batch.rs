//! Column-major batches and in-memory tables.
//!
//! A [`Batch`] is a *view*: it shares immutable backing columns through
//! [`Arc`] and narrows them with a `[offset, offset + rows)` window plus
//! an optional selection vector. Scans hand out windows over the decoded
//! table without copying; filters compose selections without touching
//! column data; projections re-label shared columns. Only operators that
//! genuinely compute new values (expressions, aggregates, joins, sorts)
//! materialize fresh columns — see DESIGN.md §10 for the contract.

use crate::schema::Schema;
use crate::value::Datum;
use std::borrow::Cow;
use std::sync::Arc;

/// Rows per batch produced by operators.
pub const BATCH_ROWS: usize = 4096;

/// A column-major batch of rows, sharing immutable backing columns.
///
/// Invariants: every backing column has the same physical length; with
/// no selection the logical rows are `[offset, offset + rows)`; with a
/// selection the logical rows are the selected *physical* indices in
/// order, and `offset`/`rows` are unused (zero).
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Vec<Datum>>>,
    offset: usize,
    rows: usize,
    sel: Option<Arc<Vec<u32>>>,
}

impl Batch {
    /// A dense batch owning freshly materialized columns (all equal
    /// length, matching the schema's arity).
    ///
    /// # Panics
    /// Panics on arity or length mismatch — producer bugs.
    pub fn new(schema: Arc<Schema>, columns: Vec<Vec<Datum>>) -> Self {
        assert_eq!(schema.arity(), columns.len(), "batch arity mismatch");
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(c.len(), first.len(), "ragged batch columns");
            }
        }
        let rows = columns.first().map(|c| c.len()).unwrap_or(0);
        Batch {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            offset: 0,
            rows,
            sel: None,
        }
    }

    /// A zero-copy window `[offset, offset + rows)` over shared columns.
    ///
    /// # Panics
    /// Panics on arity mismatch, ragged columns, or a window that
    /// overruns the backing data.
    pub fn from_shared(
        schema: Arc<Schema>,
        columns: Vec<Arc<Vec<Datum>>>,
        offset: usize,
        rows: usize,
    ) -> Self {
        assert_eq!(schema.arity(), columns.len(), "batch arity mismatch");
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(c.len(), first.len(), "ragged batch columns");
            }
            assert!(offset + rows <= first.len(), "window overruns columns");
        } else {
            assert_eq!(rows, 0, "rows in a zero-column batch");
        }
        Batch {
            schema,
            columns,
            offset,
            rows,
            sel: None,
        }
    }

    /// The rows `sel` (ascending physical indices) of shared columns: a
    /// selection built without a mask, as a scan that selected on stored
    /// values hands it out.
    ///
    /// # Panics
    /// Panics on arity mismatch, ragged columns, or an index past the
    /// backing data.
    pub fn from_selection(
        schema: Arc<Schema>,
        columns: Vec<Arc<Vec<Datum>>>,
        sel: Vec<u32>,
    ) -> Self {
        let len = columns.first().map_or(0, |c| c.len());
        let batch = Batch::from_shared(schema, columns, 0, len);
        if let Some(last) = sel.last() {
            assert!((*last as usize) < len, "selection overruns columns");
        }
        Batch {
            offset: 0,
            rows: 0,
            sel: Some(Arc::new(sel)),
            ..batch
        }
    }

    /// A dense batch transposed from row-major `rows`, each as wide as
    /// the schema. For operators that assemble output a row at a time.
    ///
    /// # Panics
    /// Panics when a row's width is not the schema's arity.
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Datum>]) -> Self {
        let mut cols = vec![Vec::with_capacity(rows.len()); schema.arity()];
        for row in rows {
            assert_eq!(row.len(), cols.len(), "row width mismatch");
            for (col, v) in cols.iter_mut().zip(row) {
                col.push(*v);
            }
        }
        Batch::new(schema, cols)
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of logical rows.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// True if the batch has no logical rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when logical rows are a contiguous window (no selection).
    pub fn is_dense(&self) -> bool {
        self.sel.is_none()
    }

    /// The selection vector, when one is attached (physical indices).
    pub fn selection(&self) -> Option<&Arc<Vec<u32>>> {
        self.sel.as_ref()
    }

    /// Column `i` as a contiguous slice of logical rows.
    ///
    /// # Panics
    /// Panics when a selection vector is attached — selected rows are
    /// not contiguous; use [`Self::value`], [`Self::gather`], or
    /// [`Self::to_dense`] instead.
    pub fn column(&self, i: usize) -> &[Datum] {
        assert!(
            self.sel.is_none(),
            "column(): batch carries a selection vector; gather or densify first"
        );
        &self.columns[i][self.offset..self.offset + self.rows]
    }

    /// The value at logical row `r` of column `col`.
    #[inline]
    pub fn value(&self, col: usize, r: usize) -> Datum {
        let phys = match &self.sel {
            Some(s) => s[r] as usize,
            None => self.offset + r,
        };
        self.columns[col][phys]
    }

    /// Column `i` of the logical rows as one slice: borrowed from the
    /// backing column when the batch is dense, gathered through the
    /// selection vector otherwise. What column-at-a-time operators read.
    pub fn logical_column(&self, i: usize) -> Cow<'_, [Datum]> {
        let col = &self.columns[i];
        match &self.sel {
            Some(s) => Cow::Owned(take(col, s)),
            None => Cow::Borrowed(&col[self.offset..self.offset + self.rows]),
        }
    }

    /// Column `i` at logical rows `rows`, gathered once from the backing
    /// column through the window or the selection vector.
    pub(crate) fn take_column(&self, i: usize, rows: &[u32]) -> Vec<Datum> {
        let col = &self.columns[i];
        match &self.sel {
            Some(s) => rows.iter().map(|r| col[s[*r as usize] as usize]).collect(),
            None => take(&col[self.offset..self.offset + self.rows], rows),
        }
    }

    /// Append column `i` of the logical rows to `out`: the window copied,
    /// or the selected rows gathered straight into it.
    pub(crate) fn append_column(&self, i: usize, out: &mut Vec<Datum>) {
        let col = &self.columns[i];
        match &self.sel {
            Some(s) => out.extend(s.iter().map(|p| col[*p as usize])),
            None => out.extend_from_slice(&col[self.offset..self.offset + self.rows]),
        }
    }

    /// Column `i` of logical rows, materialized in order.
    pub fn gather(&self, i: usize) -> Vec<Datum> {
        self.logical_column(i).into_owned()
    }

    /// Logical rows `[from, to)` as a view sharing the backing columns.
    ///
    /// # Panics
    /// Panics unless `from <= to <= self.len()`.
    pub fn slice(&self, from: usize, to: usize) -> Batch {
        assert!(from <= to && to <= self.len(), "slice outside the batch");
        let mut out = self.clone();
        match &self.sel {
            Some(s) => out.sel = Some(Arc::new(s[from..to].to_vec())),
            None => {
                out.offset += from;
                out.rows = to - from;
            }
        }
        out
    }

    /// One logical row, materialized.
    pub fn row(&self, r: usize) -> Vec<Datum> {
        (0..self.columns.len()).map(|c| self.value(c, r)).collect()
    }

    /// Keep only rows where `mask` is true: shares the backing columns
    /// and composes a new selection vector, copying no column data.
    pub fn filter(&self, mask: &[bool]) -> Batch {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        let sel: Vec<u32> = match &self.sel {
            Some(s) => s
                .iter()
                .zip(mask)
                .filter(|(_, m)| **m)
                .map(|(p, _)| *p)
                .collect(),
            None => mask
                .iter()
                .enumerate()
                .filter(|(_, m)| **m)
                .map(|(i, _)| u32::try_from(self.offset + i).expect("batch offset fits u32"))
                .collect(),
        };
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            offset: 0,
            rows: 0,
            sel: Some(Arc::new(sel)),
        }
    }

    /// Materialize the logical rows as a full-width dense batch. A
    /// batch that already covers its whole backing densely is returned
    /// as a cheap shared clone.
    pub fn to_dense(&self) -> Batch {
        let full = self.sel.is_none()
            && self.offset == 0
            && self.columns.first().map(|c| c.len()).unwrap_or(0) == self.rows;
        if full {
            return self.clone();
        }
        let cols: Vec<Arc<Vec<Datum>>> = (0..self.columns.len())
            .map(|i| Arc::new(self.gather(i)))
            .collect();
        Batch {
            schema: self.schema.clone(),
            columns: cols,
            offset: 0,
            rows: self.len(),
            sel: None,
        }
    }
}

/// `col[i]` for each `i` of `idx`, in order: the one gather behind
/// selections, join outputs and sort permutations.
pub(crate) fn take(col: &[Datum], idx: &[u32]) -> Vec<Datum> {
    idx.iter().map(|i| col[*i as usize]).collect()
}

impl PartialEq for Batch {
    /// Logical equality: same schema and the same values row-by-row,
    /// regardless of windowing or selection representation.
    fn eq(&self, other: &Self) -> bool {
        if self.schema != other.schema || self.len() != other.len() {
            return false;
        }
        (0..self.columns.len())
            .all(|c| (0..self.len()).all(|r| self.value(c, r) == other.value(c, r)))
    }
}

/// An in-memory table: the decoded, queryable form of generated data.
/// Columns are [`Arc`]-shared so scans window them without copying.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Arc<Schema>,
    /// Column-major data, shared immutably with scans.
    pub columns: Vec<Arc<Vec<Datum>>>,
}

impl Table {
    /// A table from columns.
    ///
    /// # Panics
    /// Panics on arity/length mismatches.
    pub fn new(name: &str, schema: Arc<Schema>, columns: Vec<Vec<Datum>>) -> Self {
        assert_eq!(schema.arity(), columns.len(), "table arity mismatch");
        if let Some(first) = columns.first() {
            for c in &columns {
                assert_eq!(c.len(), first.len(), "ragged table columns");
            }
        }
        Table {
            name: name.to_string(),
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Raw (uncompressed) bytes of the whole table at 8 bytes per datum.
    pub fn raw_bytes(&self) -> u64 {
        (self.row_count() * self.schema.arity() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)])
    }

    #[test]
    fn construction_and_access() {
        let b = Batch::new(schema(), vec![vec![1, 2, 3], vec![10, 20, 30]]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.column(1), &[10, 20, 30]);
        assert_eq!(b.row(2), vec![3, 30]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_batch_rejected() {
        let _ = Batch::new(schema(), vec![vec![1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_rejected() {
        let _ = Batch::new(schema(), vec![vec![1]]);
    }

    #[test]
    fn filter_by_mask() {
        let b = Batch::new(schema(), vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        let f = b.filter(&[true, false, true, false]);
        assert_eq!(f.gather(0), &[1, 3]);
        assert_eq!(f.gather(1), &[5, 7]);
    }

    #[test]
    fn filter_shares_backing_columns() {
        let b = Batch::new(schema(), vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        let f = b.filter(&[true, false, true, false]);
        // No column data was copied: the filtered view aliases the input.
        assert!(Arc::ptr_eq(&b.columns[0], &f.columns[0]));
        assert!(Arc::ptr_eq(&b.columns[1], &f.columns[1]));
        assert_eq!(f.selection().unwrap().as_slice(), &[0, 2]);
    }

    #[test]
    fn filter_composes_selections() {
        let b = Batch::new(schema(), vec![vec![1, 2, 3, 4, 5], vec![0; 5]]);
        let f1 = b.filter(&[true, true, false, true, true]); // 1 2 4 5
        let f2 = f1.filter(&[false, true, true, false]); // 2 4
        assert_eq!(f2.gather(0), &[2, 4]);
        assert_eq!(f2.selection().unwrap().as_slice(), &[1, 3]);
        assert!(Arc::ptr_eq(&b.columns[0], &f2.columns[0]));
    }

    #[test]
    fn windowed_batch_is_logical() {
        let cols = vec![
            Arc::new((0..10).collect::<Vec<i64>>()),
            Arc::new(vec![7; 10]),
        ];
        let b = Batch::from_shared(schema(), cols, 3, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.column(0), &[3, 4, 5, 6]);
        assert_eq!(b.row(0), vec![3, 7]);
        let f = b.filter(&[false, true, false, true]);
        assert_eq!(f.gather(0), &[4, 6]);
        // Selection indices are physical (window offset included).
        assert_eq!(f.selection().unwrap().as_slice(), &[4, 6]);
    }

    #[test]
    fn to_dense_materializes_logical_rows() {
        let b = Batch::new(schema(), vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        let f = b.filter(&[false, true, true, false]);
        let d = f.to_dense();
        assert!(d.is_dense());
        assert_eq!(d.column(0), &[2, 3]);
        assert_eq!(d.column(1), &[6, 7]);
        assert_eq!(d, f, "densify preserves logical content");
        // A full dense batch densifies by sharing, not copying.
        let d2 = b.to_dense();
        assert!(Arc::ptr_eq(&b.columns[0], &d2.columns[0]));
    }

    #[test]
    fn logical_column_borrows_dense_and_gathers_selected() {
        let cols = vec![
            Arc::new((0..10).collect::<Vec<i64>>()),
            Arc::new(vec![7; 10]),
        ];
        let window = Batch::from_shared(schema(), cols, 3, 4);
        assert!(matches!(
            window.logical_column(0),
            Cow::Borrowed(&[3, 4, 5, 6])
        ));
        let picked = window.filter(&[false, true, false, true]);
        assert!(matches!(picked.logical_column(0), Cow::Owned(_)));
        assert_eq!(&*picked.logical_column(0), &[4, 6]);
        assert_eq!(picked.gather(1), &[7, 7]);
    }

    #[test]
    fn slice_narrows_windows_and_selections_without_copying_columns() {
        let b = Batch::new(schema(), vec![(0..8).collect(), (10..18).collect()]);
        let mid = b.slice(2, 6).slice(1, 3);
        assert_eq!(mid.column(0), &[3, 4]);
        assert_eq!(mid.column(1), &[13, 14]);
        assert!(Arc::ptr_eq(&b.columns[0], &mid.columns[0]));
        let odd = b.filter(&[false, true, false, true, false, true, false, true]);
        let tail = odd.slice(1, 4);
        assert_eq!(tail.gather(0), &[3, 5, 7]);
        assert!(Arc::ptr_eq(&b.columns[1], &tail.columns[1]));
        assert!(b.slice(8, 8).is_empty());
    }

    #[test]
    fn from_rows_transposes() {
        let b = Batch::from_rows(schema(), &[vec![1, 10], vec![2, 20], vec![3, 30]]);
        assert_eq!(b.column(0), &[1, 2, 3]);
        assert_eq!(b.column(1), &[10, 20, 30]);
        assert!(Batch::from_rows(schema(), &[]).is_empty());
    }

    #[test]
    fn logical_equality_ignores_representation() {
        let b = Batch::new(schema(), vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        let filtered = b.filter(&[true, false, true, false]);
        let dense = Batch::new(schema(), vec![vec![1, 3], vec![5, 7]]);
        assert_eq!(filtered, dense);
        assert_ne!(filtered, b);
    }

    #[test]
    fn table_counts_rows_and_bytes() {
        let t = Table::new("t", schema(), vec![(0..10).collect(), (10..20).collect()]);
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.raw_bytes(), 160);
    }
}
