//! Hash aggregation with grouping, a column at a time: each input batch
//! is first resolved to one group id per row (a `GroupTable` over the
//! key columns), then every aggregate walks its own input column against
//! those ids. No key tuple or state vector is allocated per row. Groups
//! leave sorted by key, so the output order is a property of the data,
//! never of the hash. Over a scan that selects on its encoded columns
//! ([`ColumnarScan::aggregated`]) the aggregate reads no batch: each
//! window's survivors are folded from their stored codes into one set of
//! groups per contiguous range of windows, merged in range order.

use crate::batch::Batch;
use crate::exec::{ExecContext, Operator, QueryError};
use crate::ops::group_table::GroupTable;
use crate::ops::scan::ColumnarScan;
use crate::schema::{ColumnType, Schema};
use crate::value::Datum;
use grail_storage::column::Codebook;
use std::borrow::Cow;
use std::sync::Arc;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Count rows.
    Count,
    /// Sum of a column.
    Sum,
    /// Minimum of a column.
    Min,
    /// Maximum of a column.
    Max,
    /// Average of a column (integer division of sum by count).
    Avg,
}

/// One aggregate: a function over an input column, with an output name.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input column (ignored for `Count`).
    pub column: usize,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Shorthand constructor.
    pub fn new(func: AggFunc, column: usize, name: &str) -> Self {
        AggSpec {
            func,
            column,
            name: name.to_string(),
        }
    }
}

impl AggFunc {
    /// The accumulator of a group no row has reached yet; `None` for
    /// `Count`, which reads the shared per-group count.
    fn identity(self) -> Option<i64> {
        match self {
            AggFunc::Count => None,
            AggFunc::Sum | AggFunc::Avg => Some(0),
            AggFunc::Min => Some(i64::MAX),
            AggFunc::Max => Some(i64::MIN),
        }
    }

    /// Fold `values` into `acc`, value `i` into the accumulator of group
    /// `gids[i]`, and count each row in `counts` when there are counts to
    /// keep. The function is matched once per batch and the codebook once
    /// per run of codes, not per row.
    fn fold(
        self,
        acc: &mut [i64],
        counts: Option<&mut [i64]>,
        gids: &[u32],
        values: impl Values,
    ) -> Result<(), QueryError> {
        fn each(
            acc: &mut [i64],
            mut counts: Option<&mut [i64]>,
            gids: &[u32],
            values: impl Values,
            f: impl Fn(i64, i64) -> i64 + Copy,
        ) -> Result<(), QueryError> {
            values.each(|at, codes, book| {
                let gids = &gids[at..at + codes.len()];
                let counts = counts.as_deref_mut();
                match book {
                    Codebook::Values => fold_run(acc, counts, gids, codes, f, |v| v),
                    Codebook::Entries(e) => {
                        fold_run(acc, counts, gids, codes, f, |c| e[c as usize])
                    }
                    Codebook::Frame { min, .. } => {
                        fold_run(acc, counts, gids, codes, f, |c| min.wrapping_add(c))
                    }
                }
            })
        }
        match self {
            AggFunc::Count => Ok(()),
            AggFunc::Sum | AggFunc::Avg => each(acc, counts, gids, values, i64::wrapping_add),
            AggFunc::Min => each(acc, counts, gids, values, i64::min),
            AggFunc::Max => each(acc, counts, gids, values, i64::max),
        }
    }

    /// The result of a group of `count` rows (at least one) whose
    /// accumulator is `acc`.
    fn finish(self, acc: i64, count: i64) -> Datum {
        match self {
            AggFunc::Count => count,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => acc,
            AggFunc::Avg => acc / count,
        }
    }
}

/// Fold `value(codes[i])` into `acc[gids[i]]` with `f`, counting the rows
/// too when `counts` is given.
#[inline(always)]
fn fold_run(
    acc: &mut [i64],
    counts: Option<&mut [i64]>,
    gids: &[u32],
    codes: &[i64],
    f: impl Fn(i64, i64) -> i64,
    value: impl Fn(i64) -> i64,
) {
    let rows = gids.iter().map(|g| *g as usize).zip(codes);
    match counts {
        Some(counts) => rows.for_each(|(g, c)| {
            acc[g] = f(acc[g], value(*c));
            counts[g] += 1;
        }),
        None => rows.for_each(|(g, c)| acc[g] = f(acc[g], value(*c))),
    }
}

/// One input column of an aggregation, as its reader hands it over:
/// `sink(i, codes, book)` for the codes of rows `i..i + codes.len()`, run
/// after run in row order, and the codebook that decodes them.
pub(crate) trait Values {
    fn each(self, sink: impl FnMut(usize, &[i64], Codebook<'_>)) -> Result<(), QueryError>;
}

impl Values for Cow<'_, [Datum]> {
    fn each(self, mut sink: impl FnMut(usize, &[i64], Codebook<'_>)) -> Result<(), QueryError> {
        sink(0, &self, Codebook::Values);
        Ok(())
    }
}

/// The groups of one aggregation and their accumulators, whatever reads
/// the rows: batches, or a scan's stored codes.
pub(crate) struct Groups {
    /// The key tuples, as dense ids in first-arrival order.
    pub(crate) table: GroupTable,
    /// The input's key columns.
    pub(crate) keys: Vec<usize>,
    /// `counts[g]`: rows of group `g`.
    counts: Vec<i64>,
    /// Each aggregate's function, input column and per-group sum, minimum
    /// or maximum (none for a count).
    accs: Vec<(AggFunc, usize, Vec<i64>)>,
    rows: usize,
}

impl Groups {
    fn new(group_by: &[usize], aggs: &[AggSpec]) -> Self {
        Groups {
            table: GroupTable::new(group_by.len()),
            keys: group_by.to_vec(),
            counts: Vec::new(),
            accs: aggs
                .iter()
                .map(|a| (a.func, a.column, Vec::new()))
                .collect(),
            rows: 0,
        }
    }

    /// Count the rows whose groups are `gids` and fold each aggregate's
    /// input column, `column(c)` for column `c`, into their accumulators.
    pub(crate) fn fold<V: Values>(
        &mut self,
        gids: &[u32],
        mut column: impl FnMut(usize) -> V,
    ) -> Result<(), QueryError> {
        self.rows += gids.len();
        let groups = self.table.len();
        self.counts.resize(groups, 0);
        // The first aggregate that reads a column counts the rows as it
        // folds them; with none, a pass of its own does.
        let mut counts = Some(self.counts.as_mut_slice());
        for (func, col, acc) in &mut self.accs {
            let Some(identity) = func.identity() else {
                continue;
            };
            acc.resize(groups, identity);
            func.fold(acc, counts.take(), gids, column(*col))?;
        }
        if let Some(counts) = counts {
            gids.iter().for_each(|g| counts[*g as usize] += 1);
        }
        Ok(())
    }

    /// No groups yet, over the same keys and aggregates.
    pub(crate) fn empty_like(&self) -> Self {
        Groups {
            table: GroupTable::new(self.keys.len()),
            keys: self.keys.clone(),
            counts: Vec::new(),
            accs: (self.accs.iter())
                .map(|(func, col, _)| (*func, *col, Vec::new()))
                .collect(),
            rows: 0,
        }
    }

    /// Fold the groups `other` holds, over the same keys and aggregates,
    /// into these: each of its keys is interned here, then its count and
    /// accumulators fold in as one row of values. Sums wrap, so the
    /// result is the one folding `other`'s rows here would give.
    pub(crate) fn merge(&mut self, other: &Groups) -> Result<(), QueryError> {
        let ids: Vec<u32> = (0..other.table.len() as u32)
            .map(|g| self.table.intern_key(|k| other.table.key(g)[k]))
            .collect();
        self.rows += other.rows;
        let groups = self.table.len();
        self.counts.resize(groups, 0);
        let counts = Cow::Borrowed(other.counts.as_slice());
        AggFunc::Sum.fold(&mut self.counts, None, &ids, counts)?;
        for ((func, _, acc), (_, _, theirs)) in self.accs.iter_mut().zip(&other.accs) {
            let Some(identity) = func.identity() else {
                continue;
            };
            acc.resize(groups, identity);
            func.fold(acc, None, &ids, Cow::Borrowed(theirs.as_slice()))?;
        }
        Ok(())
    }

    /// The groups sorted by key: the key columns, then each aggregate's
    /// result.
    fn finish(&self, schema: Arc<Schema>) -> Batch {
        let table = &self.table;
        // Keys are distinct, so an unstable sort has one possible result.
        let mut order: Vec<usize> = (0..table.len()).collect();
        order.sort_unstable_by(|a, b| table.key(*a as u32).cmp(table.key(*b as u32)));
        let mut cols = Vec::with_capacity(schema.arity());
        for k in 0..self.keys.len() {
            cols.push(order.iter().map(|g| table.key(*g as u32)[k]).collect());
        }
        for (func, _, acc) in &self.accs {
            let finished = order.iter().map(|g| {
                // A count keeps no accumulator of its own.
                func.finish(acc.get(*g).copied().unwrap_or(0), self.counts[*g])
            });
            cols.push(finished.collect());
        }
        Batch::new(schema, cols)
    }
}

/// Group-by hash aggregation; groups are emitted in ascending
/// lexicographic key order.
pub struct HashAggregate {
    input: Input,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    schema: Arc<Schema>,
    result: Option<Batch>,
    emitted: bool,
}

/// Where a [`HashAggregate`]'s rows come from.
enum Input {
    /// The batches an operator returns.
    Batches(Box<dyn Operator>),
    /// A scan that selects on its encoded columns, folded range by range
    /// from the stored codes ([`ColumnarScan::aggregated`]).
    Scan(ColumnarScan),
}

impl HashAggregate {
    /// Aggregate `input` grouped by `group_by` columns.
    pub fn new(input: Box<dyn Operator>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        HashAggregate::over(Input::Batches(input), group_by, aggs)
    }

    /// Aggregate the rows `scan`, which selects on its encoded columns,
    /// returns, without a batch between them.
    pub(crate) fn over_scan(scan: ColumnarScan, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        HashAggregate::over(Input::Scan(scan), group_by, aggs)
    }

    fn over(input: Input, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let in_schema = match &input {
            Input::Batches(op) => op.schema(),
            Input::Scan(scan) => scan.schema(),
        };
        let mut fields: Vec<(String, ColumnType)> = group_by
            .iter()
            .filter_map(|i| in_schema.fields().get(*i))
            .map(|f| (f.name.clone(), f.ty))
            .collect();
        for a in &aggs {
            fields.push((a.name.clone(), ColumnType::Int));
        }
        let schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
        HashAggregate {
            input,
            group_by,
            aggs,
            schema,
            result: None,
            emitted: false,
        }
    }

    fn ensure_aggregated(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.result.is_some() {
            return Ok(());
        }
        let arity = match &self.input {
            Input::Batches(op) => op.schema().arity(),
            Input::Scan(scan) => scan.schema().arity(),
        };
        let read = self.aggs.iter().filter(|a| a.func != AggFunc::Count);
        if let Some(bad) = (self.group_by.iter().copied())
            .chain(read.map(|a| a.column))
            .find(|c| *c >= arity)
        {
            return Err(QueryError::UnknownColumn(bad));
        }
        let mut groups = Groups::new(&self.group_by, &self.aggs);
        match &mut self.input {
            Input::Scan(scan) => scan.fold(ctx, &mut groups)?,
            Input::Batches(op) => {
                let mut gids: Vec<u32> = Vec::new();
                while let Some(batch) = op.next(ctx)? {
                    let keys: Vec<Cow<'_, [Datum]>> = (groups.keys.iter())
                        .map(|c| batch.logical_column(*c))
                        .collect();
                    gids.clear();
                    groups.table.intern(&keys, batch.len(), &mut gids);
                    groups.fold(&gids, |c| batch.logical_column(c))?;
                }
            }
        }
        ctx.charge_cpu(
            ctx.charge.agg_cycles_per_row * groups.rows as f64
                + ctx.charge.agg_cycles_per_group * groups.table.len() as f64,
        );
        ctx.phase_break();
        self.result = Some(groups.finish(self.schema.clone()));
        Ok(())
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("agg");
        let out = (|| {
            // Once emitted the input is exhausted: it is not pulled again.
            if self.emitted {
                return Ok(None);
            }
            self.ensure_aggregated(ctx)?;
            self.emitted = true;
            Ok(self.result.take())
        })();
        ctx.end_op(op);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Table;
    use crate::batch::BATCH_ROWS;
    use crate::exec::run_collect;
    use crate::expr::Expr;
    use crate::ops::filter::Filter;
    use crate::ops::scan::{ColumnarScan, StoredTable};
    use grail_sim::{DiskId, StorageTarget};

    fn scan_of(cols: Vec<(&str, Vec<i64>)>) -> Box<dyn Operator> {
        let schema = Schema::new(cols.iter().map(|(n, _)| (*n, ColumnType::Int)).collect());
        let data = cols.into_iter().map(|(_, c)| c).collect();
        let table = Arc::new(Table::new("t", schema, data));
        let stored = Arc::new(StoredTable::columnar_plain(
            table,
            StorageTarget::Disk(DiskId(0)),
        ));
        let all: Vec<usize> = (0..stored.table.schema.arity()).collect();
        Box::new(ColumnarScan::new(stored, all))
    }

    #[test]
    fn grouped_aggregates() {
        let input = scan_of(vec![
            ("g", vec![1, 2, 1, 2, 1]),
            ("v", vec![10, 20, 30, 40, 50]),
        ]);
        let mut agg = HashAggregate::new(
            input,
            vec![0],
            vec![
                AggSpec::new(AggFunc::Count, 0, "cnt"),
                AggSpec::new(AggFunc::Sum, 1, "sum"),
                AggSpec::new(AggFunc::Min, 1, "min"),
                AggSpec::new(AggFunc::Max, 1, "max"),
                AggSpec::new(AggFunc::Avg, 1, "avg"),
            ],
        );
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut agg, &mut ctx).unwrap();
        assert_eq!(out.len(), 1);
        let b = &out[0];
        assert_eq!(b.len(), 2);
        // Group 1: rows (10, 30, 50).
        assert_eq!(b.row(0), vec![1, 3, 90, 10, 50, 30]);
        // Group 2: rows (20, 40).
        assert_eq!(b.row(1), vec![2, 2, 60, 20, 40, 30]);
    }

    #[test]
    fn global_aggregate_no_groups() {
        let input = scan_of(vec![("v", vec![5, 7, 9])]);
        let mut agg = HashAggregate::new(input, vec![], vec![AggSpec::new(AggFunc::Sum, 0, "s")]);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut agg, &mut ctx).unwrap();
        assert_eq!(out[0].row(0), vec![21]);
    }

    #[test]
    fn deterministic_group_order() {
        let input = scan_of(vec![("g", vec![9, 3, 7, 3, 9])]);
        let mut agg =
            HashAggregate::new(input, vec![0], vec![AggSpec::new(AggFunc::Count, 0, "c")]);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut agg, &mut ctx).unwrap();
        assert_eq!(out[0].column(0), &[3, 7, 9], "BTree order");
    }

    #[test]
    fn bad_columns_error() {
        let input = scan_of(vec![("v", vec![1])]);
        let mut agg =
            HashAggregate::new(input, vec![4], vec![AggSpec::new(AggFunc::Count, 0, "c")]);
        let mut ctx = ExecContext::calibrated();
        assert!(run_collect(&mut agg, &mut ctx).is_err());
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let input = scan_of(vec![("g", vec![])]);
        let mut agg =
            HashAggregate::new(input, vec![0], vec![AggSpec::new(AggFunc::Count, 0, "c")]);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut agg, &mut ctx).unwrap();
        assert!(out.is_empty() || out[0].is_empty());
    }

    fn rows_of(op: &mut dyn Operator) -> Vec<Vec<i64>> {
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(op, &mut ctx).unwrap();
        out.iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)))
            .collect()
    }

    #[test]
    fn empty_input_emits_one_empty_batch_grouped_or_not() {
        for group_by in [vec![0], vec![]] {
            let input = scan_of(vec![("g", vec![])]);
            let mut agg =
                HashAggregate::new(input, group_by, vec![AggSpec::new(AggFunc::Sum, 0, "s")]);
            let mut ctx = ExecContext::calibrated();
            let first = agg
                .next(&mut ctx)
                .unwrap()
                .expect("one batch, even if empty");
            assert_eq!(
                (first.len(), first.schema().arity()),
                (0, agg.schema().arity())
            );
            assert!(agg.next(&mut ctx).unwrap().is_none());
        }
    }

    /// A drained aggregate pulls its input once: the pulls after its batch
    /// add one `agg` call each and nothing to the input's tallies, over a
    /// batch input and over the aggregated scan alike.
    #[test]
    fn a_drained_aggregate_counts_each_input_pull_once() {
        let n = BATCH_ROWS as i64 + 1000;
        let stored = Arc::new(StoredTable::columnar_plain(
            Arc::new(Table::new(
                "t",
                Schema::new(vec![("g", ColumnType::Int), ("v", ColumnType::Int)]),
                vec![(0..n).map(|i| i % 5).collect(), (0..n).collect()],
            )),
            StorageTarget::Disk(DiskId(0)),
        ));
        let keep = || Expr::gt(Expr::Col(1), Expr::Lit(10));
        let aggs = || vec![AggSpec::new(AggFunc::Sum, 1, "s")];
        let over_batches: Box<dyn Operator> = Box::new(HashAggregate::new(
            ColumnarScan::filtered(stored.clone(), vec![0, 1], keep()),
            vec![0],
            aggs(),
        ));
        let over_scan = ColumnarScan::aggregated(stored, vec![0, 1], keep(), vec![0], aggs());
        let calls = |ctx: &ExecContext| -> Vec<(&str, u64)> {
            ctx.op_tallies().iter().map(|t| (t.name, t.calls)).collect()
        };
        for mut agg in [over_batches, over_scan] {
            let mut ctx = ExecContext::calibrated();
            assert_eq!(agg.next(&mut ctx).unwrap().map(|b| b.len()), Some(5));
            let emitted = calls(&ctx);
            // Two windows, then the pull that finds the scan exhausted.
            assert_eq!(emitted, [("agg", 1), ("filter", 3), ("scan", 3)]);
            for pulls in 2..4 {
                assert!(agg.next(&mut ctx).unwrap().is_none());
                let mut want = emitted.clone();
                want[0].1 = pulls;
                assert_eq!(calls(&ctx), want);
            }
        }
    }

    /// Filter hands over selection-carrying views of the scan's second,
    /// `offset > 0` window as well as its first.
    #[test]
    fn selected_and_windowed_input_aggregates_like_its_dense_copy() {
        let n = BATCH_ROWS as i64 + 1000;
        let g: Vec<i64> = (0..n).map(|i| i % 5).collect();
        let v: Vec<i64> = (0..n).map(|i| i * 3 - 7000).collect();
        let keep: Vec<i64> = (0..n).map(|i| (i % 3 != 0) as i64).collect();
        let aggs = || {
            vec![
                AggSpec::new(AggFunc::Count, 9, "c"),
                AggSpec::new(AggFunc::Sum, 1, "s"),
                AggSpec::new(AggFunc::Min, 1, "lo"),
                AggSpec::new(AggFunc::Max, 1, "hi"),
                AggSpec::new(AggFunc::Avg, 1, "avg"),
            ]
        };
        let all = scan_of(vec![
            ("g", g.clone()),
            ("v", v.clone()),
            ("keep", keep.clone()),
        ]);
        let filtered = Filter::new(all, Expr::gt(Expr::Col(2), Expr::Lit(0)));
        let mut over_view = HashAggregate::new(Box::new(filtered), vec![0], aggs());
        let pick = |col: &[i64]| -> Vec<i64> {
            let kept = col.iter().zip(&keep).filter(|(_, k)| **k == 1);
            kept.map(|(v, _)| *v).collect()
        };
        let dense = scan_of(vec![("g", pick(&g)), ("v", pick(&v))]);
        let mut over_dense = HashAggregate::new(dense, vec![0], aggs());
        let got = rows_of(&mut over_view);
        assert_eq!(got.len(), 5);
        assert_eq!(got, rows_of(&mut over_dense));
    }

    #[test]
    fn multi_column_keys_leave_in_lexicographic_order() {
        let input = scan_of(vec![
            ("a", vec![2, -1, 2, i64::MAX, -1, i64::MIN, 2]),
            ("b", vec![0, 5, -3, 0, 4, 9, 0]),
        ]);
        let mut agg = HashAggregate::new(
            input,
            vec![0, 1],
            vec![AggSpec::new(AggFunc::Count, 0, "c")],
        );
        assert_eq!(
            rows_of(&mut agg),
            vec![
                vec![i64::MIN, 9, 1],
                vec![-1, 4, 1],
                vec![-1, 5, 1],
                vec![2, -3, 1],
                vec![2, 0, 2],
                vec![i64::MAX, 0, 1],
            ]
        );
    }

    /// 3 000 two-column groups: the table grows eight times from its 16
    /// slots and linear probing resolves many shared home slots.
    #[test]
    fn many_colliding_groups_survive_table_growth() {
        let n = 9_000i64;
        let a: Vec<i64> = (0..n).map(|i| (i * 7) % 60).collect();
        let b: Vec<i64> = (0..n).map(|i| (i * 7) % 3000 / 60).collect();
        let input = scan_of(vec![("a", a), ("b", b), ("one", vec![1; n as usize])]);
        let mut agg =
            HashAggregate::new(input, vec![1, 0], vec![AggSpec::new(AggFunc::Sum, 2, "n")]);
        let got = rows_of(&mut agg);
        let expect: Vec<Vec<i64>> = (0..3000).map(|k| vec![k / 60, k % 60, 3]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sum_wraps_and_avg_divides_the_wrapped_sum() {
        let input = scan_of(vec![("v", vec![i64::MAX, 1, i64::MAX, 1])]);
        let mut agg = HashAggregate::new(
            input,
            vec![],
            vec![
                AggSpec::new(AggFunc::Sum, 0, "s"),
                AggSpec::new(AggFunc::Avg, 0, "a"),
                AggSpec::new(AggFunc::Min, 0, "lo"),
                AggSpec::new(AggFunc::Max, 0, "hi"),
            ],
        );
        let sum = i64::MAX
            .wrapping_add(1)
            .wrapping_add(i64::MAX)
            .wrapping_add(1);
        assert_eq!(sum, 0);
        assert_eq!(rows_of(&mut agg), vec![vec![0, 0, 1, i64::MAX]]);
    }
}
