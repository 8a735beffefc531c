//! Hash aggregation with grouping, a column at a time: each input batch
//! is first resolved to one group id per row (a `GroupTable` over the
//! key columns), then every aggregate walks its own input column against
//! those ids. No key tuple or state vector is allocated per row. Groups
//! leave sorted by key, so the output order is a property of the data,
//! never of the hash.

use crate::batch::Batch;
use crate::exec::{ExecContext, Operator, QueryError};
use crate::ops::group_table::GroupTable;
use crate::schema::{ColumnType, Schema};
use crate::value::Datum;
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
    /// `gids[i]`. The function is matched once per batch, not per row.
    fn fold(self, acc: &mut [i64], gids: &[u32], values: &[Datum]) {
        fn each(acc: &mut [i64], gids: &[u32], values: &[Datum], f: impl Fn(i64, i64) -> i64) {
            for (g, v) in gids.iter().zip(values) {
                let slot = &mut acc[*g as usize];
                *slot = f(*slot, *v);
            }
        }
        match self {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => each(acc, gids, values, i64::wrapping_add),
            AggFunc::Min => each(acc, gids, values, i64::min),
            AggFunc::Max => each(acc, gids, values, i64::max),
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

/// Group-by hash aggregation; groups are emitted in ascending
/// lexicographic key order.
pub struct HashAggregate {
    input: Box<dyn Operator>,
    group_by: Vec<usize>,
    aggs: Vec<AggSpec>,
    schema: Arc<Schema>,
    result: Option<Batch>,
    emitted: bool,
}

impl HashAggregate {
    /// Aggregate `input` grouped by `group_by` columns.
    pub fn new(input: Box<dyn Operator>, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        let in_schema = input.schema();
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
        let in_arity = self.input.schema().arity();
        for g in &self.group_by {
            if *g >= in_arity {
                return Err(QueryError::UnknownColumn(*g));
            }
        }
        for a in &self.aggs {
            if a.func != AggFunc::Count && a.column >= in_arity {
                return Err(QueryError::UnknownColumn(a.column));
            }
        }
        let mut table = GroupTable::new(self.group_by.len());
        // counts[g]: rows of group `g`; accs[a][g]: aggregate `a`'s sum,
        // minimum or maximum of group `g` (empty for a count).
        let mut counts: Vec<i64> = Vec::new();
        let mut accs: Vec<Vec<i64>> = vec![Vec::new(); self.aggs.len()];
        let mut gids: Vec<u32> = Vec::new();
        let mut rows = 0f64;
        while let Some(batch) = self.input.next(ctx)? {
            rows += batch.len() as f64;
            let keys: Vec<Cow<'_, [Datum]>> = self
                .group_by
                .iter()
                .map(|c| batch.logical_column(*c))
                .collect();
            gids.clear();
            table.intern(&keys, batch.len(), &mut gids);
            counts.resize(table.len(), 0);
            for g in &gids {
                counts[*g as usize] += 1;
            }
            for (acc, a) in accs.iter_mut().zip(&self.aggs) {
                let Some(identity) = a.func.identity() else {
                    continue;
                };
                acc.resize(table.len(), identity);
                a.func.fold(acc, &gids, &batch.logical_column(a.column));
            }
        }
        ctx.charge_cpu(
            ctx.charge.agg_cycles_per_row * rows
                + ctx.charge.agg_cycles_per_group * table.len() as f64,
        );
        ctx.phase_break();
        // Keys are distinct, so an unstable sort has one possible result.
        let mut order: Vec<u32> = (0..table.len() as u32).collect();
        order.sort_unstable_by(|a, b| table.key(*a).cmp(table.key(*b)));
        let mut cols = Vec::with_capacity(self.schema.arity());
        for k in 0..self.group_by.len() {
            cols.push(order.iter().map(|g| table.key(*g)[k]).collect());
        }
        for (acc, a) in accs.iter().zip(&self.aggs) {
            let finished = order.iter().map(|g| {
                let g = *g as usize;
                // A count keeps no accumulator of its own.
                a.func.finish(acc.get(g).copied().unwrap_or(0), counts[g])
            });
            cols.push(finished.collect());
        }
        self.result = Some(Batch::new(self.schema.clone(), cols));
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
            self.ensure_aggregated(ctx)?;
            if self.emitted {
                return Ok(None);
            }
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
