//! Block nested-loop join.
//!
//! Slow in time but frugal in memory — the operator Sec. 4.1 predicts
//! energy-aware optimizers will pick "in more occasions than before"
//! because the hash join's memory grant carries a power cost.

use crate::batch::{Batch, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::expr::Expr;
use crate::schema::Schema;
use crate::value::Datum;
use std::sync::Arc;

/// Inner nested-loop join with an arbitrary join predicate evaluated
/// over the concatenated row.
pub struct NestedLoopJoin {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    predicate: Expr,
    schema: Arc<Schema>,
    inner_rows: Option<Vec<Vec<Datum>>>,
    pending: Vec<Vec<Datum>>,
}

impl NestedLoopJoin {
    /// Join `outer ⋈ inner` on `predicate` (column indices refer to the
    /// concatenated outer‖inner schema).
    pub fn new(outer: Box<dyn Operator>, inner: Box<dyn Operator>, predicate: Expr) -> Self {
        let schema = outer.schema().join(&inner.schema());
        NestedLoopJoin {
            outer,
            inner,
            predicate,
            schema,
            inner_rows: None,
            pending: Vec::new(),
        }
    }

    fn ensure_inner(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.inner_rows.is_some() {
            return Ok(());
        }
        let mut rows = Vec::new();
        while let Some(batch) = self.inner.next(ctx)? {
            for r in 0..batch.len() {
                rows.push(batch.row(r));
            }
        }
        // Materializing the inner is a (small) pipeline break.
        ctx.phase_break();
        self.inner_rows = Some(rows);
        Ok(())
    }
}

impl NestedLoopJoin {
    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure_inner(ctx)?;
        loop {
            if !self.pending.is_empty() {
                let take = self.pending.len().min(BATCH_ROWS);
                let rows: Vec<Vec<Datum>> = self.pending.drain(..take).collect();
                return Ok(Some(Batch::from_rows(self.schema.clone(), &rows)));
            }
            let Some(outer_batch) = self.outer.next(ctx)? else {
                return Ok(None);
            };
            let inner = self.inner_rows.as_ref().expect("materialized above");
            let pairs = outer_batch.len() as f64 * inner.len() as f64;
            ctx.charge_cpu(ctx.charge.nl_cycles_per_pair * pairs);
            for r in 0..outer_batch.len() {
                let orow = outer_batch.row(r);
                for irow in inner {
                    let mut joined = orow.clone();
                    joined.extend_from_slice(irow);
                    // Evaluate the predicate on the single joined row.
                    let row_batch =
                        Batch::from_rows(self.schema.clone(), std::slice::from_ref(&joined));
                    if self.predicate.eval_mask(&row_batch)[0] {
                        self.pending.push(joined);
                    }
                }
            }
        }
    }
}

impl Operator for NestedLoopJoin {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("nl_join");
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
    use crate::ops::scan::{ColumnarScan, StoredTable};
    use crate::schema::ColumnType;
    use grail_sim::{DiskId, StorageTarget};

    fn scan_of(name: &str, cols: Vec<(&str, Vec<i64>)>) -> Box<dyn Operator> {
        let schema = Schema::new(cols.iter().map(|(n, _)| (*n, ColumnType::Int)).collect());
        let data = cols.into_iter().map(|(_, c)| c).collect();
        let table = Arc::new(Table::new(name, schema, data));
        let stored = Arc::new(StoredTable::columnar_plain(
            table,
            StorageTarget::Disk(DiskId(0)),
        ));
        let all: Vec<usize> = (0..stored.table.schema.arity()).collect();
        Box::new(ColumnarScan::new(stored, all))
    }

    #[test]
    fn equi_join_matches_hash_join() {
        let mk = || {
            (
                scan_of("a", vec![("k", vec![1, 2, 3, 4]), ("x", vec![5, 6, 7, 8])]),
                scan_of("b", vec![("fk", vec![2, 4, 4]), ("y", vec![20, 40, 41])]),
            )
        };
        let (outer, inner) = mk();
        let mut nl = NestedLoopJoin::new(outer, inner, Expr::eq(Expr::Col(0), Expr::Col(2)));
        let mut ctx = ExecContext::calibrated();
        let nl_out = run_collect(&mut nl, &mut ctx).unwrap();

        let (build, probe) = mk();
        let mut hj = HashJoin::new(build, probe, 0, 0);
        let mut ctx2 = ExecContext::calibrated();
        let hj_out = run_collect(&mut hj, &mut ctx2).unwrap();

        let mut nl_rows: Vec<Vec<i64>> = nl_out
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)).collect::<Vec<_>>())
            .collect();
        let mut hj_rows: Vec<Vec<i64>> = hj_out
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)).collect::<Vec<_>>())
            .collect();
        nl_rows.sort();
        hj_rows.sort();
        assert_eq!(nl_rows, hj_rows);
        assert_eq!(nl_rows.len(), 3);
    }

    #[test]
    fn non_equi_predicate() {
        let outer = scan_of("a", vec![("x", vec![1, 5, 9])]);
        let inner = scan_of("b", vec![("y", vec![3, 7])]);
        // x > y pairs: (5,3), (9,3), (9,7).
        let mut nl = NestedLoopJoin::new(outer, inner, Expr::gt(Expr::Col(0), Expr::Col(1)));
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut nl, &mut ctx).unwrap();
        assert_eq!(total_rows(&out), 3);
    }

    #[test]
    fn charges_quadratic_pairs() {
        let outer = scan_of("a", vec![("x", (0..100).collect())]);
        let inner = scan_of("b", vec![("y", (0..50).collect())]);
        let mut nl = NestedLoopJoin::new(outer, inner, Expr::Lit(0));
        let mut ctx = ExecContext::calibrated();
        run_collect(&mut nl, &mut ctx).unwrap();
        let cpu = ctx.total_cpu().get() as f64;
        let pair_cost = 5.0 * 100.0 * 50.0;
        assert!(cpu >= pair_cost, "cpu {cpu} must include {pair_cost}");
    }
}
