//! Hash equi-join: blocking build, streaming probe.
//!
//! The paper's Sec. 4.1 example operator: fast, but it "relies on using a
//! large chunk of memory", which is power-expensive — the optimizer may
//! flip to nested-loop under an energy objective. The build side closes a
//! pipeline phase (its IO+CPU cannot overlap the probe's).
//!
//! Both sides stay column-major. The build keeps its columns plus, per
//! distinct key, a chain of row indices in arrival order; a probe batch
//! turns its whole key column into `(build row, probe row)` index pairs
//! and every output column is gathered from them once. Matches leave in
//! probe order, then build arrival order, in windows of at most
//! [`BATCH_ROWS`] over that one gathered batch.

use crate::batch::{take, Batch, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::ops::group_table::GroupTable;
use crate::schema::Schema;
use std::sync::Arc;

/// End of a build chain.
const NONE: u32 = u32::MAX;

/// The materialized build side.
struct BuildSide {
    /// Every build row, dense, in arrival order.
    rows: Batch,
    /// Distinct build keys → group ids.
    keys: GroupTable,
    /// First build row of each key group, `NONE`-terminated through `next`.
    head: Vec<u32>,
    /// The next build row with the same key, in arrival order.
    next: Vec<u32>,
}

/// Inner hash equi-join on one key column per side.
pub struct HashJoin {
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key: usize,
    probe_key: usize,
    schema: Arc<Schema>,
    table: Option<BuildSide>,
    /// What has not left yet of one probe batch's matches.
    pending: Option<Batch>,
}

impl HashJoin {
    /// Join `build ⋈ probe` on `build.build_key = probe.probe_key`.
    /// Output schema is build columns followed by probe columns.
    pub fn new(
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key: usize,
        probe_key: usize,
    ) -> Self {
        let schema = build.schema().join(&probe.schema());
        HashJoin {
            build,
            probe,
            build_key,
            probe_key,
            schema,
            table: None,
            pending: None,
        }
    }

    fn ensure_built(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.table.is_some() {
            return Ok(());
        }
        let key = self.build_key;
        let mut columns = vec![Vec::new(); self.build.schema().arity()];
        let mut keys = GroupTable::new(1);
        let mut group_of: Vec<u32> = Vec::new();
        let mut rows = 0f64;
        while let Some(batch) = self.build.next(ctx)? {
            if key >= batch.schema().arity() {
                return Err(QueryError::UnknownColumn(key));
            }
            for (c, column) in columns.iter_mut().enumerate() {
                column.extend_from_slice(&batch.logical_column(c));
            }
            keys.intern(&[batch.logical_column(key)], batch.len(), &mut group_of);
            rows += batch.len() as f64;
        }
        ctx.charge_cpu(ctx.charge.hash_build_cycles_per_row * rows);
        // The build is a pipeline breaker.
        ctx.phase_break();
        // Threading the rows last to first leaves every chain in arrival
        // order with no tail pointers.
        assert!(group_of.len() < NONE as usize, "build rows fit u32");
        let mut head = vec![NONE; keys.len()];
        let mut next = vec![NONE; group_of.len()];
        for (row, g) in group_of.iter().enumerate().rev() {
            next[row] = std::mem::replace(&mut head[*g as usize], row as u32);
        }
        self.table = Some(BuildSide {
            rows: Batch::new(self.build.schema(), columns),
            keys,
            head,
            next,
        });
        Ok(())
    }

    fn emit_pending(&mut self) -> Option<Batch> {
        let all = self.pending.take()?;
        let cut = all.len().min(BATCH_ROWS);
        if cut < all.len() {
            self.pending = Some(all.slice(cut, all.len()));
        }
        Some(all.slice(0, cut))
    }

    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure_built(ctx)?;
        loop {
            if let Some(b) = self.emit_pending() {
                return Ok(Some(b));
            }
            let Some(batch) = self.probe.next(ctx)? else {
                return Ok(None);
            };
            if self.probe_key >= batch.schema().arity() {
                return Err(QueryError::UnknownColumn(self.probe_key));
            }
            ctx.charge_cpu(ctx.charge.hash_probe_cycles_per_row * batch.len() as f64);
            let built = self.table.as_ref().expect("built above");
            let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
            for (p, key) in batch.logical_column(self.probe_key).iter().enumerate() {
                let Some(g) = built.keys.find(&[*key]) else {
                    continue;
                };
                let mut b = built.head[g as usize];
                while b != NONE {
                    build_rows.push(b);
                    probe_rows.push(p as u32);
                    b = built.next[b as usize];
                }
            }
            if build_rows.is_empty() {
                continue;
            }
            let build_arity = built.rows.schema().arity();
            let from_build = (0..build_arity).map(|c| take(built.rows.column(c), &build_rows));
            let from_probe =
                (0..batch.schema().arity()).map(|c| take(&batch.logical_column(c), &probe_rows));
            let columns = from_build.chain(from_probe).collect();
            self.pending = Some(Batch::new(self.schema.clone(), columns));
        }
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("hash_join");
        let out = self.next_inner(ctx);
        ctx.end_op(op);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Table;
    use crate::cost_charge::cycles;
    use crate::exec::{run_collect, total_rows};
    use crate::expr::Expr;
    use crate::ops::filter::Filter;
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
    fn joins_matching_keys() {
        let build = scan_of(
            "dim",
            vec![("k", vec![1, 2, 3]), ("name", vec![10, 20, 30])],
        );
        let probe = scan_of(
            "fact",
            vec![("fk", vec![2, 2, 3, 9]), ("amt", vec![200, 201, 300, 900])],
        );
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        let batches = run_collect(&mut j, &mut ctx).unwrap();
        assert_eq!(total_rows(&batches), 3);
        let b = &batches[0];
        assert_eq!(b.schema().arity(), 4);
        // Row for fk=3: [3, 30, 3, 300].
        let found = (0..b.len()).any(|r| b.row(r) == vec![3, 30, 3, 300]);
        assert!(found);
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let build = scan_of("dim", vec![("k", vec![1, 1]), ("v", vec![7, 8])]);
        let probe = scan_of("fact", vec![("fk", vec![1, 1, 1])]);
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        let batches = run_collect(&mut j, &mut ctx).unwrap();
        assert_eq!(total_rows(&batches), 6);
    }

    #[test]
    fn no_matches_empty_output() {
        let build = scan_of("dim", vec![("k", vec![1])]);
        let probe = scan_of("fact", vec![("fk", vec![2, 3])]);
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        assert!(run_collect(&mut j, &mut ctx).unwrap().is_empty());
    }

    #[test]
    fn build_closes_a_phase() {
        let build = scan_of("dim", vec![("k", vec![1, 2])]);
        let probe = scan_of("fact", vec![("fk", vec![1, 2, 2])]);
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        run_collect(&mut j, &mut ctx).unwrap();
        let phases = ctx.finish();
        assert_eq!(phases.len(), 2, "build phase + probe phase");
        // Phase 1 carries the build scan's IO; phase 2 the probe's.
        assert!(!phases[0].reads.is_empty());
        assert!(!phases[1].reads.is_empty());
    }

    #[test]
    fn bad_key_column_errors() {
        let build = scan_of("dim", vec![("k", vec![1])]);
        let probe = scan_of("fact", vec![("fk", vec![1])]);
        let mut j = HashJoin::new(build, probe, 5, 0);
        let mut ctx = ExecContext::calibrated();
        assert!(matches!(
            run_collect(&mut j, &mut ctx),
            Err(QueryError::UnknownColumn(5))
        ));
    }

    fn rows_of(batches: &[Batch]) -> Vec<Vec<i64>> {
        batches
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)))
            .collect()
    }

    #[test]
    fn duplicate_build_keys_keep_arrival_order_under_probe_order() {
        let build = scan_of(
            "dim",
            vec![("k", vec![1, 2, 1, 1]), ("v", vec![7, 0, 8, 9])],
        );
        let probe = scan_of(
            "fact",
            vec![("fk", vec![1, 3, 2, 1]), ("p", vec![10, 11, 12, 13])],
        );
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut j, &mut ctx).unwrap();
        assert_eq!(
            rows_of(&out),
            vec![
                vec![1, 7, 1, 10],
                vec![1, 8, 1, 10],
                vec![1, 9, 1, 10],
                vec![2, 0, 2, 12],
                vec![1, 7, 1, 13],
                vec![1, 8, 1, 13],
                vec![1, 9, 1, 13],
            ]
        );
    }

    /// Each probe batch's matches leave in `BATCH_ROWS` chunks and the
    /// remainder is flushed before the next probe batch is pulled: the
    /// batch boundaries are part of what downstream operators charge for.
    #[test]
    fn matches_of_one_probe_batch_leave_in_chunks_then_a_remainder() {
        let build = scan_of("dim", vec![("k", vec![7, 7, 7]), ("v", vec![0, 1, 2])]);
        // Probe batches of 4096 and 904 rows; every other row matches.
        let fk: Vec<i64> = (0..5000).map(|i| 7 + i % 2).collect();
        let probe = scan_of("fact", vec![("fk", fk), ("i", (0..5000).collect())]);
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        let mut lens = Vec::new();
        let mut rows = Vec::new();
        while let Some(b) = j.next(&mut ctx).unwrap() {
            lens.push(b.len());
            rows.extend(rows_of(&[b]));
        }
        assert_eq!(lens, [4096, 2048, 1356], "2048 x 3, then 452 x 3");
        let expect: Vec<Vec<i64>> = (0..5000)
            .step_by(2)
            .flat_map(|i| (0..3).map(move |v| vec![7, v, 7, i]))
            .collect();
        assert_eq!(rows, expect);
        let tally = |name| ctx.op_tallies().iter().find(|t| t.name == name).unwrap();
        assert_eq!(tally("hash_join").calls, 4);
        // 1 build batch + end, 2 probe batches + end.
        assert_eq!(tally("scan").calls, 5);
    }

    /// Both inputs arrive as selection-carrying views, the later ones
    /// over `offset > 0` windows of the scan.
    #[test]
    fn selected_and_windowed_inputs_join_like_their_dense_copies() {
        let n = BATCH_ROWS as i64 + 500;
        let keys: Vec<i64> = (0..n).map(|i| (i * 13) % 300).collect();
        let tags: Vec<i64> = (0..n).collect();
        let keep = |threshold: i64| -> Vec<usize> {
            (0..n as usize).filter(|i| keys[*i] > threshold).collect()
        };
        let view = |name, threshold| -> Box<dyn Operator> {
            Box::new(Filter::new(
                scan_of(name, vec![("k", keys.clone()), ("tag", tags.clone())]),
                Expr::gt(Expr::Col(0), Expr::Lit(threshold)),
            ))
        };
        let dense = |name, threshold| {
            let pick = |col: &[i64]| keep(threshold).iter().map(|i| col[*i]).collect();
            scan_of(name, vec![("k", pick(&keys)), ("tag", pick(&tags))])
        };
        let run = |mut j: HashJoin| {
            let mut ctx = ExecContext::calibrated();
            rows_of(&run_collect(&mut j, &mut ctx).unwrap())
        };
        let got = run(HashJoin::new(view("b", 270), view("p", 250), 0, 0));
        let expect = run(HashJoin::new(dense("b", 270), dense("p", 250), 0, 0));
        assert!(got.len() > BATCH_ROWS, "{} matches", got.len());
        assert_eq!(got, expect);
    }

    #[test]
    fn an_empty_side_yields_nothing_but_is_still_charged() {
        for (build, probe) in [(vec![], vec![1, 2]), (vec![1, 2], vec![])] {
            let (build_rows, probe_rows) = (build.len() as f64, probe.len() as f64);
            let mut j = HashJoin::new(
                scan_of("dim", vec![("k", build)]),
                scan_of("fact", vec![("fk", probe)]),
                0,
                0,
            );
            let mut ctx = ExecContext::calibrated();
            assert!(j.next(&mut ctx).unwrap().is_none());
            let own = ctx.op_tallies().iter().find(|t| t.name == "hash_join");
            let expect = cycles(ctx.charge.hash_build_cycles_per_row * build_rows)
                + cycles(ctx.charge.hash_probe_cycles_per_row * probe_rows);
            assert_eq!(own.unwrap().cpu, expect);
        }
    }

    #[test]
    fn extreme_keys_join() {
        let build = scan_of("dim", vec![("k", vec![i64::MAX, i64::MIN, 0, -1])]);
        let probe = scan_of(
            "fact",
            vec![("fk", vec![-1, i64::MIN, 1, i64::MAX, i64::MIN])],
        );
        let mut j = HashJoin::new(build, probe, 0, 0);
        let mut ctx = ExecContext::calibrated();
        let got = rows_of(&run_collect(&mut j, &mut ctx).unwrap());
        let expect: Vec<Vec<i64>> = [-1, i64::MIN, i64::MAX, i64::MIN]
            .iter()
            .map(|k| vec![*k, *k])
            .collect();
        assert_eq!(got, expect);
    }
}
