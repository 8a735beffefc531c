//! Sort: in-memory when the input fits the grant, external (run
//! generation + merge, with spill IO charged) when it does not.
//!
//! External sort is the JouleSort workload (\[RSR+07\]) and the memory-
//! grant knob of Sec. 4.1: a smaller grant saves DRAM power but buys
//! spill IO.
//!
//! The input is kept column-major; the sort itself orders a `u32` row
//! permutation, and each column is gathered through it once. One key
//! sorts `(key, row)` pairs unstably, a descending key flipped to `!key`:
//! the row breaks ties, so the order is the stable one. More keys sort
//! the permutation stably with a comparator. Output batches are
//! [`BATCH_ROWS`] windows over that one sorted batch.

use crate::batch::{take, Batch, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::schema::Schema;
use crate::value::Datum;
use grail_power::units::Bytes;
use grail_sim::perf::AccessPattern;
use grail_sim::StorageTarget;
use std::cmp::Ordering;
use std::sync::Arc;

/// Sort direction per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A sort specification: key columns with directions, a memory grant,
/// and a spill target for external runs.
#[derive(Debug, Clone)]
pub struct SortSpec {
    /// `(column, order)` keys, most significant first.
    pub keys: Vec<(usize, SortOrder)>,
    /// Memory grant in bytes; inputs larger than this spill.
    pub memory_grant: u64,
    /// Where spill runs are written/read.
    pub spill_target: StorageTarget,
}

/// The sort operator.
pub struct Sort {
    input: Box<dyn Operator>,
    spec: SortSpec,
    schema: Arc<Schema>,
    sorted: Option<Batch>,
    cursor: usize,
}

impl Sort {
    /// Sort `input` by `spec`.
    pub fn new(input: Box<dyn Operator>, spec: SortSpec) -> Self {
        let schema = input.schema();
        Sort {
            input,
            spec,
            schema,
            sorted: None,
            cursor: 0,
        }
    }

    /// Order of rows `a` and `b` of column-major `cols` under `keys`.
    fn compare(keys: &[(usize, SortOrder)], cols: &[Vec<Datum>], a: u32, b: u32) -> Ordering {
        for (col, order) in keys {
            let o = cols[*col][a as usize].cmp(&cols[*col][b as usize]);
            let o = match order {
                SortOrder::Asc => o,
                SortOrder::Desc => o.reverse(),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    /// The rows of column-major `cols` in `keys` order, ties in input
    /// order.
    fn permutation(keys: &[(usize, SortOrder)], cols: &[Vec<Datum>]) -> Vec<u32> {
        let rows = cols.first().map_or(0, Vec::len);
        let rows = 0..u32::try_from(rows).expect("sort input fits u32");
        let &[(col, order)] = keys else {
            let mut perm: Vec<u32> = rows.collect();
            perm.sort_by(|a, b| Sort::compare(keys, cols, *a, *b));
            return perm;
        };
        // `!v` reverses the order of i64s and overflows nowhere.
        let flip = if order == SortOrder::Desc { !0 } else { 0 };
        let mut pairs: Vec<(Datum, u32)> = (cols[col].iter().zip(rows))
            .map(|(v, row)| (v ^ flip, row))
            .collect();
        pairs.sort_unstable();
        pairs.into_iter().map(|(_, row)| row).collect()
    }

    fn ensure_sorted(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.sorted.is_some() {
            return Ok(());
        }
        for (col, _) in &self.spec.keys {
            if *col >= self.schema.arity() {
                return Err(QueryError::UnknownColumn(*col));
            }
        }
        let mut cols = vec![Vec::new(); self.schema.arity()];
        while let Some(batch) = self.input.next(ctx)? {
            for (c, col) in cols.iter_mut().enumerate() {
                batch.append_column(c, col);
            }
        }
        let rows = cols.first().map_or(0, Vec::len);
        let n = rows as f64;
        let perm = Sort::permutation(&self.spec.keys, &cols);
        // CPU: n log2 n comparisons.
        let cmps = if n > 1.0 { n * n.log2() } else { 0.0 };
        ctx.charge_cpu(ctx.charge.sort_cycles_per_cmp * cmps);

        // Spill model: if the input exceeds the grant, one full
        // write+read pass per extra merge level.
        let bytes = rows as u64 * self.schema.arity() as u64 * 8;
        if bytes > self.spec.memory_grant && self.spec.memory_grant > 0 {
            let runs = bytes.div_ceil(self.spec.memory_grant);
            // Single merge pass handles fan-in up to ~64; deeper inputs
            // pay extra passes.
            let mut passes = 1u64;
            let mut fan = runs;
            while fan > 64 {
                fan = fan.div_ceil(64);
                passes += 1;
            }
            for _ in 0..passes {
                ctx.charge_write(
                    self.spec.spill_target,
                    Bytes::new(bytes),
                    AccessPattern::Sequential,
                );
                ctx.charge_read(
                    self.spec.spill_target,
                    Bytes::new(bytes),
                    AccessPattern::Sequential,
                );
            }
            ctx.charge_cpu(ctx.charge.merge_cycles_per_row * n * passes as f64);
        }
        // Sorting is a full pipeline breaker.
        ctx.phase_break();
        let sorted = cols.iter().map(|c| take(c, &perm)).collect();
        self.sorted = Some(Batch::new(self.schema.clone(), sorted));
        Ok(())
    }
}

impl Sort {
    fn next_inner(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        self.ensure_sorted(ctx)?;
        let sorted = self.sorted.as_ref().expect("sorted above");
        if self.cursor >= sorted.len() {
            return Ok(None);
        }
        let end = (self.cursor + BATCH_ROWS).min(sorted.len());
        let out = sorted.slice(self.cursor, end);
        self.cursor = end;
        Ok(Some(out))
    }
}

impl Operator for Sort {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op("sort");
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
    use crate::expr::Expr;
    use crate::ops::filter::Filter;
    use crate::ops::scan::{ColumnarScan, StoredTable};
    use crate::schema::ColumnType;
    use grail_sim::DiskId;

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

    fn spec(keys: Vec<(usize, SortOrder)>, grant: u64) -> SortSpec {
        SortSpec {
            keys,
            memory_grant: grant,
            spill_target: StorageTarget::Disk(DiskId(0)),
        }
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let input = scan_of(vec![("k", vec![3, 1, 2]), ("v", vec![30, 10, 20])]);
        let mut s = Sort::new(input, spec(vec![(0, SortOrder::Asc)], u64::MAX));
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut s, &mut ctx).unwrap();
        assert_eq!(out[0].column(0), &[1, 2, 3]);
        assert_eq!(out[0].column(1), &[10, 20, 30]);

        let input = scan_of(vec![("k", vec![3, 1, 2])]);
        let mut s = Sort::new(input, spec(vec![(0, SortOrder::Desc)], u64::MAX));
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut s, &mut ctx).unwrap();
        assert_eq!(out[0].column(0), &[3, 2, 1]);
    }

    #[test]
    fn multi_key_sort_is_stable_order() {
        let input = scan_of(vec![("a", vec![1, 1, 0, 0]), ("b", vec![5, 3, 9, 2])]);
        let mut s = Sort::new(
            input,
            spec(vec![(0, SortOrder::Asc), (1, SortOrder::Desc)], u64::MAX),
        );
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut s, &mut ctx).unwrap();
        assert_eq!(out[0].column(0), &[0, 0, 1, 1]);
        assert_eq!(out[0].column(1), &[9, 2, 5, 3]);
    }

    #[test]
    fn output_is_permutation_of_input() {
        let vals: Vec<i64> = (0..5000)
            .map(|i| (i * 2_654_435_761u64 % 10_000) as i64)
            .collect();
        let mut expect = vals.clone();
        expect.sort_unstable();
        let input = scan_of(vec![("k", vals)]);
        let mut s = Sort::new(input, spec(vec![(0, SortOrder::Asc)], u64::MAX));
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut s, &mut ctx).unwrap();
        let got: Vec<i64> = out.iter().flat_map(|b| b.column(0).to_vec()).collect();
        assert_eq!(got, expect);
        assert_eq!(total_rows(&out), 5000);
    }

    #[test]
    fn small_grant_charges_spill_io() {
        let vals: Vec<i64> = (0..10_000).collect();
        let run = |grant: u64| {
            let input = scan_of(vec![("k", vals.clone())]);
            let mut s = Sort::new(input, spec(vec![(0, SortOrder::Asc)], grant));
            let mut ctx = ExecContext::calibrated();
            let out = run_collect(&mut s, &mut ctx).unwrap();
            assert_eq!(total_rows(&out), 10_000);
            ctx.finish()
                .iter()
                .flat_map(|t| t.reads.iter())
                .map(|r| r.bytes.get())
                .sum::<u64>()
        };
        let no_spill = run(u64::MAX);
        let spill = run(8 * 1024); // 8 KiB grant for an 80 KB input
        assert!(spill > no_spill, "{spill} vs {no_spill}");
        // One write + one read pass of 80 KB each.
        assert_eq!(spill - no_spill, 2 * 80_000);
    }

    #[test]
    fn bad_key_errors() {
        let input = scan_of(vec![("k", vec![1])]);
        let mut s = Sort::new(input, spec(vec![(7, SortOrder::Asc)], u64::MAX));
        let mut ctx = ExecContext::calibrated();
        assert!(matches!(
            run_collect(&mut s, &mut ctx),
            Err(QueryError::UnknownColumn(7))
        ));
    }

    /// Ties keep input order across input batches, and the output leaves
    /// in `BATCH_ROWS` windows.
    #[test]
    fn stable_across_input_batches_and_windowed_on_the_way_out() {
        let n = 2 * BATCH_ROWS as i64 + 300;
        let input = scan_of(vec![
            ("k", (0..n).map(|i| (i * 7) % 4).collect()),
            ("arrival", (0..n).collect()),
        ]);
        let mut s = Sort::new(input, spec(vec![(0, SortOrder::Desc)], u64::MAX));
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut s, &mut ctx).unwrap();
        let lens: Vec<usize> = out.iter().map(|b| b.len()).collect();
        assert_eq!(lens, [BATCH_ROWS, BATCH_ROWS, 300]);
        let rows: Vec<(i64, i64)> = out
            .iter()
            .flat_map(|b| b.column(0).iter().copied().zip(b.column(1).iter().copied()))
            .collect();
        let mut expect: Vec<(i64, i64)> = (0..n).map(|i| ((i * 7) % 4, i)).collect();
        expect.sort_by_key(|(k, _)| std::cmp::Reverse(*k));
        assert_eq!(rows, expect);
    }

    /// Filter hands over selection-carrying views of the scan's second,
    /// `offset > 0` window as well as its first.
    #[test]
    fn selected_and_windowed_input_sorts_like_its_dense_copy() {
        let n = BATCH_ROWS as i64 + 800;
        let k: Vec<i64> = (0..n).map(|i| (i * 31) % 97 - 40).collect();
        let tag: Vec<i64> = (0..n).collect();
        let kept: Vec<usize> = (0..n as usize).filter(|i| k[*i] > -10).collect();
        let pick = |col: &[i64]| -> Vec<i64> { kept.iter().map(|i| col[*i]).collect() };
        let keys = vec![(0, SortOrder::Asc), (1, SortOrder::Desc)];
        let run = |input: Box<dyn Operator>| {
            let mut s = Sort::new(input, spec(keys.clone(), u64::MAX));
            let mut ctx = ExecContext::calibrated();
            let out = run_collect(&mut s, &mut ctx).unwrap();
            let k: Vec<i64> = out.iter().flat_map(|b| b.column(0).to_vec()).collect();
            let tag: Vec<i64> = out.iter().flat_map(|b| b.column(1).to_vec()).collect();
            (k, tag)
        };
        let view = Filter::new(
            scan_of(vec![("k", k.clone()), ("tag", tag.clone())]),
            Expr::gt(Expr::Col(0), Expr::Lit(-10)),
        );
        let got = run(Box::new(view));
        assert_eq!(got.0.len(), kept.len());
        assert_eq!(
            got,
            run(scan_of(vec![("k", pick(&k)), ("tag", pick(&tag))]))
        );
    }

    #[test]
    fn extreme_keys_and_empty_input() {
        let input = scan_of(vec![("k", vec![0, i64::MAX, i64::MIN, -1, i64::MAX])]);
        let mut s = Sort::new(input, spec(vec![(0, SortOrder::Desc)], u64::MAX));
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(&mut s, &mut ctx).unwrap();
        assert_eq!(out[0].column(0), &[i64::MAX, i64::MAX, 0, -1, i64::MIN]);

        let mut s = Sort::new(
            scan_of(vec![("k", vec![])]),
            spec(vec![(0, SortOrder::Asc)], 64),
        );
        let mut ctx = ExecContext::calibrated();
        assert!(s.next(&mut ctx).unwrap().is_none());
        assert_eq!(
            ctx.finish().len(),
            1,
            "the scan's own charges, nothing spilled"
        );
    }
}
