//! Hash equi-join: blocking build, streaming probe.
//!
//! The paper's Sec. 4.1 example operator: fast, but it "relies on using a
//! large chunk of memory", which is power-expensive — the optimizer may
//! flip to nested-loop under an energy objective. The build side closes a
//! pipeline phase (its IO+CPU cannot overlap the probe's).
//!
//! Both sides stay column-major. The build keeps its columns plus, per
//! distinct key, a chain of row indices in arrival order, found through
//! one of two indexes. When the build keys span at most twice as many
//! values as there are build rows, the chains start at `head[key − min]`
//! and a probe key costs one bounds-checked load; otherwise distinct keys
//! intern into a `GroupTable` and its group ids index the chains. A
//! probe batch turns its whole key column into `(build row, probe row)`
//! index pairs and every output column is gathered from them once.
//! Matches leave in probe order, then build arrival order, in windows of
//! at most [`BATCH_ROWS`] over that one gathered batch.

use crate::batch::{take, Batch, BATCH_ROWS};
use crate::exec::{ExecContext, Operator, QueryError};
use crate::ops::group_table::GroupTable;
use crate::schema::Schema;
use crate::value::Datum;
use std::borrow::Cow;
use std::sync::Arc;

/// End of a build chain.
const NONE: u32 = u32::MAX;

/// How a probe key finds the head of its build chain.
enum Index {
    /// The keys span at most twice the build rows: key `k`'s chain
    /// starts at `head[k − min]`, no bigger than a hash table's slots.
    Dense { min: Datum },
    /// Distinct build keys → group ids, whose chains start at
    /// `head[group]`.
    Hashed(GroupTable),
}

/// The materialized build side.
struct BuildSide {
    /// Every build row, dense, in arrival order.
    rows: Batch,
    index: Index,
    /// First build row of each index entry, `NONE`-terminated through
    /// `next`.
    head: Vec<u32>,
    /// The next build row with the same key, in arrival order.
    next: Vec<u32>,
}

/// The least of `keys` and the number of values from it to the greatest,
/// when that span is at most twice the number of keys (no keys: an empty
/// span). The span is taken in `i128`: `i64::MAX − i64::MIN` overflows.
fn dense_span(keys: &[Datum]) -> Option<(Datum, usize)> {
    let Some(&first) = keys.first() else {
        return Some((0, 0));
    };
    let (min, max) = (keys.iter()).fold((first, first), |(lo, hi), k| (lo.min(*k), hi.max(*k)));
    let span = i128::from(max) - i128::from(min) + 1;
    (span <= 2 * keys.len() as i128).then_some((min, span as usize))
}

impl BuildSide {
    /// Index the build rows `columns` on column `key`, each key's rows
    /// chained in arrival order. An empty build names no key column.
    fn new(schema: Arc<Schema>, columns: Vec<Vec<Datum>>, key: usize) -> Self {
        let keys = columns.get(key).map_or(&[][..], Vec::as_slice);
        assert!(keys.len() < NONE as usize, "build rows fit u32");
        let (index, (head, next)) = match dense_span(keys) {
            Some((min, span)) => {
                let slots = keys.iter().map(|k| k.wrapping_sub(min) as usize);
                (Index::Dense { min }, chains(span, slots))
            }
            None => {
                let mut table = GroupTable::new(1);
                let mut group_of = Vec::with_capacity(keys.len());
                table.intern(&[Cow::Borrowed(keys)], keys.len(), &mut group_of);
                let slots = group_of.iter().map(|g| *g as usize);
                let chains = chains(table.len(), slots);
                (Index::Hashed(table), chains)
            }
        };
        BuildSide {
            rows: Batch::new(schema, columns),
            index,
            head,
            next,
        }
    }

    /// Replace `build_rows` and `probe_rows` with a `(build row, probe
    /// row)` pair per match of each of the probe `keys`, in probe order
    /// then build arrival order.
    fn probe(&self, keys: &[Datum], build_rows: &mut Vec<u32>, probe_rows: &mut Vec<u32>) {
        build_rows.clear();
        probe_rows.clear();
        match &self.index {
            Index::Dense { min } => self.walk(keys, build_rows, probe_rows, |k| {
                // A key past `max`, or below `min` by wrapping, lands
                // past the index.
                let at = usize::try_from(k.wrapping_sub(*min) as u64).unwrap_or(usize::MAX);
                self.head.get(at).copied().unwrap_or(NONE)
            }),
            Index::Hashed(table) => self.walk(keys, build_rows, probe_rows, |k| {
                table.find(&[k]).map_or(NONE, |g| self.head[g as usize])
            }),
        }
    }

    /// [`Self::probe`] with `first` the head of a key's chain.
    fn walk(
        &self,
        keys: &[Datum],
        build_rows: &mut Vec<u32>,
        probe_rows: &mut Vec<u32>,
        first: impl Fn(Datum) -> u32,
    ) {
        for (p, key) in keys.iter().enumerate() {
            let mut b = first(*key);
            while b != NONE {
                build_rows.push(b);
                probe_rows.push(p as u32);
                b = self.next[b as usize];
            }
        }
    }
}

/// `(head, next)` chains over `entries` index entries of the rows whose
/// entries `slots` lists in arrival order. Threading the rows last to
/// first leaves every chain in arrival order with no tail pointers.
fn chains(
    entries: usize,
    slots: impl DoubleEndedIterator<Item = usize> + ExactSizeIterator,
) -> (Vec<u32>, Vec<u32>) {
    let mut head = vec![NONE; entries];
    let mut next = vec![NONE; slots.len()];
    for (row, slot) in slots.enumerate().rev() {
        next[row] = std::mem::replace(&mut head[slot], row as u32);
    }
    (head, next)
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
    /// One probe batch's match pairs, reused from batch to batch.
    build_rows: Vec<u32>,
    probe_rows: Vec<u32>,
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
            build_rows: Vec::new(),
            probe_rows: Vec::new(),
        }
    }

    fn ensure_built(&mut self, ctx: &mut ExecContext) -> Result<(), QueryError> {
        if self.table.is_some() {
            return Ok(());
        }
        let key = self.build_key;
        let mut columns = vec![Vec::new(); self.build.schema().arity()];
        while let Some(batch) = self.build.next(ctx)? {
            if key >= batch.schema().arity() {
                return Err(QueryError::UnknownColumn(key));
            }
            for (c, column) in columns.iter_mut().enumerate() {
                batch.append_column(c, column);
            }
        }
        let rows = columns.first().map_or(0, Vec::len);
        ctx.charge_cpu(ctx.charge.hash_build_cycles_per_row * rows as f64);
        // The build is a pipeline breaker.
        ctx.phase_break();
        self.table = Some(BuildSide::new(self.build.schema(), columns, key));
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
            let (build_rows, probe_rows) = (&mut self.build_rows, &mut self.probe_rows);
            let keys = batch.logical_column(self.probe_key);
            built.probe(&keys, build_rows, probe_rows);
            if build_rows.is_empty() {
                continue;
            }
            let build_arity = built.rows.schema().arity();
            let from_build = (0..build_arity).map(|c| take(built.rows.column(c), build_rows));
            let from_probe = (0..batch.schema().arity()).map(|c| batch.take_column(c, probe_rows));
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

    /// Whether a build over `keys` indexed them densely, and the
    /// `(build row, probe row)` pairs of probing it with `probe`.
    fn index_and_pairs(keys: &[i64], probe: &[i64]) -> (bool, Vec<(u32, u32)>) {
        let schema = Schema::new(vec![("k", ColumnType::Int)]);
        let side = BuildSide::new(schema, vec![keys.to_vec()], 0);
        let (mut build_rows, mut probe_rows) = (Vec::new(), Vec::new());
        side.probe(probe, &mut build_rows, &mut probe_rows);
        let dense = matches!(side.index, Index::Dense { .. });
        (dense, build_rows.into_iter().zip(probe_rows).collect())
    }

    #[test]
    fn keys_at_the_ends_of_i64_index_without_overflow() {
        let probe = [i64::MIN, 0, -1, i64::MAX];
        let (dense, pairs) = index_and_pairs(&[i64::MAX, i64::MIN], &probe);
        assert!(!dense, "the whole i64 range hashes");
        assert_eq!(pairs, [(1, 0), (0, 3)]);
        // Two keys at one end index densely; a probe key at the other end
        // lands just past the index (i64::MIN − (i64::MAX − 1) wraps to
        // 2) or wraps below it.
        let probe = [i64::MIN, i64::MAX - 1, -1, i64::MAX, i64::MAX - 2];
        let (dense, pairs) = index_and_pairs(&[i64::MAX, i64::MAX - 1], &probe);
        assert!(dense);
        assert_eq!(pairs, [(1, 1), (0, 3)]);
        let probe = [i64::MAX, i64::MIN, 0, i64::MIN + 1, i64::MIN + 2];
        let (dense, pairs) = index_and_pairs(&[i64::MIN + 1, i64::MIN], &probe);
        assert!(dense);
        assert_eq!(pairs, [(1, 1), (0, 3)]);
    }

    #[test]
    fn an_all_negative_range_indexes_from_its_least_key() {
        let (dense, pairs) = index_and_pairs(&[-3, -5, -4], &[-6, -5, -4, -3, -2, 0]);
        assert!(dense);
        assert_eq!(pairs, [(1, 1), (2, 2), (0, 3)]);
        assert_eq!(dense_span(&[-3, -5, -4]), Some((-5, 3)));
    }

    #[test]
    fn a_span_of_twice_the_rows_is_dense_and_one_more_hashes() {
        // Three rows: 10..=15 are six values, 10..=16 seven.
        for (max, dense) in [(15, true), (16, false)] {
            let (got, pairs) = index_and_pairs(&[10, max, 12], &[max, 11, 10, 12]);
            assert_eq!(got, dense, "keys up to {max}");
            assert_eq!(pairs, [(1, 0), (0, 2), (2, 3)]);
        }
        assert_eq!(dense_span(&[10, 15, 12]), Some((10, 6)));
        assert_eq!(dense_span(&[10, 16, 12]), None);
    }

    #[test]
    fn an_empty_build_indexes_nothing() {
        let (dense, pairs) = index_and_pairs(&[], &[0, 1, i64::MIN, i64::MAX]);
        assert!(dense);
        assert!(pairs.is_empty());
    }

    #[test]
    fn duplicate_keys_chain_in_arrival_order_on_both_paths() {
        for (far, dense) in [(2, true), (1 << 40, false)] {
            let (got, pairs) = index_and_pairs(&[1, far, 1, 1, far], &[far, 1, 3]);
            assert_eq!(got, dense, "keys 1 and {far}");
            assert_eq!(pairs, [(1, 0), (4, 0), (0, 1), (2, 1), (3, 1)]);
        }
    }
}
