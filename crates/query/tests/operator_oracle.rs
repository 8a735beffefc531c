//! The column-at-a-time `HashAggregate`, `HashJoin` and `Sort` against
//! the row-at-a-time operators they replaced (`common/reference.rs`), on
//! seeded-LCG inputs: dense, windowed (`offset > 0`) and selection-carrying
//! batches, empty batches and empty inputs, key domains from two values
//! (fan-out past `BATCH_ROWS` per probe batch) to the `i64` extremes, bad
//! column indices, every spill grant. Equal means everything a caller or
//! the simulator can observe: each batch `next()` returns, the error and
//! where it struck, every `OpTally`, every phase with each `ReadDemand`.
//! The feeding operator charges a fractional cost and a read per batch,
//! so a pull that moves across a `phase_break`, or a `charge_cpu` that is
//! split or merged, changes a rounded total.
//!
//! The join cases also run the operators no template executes but
//! EXT-OPT prices — `NestedLoopJoin`, `IndexNlJoin`, `IndexRangeScan` —
//! on the same inputs: same row multiset as the hash join, same rows as
//! a `Filter` over a `ColumnarScan`.

use grail_power::units::Bytes;
use grail_query::batch::{Batch, Table, BATCH_ROWS};
use grail_query::exec::{ExecContext, OpTally, Operator, QueryError, Tally};
use grail_query::expr::Expr;
use grail_query::ops::sort::SortOrder;
use grail_query::ops::{
    AggFunc, AggSpec, ColumnarScan, Filter, HashAggregate, HashJoin, IndexNlJoin, IndexRangeScan,
    IndexedTable, NestedLoopJoin, Sort, SortSpec, StoredTable,
};
use grail_query::schema::{ColumnType, Schema};
use grail_query::value::Datum;
use grail_sim::perf::AccessPattern;
use grail_sim::{DiskId, StorageTarget};
use std::collections::VecDeque;
use std::sync::Arc;

#[path = "common/reference.rs"]
mod reference;
use reference::{RowHashAggregate, RowHashJoin, RowSort};

const CASES: u64 = 1200;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Where a case's values come from.
#[derive(Clone, Copy)]
enum Domain {
    /// `0..n`: duplicates, fan-out, few groups.
    Small(usize),
    /// The ends of `i64` and their neighbours.
    Extremes,
    /// 31 random bits around zero.
    Wide,
}

impl Domain {
    fn pick(rng: &mut Lcg) -> Domain {
        match rng.below(6) {
            0 => Domain::Small(2),
            1 | 2 => Domain::Small(7),
            3 => Domain::Small(60),
            4 => Domain::Extremes,
            _ => Domain::Wide,
        }
    }

    fn draw(self, rng: &mut Lcg) -> Datum {
        const ENDS: [Datum; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        match self {
            Domain::Small(n) => rng.below(n) as Datum,
            Domain::Extremes => ENDS[rng.below(ENDS.len())],
            Domain::Wide => rng.next() as Datum - (1 << 30),
        }
    }
}

fn schema_of(arity: usize) -> Arc<Schema> {
    const NAMES: [&str; 4] = ["c0", "c1", "c2", "c3"];
    Schema::new(
        NAMES[..arity]
            .iter()
            .map(|n| (*n, ColumnType::Int))
            .collect(),
    )
}

/// One batch of `len` logical rows in a random representation: fresh and
/// dense, a window into longer columns, or a selection over either.
fn gen_batch(rng: &mut Lcg, schema: &Arc<Schema>, len: usize, domain: Domain) -> Batch {
    let shape = rng.below(4);
    let (front, back) = if shape == 0 {
        (0, 0)
    } else {
        (1 + rng.below(5), rng.below(5))
    };
    // A selection keeps `len` of `len + dropped` window rows.
    let dropped = if shape >= 2 { rng.below(len + 2) } else { 0 };
    let physical = front + len + dropped + back;
    let columns: Vec<Arc<Vec<Datum>>> = (0..schema.arity())
        .map(|_| Arc::new((0..physical).map(|_| domain.draw(rng)).collect()))
        .collect();
    let window = if shape == 2 {
        // Selection straight over the backing columns (offset 0).
        Batch::from_shared(schema.clone(), columns, 0, front + len + dropped)
    } else {
        Batch::from_shared(schema.clone(), columns, front, len + dropped)
    };
    if shape < 2 {
        return window;
    }
    let mut mask = vec![false; window.len()];
    let mut kept = 0;
    while kept < len {
        let at = rng.below(mask.len());
        if !mask[at] {
            mask[at] = true;
            kept += 1;
        }
    }
    window.filter(&mask)
}

fn gen_input(
    rng: &mut Lcg,
    arity: usize,
    max_batches: usize,
    max_len: usize,
    domain: Domain,
) -> (Arc<Schema>, Vec<Batch>) {
    let schema = schema_of(arity);
    let batches = (0..rng.below(max_batches + 1))
        .map(|_| {
            let len = if rng.one_in(6) {
                0
            } else {
                rng.below(max_len + 1)
            };
            gen_batch(rng, &schema, len, domain)
        })
        .collect();
    (schema, batches)
}

/// Replays prepared batches, charging a fractional CPU cost and one read
/// per batch under its own operator name.
struct Feed {
    name: &'static str,
    schema: Arc<Schema>,
    batches: VecDeque<Batch>,
}

impl Feed {
    fn boxed(name: &'static str, input: &(Arc<Schema>, Vec<Batch>)) -> Box<dyn Operator> {
        Box::new(Feed {
            name,
            schema: input.0.clone(),
            batches: input.1.iter().cloned().collect(),
        })
    }
}

impl Operator for Feed {
    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<Batch>, QueryError> {
        let op = ctx.begin_op(self.name);
        let out = self.batches.pop_front();
        if let Some(b) = &out {
            ctx.charge_cpu(0.3 * b.len() as f64 + 0.4);
            ctx.charge_read(
                StorageTarget::Disk(DiskId(0)),
                Bytes::new(8 * b.len() as u64 + 1),
                AccessPattern::Sequential,
            );
        }
        ctx.end_op(op);
        Ok(out)
    }
}

/// Everything observable of driving an operator to its end or its error.
#[derive(Debug, PartialEq)]
struct Run {
    /// Column-major values of each batch returned, empty batches included.
    batches: Vec<Vec<Vec<Datum>>>,
    error: Option<QueryError>,
    tallies: Vec<OpTally>,
    phases: Vec<Tally>,
}

impl Run {
    fn lens(&self) -> Vec<usize> {
        let rows = |b: &Vec<Vec<Datum>>| b.first().map_or(0, Vec::len);
        self.batches.iter().map(rows).collect()
    }

    /// The rows returned, in delivery order.
    fn rows(&self) -> Vec<Vec<Datum>> {
        let mut rows = Vec::new();
        for (cols, len) in self.batches.iter().zip(self.lens()) {
            rows.extend((0..len).map(|r| cols.iter().map(|c| c[r]).collect::<Vec<_>>()));
        }
        rows
    }

    /// The rows returned, sorted: the multiset two algorithms must share.
    fn sorted_rows(&self) -> Vec<Vec<Datum>> {
        let mut rows = self.rows();
        rows.sort_unstable();
        rows
    }
}

/// The logical rows of `input`, stored plain: what an index is built over.
fn stored_of(input: &(Arc<Schema>, Vec<Batch>)) -> Arc<StoredTable> {
    let columns = (0..input.0.arity())
        .map(|c| input.1.iter().flat_map(|b| b.gather(c)).collect())
        .collect();
    let table = Arc::new(Table::new("t", input.0.clone(), columns));
    let target = StorageTarget::Disk(DiskId(1));
    Arc::new(StoredTable::columnar_plain(table, target))
}

fn drive(mut op: impl Operator) -> Run {
    let mut ctx = ExecContext::calibrated();
    let mut batches = Vec::new();
    let error = loop {
        match op.next(&mut ctx) {
            Ok(Some(b)) => batches.push((0..b.schema().arity()).map(|c| b.gather(c)).collect()),
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    Run {
        batches,
        error,
        tallies: ctx.op_tallies().to_vec(),
        phases: ctx.finish(),
    }
}

/// A column index, now and then one past the schema.
fn column(rng: &mut Lcg, arity: usize) -> usize {
    if rng.one_in(25) {
        arity + rng.below(2)
    } else {
        rng.below(arity)
    }
}

#[test]
fn aggregate_matches_the_row_at_a_time_oracle() {
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let (mut grown, mut failed, mut groupless, mut empty) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Lcg(0xA66 ^ (case << 20));
        let arity = 1 + rng.below(4);
        let domain = Domain::pick(&mut rng);
        let input = gen_input(&mut rng, arity, 4, 150, domain);
        let group_by: Vec<usize> = (0..rng.below(4)).map(|_| column(&mut rng, arity)).collect();
        let aggs: Vec<AggSpec> = (0..rng.below(5))
            .map(|_| AggSpec::new(FUNCS[rng.below(5)], column(&mut rng, arity), "a"))
            .collect();
        let got = drive(HashAggregate::new(
            Feed::boxed("feed", &input),
            group_by.clone(),
            aggs.clone(),
        ));
        let want = drive(RowHashAggregate::new(
            Feed::boxed("feed", &input),
            group_by.clone(),
            aggs,
        ));
        assert_eq!(got, want, "case {case}: group by {group_by:?}");
        grown += (got.lens().first() > Some(&16)) as u32;
        failed += got.error.is_some() as u32;
        groupless += (group_by.is_empty() && got.error.is_none()) as u32;
        empty += (got.lens() == [0]) as u32;
    }
    assert!(
        grown > 50 && failed > 50 && groupless > 100 && empty > 20,
        "coverage: {grown} grew the table, {failed} failed, {groupless} group-less, {empty} empty"
    );
}

#[test]
fn hash_join_matches_the_row_at_a_time_oracle() {
    /// The nested loop evaluates its predicate once per pair, through a
    /// one-row batch: compared where the cross product stays this small.
    const NL_PAIRS: usize = 4096;
    /// The row-at-a-time twins run where the join returns at most this
    /// many rows: several output batches, not the heaviest fan-outs.
    const TWIN_ROWS: usize = 2 * BATCH_ROWS;
    let (mut chunked, mut failed, mut unmatched, mut empty_build) = (0, 0, 0, 0);
    let (mut nested, mut probed, mut ranged) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Lcg(0x101 ^ (case << 20));
        let (build_arity, probe_arity) = (1 + rng.below(3), 1 + rng.below(3));
        // One case in four is all fan-out: two key values on both sides.
        let domain = if rng.one_in(4) {
            Domain::Small(2)
        } else {
            Domain::pick(&mut rng)
        };
        let build = gen_input(&mut rng, build_arity, 3, 150, domain);
        let probe = gen_input(&mut rng, probe_arity, 4, 150, domain);
        let (build_key, probe_key) = (column(&mut rng, build_arity), column(&mut rng, probe_arity));
        let got = drive(HashJoin::new(
            Feed::boxed("build", &build),
            Feed::boxed("probe", &probe),
            build_key,
            probe_key,
        ));
        let want = drive(RowHashJoin::new(
            Feed::boxed("build", &build),
            Feed::boxed("probe", &probe),
            build_key,
            probe_key,
        ));
        assert_eq!(got, want, "case {case}: keys {build_key} = {probe_key}");
        let in_schema = build_key < build_arity && probe_key < probe_arity;
        if in_schema && got.lens().iter().sum::<usize>() <= TWIN_ROWS {
            let matches = got.sorted_rows();
            let rows = |input: &(Arc<Schema>, Vec<Batch>)| input.1.iter().map(Batch::len).sum();
            let (build_rows, probe_rows): (usize, usize) = (rows(&build), rows(&probe));
            if build_rows * probe_rows <= NL_PAIRS {
                let on = Expr::eq(Expr::Col(build_key), Expr::Col(build_arity + probe_key));
                let nl = drive(NestedLoopJoin::new(
                    Feed::boxed("build", &build),
                    Feed::boxed("probe", &probe),
                    on,
                ));
                assert_eq!(nl.error, None, "case {case}: nested loop");
                assert_eq!(nl.sorted_rows(), matches, "case {case}: nested loop");
                nested += !matches.is_empty() as u32;
            }
            // The index join puts its outer (the probe side) first.
            let stored = stored_of(&build);
            let index = Arc::new(IndexedTable::build(stored.clone(), build_key));
            let all: Vec<usize> = (0..build_arity).collect();
            let inl = drive(IndexNlJoin::new(
                Feed::boxed("probe", &probe),
                index.clone(),
                probe_key,
                all.clone(),
            ));
            assert_eq!(inl.error, None, "case {case}: index join");
            let mut rotated = inl.rows();
            rotated.iter_mut().for_each(|r| r.rotate_left(probe_arity));
            rotated.sort_unstable();
            assert_eq!(rotated, matches, "case {case}: index join");
            probed += !matches.is_empty() as u32;
            // A key range, inverted half the time, against a filtered scan.
            let (lo, hi) = (domain.draw(&mut rng), domain.draw(&mut rng));
            let key = || Expr::Col(build_key);
            let in_range = Expr::and(
                Expr::le(Expr::Lit(lo), key()),
                Expr::le(key(), Expr::Lit(hi)),
            );
            let scan = drive(Filter::new(
                Box::new(ColumnarScan::new(stored, all.clone())),
                in_range,
            ));
            let range = drive(IndexRangeScan::new(index, lo, hi, all));
            assert_eq!(range.error, None, "case {case}: index range");
            let mut found = range.rows();
            let in_key_order = found.windows(2).all(|w| w[0][build_key] <= w[1][build_key]);
            assert!(in_key_order, "case {case}: key order");
            ranged += (!found.is_empty() && found.len() < build_rows) as u32;
            found.sort_unstable();
            assert_eq!(found, scan.sorted_rows(), "case {case}: [{lo}, {hi}]");
        }
        let lens = got.lens();
        // A full chunk followed by more of the same probe batch.
        chunked += lens.windows(2).any(|w| w[0] == BATCH_ROWS) as u32;
        failed += got.error.is_some() as u32;
        unmatched += (got.error.is_none() && lens.is_empty()) as u32;
        empty_build += build.1.iter().all(|b| b.is_empty()) as u32;
    }
    assert!(
        chunked > 100 && failed > 50 && unmatched > 50 && empty_build > 50,
        "coverage: {chunked} chunked, {failed} failed, {unmatched} unmatched, {empty_build} empty builds"
    );
    assert!(
        nested > 50 && probed > 200 && ranged > 200,
        "coverage: {nested} nested-loop, {probed} index-join and {ranged} partial-range cases with rows"
    );
}

#[test]
fn sort_matches_the_row_at_a_time_oracle() {
    const GRANTS: [u64; 5] = [u64::MAX, 0, 64, 4096, 1 << 20];
    let (mut windowed, mut failed, mut spilled, mut tied) = (0, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = Lcg(0x50A7 ^ (case << 20));
        let arity = 1 + rng.below(4);
        let domain = Domain::pick(&mut rng);
        // One case in five is long enough to leave in several windows.
        let max_len = if rng.one_in(5) { 3000 } else { 200 };
        let input = gen_input(&mut rng, arity, 4, max_len, domain);
        let spec = SortSpec {
            keys: (0..1 + rng.below(3))
                .map(|_| {
                    let order = [SortOrder::Asc, SortOrder::Desc][rng.below(2)];
                    (column(&mut rng, arity), order)
                })
                .collect(),
            memory_grant: GRANTS[rng.below(GRANTS.len())],
            spill_target: StorageTarget::Disk(DiskId(3)),
        };
        let got = drive(Sort::new(Feed::boxed("feed", &input), spec.clone()));
        let want = drive(RowSort::new(Feed::boxed("feed", &input), spec.clone()));
        assert_eq!(got, want, "case {case}: {:?}", spec.keys);
        windowed += (got.lens().len() > 1) as u32;
        failed += got.error.is_some() as u32;
        let sort_io = got.tallies.iter().find(|t| t.name == "sort");
        spilled += sort_io.is_some_and(|t| t.io_bytes > Bytes::ZERO) as u32;
        tied += matches!(domain, Domain::Small(_)) as u32;
    }
    assert!(
        windowed > 30 && failed > 50 && spilled > 100 && tied > 300,
        "coverage: {windowed} windowed, {failed} failed, {spilled} spilled, {tied} with ties"
    );
}
