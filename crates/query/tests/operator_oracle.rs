//! The column-at-a-time `HashAggregate`, `HashJoin` and `Sort` against
//! the row-at-a-time operators they replaced (`common/reference.rs`), on
//! seeded `grail_prop::Gen` inputs: dense, windowed (`offset > 0`) and
//! selection-carrying batches, empty batches and empty inputs, key domains
//! from two values (fan-out past `BATCH_ROWS` per probe batch) to the
//! `i64` extremes, bad column indices, every spill grant. The join's
//! build indexes its keys densely or in a hash table, and the sort packs
//! one key into `(key, row)` pairs or compares several: each path's cases
//! are counted against a floor. The aggregate
//! draws a domain per batch, so batches whose small keys index group ids
//! directly, and batches that hash, meet in one aggregation. Equal means
//! everything a caller or the simulator can observe: each batch `next()`
//! returns, the error and where it struck, every `OpTally`, every phase
//! with each `ReadDemand`. The feeding operator charges a fractional cost
//! and a read per batch, so a pull that moves across a `phase_break`, or
//! a `charge_cpu` that is split or merged, changes a rounded total.
//!
//! `ColumnarScan::filtered`, which tests range predicates on encoded
//! columns and decodes only the survivors, is compared the same way with
//! the `Filter` over a fully decoding `ColumnarScan` it replaces, on
//! stored tables under every encoding; `ColumnarScan::aggregated`, which
//! folds those survivors from their stored codes, with the
//! `HashAggregate` over `ColumnarScan::filtered` it replaces.
//!
//! No simulated work is free: on non-empty input each of those five
//! operators books CPU in its own `OpTally`, and the one that touches
//! storage books bytes too ([`BILLED`], which must list every
//! `impl Operator` under `src/ops`).

use grail_power::units::{Bytes, Cycles};
use grail_prop::Gen;
use grail_query::batch::{Batch, Table, BATCH_ROWS};
use grail_query::exec::{ExecContext, OpTally, Operator, QueryError, Tally};
use grail_query::expr::Expr;
use grail_query::ops::sort::SortOrder;
use grail_query::ops::{
    AggFunc, AggSpec, ColumnarScan, Filter, HashAggregate, HashJoin, Sort, SortSpec, StoredTable,
};
use grail_query::schema::{ColumnType, Schema};
use grail_query::value::Datum;
use grail_sim::perf::AccessPattern;
use grail_sim::{DiskId, StorageTarget};
use grail_storage::compress::Encoding;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

#[path = "common/reference.rs"]
mod reference;
use reference::{RowHashAggregate, RowHashJoin, RowSort};

const CASES: u64 = 1200;

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
    fn pick(rng: &mut Gen) -> Domain {
        match rng.range(0..6) {
            0 => Domain::Small(2),
            1 | 2 => Domain::Small(7),
            3 => Domain::Small(60),
            4 => Domain::Extremes,
            _ => Domain::Wide,
        }
    }

    fn draw(self, rng: &mut Gen) -> Datum {
        const ENDS: [Datum; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        match self {
            Domain::Small(n) => rng.range(0..n) as Datum,
            Domain::Extremes => ENDS[rng.range(0..ENDS.len())],
            Domain::Wide => rng.range(-(1 << 30)..1 << 30),
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
fn gen_batch(rng: &mut Gen, schema: &Arc<Schema>, len: usize, domain: Domain) -> Batch {
    let shape = rng.range(0..4);
    let (front, back) = if shape == 0 {
        (0, 0)
    } else {
        (1 + rng.range(0..5), rng.range(0..5))
    };
    // A selection keeps `len` of `len + dropped` window rows.
    let dropped = if shape >= 2 { rng.range(0..len + 2) } else { 0 };
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
        let at = rng.range(0..mask.len());
        if !mask[at] {
            mask[at] = true;
            kept += 1;
        }
    }
    window.filter(&mask)
}

/// Up to `max_batches` batches of at most `max_len` rows, each batch's
/// values from the domain `domain` returns for it.
fn gen_input(
    rng: &mut Gen,
    arity: usize,
    max_batches: usize,
    max_len: usize,
    mut domain: impl FnMut(&mut Gen) -> Domain,
) -> (Arc<Schema>, Vec<Batch>) {
    let schema = schema_of(arity);
    let batches = (0..rng.range(0..max_batches + 1))
        .map(|_| {
            let len = if rng.one_in(6) {
                0
            } else {
                rng.range(0..max_len + 1)
            };
            let domain = domain(rng);
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
}

/// Every operator under `src/ops`, the `OpTally` name it books under,
/// and whether it reads storage (and so must book bytes as well as CPU).
const BILLED: [(&str, &str, bool); 5] = [
    ("ColumnarScan", "scan", true),
    ("Filter", "filter", false),
    ("HashAggregate", "agg", false),
    ("HashJoin", "hash_join", false),
    ("Sort", "sort", false),
];

/// No free work: operator `ty` did work in `run` and must have booked it
/// to its own tally. Its inputs book under their own names, so an
/// operator whose `charge_*` calls are gone fails here even though the
/// operators under it still bill.
fn assert_billed(run: &Run, ty: &str, case: u64) {
    let (_, name, reads) = BILLED.iter().find(|b| b.0 == ty).expect("listed");
    let tally = run.tallies.iter().find(|t| t.name == *name);
    let billed =
        tally.is_some_and(|t| t.cpu > Cycles::ZERO && (!reads || t.io_bytes > Bytes::ZERO));
    assert!(
        billed,
        "case {case}: {ty} ran on non-empty input but booked {tally:?}; simulated work must never be free"
    );
}

fn input_rows(input: &(Arc<Schema>, Vec<Batch>)) -> usize {
    input.1.iter().map(Batch::len).sum()
}

/// Whether a join build over `keys` indexes them densely rather than in
/// a hash table: `HashJoin`'s rule, that the keys span at most twice as
/// many values as there are keys.
fn dense_build(keys: &[Datum]) -> bool {
    let (Some(lo), Some(hi)) = (keys.iter().min(), keys.iter().max()) else {
        return true;
    };
    i128::from(*hi) - i128::from(*lo) < 2 * keys.len() as i128
}

fn drive(mut op: impl Operator) -> Run {
    drive_dyn(&mut op)
}

fn drive_dyn(op: &mut dyn Operator) -> Run {
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
fn column(rng: &mut Gen, arity: usize) -> usize {
    if rng.one_in(25) {
        arity + rng.range(0..2)
    } else {
        rng.range(0..arity)
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
    let (mut mixed, mut widened) = (0, 0);
    for case in 0..CASES {
        let mut rng = Gen::new(0xA66 ^ (case << 20));
        let arity = 1 + rng.range(0..4);
        // A domain per batch: small codes (direct group ids), negatives and
        // wide keys (hashed) alternate inside one aggregation.
        let mut domains = Vec::new();
        let input = gen_input(&mut rng, arity, 4, 150, |rng| {
            domains.push(Domain::pick(rng));
            domains[domains.len() - 1]
        });
        let group_by: Vec<usize> = (0..rng.range(0..4))
            .map(|_| column(&mut rng, arity))
            .collect();
        let aggs: Vec<AggSpec> = (0..rng.range(0..5))
            .map(|_| AggSpec::new(FUNCS[rng.range(0..5)], column(&mut rng, arity), "a"))
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
        if got.error.is_none() && input_rows(&input) > 0 {
            assert_billed(&got, "HashAggregate", case);
        }
        grown += (got.lens().first() > Some(&16)) as u32;
        failed += got.error.is_some() as u32;
        groupless += (group_by.is_empty() && got.error.is_none()) as u32;
        empty += (got.lens() == [0]) as u32;
        // The small domains reached, in batch order, among batches with rows.
        let reached: Vec<Option<usize>> = (domains.iter().zip(&input.1))
            .filter(|(_, b)| !b.is_empty())
            .map(|(d, _)| match d {
                Domain::Small(n) => Some(*n),
                _ => None,
            })
            .collect();
        if !group_by.is_empty() && got.error.is_none() {
            mixed += (reached.contains(&None) && reached.iter().any(Option::is_some)) as u32;
            let small: Vec<usize> = reached.iter().flatten().copied().collect();
            widened += small.windows(2).any(|w| w[0] < w[1]) as u32;
        }
    }
    assert!(
        grown > 50 && failed > 50 && groupless > 100 && empty > 20,
        "coverage: {grown} grew the table, {failed} failed, {groupless} group-less, {empty} empty"
    );
    assert!(
        mixed > 100 && widened > 50,
        "coverage: {mixed} mixed small and hashed keys, {widened} widened small keys"
    );
}

#[test]
fn hash_join_matches_the_row_at_a_time_oracle() {
    let (mut chunked, mut failed, mut unmatched, mut empty_build) = (0, 0, 0, 0);
    let (mut dense, mut hashed, mut hashed_far) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Gen::new(0x101 ^ (case << 20));
        let (build_arity, probe_arity) = (1 + rng.range(0..3), 1 + rng.range(0..3));
        // One case in four is all fan-out: two key values on both sides.
        let domain = if rng.one_in(4) {
            Domain::Small(2)
        } else {
            Domain::pick(&mut rng)
        };
        let build = gen_input(&mut rng, build_arity, 3, 150, |_| domain);
        let probe = gen_input(&mut rng, probe_arity, 4, 150, |_| domain);
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
        let (build_rows, probe_rows) = (input_rows(&build), input_rows(&probe));
        if got.error.is_none() && build_rows + probe_rows > 0 {
            assert_billed(&got, "HashJoin", case);
        }
        let both_sides = build_rows > 0 && probe_rows > 0;
        let in_schema = build_key < build_arity && probe_key < probe_arity;
        if in_schema && both_sides {
            let keys: Vec<Datum> = build.1.iter().flat_map(|b| b.gather(build_key)).collect();
            let far = matches!(domain, Domain::Extremes | Domain::Wide);
            if dense_build(&keys) {
                dense += 1;
            } else {
                hashed += 1;
                hashed_far += far as u32;
            }
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
        dense > 350 && hashed > 110 && hashed_far > 100,
        "coverage: {dense} dense-index and {hashed} hashed builds, {hashed_far} of them extreme or wide keys"
    );
}

#[test]
fn sort_matches_the_row_at_a_time_oracle() {
    const GRANTS: [u64; 5] = [u64::MAX, 0, 64, 4096, 1 << 20];
    let (mut windowed, mut failed, mut spilled, mut tied) = (0, 0, 0, 0);
    let (mut packed, mut packed_desc, mut compared) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = Gen::new(0x50A7 ^ (case << 20));
        let arity = 1 + rng.range(0..4);
        let domain = Domain::pick(&mut rng);
        // One case in five is long enough to leave in several windows.
        let max_len = if rng.one_in(5) { 3000 } else { 200 };
        let input = gen_input(&mut rng, arity, 4, max_len, |_| domain);
        let spec = SortSpec {
            keys: (0..1 + rng.range(0..3))
                .map(|_| {
                    let order = [SortOrder::Asc, SortOrder::Desc][rng.range(0..2)];
                    (column(&mut rng, arity), order)
                })
                .collect(),
            memory_grant: GRANTS[rng.range(0..GRANTS.len())],
            spill_target: StorageTarget::Disk(DiskId(3)),
        };
        let got = drive(Sort::new(Feed::boxed("feed", &input), spec.clone()));
        let want = drive(RowSort::new(Feed::boxed("feed", &input), spec.clone()));
        assert_eq!(got, want, "case {case}: {:?}", spec.keys);
        // One row sorts with no comparison: at least two are work.
        if got.error.is_none() && input_rows(&input) > 1 {
            assert_billed(&got, "Sort", case);
        }
        windowed += (got.lens().len() > 1) as u32;
        failed += got.error.is_some() as u32;
        let sort_io = got.tallies.iter().find(|t| t.name == "sort");
        spilled += sort_io.is_some_and(|t| t.io_bytes > Bytes::ZERO) as u32;
        tied += matches!(domain, Domain::Small(_)) as u32;
        // One key sorts packed `(key, row)` pairs, more a comparator.
        if got.error.is_none() && input_rows(&input) > 1 {
            match spec.keys[..] {
                [(_, order)] => {
                    packed += 1;
                    packed_desc += (order == SortOrder::Desc) as u32;
                }
                _ => compared += 1,
            }
        }
    }
    assert!(
        windowed > 30 && failed > 50 && spilled > 100 && tied > 300,
        "coverage: {windowed} windowed, {failed} failed, {spilled} spilled, {tied} with ties"
    );
    assert!(
        packed > 200 && packed_desc > 100 && compared > 450,
        "coverage: {packed} packed sorts ({packed_desc} descending), {compared} by comparator"
    );
}

/// `ColumnarScan::filtered` against the plan it replaces, a `Filter` over
/// a fully decoding `ColumnarScan`, on stored tables under every encoding:
/// one to three windows of rows (runs now and then), random projections,
/// ANDs of one to three range comparisons with bounds on, next to and at
/// the ends of the column's domain, contradictions, predicates that do
/// not qualify, and bad projection columns. Equal means every batch's
/// values, the error, every `OpTally` and every phase.
#[test]
fn filtered_scan_matches_filter_over_a_decoding_scan() {
    const ENCODINGS: [Encoding; 5] = Encoding::ALL;
    let ops: [fn(Expr, Expr) -> Expr; 4] = [Expr::eq, Expr::lt, Expr::le, Expr::gt];
    let (mut pushed, mut windows, mut kept_some, mut failed) = (0, 0, 0, 0);
    for case in 0..CASES / 2 {
        let mut rng = Gen::new(0x5CA7 ^ (case << 20));
        let arity = 1 + rng.range(0..4);
        let domain = Domain::pick(&mut rng);
        let rows = match rng.range(0..3) {
            0 => rng.range(0..300),
            1 => BATCH_ROWS + rng.range(0..BATCH_ROWS),
            _ => 2 * BATCH_ROWS + rng.range(0..3),
        };
        let columns: Vec<Vec<Datum>> = (0..arity)
            .map(|_| {
                let run = if rng.one_in(3) {
                    1 + rng.range(0..40)
                } else {
                    1
                };
                let mut col = Vec::with_capacity(rows);
                while col.len() < rows {
                    let v = domain.draw(&mut rng);
                    col.extend(std::iter::repeat_n(v, run.min(rows - col.len())));
                }
                col
            })
            .collect();
        let encodings: Vec<Encoding> = (0..arity).map(|_| ENCODINGS[rng.range(0..5)]).collect();
        let table = Arc::new(Table::new("t", schema_of(arity), columns.clone()));
        let stored = Arc::new(StoredTable::columnar(
            table,
            StorageTarget::Disk(DiskId(2)),
            &encodings,
        ));
        let projection: Vec<usize> = (0..1 + rng.range(0..4))
            .map(|_| column(&mut rng, arity))
            .collect();
        let width = projection.len();
        let bound = |rng: &mut Gen, col: usize| -> Datum {
            match (rng.range(0..4), projection[col] < arity && rows > 0) {
                (0, _) => [i64::MIN, i64::MAX][rng.range(0..2)],
                (1, true) => columns[projection[col]][rng.range(0..rows)],
                (2, true) => columns[projection[col]][rng.range(0..rows)].saturating_add(1),
                _ => domain.draw(rng),
            }
        };
        let mut predicate: Option<Expr> = None;
        for _ in 0..1 + rng.range(0..3) {
            let col = rng.range(0..width);
            let v = bound(&mut rng, col);
            let op = ops[rng.range(0..4)];
            let term = match rng.range(0..2) {
                0 => op(Expr::Col(col), Expr::Lit(v)),
                _ => op(Expr::Lit(v), Expr::Col(col)),
            };
            predicate = Some(match predicate {
                Some(p) => Expr::and(p, term),
                None => term,
            });
        }
        let mut predicate = predicate.expect("at least one term");
        if rng.one_in(10) {
            predicate = Expr::or(predicate, Expr::eq(Expr::Col(0), Expr::Lit(0)));
        }
        let mut scan =
            ColumnarScan::filtered(stored.clone(), projection.clone(), predicate.clone());
        let got = drive_dyn(scan.as_mut());
        let want = drive(Filter::new(
            Box::new(ColumnarScan::new(stored, projection.clone())),
            predicate.clone(),
        ));
        assert_eq!(
            got, want,
            "case {case}: {encodings:?} {projection:?} {predicate:?}"
        );
        if got.error.is_none() && rows > 0 {
            assert_billed(&got, "ColumnarScan", case);
            assert_billed(&got, "Filter", case);
        }
        pushed += predicate.column_ranges().is_some() as u32;
        windows += (rows > BATCH_ROWS) as u32;
        kept_some += (!got.rows().is_empty() && got.rows().len() < rows) as u32;
        failed += got.error.is_some() as u32;
    }
    assert!(
        pushed > 400 && windows > 300 && kept_some > 150 && failed > 20,
        "coverage: {pushed} pushed down, {windows} multi-window, {kept_some} partial, {failed} failed"
    );
}

/// `ColumnarScan::aggregated` against the composition it replaces,
/// `HashAggregate` over `ColumnarScan::filtered`, on stored tables under
/// every encoding: lengths at and around one to three `BATCH_ROWS`
/// windows, columns that hold each window's index (so a predicate can
/// empty whole windows), zero to two group keys that pack or hash, every
/// `AggFunc`, predicates that keep everything, nothing or some rows, ones
/// that do not qualify, and bad projection, group and aggregate columns.
/// Equal means every batch's values, the error, every `OpTally` and every
/// phase; a plan error charges nothing.
#[test]
fn aggregated_scan_matches_hash_aggregate_over_the_filtered_scan() {
    const FUNCS: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let ops: [fn(Expr, Expr) -> Expr; 4] = [Expr::eq, Expr::lt, Expr::le, Expr::gt];
    let (mut pushed, mut windows, mut emptied, mut all, mut none) = (0, 0, 0, 0, 0);
    let (mut packed, mut hashed, mut failed, mut two_books) = (0, 0, 0, 0);
    // Counts every input drawn, the shrinking re-runs included.
    let mut draw = 0;
    grail_prop::check(768, |rng| {
        draw += 1;
        let arity = 1 + rng.range(0..4);
        let rows = match rng.range(0..2) {
            0 => rng.range(0..300),
            _ => (rng.range(1..4) * BATCH_ROWS + rng.range(0..3)).saturating_sub(1),
        };
        let domains: Vec<Option<Domain>> = (0..arity)
            .map(|_| (!rng.one_in(3)).then(|| Domain::pick(rng)))
            .collect();
        let columns: Vec<Vec<Datum>> = (domains.iter())
            .map(|domain| {
                let Some(domain) = domain else {
                    // The window's index: an equality keeps whole windows.
                    return (0..rows).map(|r| (r / BATCH_ROWS) as Datum).collect();
                };
                let run = if rng.one_in(3) {
                    1 + rng.range(0..40)
                } else {
                    1
                };
                let mut col = Vec::with_capacity(rows);
                while col.len() < rows {
                    let v = domain.draw(rng);
                    col.extend(std::iter::repeat_n(v, run.min(rows - col.len())));
                }
                col
            })
            .collect();
        // Every encoding, dictionaries twice as often: their codes are
        // indices, which only their own entries decode.
        let encodings: Vec<Encoding> = (0..arity)
            .map(|_| {
                rng.pick(&[
                    Encoding::Dict,
                    Encoding::Dict,
                    Encoding::Plain,
                    Encoding::Rle,
                    Encoding::BitPack,
                    Encoding::Delta,
                ])
            })
            .collect();
        let table = Arc::new(Table::new("t", schema_of(arity), columns.clone()));
        let stored = Arc::new(StoredTable::columnar(
            table,
            StorageTarget::Disk(DiskId(2)),
            &encodings,
        ));
        // Mostly distinct columns, so that keys meet different codebooks.
        let first = rng.range(0..arity);
        let projection: Vec<usize> = (0..1 + rng.range(0..4))
            .map(|i| match rng.one_in(4) {
                true => column(rng, arity),
                false => (first + i) % arity,
            })
            .collect();
        let width = projection.len();
        let valid = |col: usize| projection[col] < arity && rows > 0;
        let mut predicate: Option<Expr> = None;
        for _ in 0..1 + rng.range(0..2) {
            let col = rng.range(0..width);
            let v = match (rng.range(0..4), valid(col)) {
                (0, _) => [i64::MIN, i64::MAX][rng.range(0..2)],
                (1, true) => columns[projection[col]][rng.range(0..rows)],
                (2, true) => columns[projection[col]][rng.range(0..rows)].saturating_add(1),
                _ => domains[projection[col].min(arity - 1)]
                    .unwrap_or(Domain::Small(3))
                    .draw(rng),
            };
            let op = ops[rng.range(0..4)];
            let term = match rng.range(0..2) {
                0 => op(Expr::Col(col), Expr::Lit(v)),
                _ => op(Expr::Lit(v), Expr::Col(col)),
            };
            predicate = Some(match predicate {
                Some(p) => Expr::and(p, term),
                None => term,
            });
        }
        let mut predicate = predicate.expect("at least one term");
        // Keep one window of a window-index column, now and then.
        let index_at = (0..width).find(|c| valid(*c) && domains[projection[*c]].is_none());
        if let Some(c) = index_at.filter(|_| rng.bool()) {
            let window = rng.range(0..rows.div_ceil(BATCH_ROWS)) as Datum;
            let term = Expr::eq(Expr::Col(c), Expr::Lit(window));
            predicate = match rng.one_in(3) {
                true => Expr::and(term, predicate),
                false => term,
            };
        }
        if rng.one_in(10) {
            predicate = Expr::or(predicate, Expr::eq(Expr::Col(0), Expr::Lit(0)));
        }
        let key = column(rng, width);
        let group_by: Vec<usize> = (0..rng.pick(&[0, 1, 2, 2]))
            .map(|i| match rng.one_in(4) {
                true => column(rng, width),
                false => (key + i) % width.max(1),
            })
            .collect();
        let aggs: Vec<AggSpec> = (0..rng.range(0..5))
            .map(|_| AggSpec::new(rng.pick(&FUNCS), column(rng, width), "a"))
            .collect();
        let mut fused = ColumnarScan::aggregated(
            stored.clone(),
            projection.clone(),
            predicate.clone(),
            group_by.clone(),
            aggs.clone(),
        );
        let got = drive_dyn(fused.as_mut());
        let filtered = ColumnarScan::filtered(stored, projection.clone(), predicate.clone());
        let want = drive(HashAggregate::new(filtered, group_by.clone(), aggs.clone()));
        assert_eq!(
            got, want,
            "draw {draw}: {encodings:?} {projection:?} {predicate:?} by {group_by:?} {aggs:?}"
        );
        if let Some(QueryError::UnknownColumn(_)) = got.error {
            assert!(got.phases.is_empty(), "draw {draw}: a plan error charged");
            assert!(got.tallies.iter().all(|t| t.cpu == Cycles::ZERO));
        }
        let ranges = predicate.column_ranges();
        let qualifies = ranges
            .as_ref()
            .is_some_and(|r| r.iter().all(|r| r.0 < width));
        if got.error.is_none() && !got.rows().is_empty() && qualifies {
            assert_billed(&got, "HashAggregate", draw);
            assert_billed(&got, "ColumnarScan", draw);
            assert_billed(&got, "Filter", draw);
        }
        pushed += qualifies as u32;
        windows += (rows > BATCH_ROWS) as u32;
        failed += got.error.is_some() as u32;
        let (Some(ranges), true, None) = (ranges, qualifies, &got.error) else {
            return;
        };
        // Which rows survive, window by window.
        let kept: Vec<usize> = (0..rows.div_ceil(BATCH_ROWS))
            .map(|w| {
                let window = w * BATCH_ROWS..rows.min((w + 1) * BATCH_ROWS);
                let inside = |r: usize| {
                    let value = |c: usize| columns[projection[c]][r];
                    ranges
                        .iter()
                        .all(|(c, lo, hi)| (lo..=hi).contains(&&value(*c)))
                };
                window.filter(|r| inside(*r)).count()
            })
            .collect();
        let survivors: usize = kept.iter().sum();
        emptied += (kept.contains(&0) && survivors > 0) as u32;
        all += (rows > 0 && survivors == rows) as u32;
        none += (rows > 0 && survivors == 0) as u32;
        if !group_by.is_empty() && survivors > 0 {
            let wide = group_by.iter().any(|k| {
                let col = &columns[projection[*k]];
                col.iter().any(|v| !(0..1 << 12).contains(v))
            });
            hashed += wide as u32;
            packed += !wide as u32;
            // Two packed keys, one a dictionary's index and one not.
            let dict = |k: &usize| encodings[projection[*k]] == Encoding::Dict;
            two_books += (!wide && group_by.iter().any(dict) && !group_by.iter().all(dict)) as u32;
        }
    });
    assert!(
        pushed > 600 && windows > 200 && emptied > 50 && all > 70 && none > 150 && failed > 50,
        "coverage: {pushed} pushed down, {windows} multi-window, {emptied} emptied a window, \
         {all} kept all, {none} kept none, {failed} failed"
    );
    assert!(
        packed > 140 && hashed > 60 && two_books > 10,
        "coverage: {packed} packed and {hashed} hashed keys, {two_books} through two codebooks"
    );
}

#[test]
fn every_operator_is_in_the_billing_table() {
    let ops = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/ops");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&ops).expect("src/ops is readable") {
        let source = std::fs::read_to_string(entry.expect("dir entry").path()).expect("readable");
        for line in source.lines() {
            if let Some((_, ty)) = line.split_once("impl Operator for ") {
                found.push(ty.trim_end_matches(" {").to_string());
            }
        }
    }
    found.sort();
    let mut listed: Vec<String> = BILLED.iter().map(|b| b.0.to_string()).collect();
    listed.sort();
    assert_eq!(
        found, listed,
        "every `impl Operator` in src/ops needs a BILLED row and an assert_billed call above"
    );
}
