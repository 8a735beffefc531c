//! Property tests: operator correctness against naive reference
//! implementations on arbitrary data. The joins and the index paths are
//! compared in `operator_oracle.rs`, on generated inputs that run in
//! every `cargo test`.

use grail_query::batch::Table;
use grail_query::exec::{run_collect, ExecContext, Operator};
use grail_query::expr::Expr;
use grail_query::ops::sort::SortOrder;
use grail_query::ops::{
    AggFunc, AggSpec, ColumnarScan, Filter, HashAggregate, Sort, SortSpec, StoredTable,
};
use grail_query::schema::{ColumnType, Schema};
use grail_sim::{DiskId, StorageTarget};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn scan_of(cols: Vec<Vec<i64>>) -> Box<dyn Operator> {
    let schema = Schema::new(
        (0..cols.len())
            .map(|i| {
                (
                    Box::leak(format!("c{i}").into_boxed_str()) as &str,
                    ColumnType::Int,
                )
            })
            .collect(),
    );
    let table = Arc::new(Table::new("t", schema, cols));
    let stored = Arc::new(StoredTable::columnar_auto(
        table,
        StorageTarget::Disk(DiskId(0)),
    ));
    let all: Vec<usize> = (0..stored.table.schema.arity()).collect();
    Box::new(ColumnarScan::new(stored, all))
}

fn rows_of(op: &mut dyn Operator) -> Vec<Vec<i64>> {
    let mut ctx = ExecContext::calibrated();
    run_collect(op, &mut ctx)
        .unwrap()
        .iter()
        .flat_map(|b| (0..b.len()).map(|r| b.row(r)).collect::<Vec<_>>())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scanning through real codecs returns the table verbatim.
    #[test]
    fn scan_identity(col1 in proptest::collection::vec(-1000i64..1000, 0..2000)) {
        let col2: Vec<i64> = col1.iter().map(|v| v % 7).collect();
        let mut scan = scan_of(vec![col1.clone(), col2.clone()]);
        let rows = rows_of(scan.as_mut());
        prop_assert_eq!(rows.len(), col1.len());
        for (i, row) in rows.iter().enumerate() {
            prop_assert_eq!(row[0], col1[i]);
            prop_assert_eq!(row[1], col2[i]);
        }
    }

    /// Filter equals the naive predicate application.
    #[test]
    fn filter_matches_reference(col in proptest::collection::vec(-50i64..50, 0..1000), threshold in -50i64..50) {
        let mut f = Filter::new(
            scan_of(vec![col.clone()]),
            Expr::gt(Expr::Col(0), Expr::Lit(threshold)),
        );
        let got: Vec<i64> = rows_of(&mut f).into_iter().map(|r| r[0]).collect();
        let expect: Vec<i64> = col.into_iter().filter(|v| *v > threshold).collect();
        prop_assert_eq!(got, expect);
    }

    /// Sort output is the sorted permutation of the input.
    #[test]
    fn sort_matches_reference(col in proptest::collection::vec(any::<i64>(), 0..1000)) {
        let mut s = Sort::new(
            scan_of(vec![col.clone()]),
            SortSpec {
                keys: vec![(0, SortOrder::Asc)],
                memory_grant: u64::MAX,
                spill_target: StorageTarget::Disk(DiskId(0)),
            },
        );
        let got: Vec<i64> = rows_of(&mut s).into_iter().map(|r| r[0]).collect();
        let mut expect = col;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Aggregation matches a reference group-by.
    #[test]
    fn aggregate_matches_reference(
        pairs in proptest::collection::vec((0i64..10, -100i64..100), 0..500),
    ) {
        let (groups, values): (Vec<i64>, Vec<i64>) = pairs.iter().copied().unzip();
        let mut agg = HashAggregate::new(
            scan_of(vec![groups.clone(), values.clone()]),
            vec![0],
            vec![
                AggSpec::new(AggFunc::Count, 0, "cnt"),
                AggSpec::new(AggFunc::Sum, 1, "sum"),
            ],
        );
        let got = rows_of(&mut agg);
        let mut expect: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (g, v) in pairs {
            let e = expect.entry(g).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        prop_assert_eq!(got.len(), expect.len());
        for row in got {
            let (cnt, sum) = expect[&row[0]];
            prop_assert_eq!(row[1], cnt);
            prop_assert_eq!(row[2], sum);
        }
    }

    /// Executor charging is deterministic: same input, same tallies.
    #[test]
    fn charging_deterministic(col in proptest::collection::vec(0i64..100, 1..500)) {
        let run = || {
            let mut f = Filter::new(
                scan_of(vec![col.clone()]),
                Expr::lt(Expr::Col(0), Expr::Lit(50)),
            );
            let mut ctx = ExecContext::calibrated();
            run_collect(&mut f, &mut ctx).unwrap();
            ctx.finish()
        };
        prop_assert_eq!(run(), run());
    }
}
