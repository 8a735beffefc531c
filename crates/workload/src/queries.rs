//! The throughput-test query templates.
//!
//! Fig. 1's workload "issues a mixture of TPC-H queries simultaneously
//! from multiple clients". These four templates cover the mixture's
//! resource shapes: a wide aggregation scan (Q1-like), a selective
//! filter scan (Q6-like), a join-and-group (Q3/Q5-like), and a top-k
//! sort (Q10-like). Each builds a real operator tree over stored tables.

use crate::tpch::{TpchTables, DATE_DAYS};
use grail_query::batch::Table;
use grail_query::exec::Operator;
use grail_query::expr::Expr;
use grail_query::ops::sort::SortOrder;
use grail_query::ops::{
    AggFunc, AggSpec, ColumnarScan, HashAggregate, HashJoin, Sort, SortSpec, StoredTable,
};
use grail_sim::StorageTarget;
use grail_storage::compress::Encoding;
use std::sync::Arc;

/// The physically stored database: every table bound to a layout and a
/// storage target.
#[derive(Debug, Clone)]
pub struct StoredCatalog {
    /// ORDERS.
    pub orders: Arc<StoredTable>,
    /// LINEITEM.
    pub lineitem: Arc<StoredTable>,
    /// CUSTOMER.
    pub customer: Arc<StoredTable>,
    /// PART.
    pub part: Arc<StoredTable>,
    /// SUPPLIER.
    pub supplier: Arc<StoredTable>,
}

impl StoredCatalog {
    /// Store every table column-wise, uncompressed, on `target`.
    pub fn plain(tables: &TpchTables, target: StorageTarget) -> Self {
        StoredCatalog {
            orders: Arc::new(StoredTable::columnar_plain(tables.orders.clone(), target)),
            lineitem: Arc::new(StoredTable::columnar_plain(tables.lineitem.clone(), target)),
            customer: Arc::new(StoredTable::columnar_plain(tables.customer.clone(), target)),
            part: Arc::new(StoredTable::columnar_plain(tables.part.clone(), target)),
            supplier: Arc::new(StoredTable::columnar_plain(tables.supplier.clone(), target)),
        }
    }

    /// Store every table column-wise with auto-chosen codecs on
    /// `target`.
    pub fn compressed(tables: &TpchTables, target: StorageTarget) -> Self {
        StoredCatalog {
            orders: Arc::new(StoredTable::columnar_auto(tables.orders.clone(), target)),
            lineitem: Arc::new(StoredTable::columnar_auto(tables.lineitem.clone(), target)),
            customer: Arc::new(StoredTable::columnar_auto(tables.customer.clone(), target)),
            part: Arc::new(StoredTable::columnar_auto(tables.part.clone(), target)),
            supplier: Arc::new(StoredTable::columnar_auto(tables.supplier.clone(), target)),
        }
    }

    /// Store ORDERS as [`Self::fig2_orders`] does; other tables auto,
    /// exactly as [`Self::compressed`] stores them.
    pub fn fig2(tables: &TpchTables, target: StorageTarget) -> Self {
        StoredCatalog {
            orders: Arc::new(Self::fig2_orders(tables.orders.clone(), target)),
            lineitem: Arc::new(StoredTable::columnar_auto(tables.lineitem.clone(), target)),
            customer: Arc::new(StoredTable::columnar_auto(tables.customer.clone(), target)),
            part: Arc::new(StoredTable::columnar_auto(tables.part.clone(), target)),
            supplier: Arc::new(StoredTable::columnar_auto(tables.supplier.clone(), target)),
        }
    }

    /// ORDERS under the conservative per-column codecs whose overall
    /// ratio (~1.8–2×) matches the \[HLA+06\] scanner's Fig. 2
    /// configuration: the one table a Fig. 2 catalog stores differently
    /// from a compressed one.
    pub fn fig2_orders(orders: Arc<Table>, target: StorageTarget) -> StoredTable {
        let orders_enc = [
            Encoding::Plain,   // o_orderkey (sparse keys kept verbatim)
            Encoding::Plain,   // o_custkey
            Encoding::Dict,    // o_orderstatus
            Encoding::BitPack, // o_totalprice
            Encoding::BitPack, // o_orderdate
            Encoding::Dict,    // o_orderpriority
            Encoding::Rle,     // o_shippriority
        ];
        StoredTable::columnar(orders, target, &orders_enc)
    }
}

/// The throughput-test templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryTemplate {
    /// Wide aggregation scan of LINEITEM (Q1-like).
    PricingSummary,
    /// Selective filter-sum scan of LINEITEM (Q6-like).
    RevenueForecast,
    /// ORDERS ⋈ CUSTOMER, grouped by market segment (Q3/Q5-like).
    SegmentRevenue,
    /// Filtered ORDERS sorted by price descending (Q10-like top-k).
    BigSpenders,
}

impl QueryTemplate {
    /// All templates, in the mix's round-robin order.
    pub const MIX: [QueryTemplate; 4] = [
        QueryTemplate::PricingSummary,
        QueryTemplate::RevenueForecast,
        QueryTemplate::SegmentRevenue,
        QueryTemplate::BigSpenders,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            QueryTemplate::PricingSummary => "q1_pricing_summary",
            QueryTemplate::RevenueForecast => "q6_revenue_forecast",
            QueryTemplate::SegmentRevenue => "q3_segment_revenue",
            QueryTemplate::BigSpenders => "q10_big_spenders",
        }
    }

    /// Build the operator tree over `catalog`.
    pub fn plan(self, catalog: &StoredCatalog) -> Box<dyn Operator> {
        match self {
            QueryTemplate::PricingSummary => {
                // SELECT returnflag, linestatus, sum(qty), sum(price),
                //        avg(discount), count(*)
                // FROM lineitem WHERE shipdate <= cutoff
                // GROUP BY returnflag, linestatus
                ColumnarScan::aggregated(
                    catalog.lineitem.clone(),
                    vec![3, 4, 5, 7, 8, 9], // qty, price, disc, rflag, lstatus, shipdate
                    Expr::le(Expr::Col(5), Expr::Lit(DATE_DAYS - 90)),
                    vec![3, 4],
                    vec![
                        AggSpec::new(AggFunc::Sum, 0, "sum_qty"),
                        AggSpec::new(AggFunc::Sum, 1, "sum_price"),
                        AggSpec::new(AggFunc::Avg, 2, "avg_disc"),
                        AggSpec::new(AggFunc::Count, 0, "count"),
                    ],
                )
            }
            QueryTemplate::RevenueForecast => {
                // SELECT sum(price * discount) FROM lineitem
                // WHERE shipdate in year AND discount in 4..=6
                //   AND quantity < 24
                ColumnarScan::aggregated(
                    catalog.lineitem.clone(),
                    vec![3, 4, 5, 9], // qty, price, disc, shipdate
                    Expr::and(
                        Expr::and(
                            Expr::le(Expr::Lit(365), Expr::Col(3)),
                            Expr::lt(Expr::Col(3), Expr::Lit(730)),
                        ),
                        Expr::and(
                            Expr::and(
                                Expr::le(Expr::Lit(4), Expr::Col(2)),
                                Expr::le(Expr::Col(2), Expr::Lit(6)),
                            ),
                            Expr::lt(Expr::Col(0), Expr::Lit(24)),
                        ),
                    ),
                    vec![],
                    vec![AggSpec::new(AggFunc::Sum, 1, "revenue")],
                )
            }
            QueryTemplate::SegmentRevenue => {
                // SELECT mktsegment, sum(totalprice), count(*)
                // FROM customer ⋈ orders GROUP BY mktsegment
                let cust = ColumnarScan::new(catalog.customer.clone(), vec![0, 3]);
                let ords = ColumnarScan::new(catalog.orders.clone(), vec![1, 3]);
                let join = HashJoin::new(Box::new(cust), Box::new(ords), 0, 0);
                Box::new(HashAggregate::new(
                    Box::new(join),
                    vec![1], // mktsegment
                    vec![
                        AggSpec::new(AggFunc::Sum, 3, "revenue"),
                        AggSpec::new(AggFunc::Count, 0, "orders"),
                    ],
                ))
            }
            QueryTemplate::BigSpenders => {
                // SELECT * FROM orders WHERE totalprice > cutoff
                // ORDER BY totalprice DESC
                let filtered = ColumnarScan::filtered(
                    catalog.orders.clone(),
                    vec![0, 1, 3, 4],
                    Expr::gt(Expr::Col(2), Expr::Lit(50_000_000)),
                );
                Box::new(Sort::new(
                    filtered,
                    SortSpec {
                        keys: vec![(2, SortOrder::Desc)],
                        memory_grant: 256 * 1024 * 1024,
                        spill_target: catalog.orders.target,
                    },
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, TpchScale};
    use grail_query::exec::{run_collect, ExecContext};
    use grail_sim::DiskId;

    fn catalog() -> StoredCatalog {
        let tables = generate(TpchScale { orders_rows: 2000 }, 42);
        StoredCatalog::plain(&tables, StorageTarget::Disk(DiskId(0)))
    }

    #[test]
    fn every_template_executes() {
        let cat = catalog();
        for t in QueryTemplate::MIX {
            let mut plan = t.plan(&cat);
            let mut ctx = ExecContext::calibrated();
            let out = run_collect(plan.as_mut(), &mut ctx).unwrap();
            let rows: usize = out.iter().map(|b| b.len()).sum();
            assert!(rows > 0, "{} returned no rows", t.name());
            assert!(ctx.total_cpu().get() > 0, "{} charged no CPU", t.name());
            assert!(ctx.total_io_bytes().get() > 0, "{} charged no IO", t.name());
        }
    }

    #[test]
    fn pricing_summary_has_flag_status_groups() {
        let cat = catalog();
        let mut plan = QueryTemplate::PricingSummary.plan(&cat);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(plan.as_mut(), &mut ctx).unwrap();
        let rows: usize = out.iter().map(|b| b.len()).sum();
        // 3 returnflags × 2 linestatuses.
        assert_eq!(rows, 6);
    }

    #[test]
    fn big_spenders_sorted_descending() {
        let cat = catalog();
        let mut plan = QueryTemplate::BigSpenders.plan(&cat);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(plan.as_mut(), &mut ctx).unwrap();
        let prices: Vec<i64> = out.iter().flat_map(|b| b.column(2).to_vec()).collect();
        assert!(prices.windows(2).all(|w| w[0] >= w[1]));
        assert!(prices.iter().all(|p| *p > 50_000_000));
    }

    #[test]
    fn segment_revenue_counts_all_orders() {
        let cat = catalog();
        let mut plan = QueryTemplate::SegmentRevenue.plan(&cat);
        let mut ctx = ExecContext::calibrated();
        let out = run_collect(plan.as_mut(), &mut ctx).unwrap();
        let total_orders: i64 = out.iter().flat_map(|b| b.column(2).to_vec()).sum();
        assert_eq!(total_orders, 2000, "every order joins exactly one customer");
    }

    #[test]
    fn compressed_catalog_same_answers_less_io() {
        let tables = generate(TpchScale { orders_rows: 2000 }, 42);
        let target = StorageTarget::Disk(DiskId(0));
        let plain = StoredCatalog::plain(&tables, target);
        let packed = StoredCatalog::compressed(&tables, target);
        for t in QueryTemplate::MIX {
            let run = |cat: &StoredCatalog| {
                let mut plan = t.plan(cat);
                let mut ctx = ExecContext::calibrated();
                let out = run_collect(plan.as_mut(), &mut ctx).unwrap();
                let rows: Vec<Vec<i64>> = out
                    .iter()
                    .flat_map(|b| (0..b.len()).map(|r| b.row(r)).collect::<Vec<_>>())
                    .collect();
                (rows, ctx.total_io_bytes())
            };
            let (r1, io1) = run(&plain);
            let (r2, io2) = run(&packed);
            assert_eq!(r1, r2, "{} answers must not change", t.name());
            assert!(io2 < io1, "{} compressed must read less", t.name());
        }
    }

    /// What lets a loaded database keep one set of auto-stored tables
    /// for both modes: a Fig. 2 catalog is a compressed one with ORDERS
    /// stored differently, and nothing else.
    #[test]
    fn fig2_catalog_differs_from_compressed_in_orders_only() {
        let tables = generate(TpchScale { orders_rows: 2000 }, 42);
        let target = StorageTarget::Disk(DiskId(0));
        let auto = StoredCatalog::compressed(&tables, target);
        let fig2 = StoredCatalog::fig2(&tables, target);
        for (a, f) in [
            (&auto.lineitem, &fig2.lineitem),
            (&auto.customer, &fig2.customer),
            (&auto.part, &fig2.part),
            (&auto.supplier, &fig2.supplier),
        ] {
            assert_eq!(a.segments, f.segments, "{}", a.table.name);
        }
        assert_ne!(auto.orders.segments, fig2.orders.segments);
        let orders = StoredCatalog::fig2_orders(tables.orders.clone(), target);
        assert_eq!(orders.segments, fig2.orders.segments);
        // Its two Plain key columns are the loaded columns themselves.
        for i in [0, 1] {
            let decoded = orders.segments[i].decode().unwrap();
            assert!(Arc::ptr_eq(&decoded, &tables.orders.columns[i]));
        }
    }

    #[test]
    fn fig2_catalog_ratio_matches_paper_band() {
        let tables = generate(TpchScale::toy(), 42);
        let cat = StoredCatalog::fig2(&tables, StorageTarget::Disk(DiskId(0)));
        // Projection ratio over the 5 scanned columns (Fig. 2 trades
        // ~1.8× bandwidth for CPU).
        let proj = crate::tpch::ORDERS_FIG2_PROJECTION;
        let raw = proj.len() as u64 * 8 * cat.orders.table.row_count() as u64;
        let stored = cat.orders.scan_bytes(&proj);
        let ratio = raw as f64 / stored as f64;
        assert!((1.5..2.5).contains(&ratio), "ratio {ratio}");
    }
}
