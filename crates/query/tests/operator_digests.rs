//! Pinned digests of the four throughput-test templates, first measured
//! on the row-at-a-time `HashAggregate` / `HashJoin` / `Sort` before they
//! were made columnar, and re-measured only when the generated tables or
//! an operator's calls moved. A digest covers everything the simulator
//! and a caller can see of a run: every batch `next()` returns (its
//! length, then each value column by column), every phase
//! `ExecContext::finish()` closes (cycles and each `ReadDemand`) and
//! every `OpTally` (`calls`, `cpu`, `io_bytes`). `charge_cpu` rounds up
//! per call, so a batch boundary that moves, a charge that is split or
//! merged, or a tie that flips all land here. The values live in the
//! root `pins.txt` under `query.templates`, `query.multi_window` and
//! `query.scan_job`; a failing test prints the lines to paste there.
//!
//! The two ORDERS scans the facade meters (the plan `colscan::scan_job`
//! runs over the Fig. 2 projection, bare and with the rare-status
//! predicate) are pinned the same way, on what a `ScanRun` carries:
//! rows, CPU, IO bytes, every `OpTally` and the `JobSpec`.

use grail_prop::{assert_pinned, Fnv1a};
use grail_query::batch::BATCH_ROWS;
use grail_query::colscan;
use grail_query::cost_charge::CostCharge;
use grail_query::exec::{ExecContext, OpTally};
use grail_query::expr::Expr;
use grail_query::ops::StoredTable;
use grail_sim::{DiskId, StorageTarget};
use grail_workload::queries::{QueryTemplate, StoredCatalog};
use grail_workload::tpch::{generate, TpchScale, ORDERS_FIG2_PROJECTION};
use std::sync::Arc;

/// The three catalogs, named as in `pins.txt`. LINEITEM is stored alike
/// under `compressed` and `fig2`, so their Q1 and Q6 digests agree.
fn catalogs(orders_rows: u64) -> [(&'static str, StoredCatalog); 3] {
    let tables = generate(TpchScale { orders_rows }, 42);
    let target = StorageTarget::Disk(DiskId(0));
    [
        ("plain", StoredCatalog::plain(&tables, target)),
        ("compressed", StoredCatalog::compressed(&tables, target)),
        ("fig2", StoredCatalog::fig2(&tables, target)),
    ]
}

/// `<catalog>_<template>` → digest, for each catalog and template.
fn digests(catalogs: &[(&str, StoredCatalog)], templates: &[QueryTemplate]) -> Vec<(String, u64)> {
    let mut measured = Vec::new();
    for (name, cat) in catalogs {
        for t in templates {
            measured.push((format!("{name}_{}", t.name()), digest(*t, cat)));
        }
    }
    measured
}

/// Each operator's name, calls, CPU and IO bytes.
fn tallies(h: &mut Fnv1a, ops: &[OpTally]) {
    for t in ops {
        h.bytes(t.name.as_bytes());
        h.word(t.calls);
        h.word(t.cpu.get());
        h.word(t.io_bytes.get());
    }
}

fn digest(template: QueryTemplate, catalog: &StoredCatalog) -> u64 {
    let mut plan = template.plan(catalog);
    let mut ctx = ExecContext::calibrated();
    let mut h = Fnv1a::new();
    while let Some(batch) = plan.next(&mut ctx).expect("template plans are well formed") {
        h.word(batch.len() as u64);
        for c in 0..batch.schema().arity() {
            for r in 0..batch.len() {
                h.word(batch.value(c, r) as u64);
            }
        }
    }
    tallies(&mut h, ctx.op_tallies());
    for phase in ctx.finish() {
        h.word(phase.cpu.get());
        h.word(phase.reads.len() as u64);
        for read in &phase.reads {
            h.bytes(format!("{read:?}").as_bytes());
        }
    }
    h.finish()
}

#[test]
fn template_digests_are_pinned() {
    let catalogs = catalogs(2000);
    assert_pinned("query.templates", &digests(&catalogs, &QueryTemplate::MIX));
}

/// Q1 and Q6 at 10 000 orders: LINEITEM then spans ten `BATCH_ROWS`
/// windows, the last one partial, where the 2 000-order pins above span
/// two.
#[test]
fn multi_window_aggregate_digests_are_pinned() {
    let catalogs = catalogs(10_000);
    let rows = catalogs[0].1.lineitem.table.row_count();
    assert_eq!(rows.div_ceil(BATCH_ROWS), 10, "{rows} LINEITEM rows");
    assert_ne!(rows % BATCH_ROWS, 0, "a partial last window");
    let templates = [
        QueryTemplate::PricingSummary,
        QueryTemplate::RevenueForecast,
    ];
    assert_pinned("query.multi_window", &digests(&catalogs, &templates));
}

fn rare_status() -> Option<Expr> {
    Some(Expr::eq(Expr::Col(2), Expr::Lit(2)))
}

fn scan_digest(orders: &Arc<StoredTable>, predicate: Option<Expr>) -> u64 {
    let run = colscan::scan_job(
        orders.clone(),
        &ORDERS_FIG2_PROJECTION,
        predicate,
        CostCharge::default_calibrated(),
        4,
    )
    .expect("the Fig. 2 scans are well formed");
    let mut h = Fnv1a::new();
    h.word(run.rows as u64);
    h.word(run.cpu.get());
    h.word(run.io_bytes.get());
    tallies(&mut h, &run.ops);
    h.bytes(format!("{:?}", run.job).as_bytes());
    h.finish()
}

fn toy_orders() -> [(&'static str, Arc<StoredTable>); 3] {
    catalogs(TpchScale::toy().orders_rows).map(|(name, cat)| (name, cat.orders))
}

/// Each catalog's ORDERS scanned twice: the Fig. 2 projection bare,
/// then with `Col(2) = 2`. Toy scale, so each scan crosses three
/// `BATCH_ROWS` windows.
#[test]
fn scan_job_digests_are_pinned() {
    let mut measured = Vec::new();
    for (name, orders) in &toy_orders() {
        for (tag, predicate) in [("bare", None), ("rare_status", rare_status())] {
            measured.push((format!("{name}_{tag}"), scan_digest(orders, predicate)));
        }
    }
    assert_pinned("query.scan_job", &measured);
}

/// The digest is only worth pinning if it sees what it claims to: a run
/// with no result rows, no closed phase or one operator would pin nothing.
#[test]
fn the_digested_runs_are_not_trivial() {
    let [.., (_, cat)] = catalogs(2000);
    for t in QueryTemplate::MIX {
        let mut plan = t.plan(&cat);
        let mut ctx = ExecContext::calibrated();
        let mut rows = 0;
        while let Some(b) = plan.next(&mut ctx).expect("well formed") {
            rows += b.len();
        }
        assert!(rows > 0, "{}", t.name());
        assert!(ctx.op_tallies().len() >= 3, "{}", t.name());
        assert!(ctx
            .op_tallies()
            .iter()
            .all(|o| o.calls > 0 && o.cpu.get() > 0));
        let phases = ctx.finish();
        assert!(!phases.is_empty(), "{}", t.name());
        assert!(phases
            .iter()
            .all(|p| p.cpu.get() > 0 && !p.reads.is_empty()));
    }
    // Each scan pulls three windows and then finds the scan exhausted;
    // the predicate keeps some rows of each window and drops most.
    for (_, orders) in &toy_orders() {
        let charge = CostCharge::default_calibrated();
        let proj = &ORDERS_FIG2_PROJECTION;
        let bare = colscan::scan_job(orders.clone(), proj, None, charge, 4).expect("well formed");
        let some = colscan::scan_job(orders.clone(), proj, rare_status(), charge, 4).expect("ok");
        assert_eq!(bare.rows, 10_000);
        assert!(some.rows > 3 && some.rows < bare.rows / 10, "{}", some.rows);
        let calls: Vec<(&str, u64)> = some.ops.iter().map(|t| (t.name, t.calls)).collect();
        assert_eq!(calls, [("filter", 4), ("scan", 4)]);
        assert!(some.ops.iter().all(|t| t.cpu.get() > 0));
        assert_eq!(bare.io_bytes, some.io_bytes);
    }
}
