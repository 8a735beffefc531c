//! Pinned digests of the four throughput-test templates, first measured
//! on the row-at-a-time `HashAggregate` / `HashJoin` / `Sort` before they
//! were made columnar, and re-measured only when the generated tables or
//! an operator's calls moved. A digest covers everything the simulator
//! and a caller can see of a run: every batch `next()` returns (its
//! length, then each value column by column), every phase
//! `ExecContext::finish()` closes (cycles and each `ReadDemand`) and
//! every `OpTally` (`calls`, `cpu`, `io_bytes`). `charge_cpu` rounds up
//! per call, so a batch boundary that moves, a charge that is split or
//! merged, or a tie that flips all land here. To re-measure, set a constant to 0 and read the table the
//! failing assert prints — on the parent commit, never on the change.
//!
//! The two ORDERS scans the facade meters (the plan `colscan::scan_job`
//! runs over the Fig. 2 projection, bare and with the rare-status
//! predicate) are pinned the same way, on what a `ScanRun` carries:
//! rows, CPU, IO bytes, every `OpTally` and the `JobSpec`. They were
//! first measured on `Filter` over a fully decoded `ColumnarScan`.

use grail_prop::Fnv1a;
use grail_query::batch::BATCH_ROWS;
use grail_query::colscan;
use grail_query::cost_charge::CostCharge;
use grail_query::exec::ExecContext;
use grail_query::expr::Expr;
use grail_query::ops::StoredTable;
use grail_sim::{DiskId, StorageTarget};
use grail_workload::queries::{QueryTemplate, StoredCatalog};
use grail_workload::tpch::{generate, TpchScale, ORDERS_FIG2_PROJECTION};
use std::sync::Arc;

/// One row per catalog, one digest per `QueryTemplate::MIX` entry (Q1,
/// Q6, Q3, Q10). LINEITEM is stored alike under `compressed` and `fig2`,
/// so their Q1 and Q6 digests agree.
const PINNED: [(&str, [u64; 4]); 3] = [
    (
        "plain",
        [
            0x4b89_2748_0dfe_162f,
            0x418a_1cc2_d6e7_ae20,
            0xba55_5e41_a329_b184,
            0x456d_fd43_9d79_4f65,
        ],
    ),
    (
        "compressed",
        [
            0xa118_1118_2b49_d826,
            0xd92e_b6c0_1bb4_8e08,
            0x5a37_0517_830d_0483,
            0x2c82_1cbb_0c31_77de,
        ],
    ),
    (
        "fig2",
        [
            0xa118_1118_2b49_d826,
            0xd92e_b6c0_1bb4_8e08,
            0xb6d7_379b_40de_fd80,
            0x78b1_add9_1704_9929,
        ],
    ),
];

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
    for t in ctx.op_tallies() {
        h.bytes(t.name.as_bytes());
        h.word(t.calls);
        h.word(t.cpu.get());
        h.word(t.io_bytes.get());
    }
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
    let tables = generate(TpchScale { orders_rows: 2000 }, 42);
    let target = StorageTarget::Disk(DiskId(0));
    let catalogs = [
        StoredCatalog::plain(&tables, target),
        StoredCatalog::compressed(&tables, target),
        StoredCatalog::fig2(&tables, target),
    ];
    let measured: Vec<(&str, [u64; 4])> = PINNED
        .iter()
        .zip(&catalogs)
        .map(|((name, _), cat)| (*name, QueryTemplate::MIX.map(|t| digest(t, cat))))
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\"{name}\", [{:#x}, {:#x}, {:#x}, {:#x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    assert!(measured == PINNED, "measured digests:\n{table}");
}

/// Q1 and Q6 at 10 000 orders, one row per catalog: LINEITEM then spans
/// ten `BATCH_ROWS` windows, the last one partial, where the 2 000-order
/// pins above span two. Measured on `HashAggregate` over
/// `ColumnarScan::filtered`.
const MULTI_WINDOW_PINNED: [(&str, [u64; 2]); 3] = [
    ("plain", [0x2bd3_3503_d1f9_8cf7, 0x840d_5a88_5103_c880]),
    ("compressed", [0x25f7_479d_97fe_21f4, 0x4444_b3b6_2fcb_95e4]),
    ("fig2", [0x25f7_479d_97fe_21f4, 0x4444_b3b6_2fcb_95e4]),
];

#[test]
fn multi_window_aggregate_digests_are_pinned() {
    let tables = generate(
        TpchScale {
            orders_rows: 10_000,
        },
        42,
    );
    let target = StorageTarget::Disk(DiskId(0));
    let catalogs = [
        StoredCatalog::plain(&tables, target),
        StoredCatalog::compressed(&tables, target),
        StoredCatalog::fig2(&tables, target),
    ];
    let windows = tables.lineitem.row_count().div_ceil(BATCH_ROWS);
    assert_eq!(windows, 10, "{} LINEITEM rows", tables.lineitem.row_count());
    assert_ne!(
        tables.lineitem.row_count() % BATCH_ROWS,
        0,
        "a partial last window"
    );
    let templates = [
        QueryTemplate::PricingSummary,
        QueryTemplate::RevenueForecast,
    ];
    let measured: Vec<(&str, [u64; 2])> = MULTI_WINDOW_PINNED
        .iter()
        .zip(&catalogs)
        .map(|((name, _), cat)| (*name, templates.map(|t| digest(t, cat))))
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", [{:#x}, {:#x}]),\n", d[0], d[1]))
        .collect();
    assert!(
        measured == MULTI_WINDOW_PINNED,
        "measured digests:\n{table}"
    );
}

/// One row per catalog's ORDERS, one digest per scan: the Fig. 2
/// projection bare, then with `Col(2) = 2`. Toy scale, so each scan
/// crosses three `BATCH_ROWS` windows.
const SCAN_PINNED: [(&str, [u64; 2]); 3] = [
    ("plain", [0xce23_342e_323f_3d92, 0x50bc_d2bb_304b_6bb8]),
    ("compressed", [0x508b_fa77_965b_9b42, 0xd127_4911_0f5f_05d7]),
    ("fig2", [0xa6b1_8dd1_8f0b_fd0f, 0xb994_93fc_9c57_c91f]),
];

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
    for t in &run.ops {
        h.bytes(t.name.as_bytes());
        h.word(t.calls);
        h.word(t.cpu.get());
        h.word(t.io_bytes.get());
    }
    h.bytes(format!("{:?}", run.job).as_bytes());
    h.finish()
}

fn toy_orders() -> [Arc<StoredTable>; 3] {
    let tables = generate(TpchScale::toy(), 42);
    let target = StorageTarget::Disk(DiskId(0));
    [
        StoredCatalog::plain(&tables, target).orders,
        StoredCatalog::compressed(&tables, target).orders,
        StoredCatalog::fig2(&tables, target).orders,
    ]
}

#[test]
fn scan_job_digests_are_pinned() {
    let measured: Vec<(&str, [u64; 2])> = SCAN_PINNED
        .iter()
        .zip(&toy_orders())
        .map(|((name, _), orders)| {
            let bare = scan_digest(orders, None);
            (*name, [bare, scan_digest(orders, rare_status())])
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", [{:#x}, {:#x}]),\n", d[0], d[1]))
        .collect();
    assert!(measured == SCAN_PINNED, "measured digests:\n{table}");
}

/// The digest is only worth pinning if it sees what it claims to: a run
/// with no result rows, no closed phase or one operator would pin nothing.
#[test]
fn the_digested_runs_are_not_trivial() {
    let tables = generate(TpchScale { orders_rows: 2000 }, 42);
    let cat = StoredCatalog::fig2(&tables, StorageTarget::Disk(DiskId(0)));
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
    for orders in &toy_orders() {
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
