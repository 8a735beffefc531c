//! The query engine at non-toy scale.
//!
//! One `EnergyAwareDb` on a 66-disk DL785, loaded once; every pass runs
//! 21 facade operations — for each of Plain, Auto and Fig2 storage:
//! the four query templates, the Fig. 2 projection scan with and
//! without a predicate, and one 8×4 throughput test. The codecs and
//! the query operators do nearly all the host work, the simulator
//! almost none; and because every facade call rebuilds its stored
//! catalog, the write path (encode) sits beside the read path (decode)
//! in every operation.

use super::Scale;
use crate::harness::{Harness, Pinned};
use crate::replay::{self, rows_digest, Metered};
use crate::seeds::Seeds;
use crate::stats::median;
use grail_core::db::{CompressionMode, EnergyAwareDb, ExecPolicy, ScanSpec, LOGICAL_TARGET};
use grail_core::profile::HardwareProfile;
use grail_query::colscan;
use grail_query::cost_charge::CostCharge;
use grail_query::exec::{run_collect, ExecContext, Operator};
use grail_query::expr::Expr;
use grail_query::ops::sort::SortOrder;
use grail_query::ops::{AggFunc, AggSpec};
use grail_query::ops::{ColumnarScan, Filter, HashAggregate, HashJoin, Sort, SortSpec};
use grail_storage::compress::{self, Encoding};
use grail_workload::queries::{QueryTemplate, StoredCatalog};
use grail_workload::tpch::{self, TpchScale, TpchTables, DATE_DAYS, ORDERS_FIG2_PROJECTION};
use std::collections::BTreeMap;

/// Storage modes, in [`crate::spec::MODES`] order.
pub const MODES: [CompressionMode; 3] = [
    CompressionMode::Plain,
    CompressionMode::Auto,
    CompressionMode::Fig2,
];

/// ORDERS rows loaded at each scale (LINEITEM is 4× that).
fn orders_rows(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 60_000,
        Scale::Probe => 10_000,
        Scale::Tiny => 200,
    }
}

/// The Fig. 2 projection with the rare-status predicate (~2 % of rows).
fn predicated_scan() -> ScanSpec {
    ScanSpec {
        projection: ORDERS_FIG2_PROJECTION.to_vec(),
        predicate: Some(Expr::eq(Expr::Col(2), Expr::Lit(2))),
    }
}

/// Median of three timings of `f`, in reference milliseconds.
fn median_ms<R>(h: &mut Harness, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let (r, secs) = h.timed(|_| f());
            std::hint::black_box(r);
            secs * 1e3
        })
        .collect();
    median(&samples)
}

/// The engine section of a run.
#[derive(Debug)]
pub struct Tpch {
    db: EnergyAwareDb,
    scale: TpchScale,
    seed: u64,
    pinned: Pinned,
}

impl Tpch {
    /// Generate and load the tables at `scale`.
    pub fn setup(scale: Scale, seeds: Seeds) -> Tpch {
        let scale = TpchScale {
            orders_rows: orders_rows(scale),
        };
        let mut db = EnergyAwareDb::new(HardwareProfile::server_dl785(66));
        db.load_tpch_seeded(scale, seeds.tpch);
        Tpch {
            db,
            scale,
            seed: seeds.tpch,
            pinned: Pinned::default(),
        }
    }

    fn tables(&self) -> &TpchTables {
        self.db.tables()
    }

    /// Base-table rows the plans of one pass scan: the work
    /// `rows_per_s` divides by time. Defined by the input alone.
    pub fn rows_per_pass(&self) -> u64 {
        let t = self.tables();
        let (l, o, c) = (
            t.lineitem.row_count() as u64,
            t.orders.row_count() as u64,
            t.customer.row_count() as u64,
        );
        // Q1 and Q6 scan LINEITEM, Q3 CUSTOMER and ORDERS, Q10 ORDERS.
        let templates = 2 * l + c + 2 * o;
        // Per mode: 4 templates, 2 ORDERS scans, and a throughput test
        // that measures each template once.
        (2 * templates + 2 * o) * MODES.len() as u64
    }

    /// Run the 21 operations once.
    pub fn pass(&mut self, h: &mut Harness) {
        self.pinned.start_pass();
        let profile = self.db.profile().clone();
        // Row counts (untraced) or row digests (traced) per template:
        // every storage mode must return the same rows.
        let mut answers: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for mode in MODES {
            let policy = ExecPolicy {
                compression: mode,
                dop: 4,
            };
            for t in QueryTemplate::MIX {
                h.op("template", |h| {
                    let run = if h.tracing() {
                        replay::run_template(h, &profile, self.db.tables(), t, policy, 1.0)
                    } else {
                        self.db
                            .try_run_template(t, policy, 1.0)
                            .map(|r| (Metered::from_report(&r), r.work.to_bits()))
                            .map_err(|e| e.to_string())
                    };
                    match run {
                        Ok((m, answer)) => {
                            m.check_conserved(h, t.name());
                            self.pinned.pin(h, t.name(), &m.values());
                            answers.entry(t.name()).or_default().push(answer);
                        }
                        Err(e) => h.check(false, || format!("{} {mode:?}: {e}", t.name())),
                    }
                });
            }
            for spec in [ScanSpec::fig2(), predicated_scan()] {
                h.op("scan", |h| {
                    let run = if h.tracing() {
                        replay::run_scan(h, &profile, self.db.tables(), &spec, policy, 1.0)
                    } else {
                        self.db
                            .try_run_scan(&spec, policy, 1.0)
                            .map(|r| Metered::from_report(&r))
                            .map_err(|e| e.to_string())
                    };
                    match run {
                        Ok(m) => {
                            m.check_conserved(h, "scan");
                            self.pinned.pin(h, "scan", &m.values());
                            let which = if spec.predicate.is_some() {
                                "scan_predicated"
                            } else {
                                "scan"
                            };
                            answers.entry(which).or_default().push(m.work.to_bits());
                        }
                        Err(e) => h.check(false, || format!("scan {mode:?}: {e}")),
                    }
                });
            }
            h.op("throughput", |h| {
                let run = if h.tracing() {
                    replay::run_throughput_test(h, &profile, self.db.tables(), 8, 4, policy, 1.0)
                } else {
                    self.db
                        .try_run_throughput_test(8, 4, policy, 1.0)
                        .map(|r| Metered::from_report(&r))
                        .map_err(|e| e.to_string())
                };
                match run {
                    Ok(m) => {
                        m.check_conserved(h, "throughput");
                        self.pinned.pin(h, "throughput", &m.values());
                    }
                    Err(e) => h.check(false, || format!("throughput {mode:?}: {e}")),
                }
            });
        }
        for (name, per_mode) in &answers {
            let same = per_mode.windows(2).all(|w| w[0] == w[1]);
            h.check(same && per_mode.len() == MODES.len(), || {
                format!("{name}: Plain, Auto and Fig2 storage returned different rows")
            });
        }
    }

    /// See [`Pinned::corrupt`].
    pub fn corrupt_reference(&mut self) {
        self.pinned.corrupt();
    }

    /// The `workload.*`, `storage.*` and `query.*` layer metrics, and
    /// `core.facade_overhead_ms`, measured on this section's tables.
    pub fn layer_metrics(&self, h: &mut Harness, out: &mut BTreeMap<String, f64>) {
        let tables = self.tables();
        out.insert(
            "workload.tpch_gen_ms".into(),
            median_ms(h, || tpch::generate(self.scale, self.seed)),
        );
        self.codec_metrics(h, out);

        // Catalog encode per mode, and the stored footprint it yields.
        let mut catalogs = Vec::new();
        for (mode, name) in MODES.into_iter().zip(crate::spec::MODES) {
            let build = || replay::catalog(&mut Harness::new(), tables, mode);
            out.insert(
                format!("storage.catalog_encode_ms.{name}"),
                median_ms(h, build),
            );
            let cat = build();
            let bytes: u64 = [
                &cat.orders,
                &cat.lineitem,
                &cat.customer,
                &cat.part,
                &cat.supplier,
            ]
            .iter()
            .map(|t| t.footprint())
            .sum();
            out.insert(format!("storage.stored_bytes.{name}"), bytes as f64);
            catalogs.push(cat);
        }
        let (plain, auto) = (&catalogs[0], &catalogs[1]);

        // Plan + execute on a prebuilt catalog, per query and per mode.
        for (cat, family) in [(plain, "query.exec_ms"), (auto, "query.exec_auto_ms")] {
            for (q, name) in QueryTemplate::MIX.into_iter().zip(crate::spec::QUERIES) {
                let ms = median_ms(h, || {
                    let mut ctx = ExecContext::calibrated();
                    run_collect(q.plan(cat).as_mut(), &mut ctx).map(|b| b.len())
                });
                out.insert(format!("{family}.{name}"), ms);
            }
            let ms = median_ms(h, || fig2_scan(cat).map(|r| r.rows));
            out.insert(format!("{family}.scan"), ms);
        }

        // What the executor charged and returned (Plain storage): the
        // model-side counters, which repeat exactly.
        for (q, name) in QueryTemplate::MIX.into_iter().zip(crate::spec::QUERIES) {
            let mut ctx = ExecContext::calibrated();
            match run_collect(q.plan(plain).as_mut(), &mut ctx) {
                Ok(batches) => {
                    let rows: usize = batches.iter().map(|b| b.len()).sum();
                    std::hint::black_box(rows_digest(&batches));
                    out.insert(
                        format!("query.charged_cycles.{name}"),
                        ctx.total_cpu().get() as f64,
                    );
                    out.insert(
                        format!("query.charged_io_bytes.{name}"),
                        ctx.total_io_bytes().get() as f64,
                    );
                    out.insert(format!("query.result_rows.{name}"), rows as f64);
                }
                Err(e) => h.check(false, || format!("{}: {e}", q.name())),
            }
        }
        match fig2_scan(plain) {
            Ok(run) => {
                out.insert("query.charged_cycles.scan".into(), run.cpu.get() as f64);
                out.insert(
                    "query.charged_io_bytes.scan".into(),
                    run.io_bytes.get() as f64,
                );
                out.insert("query.result_rows.scan".into(), run.rows as f64);
            }
            Err(e) => h.check(false, || format!("scan: {e}")),
        }

        self.operator_self_times(h, plain, out);
        out.insert("core.facade_overhead_ms".into(), self.facade_overhead_ms(h));
    }

    /// `compress::encode` / `decode` throughput per codec over this
    /// section's own LINEITEM and ORDERS columns.
    fn codec_metrics(&self, h: &mut Harness, out: &mut BTreeMap<String, f64>) {
        let tables = self.tables();
        let columns: Vec<&[i64]> = tables
            .lineitem
            .columns
            .iter()
            .chain(tables.orders.columns.iter())
            .map(|c| c.as_slice())
            .collect();
        let values: usize = columns.iter().map(|c| c.len()).sum();
        let mvals = values as f64 / 1e6;
        for (enc, name) in Encoding::ALL.into_iter().zip(crate::spec::CODECS) {
            let (encoded, enc_s) = h.timed(|_| {
                columns
                    .iter()
                    .map(|c| compress::encode(c, enc))
                    .collect::<Vec<_>>()
            });
            let (decoded, dec_s) = h.timed(|_| {
                encoded
                    .iter()
                    .map(|b| compress::decode(b, enc))
                    .collect::<Result<Vec<_>, _>>()
            });
            let round_trips = decoded.as_ref().is_ok_and(|d| {
                d.iter()
                    .zip(&columns)
                    .all(|(got, want)| got.as_slice() == *want)
            });
            h.check(round_trips, || format!("{name}: decode(encode(x)) != x"));
            out.insert(format!("storage.encode_mvals_per_s.{name}"), mvals / enc_s);
            out.insert(format!("storage.decode_mvals_per_s.{name}"), mvals / dec_s);
        }
    }

    /// Operator self time by plan-prefix subtraction on Plain storage:
    /// time(scan+filter) − time(scan) is the filter's, and so on up
    /// each template's pipeline.
    fn operator_self_times(
        &self,
        h: &mut Harness,
        cat: &StoredCatalog,
        out: &mut BTreeMap<String, f64>,
    ) {
        let mut run = |plan: &mut dyn FnMut() -> Box<dyn Operator>| {
            median_ms(h, || {
                let mut ctx = ExecContext::calibrated();
                run_collect(plan().as_mut(), &mut ctx).map(|b| b.len())
            })
        };
        // Q1's pipeline: scan → filter → hash aggregate.
        let q1_scan = || -> Box<dyn Operator> {
            Box::new(ColumnarScan::new(
                cat.lineitem.clone(),
                vec![3, 4, 5, 7, 8, 9],
            ))
        };
        let q1_filter = || -> Box<dyn Operator> {
            Box::new(Filter::new(
                q1_scan(),
                Expr::le(Expr::Col(5), Expr::Lit(DATE_DAYS - 90)),
            ))
        };
        let q1_agg = || -> Box<dyn Operator> {
            Box::new(HashAggregate::new(
                q1_filter(),
                vec![3, 4],
                vec![
                    AggSpec::new(AggFunc::Sum, 0, "sum_qty"),
                    AggSpec::new(AggFunc::Sum, 1, "sum_price"),
                    AggSpec::new(AggFunc::Avg, 2, "avg_disc"),
                    AggSpec::new(AggFunc::Count, 0, "count"),
                ],
            ))
        };
        let t_scan = run(&mut || q1_scan());
        let t_filter = run(&mut || q1_filter());
        let t_agg = run(&mut || q1_agg());
        out.insert("query.op_self_ms.scan".into(), t_scan);
        out.insert("query.op_self_ms.filter".into(), t_filter - t_scan);
        out.insert("query.op_self_ms.hash_agg".into(), t_agg - t_filter);

        // Q3's join: customer ⋈ orders, minus its two input scans.
        let cust = || -> Box<dyn Operator> {
            Box::new(ColumnarScan::new(cat.customer.clone(), vec![0, 3]))
        };
        let ords =
            || -> Box<dyn Operator> { Box::new(ColumnarScan::new(cat.orders.clone(), vec![1, 3])) };
        let t_inputs = run(&mut || cust()) + run(&mut || ords());
        let t_join =
            run(&mut || -> Box<dyn Operator> { Box::new(HashJoin::new(cust(), ords(), 0, 0)) });
        out.insert("query.op_self_ms.hash_join".into(), t_join - t_inputs);

        // Q10's sort over its filtered scan.
        let q10_filter = || -> Box<dyn Operator> {
            Box::new(Filter::new(
                Box::new(ColumnarScan::new(cat.orders.clone(), vec![0, 1, 3, 4])),
                Expr::gt(Expr::Col(2), Expr::Lit(50_000_000)),
            ))
        };
        let t_input = run(&mut || q10_filter());
        let t_sort = run(&mut || -> Box<dyn Operator> {
            Box::new(Sort::new(
                q10_filter(),
                SortSpec {
                    keys: vec![(2, SortOrder::Desc)],
                    memory_grant: 256 * 1024 * 1024,
                    spill_target: LOGICAL_TARGET,
                },
            ))
        });
        out.insert("query.op_self_ms.sort".into(), t_sort - t_input);
    }

    /// Facade calls minus the same pipeline replayed through the
    /// layers' public functions (no spans), over the six Plain
    /// operations of a pass.
    fn facade_overhead_ms(&self, h: &mut Harness) -> f64 {
        let policy = ExecPolicy {
            compression: CompressionMode::Plain,
            dop: 4,
        };
        let profile = self.db.profile().clone();
        let tables = self.tables();
        let facade = median_ms(h, || {
            for t in QueryTemplate::MIX {
                std::hint::black_box(self.db.try_run_template(t, policy, 1.0).is_ok());
            }
            std::hint::black_box(self.db.try_run_scan(&ScanSpec::fig2(), policy, 1.0).is_ok());
            self.db.try_run_throughput_test(8, 4, policy, 1.0).is_ok()
        });
        let replayed = median_ms(h, || {
            let h = &mut Harness::new();
            for t in QueryTemplate::MIX {
                std::hint::black_box(
                    replay::run_template(h, &profile, tables, t, policy, 1.0).is_ok(),
                );
            }
            std::hint::black_box(
                replay::run_scan(h, &profile, tables, &ScanSpec::fig2(), policy, 1.0).is_ok(),
            );
            replay::run_throughput_test(h, &profile, tables, 8, 4, policy, 1.0).is_ok()
        });
        facade - replayed
    }
}

/// The Fig. 2 projection scan of ORDERS on a prebuilt catalog.
fn fig2_scan(cat: &StoredCatalog) -> Result<colscan::ScanRun, grail_query::exec::QueryError> {
    colscan::scan_job(
        cat.orders.clone(),
        &ORDERS_FIG2_PROJECTION,
        None,
        CostCharge::default_calibrated(),
        1,
    )
}
