//! Pinned digests of the four throughput-test templates, measured on the
//! row-at-a-time `HashAggregate` / `HashJoin` / `Sort` before they were
//! made columnar. A digest covers everything the simulator and a caller
//! can see of a run: every batch `next()` returns (its length, then each
//! value column by column), every phase `ExecContext::finish()` closes
//! (cycles and each `ReadDemand`) and every `OpTally` (`calls`, `cpu`,
//! `io_bytes`). `charge_cpu` rounds up per call, so a batch boundary that
//! moves, a charge that is split or merged, or a tie that flips all land
//! here. To re-measure, set a constant to 0 and read the table the
//! failing assert prints — on the parent commit, never on the change.

use grail_query::exec::ExecContext;
use grail_sim::{DiskId, StorageTarget};
use grail_workload::queries::{QueryTemplate, StoredCatalog};
use grail_workload::tpch::{generate, TpchScale};

/// One row per catalog, one digest per `QueryTemplate::MIX` entry (Q1,
/// Q6, Q3, Q10). LINEITEM is stored alike under `compressed` and `fig2`,
/// so their Q1 and Q6 digests agree.
const PINNED: [(&str, [u64; 4]); 3] = [
    (
        "plain",
        [
            0x3ae0_f57a_2ccf_148e,
            0xd8c2_2950_0b5b_3d48,
            0x021b_d085_c140_d8dc,
            0xd9fc_8d1c_e78b_84b0,
        ],
    ),
    (
        "compressed",
        [
            0x6e9b_179b_90c1_bab5,
            0x4851_9b6a_a502_eb06,
            0xe58c_3d3e_b55d_e73b,
            0x592d_ab88_231f_dbe8,
        ],
    ),
    (
        "fig2",
        [
            0x6e9b_179b_90c1_bab5,
            0x4851_9b6a_a502_eb06,
            0x7f4e_38dc_6f87_c1b8,
            0x2e6d_3500_7bc0_baf3,
        ],
    ),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(template: QueryTemplate, catalog: &StoredCatalog) -> u64 {
    let mut plan = template.plan(catalog);
    let mut ctx = ExecContext::calibrated();
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
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
    h.0
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
}
