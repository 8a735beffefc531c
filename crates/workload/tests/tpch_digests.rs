//! Pinned digests of every generated TPC-H table, measured on the
//! counter-based draws. A digest covers a table's name, then column by
//! column its field name, type, length and every value, so a row that
//! moves, a draw whose key or mapping changes, or a key that is shared
//! between columns all land here. To re-measure, set a constant to 0 and
//! read the table the failing assert prints — on the parent commit, never
//! on the change.

use grail_prop::Fnv1a;
use grail_query::batch::Table;
use grail_workload::tpch::{generate, generate_table, TpchScale, TpchTable, TpchTables};
use std::sync::Arc;

/// One row per `(orders_rows, seed)`, one digest per table in
/// `TpchTables` field order: ORDERS, LINEITEM, CUSTOMER, PART, SUPPLIER.
const PINNED: [(u64, u64, [u64; 5]); 2] = [
    (
        10_000,
        42,
        [
            0x8322_456d_3cc3_4820,
            0x3435_cfc6_718c_a1ac,
            0x663c_0fd8_e60d_f58a,
            0xdbcd_2f99_7117_d0aa,
            0x4824_bc50_3a51_e07b,
        ],
    ),
    (
        2_000,
        1009,
        [
            0xc715_00e4_4440_b252,
            0x7b35_b238_8921_1865,
            0xa7ee_8db8_8e33_3318,
            0xbf06_229c_fba4_0a61,
            0x1552_01d2_ce6e_7a7b,
        ],
    ),
];

fn digest(table: &Table) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(table.name.as_bytes());
    for (field, column) in table.schema.fields().iter().zip(&table.columns) {
        h.bytes(field.name.as_bytes());
        h.bytes(format!("{:?}", field.ty).as_bytes());
        h.word(column.len() as u64);
        for v in column.iter() {
            h.word(*v as u64);
        }
    }
    h.finish()
}

/// The five tables in `TpchTable::ALL` order.
fn each(t: &TpchTables) -> [&Arc<Table>; 5] {
    [&t.orders, &t.lineitem, &t.customer, &t.part, &t.supplier]
}

#[test]
fn generated_tables_are_pinned() {
    assert_eq!(TpchScale::toy().orders_rows, 10_000);
    let measured: Vec<(u64, u64, [u64; 5])> = PINNED
        .iter()
        .map(|&(orders_rows, seed, _)| {
            let t = generate(TpchScale { orders_rows }, seed);
            (orders_rows, seed, each(&t).map(|t| digest(t)))
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(rows, seed, d)| {
            format!(
                "    ({rows}, {seed}, [{:#x}, {:#x}, {:#x}, {:#x}, {:#x}]),\n",
                d[0], d[1], d[2], d[3], d[4]
            )
        })
        .collect();
    assert!(measured == PINNED, "measured digests:\n{table}");
}

/// Each table drawn alone, last first, is exactly the table `generate`
/// returns: no table's stream depends on another having been drawn.
#[test]
fn per_table_entry_points_compose_to_generate() {
    for &(orders_rows, seed, _) in &PINNED {
        let scale = TpchScale { orders_rows };
        let whole = generate(scale, seed);
        for (table, expected) in TpchTable::ALL.into_iter().zip(each(&whole)).rev() {
            let alone = generate_table(scale, seed, table);
            assert_eq!(
                alone.columns, expected.columns,
                "{table:?} at {orders_rows}/{seed}"
            );
            assert_eq!(
                digest(&alone),
                digest(expected),
                "{table:?} at {orders_rows}/{seed}"
            );
        }
    }
}
