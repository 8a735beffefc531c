//! Pinned digests of every generated TPC-H table, measured while
//! `tpch::generate` still drew all five tables in one call. A digest
//! covers a table's name, then column by column its field name, type,
//! length and every value, so a row that moves, a draw that is added or
//! dropped, or a stream that is shared between tables all land here. To
//! re-measure, set a constant to 0 and read the table the failing
//! assert prints — on the parent commit, never on the change.

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
            0x364f_0995_9cf1_6ce1,
            0xac00_e632_fba8_95fd,
            0x5b55_bd22_0b15_8bf1,
            0x3bfa_4b08_5e7b_a753,
            0x08aa_6a4b_d2ca_deee,
        ],
    ),
    (
        2_000,
        1009,
        [
            0x2096_d057_225d_53d0,
            0xb936_9906_2916_655c,
            0x7f2e_da10_886d_0dc9,
            0xe8dd_6335_a53b_bc0c,
            0x42fa_3524_0369_e504,
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
