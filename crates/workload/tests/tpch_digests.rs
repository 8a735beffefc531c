//! Pinned digests of every generated TPC-H table, measured on the
//! counter-based draws. A digest covers a table's name, then column by
//! column its field name, type, length and every value, so a row that
//! moves, a draw whose key or mapping changes, or a key that is shared
//! between columns all land here. The values live in the root `pins.txt`
//! under `workload.tpch`; a failing test prints the lines to paste there.

use grail_prop::{assert_pinned, Fnv1a};
use grail_query::batch::Table;
use grail_workload::tpch::{generate, generate_table, TpchScale, TpchTable, TpchTables};
use std::sync::Arc;

/// The pinned `(orders_rows, seed)` pairs.
const SCALES: [(u64, u64); 2] = [(10_000, 42), (2_000, 1009)];

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

/// `<table>_<orders_rows>_<seed>` for each table of each scale.
#[test]
fn generated_tables_are_pinned() {
    assert_eq!(TpchScale::toy().orders_rows, 10_000);
    let mut measured = Vec::new();
    for (orders_rows, seed) in SCALES {
        let t = generate(TpchScale { orders_rows }, seed);
        for table in each(&t) {
            let name = format!("{}_{orders_rows}_{seed}", table.name);
            measured.push((name, digest(table)));
        }
    }
    assert_pinned("workload.tpch", &measured);
}

/// Each table drawn alone, last first, is exactly the table `generate`
/// returns: no table's stream depends on another having been drawn.
#[test]
fn per_table_entry_points_compose_to_generate() {
    for (orders_rows, seed) in SCALES {
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
