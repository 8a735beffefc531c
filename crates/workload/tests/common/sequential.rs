//! The TPC-H generators before tables were drawn in seeked row ranges,
//! kept verbatim as the oracle of
//! `tpch::tests::chunked_tables_match_the_sequential_generator`: each
//! table is one loop over one ChaCha12 stream, pushing row after row.

use super::{rng_for, TpchScale, TpchTable, DATE_DAYS};
use grail_query::batch::Table;
use grail_query::schema::{ColumnType, Schema};

/// The table `tpch::generate_table` returned, drawn by one loop.
pub(super) fn generate_table(scale: TpchScale, seed: u64, table: TpchTable) -> Table {
    match table {
        TpchTable::Orders => gen_orders(scale, seed),
        TpchTable::Lineitem => gen_lineitem(scale, seed),
        TpchTable::Customer => gen_customer(scale, seed),
        TpchTable::Part => gen_part(scale, seed),
        TpchTable::Supplier => gen_supplier(scale, seed),
    }
}

fn gen_orders(scale: TpchScale, seed: u64) -> Table {
    let n = scale.orders_rows;
    let customers = scale.customer_rows() as i64;
    let mut rng = rng_for(seed, TpchTable::Orders);
    let schema = Schema::new(vec![
        ("o_orderkey", ColumnType::Id),
        ("o_custkey", ColumnType::Id),
        ("o_orderstatus", ColumnType::Code),
        ("o_totalprice", ColumnType::Decimal),
        ("o_orderdate", ColumnType::Date),
        ("o_orderpriority", ColumnType::Code),
        ("o_shippriority", ColumnType::Int),
    ]);
    let mut orderkey = Vec::with_capacity(n as usize);
    let mut custkey = Vec::with_capacity(n as usize);
    let mut status = Vec::with_capacity(n as usize);
    let mut price = Vec::with_capacity(n as usize);
    let mut date = Vec::with_capacity(n as usize);
    let mut priority = Vec::with_capacity(n as usize);
    let mut shippriority = Vec::with_capacity(n as usize);
    for i in 0..n {
        // Sparse keys as in TPC-H (4 of every 32 key values used).
        orderkey.push((i as i64 / 4) * 32 + (i as i64 % 4));
        custkey.push(rng.random_range(0..customers));
        // F/O dominate; P is rare.
        let s = match rng.random_range(0..100) {
            0..=48 => 0,
            49..=97 => 1,
            _ => 2,
        };
        status.push(s);
        // Price in cents, 857.71 .. ~555285.16 like TPC-H's domain.
        price.push(rng.random_range(85_771..55_528_516));
        date.push(rng.random_range(0..DATE_DAYS));
        priority.push(rng.random_range(0..5));
        shippriority.push(0);
    }
    Table::new(
        "orders",
        schema,
        vec![
            orderkey,
            custkey,
            status,
            price,
            date,
            priority,
            shippriority,
        ],
    )
}

fn gen_lineitem(scale: TpchScale, seed: u64) -> Table {
    let orders = scale.orders_rows;
    let parts = scale.part_rows() as i64;
    let suppliers = scale.supplier_rows() as i64;
    let mut rng = rng_for(seed, TpchTable::Lineitem);
    let schema = Schema::new(vec![
        ("l_orderkey", ColumnType::Id),
        ("l_partkey", ColumnType::Id),
        ("l_suppkey", ColumnType::Id),
        ("l_quantity", ColumnType::Int),
        ("l_extendedprice", ColumnType::Decimal),
        ("l_discount", ColumnType::Int),
        ("l_tax", ColumnType::Int),
        ("l_returnflag", ColumnType::Code),
        ("l_linestatus", ColumnType::Code),
        ("l_shipdate", ColumnType::Date),
    ]);
    let n = scale.lineitem_rows() as usize;
    let mut cols: Vec<Vec<i64>> = (0..10).map(|_| Vec::with_capacity(n)).collect();
    for o in 0..orders {
        let okey = (o as i64 / 4) * 32 + (o as i64 % 4);
        for _ in 0..4 {
            let qty = rng.random_range(1..=50);
            let unit_price = rng.random_range(90_000..=200_000);
            cols[0].push(okey);
            cols[1].push(rng.random_range(0..parts));
            cols[2].push(rng.random_range(0..suppliers));
            cols[3].push(qty);
            cols[4].push(qty * unit_price);
            cols[5].push(rng.random_range(0..=10));
            cols[6].push(rng.random_range(0..=8));
            cols[7].push(rng.random_range(0..3));
            cols[8].push(rng.random_range(0..2));
            cols[9].push(rng.random_range(0..DATE_DAYS));
        }
    }
    Table::new("lineitem", schema, cols)
}

fn gen_customer(scale: TpchScale, seed: u64) -> Table {
    let n = scale.customer_rows() as usize;
    let mut rng = rng_for(seed, TpchTable::Customer);
    let schema = Schema::new(vec![
        ("c_custkey", ColumnType::Id),
        ("c_nationkey", ColumnType::Id),
        ("c_acctbal", ColumnType::Decimal),
        ("c_mktsegment", ColumnType::Code),
        ("c_ordercount", ColumnType::Int),
    ]);
    let mut cols: Vec<Vec<i64>> = (0..5).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        cols[0].push(i as i64);
        cols[1].push(rng.random_range(0..25));
        cols[2].push(rng.random_range(-99_999..999_999));
        cols[3].push(rng.random_range(0..5));
        cols[4].push(0);
    }
    Table::new("customer", schema, cols)
}

fn gen_part(scale: TpchScale, seed: u64) -> Table {
    let n = scale.part_rows() as usize;
    let mut rng = rng_for(seed, TpchTable::Part);
    let schema = Schema::new(vec![
        ("p_partkey", ColumnType::Id),
        ("p_brand", ColumnType::Code),
        ("p_type", ColumnType::Code),
        ("p_size", ColumnType::Int),
        ("p_retailprice", ColumnType::Decimal),
    ]);
    let mut cols: Vec<Vec<i64>> = (0..5).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        cols[0].push(i as i64);
        cols[1].push(rng.random_range(0..25));
        cols[2].push(rng.random_range(0..150));
        cols[3].push(rng.random_range(1..=50));
        cols[4].push(90_000 + (i as i64 % 200_001));
    }
    Table::new("part", schema, cols)
}

fn gen_supplier(scale: TpchScale, seed: u64) -> Table {
    let n = scale.supplier_rows() as usize;
    let mut rng = rng_for(seed, TpchTable::Supplier);
    let schema = Schema::new(vec![
        ("s_suppkey", ColumnType::Id),
        ("s_nationkey", ColumnType::Id),
        ("s_acctbal", ColumnType::Decimal),
        ("s_phoneprefix", ColumnType::Code),
    ]);
    let mut cols: Vec<Vec<i64>> = (0..4).map(|_| Vec::with_capacity(n)).collect();
    for i in 0..n {
        cols[0].push(i as i64);
        cols[1].push(rng.random_range(0..25));
        cols[2].push(rng.random_range(-99_999..999_999));
        cols[3].push(rng.random_range(10..35));
    }
    Table::new("supplier", schema, cols)
}
