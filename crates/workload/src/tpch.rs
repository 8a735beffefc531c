//! Seeded TPC-H-like table generation.
//!
//! Audited TPC-H data is not reproducible here, and does not need to be:
//! the experiments depend on table *shapes* — cardinality ratios, dense
//! vs uniform keys, low-cardinality flags, clustered dates — not on
//! audited content. Generation is deterministic: the same
//! `(scale, seed)` yields bit-identical tables on any platform
//! (ChaCha12).

use grail_query::batch::Table;
use grail_query::schema::{ColumnType, Schema};
use grail_sim::rng::ChaCha12Rng;
use std::sync::Arc;

/// Scale of a generated database, in ORDERS rows; other tables follow
/// TPC-H's cardinality ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchScale {
    /// Rows in ORDERS.
    pub orders_rows: u64,
}

impl TpchScale {
    /// A laptop-friendly scale for tests and examples (10 K orders).
    pub fn toy() -> Self {
        TpchScale {
            orders_rows: 10_000,
        }
    }

    /// LINEITEM rows (4 lines per order on average, exact here).
    pub fn lineitem_rows(&self) -> u64 {
        self.orders_rows * 4
    }

    /// CUSTOMER rows (1 customer per 10 orders).
    pub fn customer_rows(&self) -> u64 {
        (self.orders_rows / 10).max(1)
    }

    /// PART rows.
    pub fn part_rows(&self) -> u64 {
        (self.orders_rows / 8).max(1)
    }

    /// SUPPLIER rows.
    pub fn supplier_rows(&self) -> u64 {
        (self.orders_rows / 150).max(1)
    }
}

/// The generated database.
#[derive(Debug, Clone)]
pub struct TpchTables {
    /// ORDERS (7 columns; Fig. 2 projects 5 of them).
    pub orders: Arc<Table>,
    /// LINEITEM (10 columns).
    pub lineitem: Arc<Table>,
    /// CUSTOMER (5 columns).
    pub customer: Arc<Table>,
    /// PART (5 columns).
    pub part: Arc<Table>,
    /// SUPPLIER (4 columns).
    pub supplier: Arc<Table>,
}

/// Days in the TPC-H date domain (1992-01-01 .. 1998-08-02).
pub const DATE_DAYS: i64 = 2406;

/// One table of the generated database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpchTable {
    /// ORDERS.
    Orders,
    /// LINEITEM.
    Lineitem,
    /// CUSTOMER.
    Customer,
    /// PART.
    Part,
    /// SUPPLIER.
    Supplier,
}

impl TpchTable {
    /// Every table, in [`TpchTables`] field order.
    pub const ALL: [TpchTable; 5] = [
        TpchTable::Orders,
        TpchTable::Lineitem,
        TpchTable::Customer,
        TpchTable::Part,
        TpchTable::Supplier,
    ];
}

/// Each table draws from its own stream (1 to 5 in [`TpchTable::ALL`]
/// order), so generating one never moves another's bytes.
fn rng_for(seed: u64, table: TpchTable) -> ChaCha12Rng {
    let stream = table as u64 + 1;
    ChaCha12Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Generate one table of the database at `scale` from `seed`: the same
/// table [`generate`] returns, without drawing the other four.
pub fn generate_table(scale: TpchScale, seed: u64, table: TpchTable) -> Arc<Table> {
    Arc::new(match table {
        TpchTable::Orders => gen_orders(scale, seed),
        TpchTable::Lineitem => gen_lineitem(scale, seed),
        TpchTable::Customer => gen_customer(scale, seed),
        TpchTable::Part => gen_part(scale, seed),
        TpchTable::Supplier => gen_supplier(scale, seed),
    })
}

/// Generate the database at `scale` from `seed`.
pub fn generate(scale: TpchScale, seed: u64) -> TpchTables {
    let table = |t| generate_table(scale, seed, t);
    TpchTables {
        orders: table(TpchTable::Orders),
        lineitem: table(TpchTable::Lineitem),
        customer: table(TpchTable::Customer),
        part: table(TpchTable::Part),
        supplier: table(TpchTable::Supplier),
    }
}

/// The 5-of-7 ORDERS projection of Fig. 2 (orderkey, custkey, status,
/// totalprice, orderdate).
pub const ORDERS_FIG2_PROJECTION: [usize; 5] = [0, 1, 2, 3, 4];

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_ratios() {
        let s = TpchScale::toy();
        let t = generate(s, 42);
        assert_eq!(t.orders.row_count() as u64, s.orders_rows);
        assert_eq!(t.lineitem.row_count() as u64, s.orders_rows * 4);
        assert_eq!(t.customer.row_count() as u64, s.orders_rows / 10);
        assert!(t.part.row_count() > 0 && t.supplier.row_count() > 0);
    }

    #[test]
    fn determinism_across_runs() {
        let a = generate(TpchScale { orders_rows: 500 }, 7);
        let b = generate(TpchScale { orders_rows: 500 }, 7);
        assert_eq!(a.orders.columns, b.orders.columns);
        assert_eq!(a.lineitem.columns, b.lineitem.columns);
        // Different seed, different data.
        let c = generate(TpchScale { orders_rows: 500 }, 8);
        assert_ne!(a.orders.columns, c.orders.columns);
    }

    #[test]
    fn orders_domains() {
        let t = generate(TpchScale::toy(), 1);
        let o = &t.orders;
        let customers = TpchScale::toy().customer_rows() as i64;
        for r in 0..o.row_count() {
            let row: Vec<i64> = o.columns.iter().map(|c| c[r]).collect();
            assert!(row[1] >= 0 && row[1] < customers, "custkey in range");
            assert!((0..3).contains(&row[2]), "status code");
            assert!((0..DATE_DAYS).contains(&row[4]), "date in domain");
            assert!((0..5).contains(&row[5]), "priority code");
        }
        // Sparse keys ascend.
        let keys = &o.columns[0];
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn foreign_keys_resolve() {
        let s = TpchScale::toy();
        let t = generate(s, 3);
        let parts = s.part_rows() as i64;
        let supps = s.supplier_rows() as i64;
        for r in 0..1000 {
            assert!(t.lineitem.columns[1][r] < parts);
            assert!(t.lineitem.columns[2][r] < supps);
        }
        // Every lineitem orderkey exists in orders (same sparse formula).
        #[expect(
            clippy::disallowed_types,
            reason = "membership probe only; never iterated"
        )]
        let okeys: std::collections::HashSet<i64> = t.orders.columns[0].iter().copied().collect();
        for r in 0..1000 {
            assert!(okeys.contains(&t.lineitem.columns[0][r]));
        }
    }

    #[test]
    fn status_skew_matches_tpch_shape() {
        let t = generate(TpchScale::toy(), 11);
        let mut counts = [0u32; 3];
        for v in t.orders.columns[2].iter() {
            counts[*v as usize] += 1;
        }
        assert!(counts[2] < counts[0] / 10, "P status is rare: {counts:?}");
        assert!(counts[0] > 4000 && counts[1] > 4000);
    }
}
