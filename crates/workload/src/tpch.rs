//! Seeded TPC-H-like table generation.
//!
//! Audited TPC-H data is not reproducible here, and does not need to be:
//! the experiments depend on table *shapes* — cardinality ratios, dense
//! vs uniform keys, low-cardinality flags, clustered dates — not on
//! audited content, nor on which pseudo-random bits fill a column.
//!
//! So each drawn value is a pure function of its seed and position
//! (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
//! SC'11): row `row` of a column is `uniform(key, row, lo, hi)`, the
//! `row`-th draw of a SplitMix64 sequence whose start `key` mixes the
//! seed, the table and the column, mapped onto `lo..=hi` by a 128-bit
//! multiply-high with no rejection (a bias of at most span/2⁶⁴, below
//! 2⁻³⁸ for every domain here). Derived columns (`l_extendedprice`,
//! `o_orderstatus`, the keys) are functions of the same draws or of the
//! row number. No state passes from row to row, so there is nothing to
//! seek or stitch: each column is one pass on the caller, the same
//! `(scale, seed)` yields bit-identical tables on any platform and at any
//! thread count, and no column or table moves another's bytes.
//!
//! The other generated inputs (query mixes, JouleSort records, fault,
//! chaos and buffer traces) still draw from `grail_sim::rng::ChaCha12Rng`.

use grail_query::batch::Table;
use grail_query::schema::{ColumnType, Schema};
use grail_sim::rng::splitmix64;
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

/// Generate one table of the database at `scale` from `seed`: the same
/// table [`generate`] returns, without drawing the other four.
pub fn generate_table(scale: TpchScale, seed: u64, table: TpchTable) -> Arc<Table> {
    Arc::new(draw_table(scale, seed, table))
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

/// The start of the sequence column `column` of `table` draws from under
/// `seed`. Both mixes are bijections, so no two (table, column) pairs
/// share a key at any seed. A draw that is not a stored column
/// (LINEITEM's unit price) is numbered after the table's last column.
fn key(seed: u64, table: TpchTable, column: usize) -> u64 {
    splitmix64(seed ^ splitmix64((table as u64) << 32 | column as u64))
}

/// 2⁶⁴/φ, the step between consecutive rows of one column's sequence.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Row `row` of the column keyed `key`, uniform over `lo..=hi`: the word
/// `splitmix64(key + row·γ)` mapped onto the span by Lemire's 128-bit
/// multiply-high, with no rejection. What that leaves is a bias of at
/// most span/2⁶⁴ per value: below 2⁻³⁸ for every domain here, whose
/// widest (ORDERS' total price, ~5.5 × 10⁷ cents) is under 2²⁶.
fn uniform(key: u64, row: usize, lo: i64, hi: i64) -> i64 {
    let span = (hi - lo) as u64 + 1;
    let x = splitmix64(key.wrapping_add((row as u64).wrapping_mul(GAMMA)));
    lo + ((u128::from(x) * u128::from(span)) >> 64) as i64
}

/// `rows` rows whose row `r` holds `value(r)`.
fn column(rows: usize, value: impl Fn(usize) -> i64) -> Vec<i64> {
    (0..rows).map(value).collect()
}

/// The table `table` at `scale` from `seed`.
fn draw_table(scale: TpchScale, seed: u64, table: TpchTable) -> Table {
    let key = |column| key(seed, table, column);
    match table {
        TpchTable::Orders => gen_orders(scale, key),
        TpchTable::Lineitem => gen_lineitem(scale, key),
        TpchTable::Customer => gen_customer(scale, key),
        TpchTable::Part => gen_part(scale, key),
        TpchTable::Supplier => gen_supplier(scale, key),
    }
}

fn gen_orders(scale: TpchScale, key: impl Fn(usize) -> u64) -> Table {
    let rows = scale.orders_rows as usize;
    let customers = scale.customer_rows() as i64;
    let schema = Schema::new(vec![
        ("o_orderkey", ColumnType::Id),
        ("o_custkey", ColumnType::Id),
        ("o_orderstatus", ColumnType::Code),
        ("o_totalprice", ColumnType::Decimal),
        ("o_orderdate", ColumnType::Date),
        ("o_orderpriority", ColumnType::Code),
        ("o_shippriority", ColumnType::Int),
    ]);
    let k: [u64; 6] = std::array::from_fn(key);
    let cols = vec![
        column(rows, orderkey),
        column(rows, |r| uniform(k[1], r, 0, customers - 1)),
        // F/O dominate; P is rare.
        column(rows, |r| match uniform(k[2], r, 0, 99) {
            0..=48 => 0,
            49..=97 => 1,
            _ => 2,
        }),
        // Price in cents, 857.71 .. ~555285.16 like TPC-H's domain.
        column(rows, |r| uniform(k[3], r, 85_771, 55_528_515)),
        column(rows, |r| uniform(k[4], r, 0, DATE_DAYS - 1)),
        column(rows, |r| uniform(k[5], r, 0, 4)),
        // o_shippriority stays 0.
        vec![0; rows],
    ];
    Table::new("orders", schema, cols)
}

/// The key of ORDERS row `i`: sparse as in TPC-H (4 of every 32 key
/// values used).
fn orderkey(i: usize) -> i64 {
    (i as i64 / 4) * 32 + (i as i64 % 4)
}

fn gen_lineitem(scale: TpchScale, key: impl Fn(usize) -> u64) -> Table {
    let rows = scale.lineitem_rows() as usize;
    let parts = scale.part_rows() as i64;
    let suppliers = scale.supplier_rows() as i64;
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
    // Key 10 draws the unit price that `l_extendedprice` multiplies.
    let k: [u64; 11] = std::array::from_fn(key);
    let qty = column(rows, |r| uniform(k[3], r, 1, 50));
    let price = (qty.iter().enumerate())
        .map(|(r, q)| q * uniform(k[10], r, 90_000, 200_000))
        .collect();
    let cols = vec![
        // Four lines per order: line `r` belongs to order `r / 4`.
        column(rows, |r| orderkey(r / 4)),
        column(rows, |r| uniform(k[1], r, 0, parts - 1)),
        column(rows, |r| uniform(k[2], r, 0, suppliers - 1)),
        qty,
        price,
        column(rows, |r| uniform(k[5], r, 0, 10)),
        column(rows, |r| uniform(k[6], r, 0, 8)),
        column(rows, |r| uniform(k[7], r, 0, 2)),
        column(rows, |r| uniform(k[8], r, 0, 1)),
        column(rows, |r| uniform(k[9], r, 0, DATE_DAYS - 1)),
    ];
    Table::new("lineitem", schema, cols)
}

fn gen_customer(scale: TpchScale, key: impl Fn(usize) -> u64) -> Table {
    let rows = scale.customer_rows() as usize;
    let schema = Schema::new(vec![
        ("c_custkey", ColumnType::Id),
        ("c_nationkey", ColumnType::Id),
        ("c_acctbal", ColumnType::Decimal),
        ("c_mktsegment", ColumnType::Code),
        ("c_ordercount", ColumnType::Int),
    ]);
    let k: [u64; 4] = std::array::from_fn(key);
    let cols = vec![
        column(rows, |r| r as i64),
        column(rows, |r| uniform(k[1], r, 0, 24)),
        column(rows, |r| uniform(k[2], r, -99_999, 999_998)),
        column(rows, |r| uniform(k[3], r, 0, 4)),
        // c_ordercount stays 0.
        vec![0; rows],
    ];
    Table::new("customer", schema, cols)
}

fn gen_part(scale: TpchScale, key: impl Fn(usize) -> u64) -> Table {
    let rows = scale.part_rows() as usize;
    let schema = Schema::new(vec![
        ("p_partkey", ColumnType::Id),
        ("p_brand", ColumnType::Code),
        ("p_type", ColumnType::Code),
        ("p_size", ColumnType::Int),
        ("p_retailprice", ColumnType::Decimal),
    ]);
    let k: [u64; 4] = std::array::from_fn(key);
    let cols = vec![
        column(rows, |r| r as i64),
        column(rows, |r| uniform(k[1], r, 0, 24)),
        column(rows, |r| uniform(k[2], r, 0, 149)),
        column(rows, |r| uniform(k[3], r, 1, 50)),
        column(rows, |r| 90_000 + (r as i64 % 200_001)),
    ];
    Table::new("part", schema, cols)
}

fn gen_supplier(scale: TpchScale, key: impl Fn(usize) -> u64) -> Table {
    let rows = scale.supplier_rows() as usize;
    let schema = Schema::new(vec![
        ("s_suppkey", ColumnType::Id),
        ("s_nationkey", ColumnType::Id),
        ("s_acctbal", ColumnType::Decimal),
        ("s_phoneprefix", ColumnType::Code),
    ]);
    let k: [u64; 4] = std::array::from_fn(key);
    let cols = vec![
        column(rows, |r| r as i64),
        column(rows, |r| uniform(k[1], r, 0, 24)),
        column(rows, |r| uniform(k[2], r, -99_999, 999_998)),
        column(rows, |r| uniform(k[3], r, 10, 34)),
    ];
    Table::new("supplier", schema, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grail_prop::check;

    /// Over drawn scales and seeds every column stays in its domain,
    /// `l_extendedprice` is the quantity times a unit price in
    /// 90 000..=200 000, and every foreign key resolves.
    #[test]
    fn columns_stay_in_their_domains() {
        check(64, |g| {
            let scale = TpchScale {
                orders_rows: g.range(0..6_000),
            };
            let t = generate(scale, g.word());
            let domains = |table: &Table, domains: &[std::ops::RangeInclusive<i64>]| {
                assert_eq!(table.columns.len(), domains.len(), "{}", table.name);
                for (c, (col, domain)) in table.columns.iter().zip(domains).enumerate() {
                    let out = col.iter().find(|v| !domain.contains(v));
                    assert!(out.is_none(), "{} column {c}: {out:?}", table.name);
                }
            };
            let last = |rows: u64| 0..=rows as i64 - 1;
            let (customers, parts) = (last(scale.customer_rows()), last(scale.part_rows()));
            let suppliers = last(scale.supplier_rows());
            let orderkeys = 0..=orderkey(scale.orders_rows.max(1) as usize - 1);
            let days = 0..=DATE_DAYS - 1;
            domains(
                &t.orders,
                &[
                    orderkeys.clone(),
                    customers.clone(),
                    0..=2,
                    85_771..=55_528_515,
                    days.clone(),
                    0..=4,
                    0..=0,
                ],
            );
            #[rustfmt::skip]
            domains(&t.lineitem, &[
                orderkeys, parts.clone(), suppliers.clone(), 1..=50, 90_000..=10_000_000,
                0..=10, 0..=8, 0..=2, 0..=1, days,
            ]);
            domains(
                &t.customer,
                &[customers, 0..=24, -99_999..=999_998, 0..=4, 0..=0],
            );
            domains(&t.part, &[parts, 0..=24, 0..=149, 1..=50, 90_000..=290_000]);
            domains(
                &t.supplier,
                &[suppliers, 0..=24, -99_999..=999_998, 10..=34],
            );

            let (qty, price) = (&t.lineitem.columns[3], &t.lineitem.columns[4]);
            for (q, p) in qty.iter().zip(price.iter()) {
                assert!(
                    p % q == 0 && (90_000..=200_000).contains(&(p / q)),
                    "{p} / {q}"
                );
            }
            // Line `r` belongs to order `r / 4`; the other keys are row numbers.
            let okeys = &t.orders.columns[0];
            assert!((t.lineitem.columns[0].iter().enumerate()).all(|(r, k)| *k == okeys[r / 4]));
            for table in [&t.customer, &t.part, &t.supplier] {
                assert!((table.columns[0].iter())
                    .enumerate()
                    .all(|(r, k)| *k == r as i64));
            }
        });
    }

    /// Each drawn column has a sequence of its own: a pair of columns of
    /// one table, drawn with one key, would cover few of the value pairs
    /// their domains allow; at toy scale independent ones cover all.
    #[test]
    fn drawn_columns_are_independent() {
        let t = generate(TpchScale::toy(), 5);
        // (table, column, domain size): the low-cardinality drawn columns.
        let drawn = [
            (&t.orders, 2, 3),
            (&t.orders, 5, 5),
            (&t.lineitem, 3, 50),
            (&t.lineitem, 5, 11),
            (&t.lineitem, 6, 9),
            (&t.lineitem, 7, 3),
            (&t.lineitem, 8, 2),
            (&t.customer, 1, 25),
            (&t.customer, 3, 5),
        ];
        for (i, (table, a, n)) in drawn.iter().enumerate() {
            for (other, b, m) in &drawn[i + 1..] {
                if table.name != other.name || table.row_count() < 8 * n * m {
                    continue;
                }
                let mut seen = vec![false; n * m];
                let min = |c: &[i64]| c.iter().copied().min().unwrap_or(0);
                let (lo_a, lo_b) = (min(&table.columns[*a]), min(&table.columns[*b]));
                for (x, y) in table.columns[*a].iter().zip(table.columns[*b].iter()) {
                    seen[(x - lo_a) as usize * m + (y - lo_b) as usize] = true;
                }
                let covered = seen.iter().filter(|s| **s).count();
                assert_eq!(covered, n * m, "{} columns {a} and {b}", table.name);
            }
        }
    }

    /// No two (table, column) pairs share a key, at several seeds.
    #[test]
    fn column_keys_are_distinct() {
        for seed in [0, 1, 42, 1_009, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            let mut keys: Vec<u64> = (TpchTable::ALL.into_iter())
                .flat_map(|table| (0..=10).map(move |column| key(seed, table, column)))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 5 * 11, "seed {seed}");
        }
    }

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
