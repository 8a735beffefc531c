//! Seeded TPC-H-like table generation.
//!
//! Audited TPC-H data is not reproducible here, and does not need to be:
//! the experiments depend on table *shapes* — cardinality ratios, dense
//! vs uniform keys, low-cardinality flags, clustered dates — not on
//! audited content. Generation is deterministic: the same
//! `(scale, seed)` yields bit-identical tables on any platform
//! (ChaCha12) and at any thread count, since a table's row ranges seek
//! to their own positions in its stream and are stitched in order.

use grail_par::Runner;
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
    let split = Split {
        seed,
        table,
        #[cfg(test)]
        threads: None,
    };
    Arc::new(draw_table(scale, split).0)
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

/// The table `split` names at `scale`, and how many of its row ranges
/// the stitch redrew.
fn draw_table(scale: TpchScale, split: Split) -> (Table, usize) {
    match split.table {
        TpchTable::Orders => gen_orders(scale, split),
        TpchTable::Lineitem => gen_lineitem(scale, split),
        TpchTable::Customer => gen_customer(scale, split),
        TpchTable::Part => gen_part(scale, split),
        TpchTable::Supplier => gen_supplier(scale, split),
    }
}

fn gen_orders(scale: TpchScale, split: Split) -> (Table, usize) {
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
    let (cols, redrawn) = split.columns(scale.orders_rows as usize, |rng, i| {
        let custkey = rng.random_range(0..customers);
        // F/O dominate; P is rare.
        let status = match rng.random_range(0..100) {
            0..=48 => 0,
            49..=97 => 1,
            _ => 2,
        };
        // Price in cents, 857.71 .. ~555285.16 like TPC-H's domain.
        let price = rng.random_range(85_771..55_528_516);
        let date = rng.random_range(0..DATE_DAYS);
        let priority = rng.random_range(0..5);
        [orderkey(i), custkey, status, price, date, priority, 0]
    });
    (Table::new("orders", schema, cols), redrawn)
}

/// The key of ORDERS row `i`: sparse as in TPC-H (4 of every 32 key
/// values used).
fn orderkey(i: usize) -> i64 {
    (i as i64 / 4) * 32 + (i as i64 % 4)
}

fn gen_lineitem(scale: TpchScale, split: Split) -> (Table, usize) {
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
    // Four lines per order: line `i` belongs to order `i / 4`.
    let (cols, redrawn) = split.columns(scale.lineitem_rows() as usize, |rng, i| {
        let qty = rng.random_range(1..=50);
        let unit_price = rng.random_range(90_000..=200_000);
        let partkey = rng.random_range(0..parts);
        let suppkey = rng.random_range(0..suppliers);
        let discount = rng.random_range(0..=10);
        let tax = rng.random_range(0..=8);
        let returnflag = rng.random_range(0..3);
        let linestatus = rng.random_range(0..2);
        let shipdate = rng.random_range(0..DATE_DAYS);
        [
            orderkey(i / 4),
            partkey,
            suppkey,
            qty,
            qty * unit_price,
            discount,
            tax,
            returnflag,
            linestatus,
            shipdate,
        ]
    });
    (Table::new("lineitem", schema, cols), redrawn)
}

fn gen_customer(scale: TpchScale, split: Split) -> (Table, usize) {
    let schema = Schema::new(vec![
        ("c_custkey", ColumnType::Id),
        ("c_nationkey", ColumnType::Id),
        ("c_acctbal", ColumnType::Decimal),
        ("c_mktsegment", ColumnType::Code),
        ("c_ordercount", ColumnType::Int),
    ]);
    let (cols, redrawn) = split.columns(scale.customer_rows() as usize, |rng, i| {
        let nationkey = rng.random_range(0..25);
        let acctbal = rng.random_range(-99_999..999_999);
        let mktsegment = rng.random_range(0..5);
        [i as i64, nationkey, acctbal, mktsegment, 0]
    });
    (Table::new("customer", schema, cols), redrawn)
}

fn gen_part(scale: TpchScale, split: Split) -> (Table, usize) {
    let schema = Schema::new(vec![
        ("p_partkey", ColumnType::Id),
        ("p_brand", ColumnType::Code),
        ("p_type", ColumnType::Code),
        ("p_size", ColumnType::Int),
        ("p_retailprice", ColumnType::Decimal),
    ]);
    let (cols, redrawn) = split.columns(scale.part_rows() as usize, |rng, i| {
        let brand = rng.random_range(0..25);
        let ty = rng.random_range(0..150);
        let size = rng.random_range(1..=50);
        [i as i64, brand, ty, size, 90_000 + (i as i64 % 200_001)]
    });
    (Table::new("part", schema, cols), redrawn)
}

fn gen_supplier(scale: TpchScale, split: Split) -> (Table, usize) {
    let schema = Schema::new(vec![
        ("s_suppkey", ColumnType::Id),
        ("s_nationkey", ColumnType::Id),
        ("s_acctbal", ColumnType::Decimal),
        ("s_phoneprefix", ColumnType::Code),
    ]);
    let (cols, redrawn) = split.columns(scale.supplier_rows() as usize, |rng, i| {
        let nationkey = rng.random_range(0..25);
        let acctbal = rng.random_range(-99_999..999_999);
        let phoneprefix = rng.random_range(10..35);
        [i as i64, nationkey, acctbal, phoneprefix]
    });
    (Table::new("supplier", schema, cols), redrawn)
}

/// Fewest rows a range must hold to pay for a thread of its own.
const MIN_RANGE_ROWS: usize = 2_048;

/// Which table, and which seed its stream is drawn from.
#[derive(Debug, Clone, Copy)]
struct Split {
    seed: u64,
    table: TpchTable,
    /// The threads its rows are drawn on, at one row a range or more
    /// (`None`: [`Runner::current`]'s, at [`MIN_RANGE_ROWS`]).
    #[cfg(test)]
    threads: Option<usize>,
}

impl Split {
    /// `rows` rows of `C` columns, row `i` drawn by `row(rng, i)` from
    /// the table's stream, and how many ranges the stitch redrew.
    ///
    /// Row 0 is drawn inline, and the words it consumes are the stride.
    /// The other rows are cut into the ranges [`Runner::split`] cuts at
    /// [`MIN_RANGE_ROWS`] on [`Runner::current`] (one, on the caller,
    /// inside a sweep's point); a range starting at row `first` seeks to
    /// `stride × first` and is drawn into its own slices of the columns. A
    /// row whose draws hit Canon's second draw consumes more words, so
    /// the stitch walks the ranges in order and draws again, from the
    /// true position, every range whose predecessor did not end where
    /// it began. The columns are then byte for byte the ones a single
    /// loop over the stream draws.
    fn columns<const C: usize>(
        self,
        rows: usize,
        row: impl Fn(&mut ChaCha12Rng, usize) -> [i64; C] + Sync,
    ) -> (Vec<Vec<i64>>, usize) {
        let mut cols: [Vec<i64>; C] = std::array::from_fn(|_| vec![0; rows]);
        let mut redrawn = 0;
        if rows > 0 {
            let stream = rng_for(self.seed, self.table);
            let mut rest = cols.each_mut().map(Vec::as_mut_slice);
            let mut head = Rows::split_off(&mut rest, 0, 1);
            head.draw(&stream, 0, &row);
            let stride = head.end;

            let (runner, min) = (Runner::current(), MIN_RANGE_ROWS);
            #[cfg(test)]
            let (runner, min) = self
                .threads
                .map_or((runner, min), |n| (Runner::with_threads(n), 1));
            let mut ranges: Vec<Rows<C>> = (runner.split(rows - 1, min).into_iter())
                .map(|r| Rows::split_off(&mut rest, 1 + r.start, r.len()))
                .collect();
            runner.for_each_mut(&mut ranges, |_, range| {
                range.draw(&stream, stride * range.first as u128, &row);
            });

            // The stitch follows true positions only, from where row 0
            // ended: a wrong stride costs redraws, never bytes.
            let mut at = head.end;
            for range in &mut ranges {
                if range.start != at {
                    range.draw(&stream, at, &row);
                    redrawn += 1;
                }
                at = range.end;
            }
        }
        (cols.into(), redrawn)
    }
}

/// Rows `first..first + len` of a table: their slices of its columns,
/// and the stream positions they were drawn from and ended at.
struct Rows<'a, const C: usize> {
    first: usize,
    len: usize,
    cols: [&'a mut [i64]; C],
    start: u128,
    end: u128,
}

impl<'a, const C: usize> Rows<'a, C> {
    /// The next `len` rows off the front of `rest`, which starts at row
    /// `first`.
    fn split_off(rest: &mut [&'a mut [i64]; C], first: usize, len: usize) -> Self {
        let cols = rest.each_mut().map(|col| {
            let (head, tail) = std::mem::take(col).split_at_mut(len);
            *col = tail;
            head
        });
        Rows {
            first,
            len,
            cols,
            start: 0,
            end: 0,
        }
    }

    /// Draw the rows from word `start` of `stream`.
    fn draw(
        &mut self,
        stream: &ChaCha12Rng,
        start: u128,
        row: &impl Fn(&mut ChaCha12Rng, usize) -> [i64; C],
    ) {
        let mut rng = stream.clone();
        rng.set_word_pos(start);
        for i in 0..self.len {
            let values = row(&mut rng, self.first + i);
            for (col, v) in self.cols.iter_mut().zip(values) {
                col[i] = v;
            }
        }
        self.start = start;
        self.end = rng.word_pos();
    }
}

#[cfg(test)]
#[path = "../tests/common/sequential.rs"]
mod sequential;

#[cfg(test)]
mod tests {
    use super::*;
    use grail_prop::check;

    /// The points `tpch_digests` pins.
    const PINNED: [(u64, u64); 2] = [(10_000, 42), (2_000, 1009)];

    /// Every table, drawn on 1 to 8 threads at a row a range or as the
    /// current runner splits it, equals the one loop over its stream
    /// column for column: at the row counts where the current runner's
    /// split changes on two cores (ORDERS' tail crossing `2 ×
    /// MIN_RANGE_ROWS`, LINEITEM's at a quarter of that), at tiny tables
    /// where threads outnumber rows, and at the pinned scales.
    #[test]
    fn chunked_tables_match_the_sequential_generator() {
        let edge = 2 * MIN_RANGE_ROWS as u64 + 1;
        let sizes = [
            0,
            1,
            2,
            3,
            7,
            edge - 1,
            edge,
            edge + 1,
            edge / 4 - 1,
            edge / 4,
            edge / 4 + 1,
            2_000,
            10_000,
        ];
        check(256, |g| {
            let orders_rows = if g.one_in(4) {
                g.range(0..5_000)
            } else {
                g.pick(&sizes)
            };
            let seed = g.word();
            let threads = (!g.one_in(8)).then(|| g.range(1usize..9));
            let scale = TpchScale { orders_rows };
            for table in TpchTable::ALL {
                let want = sequential::generate_table(scale, seed, table);
                let (got, _) = draw_table(
                    scale,
                    Split {
                        seed,
                        table,
                        threads,
                    },
                );
                assert_eq!(got.name, want.name);
                assert_eq!(got.schema, want.schema);
                for (c, (got, want)) in got.columns.iter().zip(&want.columns).enumerate() {
                    assert!(
                        got == want,
                        "{table:?} column {c} differs: {orders_rows} orders, seed {seed:#x}, \
                         {threads:?} threads"
                    );
                }
            }
        });
    }

    /// A row whose `u64` draw has a range of 2^63 + 1 hits Canon's second
    /// draw about half the time, so rows draw 2 or 4 words and nearly
    /// every range starts off the learned stride: the stitch redraws
    /// them, and the columns still equal one loop over the stream.
    #[test]
    fn stitching_redraws_ranges_that_drifted() {
        let row =
            |rng: &mut ChaCha12Rng, i: usize| [i as i64, rng.random_range(0..=(1u64 << 63)) as i64];
        let mut redrawn = 0;
        check(256, |g| {
            let (rows, seed, threads) = (g.range(0usize..3_000), g.word(), g.range(1usize..9));
            let split = Split {
                seed,
                table: TpchTable::Orders,
                threads: Some(threads),
            };
            let (cols, n) = split.columns(rows, row);
            redrawn += n;
            let mut rng = rng_for(seed, TpchTable::Orders);
            let drawn: Vec<[i64; 2]> = (0..rows).map(|i| row(&mut rng, i)).collect();
            let want: Vec<Vec<i64>> = (0..2)
                .map(|c| drawn.iter().map(|r| r[c]).collect())
                .collect();
            assert!(
                cols == want,
                "{rows} rows, seed {seed:#x}, {threads} threads"
            );
        });
        assert!(redrawn > 256, "only {redrawn} ranges redrawn");
    }

    /// At the pinned points no range is drawn twice: a stride learned
    /// wrong would redraw every range after the join, generating the
    /// table sequentially with the same bytes.
    #[test]
    fn no_range_is_redrawn_at_the_pinned_points() {
        for (orders_rows, seed) in PINNED {
            for table in TpchTable::ALL {
                for threads in [None, Some(2), Some(8)] {
                    let split = Split {
                        seed,
                        table,
                        threads,
                    };
                    let (_, redrawn) = draw_table(TpchScale { orders_rows }, split);
                    assert_eq!(
                        redrawn, 0,
                        "{table:?} at ({orders_rows}, {seed}), {threads:?} threads"
                    );
                }
            }
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
