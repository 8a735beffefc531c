//! Per-query energy attribution.
//!
//! The ledger answers *which component* burned the Joules; attribution
//! answers *which query*. While a tagged query is being served (see
//! [`Simulation::set_query_tag`](crate::sim::Simulation::set_query_tag)),
//! the simulator accumulates the **active** energy of every reservation
//! it causes — device service time × active power, plus any energy a
//! failed attempt wasted. Everything no query caused (idle draw, base
//! power, power-state transitions, background rebuilds) lands in a
//! single residual row, so the table's rows sum to the ledger's
//! wall-socket total *by construction*, closing the loop with the
//! conservation invariant.

use grail_power::units::Joules;

/// The label of the residual row holding energy not caused by any
/// tagged query (idle, base, transitions, background recovery).
pub const UNATTRIBUTED: &str = "unattributed";

/// Demand one operator contributed within a query (informational: the
/// row's energy is *not* subdivided, so operator rows cannot
/// double-count).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorShare {
    /// Operator name (`"scan"`, `"hash_join"`, …).
    pub name: String,
    /// `next()` invocations.
    pub calls: u64,
    /// CPU cycles the operator charged.
    pub cpu_cycles: u64,
    /// Bytes of IO the operator charged.
    pub io_bytes: u64,
}

/// One attribution row: a query (or the residual) and its energy.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionRow {
    /// Client stream, `None` for the residual row.
    pub stream: Option<u32>,
    /// Query index within the stream, `None` for the residual row.
    pub index: Option<u32>,
    /// Energy attributed to this row.
    pub energy: Joules,
    /// Fraction of the ledger total in [0, 1] (0 for an empty ledger;
    /// the residual may carry a slightly negative share from float
    /// accumulation).
    pub share: f64,
    /// Optional per-operator demand breakdown (filled by the query
    /// layer when operator tallies are known).
    pub operators: Vec<OperatorShare>,
}

/// Per-query energy attribution whose rows sum to the wall-socket
/// ledger total (within f64 accumulation tolerance).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttributionTable {
    /// Query rows in `(stream, index)` order, then the residual row.
    pub rows: Vec<AttributionRow>,
}

impl AttributionRow {
    /// Display label: `"s2.q7"` for stream 2's 8th query, or
    /// [`UNATTRIBUTED`]. Formatted on each call: a table of tens of
    /// thousands of rows holds no text.
    pub fn label(&self) -> String {
        match (self.stream, self.index) {
            (Some(stream), Some(index)) => format!("s{stream}.q{index}"),
            _ => UNATTRIBUTED.to_string(),
        }
    }

    /// The order of [`AttributionTable::rows`]: query rows by
    /// `(stream, index)`, then the residual.
    fn order_key(&self) -> (bool, Option<u32>, Option<u32>) {
        (self.stream.is_none(), self.stream, self.index)
    }
}

impl AttributionTable {
    /// Sum of every row's energy — equals the ledger total the table
    /// was built against, up to float accumulation.
    pub fn sum(&self) -> Joules {
        self.rows.iter().map(|r| r.energy).sum()
    }

    /// Energy attributed to actual queries (everything but the
    /// residual).
    pub fn attributed(&self) -> Joules {
        self.rows
            .iter()
            .filter(|r| r.stream.is_some())
            .map(|r| r.energy)
            .sum()
    }

    /// The residual row, if present.
    pub fn residual(&self) -> Option<&AttributionRow> {
        self.rows.iter().find(|r| r.stream.is_none())
    }

    /// The row for `(stream, index)`, if present: a binary search of
    /// the rows, which are in `(stream, index)` order.
    pub fn query(&self, stream: u32, index: u32) -> Option<&AttributionRow> {
        let key = (false, Some(stream), Some(index));
        self.rows
            .binary_search_by_key(&key, AttributionRow::order_key)
            .ok()
            .map(|i| &self.rows[i])
    }
}

impl AttributionTable {
    /// Settle `(stream, index, joules)` entries against the final
    /// ledger total: one query row per entry, in the order given, then
    /// the residual making the rows sum to `total` by construction.
    pub(crate) fn settle(
        entries: impl Iterator<Item = (u32, u32, f64)>,
        total: Joules,
    ) -> AttributionTable {
        let t = total.joules();
        let share = |e: f64| if t > 0.0 { e / t } else { 0.0 };
        let mut rows: Vec<AttributionRow> = entries
            .map(|(stream, index, e)| AttributionRow {
                stream: Some(stream),
                index: Some(index),
                energy: Joules::new(e),
                share: share(e),
                operators: Vec::new(),
            })
            .collect();
        debug_assert!(
            rows.windows(2).all(|w| w[0].order_key() < w[1].order_key()),
            "attribution entries must come in (stream, index) order"
        );
        let attributed: f64 = rows.iter().map(|r| r.energy.joules()).sum();
        let residual = t - attributed;
        rows.push(AttributionRow {
            stream: None,
            index: None,
            energy: Joules::new(residual),
            share: share(residual),
            operators: Vec::new(),
        });
        AttributionTable { rows }
    }
}

/// The in-flight accumulator the simulator carries while attribution is
/// enabled: `by_stream[stream][index]`, probed on every reservation, so
/// it is two dense vectors rather than a map. `None` marks a query that
/// was never charged — it gets no row, exactly as an absent map key
/// would not.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttributionAcc {
    by_stream: Vec<Vec<Option<f64>>>,
}

impl AttributionAcc {
    /// Add active energy to a query's bucket.
    pub(crate) fn add(&mut self, (stream, index): (u32, u32), energy: Joules) {
        let (stream, index) = (stream as usize, index as usize);
        if stream >= self.by_stream.len() {
            self.by_stream.resize_with(stream + 1, Vec::new);
        }
        let queries = &mut self.by_stream[stream];
        if index >= queries.len() {
            queries.resize(index + 1, None);
        }
        *queries[index].get_or_insert(0.0) += energy.joules();
    }

    /// The charged queries as `(stream, index, joules)`, in
    /// `(stream, index)` order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.by_stream.iter().enumerate().flat_map(|(s, queries)| {
            queries
                .iter()
                .enumerate()
                .filter_map(move |(i, e)| e.map(|e| (s as u32, i as u32, e)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_total_by_construction() {
        let mut acc = AttributionAcc::default();
        acc.add((0, 0), Joules::new(10.0));
        acc.add((0, 0), Joules::new(5.0));
        acc.add((1, 3), Joules::new(25.0));
        let table = AttributionTable::settle(acc.entries(), Joules::new(100.0));
        assert_eq!(table.rows.len(), 3);
        assert!((table.sum().joules() - 100.0).abs() < 1e-9);
        assert!((table.attributed().joules() - 40.0).abs() < 1e-9);
        let res = table.residual().unwrap();
        assert_eq!(res.label(), UNATTRIBUTED);
        assert!((res.energy.joules() - 60.0).abs() < 1e-9);
        let q = table.query(0, 0).unwrap();
        assert_eq!(q.label(), "s0.q0");
        assert!((q.energy.joules() - 15.0).abs() < 1e-9);
        assert!((q.share - 0.15).abs() < 1e-12);
    }

    #[test]
    fn rows_are_in_stream_index_order() {
        let mut acc = AttributionAcc::default();
        acc.add((2, 0), Joules::new(1.0));
        acc.add((0, 1), Joules::new(1.0));
        acc.add((0, 0), Joules::new(1.0));
        let table = AttributionTable::settle(acc.entries(), Joules::new(3.0));
        let labels: Vec<String> = table.rows.iter().map(AttributionRow::label).collect();
        assert_eq!(labels, ["s0.q0", "s0.q1", "s2.q0", "unattributed"]);
        for (i, row) in table.rows.iter().enumerate() {
            if let (Some(s), Some(q)) = (row.stream, row.index) {
                assert!(std::ptr::eq(table.query(s, q).unwrap(), &table.rows[i]));
            }
        }
        assert!(table.query(0, 2).is_none() && table.query(1, 0).is_none());
        assert!(table.query(3, 0).is_none());
    }

    #[test]
    fn empty_total_yields_zero_shares() {
        let table = AttributionTable::settle(std::iter::empty(), Joules::ZERO);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].share, 0.0);
        assert_eq!(table.sum(), Joules::ZERO);
    }
}
