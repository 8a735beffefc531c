//! Expressions over batches: arithmetic, comparisons, boolean logic.
//!
//! Expressions evaluate column-at-a-time over a [`Batch`]; predicates
//! produce a selection mask. [`Expr::cost_terms`] counts the evaluation
//! terms so the executor can charge CPU work proportional to real
//! evaluation effort.

use crate::batch::Batch;
use crate::value::Datum;

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by index.
    Col(usize),
    /// Literal datum.
    Lit(Datum),
    /// Arithmetic.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Comparison: equal.
    Eq(Box<Expr>, Box<Expr>),
    /// Comparison: less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Comparison: less-or-equal.
    Le(Box<Expr>, Box<Expr>),
    /// Comparison: greater-than.
    Gt(Box<Expr>, Box<Expr>),
    /// Logical and.
    And(Box<Expr>, Box<Expr>),
    /// Logical or.
    Or(Box<Expr>, Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
}

impl Expr {
    /// `left = right`.
    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::Eq(Box::new(l), Box::new(r))
    }

    /// `left < right`.
    pub fn lt(l: Expr, r: Expr) -> Expr {
        Expr::Lt(Box::new(l), Box::new(r))
    }

    /// `left <= right`.
    pub fn le(l: Expr, r: Expr) -> Expr {
        Expr::Le(Box::new(l), Box::new(r))
    }

    /// `left > right`.
    pub fn gt(l: Expr, r: Expr) -> Expr {
        Expr::Gt(Box::new(l), Box::new(r))
    }

    /// `left AND right`.
    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::And(Box::new(l), Box::new(r))
    }

    /// `left OR right`.
    pub fn or(l: Expr, r: Expr) -> Expr {
        Expr::Or(Box::new(l), Box::new(r))
    }

    /// Evaluate to one datum per row (booleans as 0/1).
    pub fn eval(&self, batch: &Batch) -> Vec<Datum> {
        let n = batch.len();
        match self {
            Expr::Col(i) => batch.gather(*i),
            Expr::Lit(v) => vec![*v; n],
            Expr::Add(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| a.wrapping_add(b)),
            Expr::Sub(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| a.wrapping_sub(b)),
            Expr::Mul(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| a.wrapping_mul(b)),
            Expr::Eq(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| (a == b) as Datum),
            Expr::Lt(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| (a < b) as Datum),
            Expr::Le(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| (a <= b) as Datum),
            Expr::Gt(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| (a > b) as Datum),
            Expr::And(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| {
                (a != 0 && b != 0) as Datum
            }),
            Expr::Or(l, r) => zip(l.eval(batch), r.eval(batch), |a, b| {
                (a != 0 || b != 0) as Datum
            }),
            Expr::Not(e) => e
                .eval(batch)
                .into_iter()
                .map(|v| (v == 0) as Datum)
                .collect(),
        }
    }

    /// Evaluate as a selection mask.
    pub fn eval_mask(&self, batch: &Batch) -> Vec<bool> {
        self.eval(batch).into_iter().map(|v| v != 0).collect()
    }

    /// Number of evaluation terms (nodes), for CPU charging.
    pub fn cost_terms(&self) -> u64 {
        match self {
            Expr::Col(_) | Expr::Lit(_) => 1,
            Expr::Add(l, r)
            | Expr::Sub(l, r)
            | Expr::Mul(l, r)
            | Expr::Eq(l, r)
            | Expr::Lt(l, r)
            | Expr::Le(l, r)
            | Expr::Gt(l, r)
            | Expr::And(l, r)
            | Expr::Or(l, r) => 1 + l.cost_terms() + r.cost_terms(),
            Expr::Not(e) => 1 + e.cost_terms(),
        }
    }

    /// The predicate as inclusive `(column, lo, hi)` ranges, one per
    /// column in order of first appearance, when it is an AND of `Col op
    /// Lit` / `Lit op Col` comparisons (`Eq`, `Lt`, `Le`, `Gt`) — the
    /// predicates a scan can test on encoded values. `365 <= d AND d <
    /// 730` is `[(d, 365, 729)]`; a range with `lo > hi` holds for no row.
    /// `None` for anything else.
    pub fn column_ranges(&self) -> Option<Vec<(usize, i64, i64)>> {
        let mut merged: Vec<(usize, i128, i128)> = Vec::new();
        let mut todo = vec![self];
        while let Some(e) = todo.pop() {
            if let Expr::And(l, r) = e {
                todo.extend([r.as_ref(), l.as_ref()]);
                continue;
            }
            let (col, lo, hi) = e.comparison_range()?;
            match merged.iter_mut().find(|m| m.0 == col) {
                Some(m) => (m.1, m.2) = (m.1.max(lo), m.2.min(hi)),
                None => merged.push((col, lo, hi)),
            }
        }
        let narrow = |(col, lo, hi)| match lo <= hi {
            true => (col, lo as i64, hi as i64),
            false => (col, i64::MAX, i64::MIN),
        };
        Some(merged.into_iter().map(narrow).collect())
    }

    /// `Col op Lit` or `Lit op Col` as an inclusive range on the column,
    /// in `i128` so that `< i64::MIN` and `> i64::MAX` come out empty.
    fn comparison_range(&self) -> Option<(usize, i128, i128)> {
        let (Expr::Eq(l, r) | Expr::Lt(l, r) | Expr::Le(l, r) | Expr::Gt(l, r)) = self else {
            return None;
        };
        // As `Col op v`, or mirrored for `v op Col`.
        let (col, v, mirrored) = match (l.as_ref(), r.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => (*c, *v as i128, false),
            (Expr::Lit(v), Expr::Col(c)) => (*c, *v as i128, true),
            _ => return None,
        };
        let (min, max) = (i64::MIN as i128, i64::MAX as i128);
        let (lo, hi) = match (self, mirrored) {
            (Expr::Eq(..), _) => (v, v),
            (Expr::Lt(..), false) | (Expr::Gt(..), true) => (min, v - 1),
            (Expr::Le(..), false) => (min, v),
            (Expr::Le(..), true) => (v, max),
            _ => (v + 1, max), // `Col > v` or `v < Col`
        };
        Some((col, lo, hi))
    }
}

fn zip(a: Vec<Datum>, b: Vec<Datum>, f: impl Fn(Datum, Datum) -> Datum) -> Vec<Datum> {
    a.into_iter().zip(b).map(|(x, y)| f(x, y)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};

    fn batch() -> Batch {
        let s = Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]);
        Batch::new(s, vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]])
    }

    #[test]
    fn arithmetic() {
        let e = Expr::Add(Box::new(Expr::Col(0)), Box::new(Expr::Col(1)));
        assert_eq!(e.eval(&batch()), vec![11, 22, 33, 44]);
        let m = Expr::Mul(Box::new(Expr::Col(0)), Box::new(Expr::Lit(3)));
        assert_eq!(m.eval(&batch()), vec![3, 6, 9, 12]);
    }

    #[test]
    fn comparisons_and_mask() {
        let e = Expr::gt(Expr::Col(1), Expr::Lit(20));
        assert_eq!(e.eval_mask(&batch()), vec![false, false, true, true]);
        let e2 = Expr::and(
            Expr::gt(Expr::Col(1), Expr::Lit(10)),
            Expr::lt(Expr::Col(0), Expr::Lit(4)),
        );
        assert_eq!(e2.eval_mask(&batch()), vec![false, true, true, false]);
        let e3 = Expr::or(
            Expr::eq(Expr::Col(0), Expr::Lit(1)),
            Expr::eq(Expr::Col(0), Expr::Lit(4)),
        );
        assert_eq!(e3.eval_mask(&batch()), vec![true, false, false, true]);
        let e4 = Expr::Not(Box::new(Expr::eq(Expr::Col(0), Expr::Lit(1))));
        assert_eq!(e4.eval_mask(&batch()), vec![false, true, true, true]);
    }

    #[test]
    fn le_boundary() {
        let e = Expr::le(Expr::Col(0), Expr::Lit(2));
        assert_eq!(e.eval_mask(&batch()), vec![true, true, false, false]);
    }

    #[test]
    fn wrapping_semantics() {
        let s = Schema::new(vec![("a", ColumnType::Int)]);
        let b = Batch::new(s, vec![vec![i64::MAX]]);
        let e = Expr::Add(Box::new(Expr::Col(0)), Box::new(Expr::Lit(1)));
        assert_eq!(e.eval(&b), vec![i64::MIN]);
    }

    #[test]
    fn cost_terms_count_nodes() {
        let e = Expr::and(
            Expr::gt(Expr::Col(1), Expr::Lit(10)),
            Expr::lt(Expr::Col(0), Expr::Lit(4)),
        );
        assert_eq!(e.cost_terms(), 7);
    }

    #[test]
    fn column_ranges_of_conjunctive_comparisons() {
        let (c, l) = (Expr::Col, Expr::Lit);
        let q6 = Expr::and(
            Expr::and(Expr::le(l(365), c(3)), Expr::lt(c(3), l(730))),
            Expr::and(
                Expr::and(Expr::le(l(4), c(2)), Expr::le(c(2), l(6))),
                Expr::lt(c(0), l(24)),
            ),
        );
        let ranges = q6.column_ranges().unwrap();
        assert_eq!(ranges, [(3, 365, 729), (2, 4, 6), (0, i64::MIN, 23)]);
        assert_eq!(
            Expr::gt(l(5), c(1)).column_ranges().unwrap(),
            [(1, i64::MIN, 4)]
        );
        let never = Expr::and(Expr::eq(c(0), l(1)), Expr::eq(l(2), c(0)));
        assert_eq!(never.column_ranges().unwrap(), [(0, i64::MAX, i64::MIN)]);
        for not_ranges in [
            Expr::or(Expr::eq(c(0), l(1)), Expr::eq(c(0), l(2))),
            Expr::Not(Box::new(Expr::eq(c(0), l(1)))),
            Expr::lt(c(0), c(1)),
            Expr::le(Expr::Add(Box::new(c(0)), Box::new(l(1))), l(3)),
            Expr::and(Expr::eq(c(0), l(1)), c(1)),
            c(0),
        ] {
            assert_eq!(not_ranges.column_ranges(), None, "{not_ranges:?}");
        }
    }

    /// The ranges hold exactly where the predicate does, at and around
    /// the ends of `i64`.
    #[test]
    fn column_ranges_agree_with_eval() {
        const NEAR: [i64; 9] = [
            i64::MIN,
            i64::MIN + 1,
            -2,
            -1,
            0,
            1,
            2,
            i64::MAX - 1,
            i64::MAX,
        ];
        let s = Schema::new(vec![("a", ColumnType::Int)]);
        let b = Batch::new(s, vec![NEAR.to_vec()]);
        let ops: [fn(Expr, Expr) -> Expr; 4] = [Expr::eq, Expr::lt, Expr::le, Expr::gt];
        for op in ops {
            for v in NEAR {
                for (x, y) in [(Expr::Col(0), Expr::Lit(v)), (Expr::Lit(v), Expr::Col(0))] {
                    let pred = op(x, y);
                    let ranges = pred.column_ranges().unwrap();
                    let [(0, lo, hi)] = ranges[..] else {
                        panic!("{pred:?}: {ranges:?}");
                    };
                    let by_range: Vec<bool> = NEAR.iter().map(|a| lo <= *a && *a <= hi).collect();
                    assert_eq!(by_range, pred.eval_mask(&b), "{pred:?}");
                }
            }
        }
    }
}
