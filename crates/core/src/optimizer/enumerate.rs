//! Plan enumeration: join order and join algorithm under an objective.
//!
//! Classic dynamic programming over connected subsets, except the
//! optimality criterion is pluggable — run it with [`Objective::MinTime`]
//! and you have the optimizer every commercial system ships; run it with
//! [`Objective::MinEnergy`] and you have the optimizer Sec. 4.1 calls
//! for. The experiments diff the two.

use super::cost::{CostModel, PlanCost};
use super::objective::Objective;

/// A base relation in the join graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Name (for plan printing).
    pub name: String,
    /// Estimated rows entering the join.
    pub rows: f64,
    /// Columns carried.
    pub arity: f64,
    /// Stored bytes a scan of it moves.
    pub stored_bytes: f64,
    /// Extra decode cycles per value (compression).
    pub decode_cpv: f64,
}

/// Join algorithms the enumerator chooses among.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Hash join (build = left input).
    Hash,
    /// Block nested-loop (inner = right input).
    NestedLoop,
}

/// A chosen plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan of relation `index`.
    Scan {
        /// Index into the relation list.
        index: usize,
    },
    /// A join of two subplans.
    Join {
        /// Algorithm.
        algo: JoinAlgo,
        /// Left (build/outer) subplan.
        left: Box<PlanNode>,
        /// Right (probe/inner) subplan.
        right: Box<PlanNode>,
    },
}

/// The enumerator's output: the plan, its estimated cost, and its
/// estimated output cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct ChosenPlan {
    /// The plan tree.
    pub plan: PlanNode,
    /// Estimated cost.
    pub cost: PlanCost,
    /// Estimated output rows.
    pub rows: f64,
}

/// Pairwise join selectivity: `sel(i, j)` is the fraction of the cross
/// product surviving the predicate between relations `i` and `j`, or
/// `None` if they share no predicate (cross joins are avoided unless
/// forced).
pub type SelectivityFn<'a> = &'a dyn Fn(usize, usize) -> Option<f64>;

/// Choose the best physical variant (access path) of one table — e.g.
/// its compressed vs uncompressed incarnation, Fig. 2's decision as an
/// optimizer rule. Returns the winning index into `variants`.
///
/// # Panics
/// Panics on an empty variant list, and on a NaN score (`finite
/// scores`): a NaN cost cannot be ranked, and a silent rank would pick it.
#[expect(
    clippy::expect_used,
    reason = "a NaN score is a broken cost model and the assert above rejects an empty variant list; both documented under # Panics"
)]
pub fn best_access_path(
    variants: &[Relation],
    model: &CostModel,
    objective: Objective,
) -> (usize, PlanCost) {
    assert!(!variants.is_empty(), "need at least one variant");
    variants
        .iter()
        .enumerate()
        .map(|(i, v)| {
            (
                i,
                model.scan(v.rows * v.arity, v.stored_bytes, v.decode_cpv),
            )
        })
        .min_by(|(_, a), (_, b)| {
            objective
                .score(a)
                .partial_cmp(&objective.score(b))
                .expect("finite scores")
        })
        .expect("non-empty")
}

/// Enumerate join orders and algorithms over `relations`, DP over
/// subsets, choosing by `objective`.
///
/// # Panics
/// Panics on more than 16 relations (DP over subsets) or on zero
/// relations.
#[expect(
    clippy::expect_used,
    reason = "every subset of two or more relations has a split and the cross-join pass prices every split"
)]
pub fn best_plan(
    relations: &[Relation],
    sel: SelectivityFn<'_>,
    model: &CostModel,
    objective: Objective,
) -> ChosenPlan {
    let n = relations.len();
    assert!(n >= 1, "need at least one relation");
    assert!(n <= 16, "DP enumeration capped at 16 relations");
    let full: u32 = (1u32 << n) - 1;
    let mut best: Vec<Option<ChosenPlan>> = vec![None; (full as usize) + 1];

    for (i, r) in relations.iter().enumerate() {
        let cost = model.scan(r.rows * r.arity, r.stored_bytes, r.decode_cpv);
        best[1 << i] = Some(ChosenPlan {
            plan: PlanNode::Scan { index: i },
            cost,
            rows: r.rows,
        });
    }

    // Iterate subsets in increasing popcount order.
    let mut subsets: Vec<u32> = (1..=full).collect();
    subsets.sort_by_key(|s| s.count_ones());
    for s in subsets {
        if s.count_ones() < 2 {
            continue;
        }
        let mut candidate: Option<ChosenPlan> = None;
        // Two passes over the proper non-empty splits. Cross joins are
        // avoided unless forced: the second pass (selectivity 1, nested
        // loop only) runs only when no split is connected.
        for cross in [false, true] {
            if candidate.is_some() {
                break;
            }
            let mut next = (s - 1) & s;
            while next != 0 {
                let (lhs, rhs) = (next, s ^ next);
                next = (next - 1) & s;
                let (Some(l), Some(r)) = (&best[lhs as usize], &best[rhs as usize]) else {
                    continue;
                };
                let (f, algos): (f64, &[JoinAlgo]) = if cross {
                    (1.0, &[JoinAlgo::NestedLoop])
                } else {
                    // Combined selectivity across the cut.
                    let across = (0..n)
                        .filter(|i| lhs & (1 << i) != 0)
                        .flat_map(|i| {
                            (0..n)
                                .filter(move |j| rhs & (1 << j) != 0)
                                .filter_map(move |j| sel(i, j))
                        })
                        .reduce(|a, b| a * b);
                    let Some(f) = across else { continue };
                    (f, &[JoinAlgo::Hash, JoinAlgo::NestedLoop])
                };
                let out_rows = (l.rows * r.rows * f).max(1.0);
                for &algo in algos {
                    let join_cost = match algo {
                        // Build on the smaller side by convention: left
                        // is the build input here.
                        JoinAlgo::Hash => model.hash_join(l.rows, 4.0, r.rows),
                        JoinAlgo::NestedLoop => model.nl_join(l.rows, r.rows),
                    };
                    let plan = ChosenPlan {
                        plan: PlanNode::Join {
                            algo,
                            left: Box::new(l.plan.clone()),
                            right: Box::new(r.plan.clone()),
                        },
                        cost: l.cost.then(&r.cost).then(&join_cost),
                        rows: out_rows,
                    };
                    candidate = Some(match candidate {
                        Some(c) if !objective.better(&plan.cost, &c.cost) => c,
                        _ => plan,
                    });
                }
            }
        }
        best[s as usize] = candidate;
    }

    best[full as usize]
        .clone()
        .expect("full subset always has a plan")
}
