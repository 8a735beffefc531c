//! Physical operators.
//!
//! Every operator executes its textbook algorithm on real data *and*
//! charges the [`crate::exec::ExecContext`] for the work, so correctness
//! is unit-testable while time/energy stay simulator-derived.

pub mod agg;
pub mod filter;
mod group_table;
pub mod hash_join;
pub mod index;
pub mod nl_join;
pub mod scan;
pub mod sort;

pub use agg::{AggFunc, AggSpec, HashAggregate};
pub use filter::Filter;
pub use hash_join::HashJoin;
pub use index::{IndexNlJoin, IndexRangeScan, IndexedTable};
pub use nl_join::NestedLoopJoin;
pub use scan::{ColumnarScan, StoredTable};
pub use sort::{Sort, SortSpec};
