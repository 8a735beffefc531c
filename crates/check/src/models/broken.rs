//! The seeded broken model: the shard protocol with a one-nanosecond
//! bound inflation.
//!
//! This is the negative control for the whole pipeline. CI runs it in a
//! must-fail leg: grail-check has to find the breach by its shortest
//! trace and exit non-zero — proving the checker can actually catch the
//! class of bug the faithful models are certifying the absence of. The
//! tests pin the trace to its known minimal length and assert the rendered
//! counterexample is byte-stable across 1/2/8 runner threads.
//!
//! The defect is the classic conservative-discipline off-by-one:
//! `bound = neighbor_min + lookahead + 1`. With shard 0 at `[10, 20]`
//! and shard 1 at `[15, 22]` under lookahead 1, the shortest failing
//! run is five steps: shard 0 publishes, advances through 10, and
//! publishes 20; shard 1 then publishes and advances to the inflated
//! bound 22 — one nanosecond past the true safe frontier 21.

use super::shard::{ShardModel, ShardScript};
use grail_par::HorizonProtocol;

/// Number of steps in the minimal counterexample for
/// [`broken_shard_model`] — pinned so the byte-stability tests and the
/// CI must-fail leg can assert the exact trace, not just "some trace".
pub const BROKEN_TRACE_LEN: usize = 5;

/// The off-by-one shard model (see the module docs).
pub fn broken_shard_model() -> ShardModel {
    ShardModel::with_slack(
        "broken-shard-horizon",
        vec![
            ShardScript {
                events: vec![10, 20],
                crashes: vec![],
            },
            ShardScript {
                events: vec![15, 22],
                crashes: vec![],
            },
        ],
        HorizonProtocol::new(1),
        1,
    )
}
