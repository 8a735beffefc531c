//! Model of the epoch-horizon commit protocol.
//!
//! `grail_par::shard` paces shards with barrier-free atomic horizons;
//! `grail_sim::parallel` layers the crash tie-break on top. This model
//! explores every interleaving of that protocol for a small instance,
//! driving the *real* decision functions — [`HorizonProtocol::
//! advance_bound`], [`HorizonProtocol::may_advance`], and
//! [`next_cell_action`] — never copies of them.
//!
//! Each shard is a two-phase loop mirroring the thread body in
//! `HorizonProtocol::run`:
//!
//! * **Publish**: store `next_at()` into this shard's horizon slot
//!   (exit to *done* once drained);
//! * **Advance**: read every other shard's published horizon, compute
//!   the conservative bound, and either drain events/crashes up to it
//!   (via [`next_cell_action`]) or yield.
//!
//! One abstraction is deliberate: Advance reads *all* published
//! horizons in a single action, where real threads read the atomics one
//! by one. This is sound for the safety properties checked here because
//! horizons are monotone — an interleaved write can only make a read
//! *staler*, and a staler horizon is smaller, which shrinks the bound
//! and can never admit an event the one-shot read would have refused.
//!
//! Checked obligations:
//!
//! * **safety** — no shard ever processes an event past the *true*
//!   minimum of the other shards' frontiers plus lookahead (the model
//!   checks against live cursors, not the published snapshots the
//!   protocol itself acts on — that gap is exactly what the
//!   conservative discipline must bridge);
//! * **crash accounting** — a crash landing on a horizon is billed to
//!   Recovery exactly once, and crashes win same-instant ties;
//! * **determinism** — every terminal state carries the same fully
//!   drained, fixed-cell-order commit as the sequential reference run.
//!
//! The seeded broken variant (see [`models::broken`](super::broken))
//! reuses this model with a one-nanosecond bound inflation.

use crate::Model;
use grail_par::HorizonProtocol;
use grail_sim::parallel::{next_cell_action, CellAction};

/// Per-shard program counter, mirroring the thread loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// About to store `next_at()` into the shared horizon slot.
    Publish,
    /// About to read neighbors and attempt a bounded advance.
    Advance,
    /// Drained: horizon parked at `u64::MAX`, thread exited.
    Done,
}

/// One shard's immutable script: sorted event instants plus sorted
/// crash instants (the sim-layer tie-break input).
#[derive(Debug, Clone)]
pub struct ShardScript {
    /// Stream-event instants, ascending, simulated nanoseconds.
    pub events: Vec<u64>,
    /// Crash instants, ascending.
    pub crashes: Vec<u64>,
}

/// A reachable configuration of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProtocolState {
    pcs: Vec<Pc>,
    /// Published horizon slots (the model's stand-in for the atomics).
    published: Vec<u64>,
    event_idx: Vec<usize>,
    crash_idx: Vec<usize>,
    /// Recovery bills per shard (crash accounting obligation).
    billed: Vec<u32>,
    /// Committed (time, shard, kind) triples in processing order.
    committed: Vec<(u64, usize, u8)>,
    /// Set when a shard processed an instant past the true safe bound.
    breach: Option<(usize, u64, u64)>,
}

/// An interleaving step: one shard fires one phase of its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAction {
    /// Shard `i` stores its horizon.
    Publish(usize),
    /// Shard `i` reads neighbors and attempts to advance.
    Advance(usize),
}

/// The shard-horizon protocol model over a fixed instance.
pub struct ShardModel {
    shards: Vec<ShardScript>,
    protocol: HorizonProtocol,
    /// Extra nanoseconds added to the computed bound. `0` is the
    /// faithful protocol; the seeded broken model sets `1` to plant the
    /// classic off-by-one a conservative discipline must not have.
    slack: u64,
    name: &'static str,
    /// The sequential reference commit every terminal state must match.
    expected: Vec<(u64, usize, u8)>,
}

impl ShardModel {
    /// The faithful model over the reference instance: three shards
    /// with interleaving frontiers, one same-instant crash/event tie,
    /// lookahead 2 ns.
    pub fn reference() -> Self {
        Self::with_slack(
            "shard-horizon",
            vec![
                ShardScript {
                    events: vec![0, 2, 4],
                    crashes: vec![],
                },
                ShardScript {
                    events: vec![1, 3],
                    crashes: vec![3],
                },
                ShardScript {
                    events: vec![2, 5],
                    crashes: vec![],
                },
            ],
            HorizonProtocol::new(2),
            0,
        )
    }

    /// A model over explicit scripts with an explicit bound slack.
    pub fn with_slack(
        name: &'static str,
        shards: Vec<ShardScript>,
        protocol: HorizonProtocol,
        slack: u64,
    ) -> Self {
        let expected = Self::sequential_commit(&shards);
        ShardModel {
            shards,
            protocol,
            slack,
            name,
            expected,
        }
    }

    /// The reference commit: each shard drained alone under an
    /// unbounded window, merged in fixed `(time, shard)` order — the
    /// order `grail_sim::parallel` commits cells in.
    fn sequential_commit(shards: &[ShardScript]) -> Vec<(u64, usize, u8)> {
        let mut all: Vec<(u64, usize, u8)> = Vec::new();
        for (i, s) in shards.iter().enumerate() {
            let (mut e, mut c) = (0usize, 0usize);
            loop {
                let crash = s.crashes.get(c).copied().unwrap_or(u64::MAX);
                let event = s.events.get(e).copied().unwrap_or(u64::MAX);
                match next_cell_action(crash, event, u64::MAX) {
                    CellAction::Park => break,
                    CellAction::Crash => {
                        all.push((crash, i, 1));
                        c += 1;
                    }
                    CellAction::Event => {
                        all.push((event, i, 0));
                        e += 1;
                    }
                }
            }
        }
        all.sort_by_key(|&(t, i, _)| (t, i));
        all
    }

    fn next_at(&self, s: &ShardProtocolState, i: usize) -> u64 {
        let crash = self.shards[i]
            .crashes
            .get(s.crash_idx[i])
            .copied()
            .unwrap_or(u64::MAX);
        let event = self.shards[i]
            .events
            .get(s.event_idx[i])
            .copied()
            .unwrap_or(u64::MAX);
        crash.min(event)
    }

    /// The *true* safe frontier for shard `i`: minimum of the other
    /// shards' live `next_at` (not their possibly stale published
    /// horizons) plus lookahead. Anything processed past this is a
    /// conservative-discipline breach.
    fn true_bound(&self, s: &ShardProtocolState, i: usize) -> u64 {
        let true_min = (0..self.shards.len())
            .filter(|&j| j != i)
            .map(|j| self.next_at(s, j))
            .min()
            .unwrap_or(u64::MAX);
        self.protocol.advance_bound(true_min)
    }
}

impl Model for ShardModel {
    type State = ShardProtocolState;
    type Action = ShardAction;

    fn name(&self) -> &'static str {
        self.name
    }

    fn initial(&self) -> ShardProtocolState {
        let n = self.shards.len();
        let mut s = ShardProtocolState {
            pcs: vec![Pc::Publish; n],
            published: vec![0; n],
            event_idx: vec![0; n],
            crash_idx: vec![0; n],
            billed: vec![0; n],
            committed: Vec::new(),
            breach: None,
        };
        // `HorizonProtocol::run` seeds every slot with `next_at()`
        // before any thread starts; the loop then begins at Publish.
        for i in 0..n {
            s.published[i] = self.next_at(&s, i);
        }
        s
    }

    fn actions(&self, s: &ShardProtocolState) -> Vec<ShardAction> {
        let mut out = Vec::new();
        for (i, pc) in s.pcs.iter().enumerate() {
            match pc {
                Pc::Publish => out.push(ShardAction::Publish(i)),
                Pc::Advance => out.push(ShardAction::Advance(i)),
                Pc::Done => {}
            }
        }
        out
    }

    fn step(&self, s: &ShardProtocolState, a: &ShardAction) -> ShardProtocolState {
        let mut t = s.clone();
        match *a {
            ShardAction::Publish(i) => {
                let next = self.next_at(&t, i);
                t.published[i] = next;
                t.pcs[i] = if next == u64::MAX {
                    Pc::Done
                } else {
                    Pc::Advance
                };
            }
            ShardAction::Advance(i) => {
                // One-shot snapshot of the other horizons (sound: see
                // the module docs on monotonicity).
                let neighbor_min = (0..self.shards.len())
                    .filter(|&j| j != i)
                    .map(|j| t.published[j])
                    .min()
                    .unwrap_or(u64::MAX);
                let bound = self
                    .protocol
                    .advance_bound(neighbor_min)
                    .saturating_add(self.slack);
                let next = self.next_at(&t, i);
                if HorizonProtocol::may_advance(next, bound) {
                    // Drain through the bound with the real tie-break.
                    loop {
                        let crash = self.shards[i]
                            .crashes
                            .get(t.crash_idx[i])
                            .copied()
                            .unwrap_or(u64::MAX);
                        let event = self.shards[i]
                            .events
                            .get(t.event_idx[i])
                            .copied()
                            .unwrap_or(u64::MAX);
                        match next_cell_action(crash, event, bound) {
                            CellAction::Park => break,
                            CellAction::Crash => {
                                if t.breach.is_none() {
                                    let safe = self.true_bound(s, i);
                                    if crash > safe {
                                        t.breach = Some((i, crash, safe));
                                    }
                                }
                                t.committed.push((crash, i, 1));
                                t.billed[i] += 1;
                                t.crash_idx[i] += 1;
                            }
                            CellAction::Event => {
                                if t.breach.is_none() {
                                    let safe = self.true_bound(s, i);
                                    if event > safe {
                                        t.breach = Some((i, event, safe));
                                    }
                                }
                                t.committed.push((event, i, 0));
                                t.event_idx[i] += 1;
                            }
                        }
                    }
                }
                // Advanced or yielded, the loop re-publishes next.
                t.pcs[i] = Pc::Publish;
            }
        }
        t
    }

    fn invariant(&self, s: &ShardProtocolState) -> Result<(), String> {
        if let Some((i, at, safe)) = s.breach {
            return Err(format!(
                "shard {i} processed t={at} past the conservative bound {safe} \
                 (true neighbor frontier + lookahead)"
            ));
        }
        for (i, &b) in s.billed.iter().enumerate() {
            let consumed = s.crash_idx[i] as u32;
            if b != consumed {
                return Err(format!(
                    "shard {i} billed Recovery {b} time(s) for {consumed} consumed crash(es)"
                ));
            }
            if b as usize > self.shards[i].crashes.len() {
                return Err(format!("shard {i} billed more crashes than scripted"));
            }
        }
        Ok(())
    }

    fn terminal(&self, s: &ShardProtocolState) -> Result<(), String> {
        for (i, script) in self.shards.iter().enumerate() {
            if s.event_idx[i] != script.events.len() || s.crash_idx[i] != script.crashes.len() {
                return Err(format!(
                    "deadlock: shard {i} stopped at event {}/{} crash {}/{}",
                    s.event_idx[i],
                    script.events.len(),
                    s.crash_idx[i],
                    script.crashes.len()
                ));
            }
            if s.billed[i] as usize != script.crashes.len() {
                return Err(format!(
                    "shard {i} finished with {} Recovery bill(s) for {} crash(es)",
                    s.billed[i],
                    script.crashes.len()
                ));
            }
        }
        let mut merged = s.committed.clone();
        merged.sort_by_key(|&(t, i, _)| (t, i));
        if merged != self.expected {
            return Err("terminal commit differs from the sequential reference order".to_string());
        }
        Ok(())
    }

    fn encode(&self, s: &ShardProtocolState, out: &mut Vec<u8>) {
        for pc in &s.pcs {
            out.push(match pc {
                Pc::Publish => 0,
                Pc::Advance => 1,
                Pc::Done => 2,
            });
        }
        for &h in &s.published {
            out.extend_from_slice(&h.to_le_bytes());
        }
        for &e in &s.event_idx {
            out.extend_from_slice(&(e as u32).to_le_bytes());
        }
        for &c in &s.crash_idx {
            out.extend_from_slice(&(c as u32).to_le_bytes());
        }
        for &b in &s.billed {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out.push(u8::from(s.breach.is_some()));
        // `committed` is a function of the indices and scripts except
        // for interleaving order, which the terminal check compares —
        // encode its length and running order tag so distinct commit
        // orders are distinct states.
        out.extend_from_slice(&(s.committed.len() as u32).to_le_bytes());
        for &(t, i, k) in &s.committed {
            out.extend_from_slice(&t.to_le_bytes());
            out.push(i as u8);
            out.push(k);
        }
    }

    fn describe_action(&self, a: &ShardAction) -> String {
        match *a {
            ShardAction::Publish(i) => format!("shard {i}: publish horizon"),
            ShardAction::Advance(i) => format!("shard {i}: read neighbors, advance to bound"),
        }
    }

    fn describe_state(&self, s: &ShardProtocolState) -> String {
        let pcs: Vec<&str> = s
            .pcs
            .iter()
            .map(|pc| match pc {
                Pc::Publish => "publish",
                Pc::Advance => "advance",
                Pc::Done => "done",
            })
            .collect();
        format!(
            "pcs={pcs:?} horizons={:?} events={:?} crashes={:?} billed={:?} committed={}",
            s.published,
            s.event_idx,
            s.crash_idx,
            s.billed,
            s.committed.len()
        )
    }
}
