//! `grail-check`: exhaustive, deterministic model checking for the
//! repo's concurrency and accounting protocols.
//!
//! The paper's energy claims only hold if every joule is conserved
//! across concurrent machinery. Byte-identity tests sample schedules;
//! this crate *proves* small instances by exhausting them: a protocol
//! is an explicit transition system (the [`Model`] trait), and
//! [`check`] walks every reachable interleaving once, breadth-first
//! over the full transition relation, deduplicating on exact state
//! encodings under a configurable state [`Budget`]. Obligations are
//! checked in depth order, so the first violation met already has the
//! *shortest* counterexample; its action trace is rendered as a
//! rustc-style diagnostic.
//!
//! Two production protocols ship as models (see [`models`]), each
//! extracted so the model drives the *real* transition code — the
//! admission/placement/breaker core of `grail_scheduler::chaos` and
//! the audited [`EnergyLedger`] API — never a copy, so a rename or
//! signature change of either breaks this crate's build. The
//! [`registry`] lists the models and the function each one drives;
//! `tests/models.rs` checks them all and pins how much each explores.
//!
//! Everything here is deterministic: no wall clock, no hashing,
//! `BTreeMap` only, and the engine never spawns threads.
//!
//! [`EnergyLedger`]: grail_power::EnergyLedger

#![cfg_attr(not(test), deny(clippy::float_cmp))]

use std::collections::BTreeMap;

pub mod models;
pub mod registry;

// ---------------------------------------------------------------------------
// Model trait
// ---------------------------------------------------------------------------

/// A protocol as an explicit transition system.
///
/// States must be finite in practice (the checker interns every one);
/// keep instances small — the point is exhausting a representative
/// instance, not simulating a large one. One contract matters:
/// [`encode`](Model::encode) must be injective — states that encode to
/// the same bytes are treated as identical.
pub trait Model {
    /// A reachable configuration of the protocol.
    type State: Clone;
    /// One atomic transition.
    type Action: Clone;

    /// Stable model name (used in artifacts and diagnostics).
    fn name(&self) -> &'static str;
    /// The unique initial state.
    fn initial(&self) -> Self::State;
    /// Actions enabled in `s`, in a deterministic order.
    fn actions(&self, s: &Self::State) -> Vec<Self::Action>;
    /// Apply `a` to `s`. Must be pure: same inputs, same successor.
    fn step(&self, s: &Self::State, a: &Self::Action) -> Self::State;
    /// Safety invariant, checked at every reachable state.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;
    /// Checked at states with no enabled actions; reject unexpected
    /// deadlocks here (expected final states return `Ok`).
    fn terminal(&self, _s: &Self::State) -> Result<(), String> {
        Ok(())
    }
    /// Serialize `s` injectively for deduplication.
    fn encode(&self, s: &Self::State, out: &mut Vec<u8>);
    /// Human-readable action label for counterexample traces.
    fn describe_action(&self, a: &Self::Action) -> String;
    /// Human-readable state summary for counterexample traces.
    fn describe_state(&self, s: &Self::State) -> String;
    /// Goal predicate for the reachability obligation: return
    /// `Some(is_goal)` to require that a goal state stays reachable
    /// from *every* reachable state, `None` for no obligation.
    fn goal(&self, _s: &Self::State) -> Option<bool> {
        None
    }
}

// ---------------------------------------------------------------------------
// Budget, outcome, counterexample
// ---------------------------------------------------------------------------

/// Exploration budget. Exceeding it is a checker outcome, not a panic:
/// CI commits to a budget under which every shipped model reaches
/// fixpoint, so a model that outgrows it fails loudly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum distinct states interned before giving up.
    pub max_states: usize,
}

/// The committed CI budget: every shipped model must exhaust its state
/// space well inside this (see `tests/models.rs`).
pub const CI_BUDGET: Budget = Budget {
    max_states: 1 << 18,
};

/// Exploration statistics, reported on every outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Distinct states interned.
    pub states: usize,
    /// Transitions executed: one [`Model::step`] per (expanded state,
    /// enabled action).
    pub transitions: usize,
}

/// What kind of obligation a counterexample refutes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CxKind {
    /// A state violating [`Model::invariant`].
    Invariant,
    /// A deadlock: no enabled actions and [`Model::terminal`] rejects.
    Deadlock,
    /// A state from which no [`Model::goal`] state is reachable.
    GoalUnreachable,
}

impl CxKind {
    fn label(self) -> &'static str {
        match self {
            CxKind::Invariant => "invariant",
            CxKind::Deadlock => "deadlock",
            CxKind::GoalUnreachable => "goal-unreachable",
        }
    }
}

/// One step of a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The action taken.
    pub action: String,
    /// The state it produced.
    pub state: String,
}

/// A minimal counterexample: the shortest action sequence from the
/// initial state to a violating state (breadth-first over the full
/// transition relation, so no shorter trace exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which obligation failed.
    pub kind: CxKind,
    /// The violation message from the model.
    pub message: String,
    /// The initial state, rendered.
    pub initial: String,
    /// The minimal trace.
    pub steps: Vec<TraceStep>,
}

/// The result of checking one model.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every reachable state explored, every obligation holds.
    Pass(Stats),
    /// An obligation fails; the counterexample is minimal.
    Violation(Stats, Counterexample),
    /// The budget ran out before fixpoint — nothing was proved.
    Budget(Stats, String),
}

impl Outcome {
    /// Whether the model was exhaustively verified.
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass(_))
    }

    /// The exploration statistics, whatever the outcome.
    pub fn stats(&self) -> Stats {
        match self {
            Outcome::Pass(s) | Outcome::Violation(s, _) | Outcome::Budget(s, _) => *s,
        }
    }
}

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

/// One interned state and how the walk reached it.
struct Node<S, A> {
    state: S,
    /// `(predecessor, action taken)` of the first edge in; `None` for
    /// the initial state.
    parent: Option<(usize, A)>,
    /// Every predecessor, one entry per edge in; recorded only for
    /// models with a goal.
    preds: Vec<usize>,
}

/// Exhaustively explore `model` under `budget` and check every
/// obligation, in one breadth-first walk of the full transition
/// relation.
///
/// States are deduplicated on their exact encoding and numbered in
/// discovery order, which is depth order. `invariant` and `terminal`
/// are checked as each state is dequeued, so the first violation met
/// is a shallowest one and its parent chain is a shortest trace. A
/// violating state is never expanded. [`Model::step`] runs exactly once
/// per (reachable state, enabled action). Models with a [`Model::goal`]
/// have their predecessor edges recorded in the same walk and get a
/// reverse reachability sweep at the end.
pub fn check<M: Model>(model: &M, budget: Budget) -> Outcome {
    let mut stats = Stats {
        states: 1,
        transitions: 0,
    };
    let init = model.initial();
    let has_goal = model.goal(&init).is_some();

    let mut enc = Vec::new();
    model.encode(&init, &mut enc);
    let mut ids: BTreeMap<Vec<u8>, usize> = BTreeMap::from([(enc.clone(), 0)]);
    let mut nodes = vec![Node {
        state: init,
        parent: None,
        preds: Vec::new(),
    }];
    let mut goals: Vec<usize> = Vec::new();

    let mut head = 0;
    while head < nodes.len() {
        let state = nodes[head].state.clone();
        if let Err(message) = model.invariant(&state) {
            let cx = rebuild(model, &nodes, head, CxKind::Invariant, message);
            return Outcome::Violation(stats, cx);
        }
        let enabled = model.actions(&state);
        if enabled.is_empty() {
            if let Err(message) = model.terminal(&state) {
                let cx = rebuild(model, &nodes, head, CxKind::Deadlock, message);
                return Outcome::Violation(stats, cx);
            }
        }
        if model.goal(&state) == Some(true) {
            goals.push(head);
        }
        for action in enabled {
            let child = model.step(&state, &action);
            stats.transitions += 1;
            enc.clear();
            model.encode(&child, &mut enc);
            let id = match ids.get(&enc) {
                Some(&id) => id,
                None => {
                    let id = nodes.len();
                    ids.insert(enc.clone(), id);
                    nodes.push(Node {
                        state: child,
                        parent: Some((head, action)),
                        preds: Vec::new(),
                    });
                    stats.states = nodes.len();
                    if stats.states > budget.max_states {
                        return Outcome::Budget(
                            stats,
                            format!("state budget exhausted at {} states", budget.max_states),
                        );
                    }
                    id
                }
            };
            if has_goal {
                nodes[id].preds.push(head);
            }
        }
        head += 1;
    }

    if has_goal {
        // Reverse reachability from the goal set.
        let mut co = vec![false; nodes.len()];
        for &g in &goals {
            co[g] = true;
        }
        while let Some(s) = goals.pop() {
            for &p in &nodes[s].preds {
                if !co[p] {
                    co[p] = true;
                    goals.push(p);
                }
            }
        }
        // Discovery order is depth order, so the first stuck state is
        // a shallowest one.
        if let Some(stuck) = co.iter().position(|ok| !ok) {
            let message = "no goal state is reachable from here".to_string();
            let cx = rebuild(model, &nodes, stuck, CxKind::GoalUnreachable, message);
            return Outcome::Violation(stats, cx);
        }
    }
    Outcome::Pass(stats)
}

/// The trace from the initial state to `nodes[at]`, read off the
/// parent links.
fn rebuild<M: Model>(
    model: &M,
    nodes: &[Node<M::State, M::Action>],
    mut at: usize,
    kind: CxKind,
    message: String,
) -> Counterexample {
    let mut steps: Vec<TraceStep> = Vec::new();
    while let Some((prev, action)) = &nodes[at].parent {
        steps.push(TraceStep {
            action: model.describe_action(action),
            state: model.describe_state(&nodes[at].state),
        });
        at = *prev;
    }
    steps.reverse();
    Counterexample {
        kind,
        message,
        initial: model.describe_state(&nodes[at].state),
        steps,
    }
}

// ---------------------------------------------------------------------------
// Rendering: the rustc-style diagnostic
// ---------------------------------------------------------------------------

/// Render a counterexample as a rustc-style diagnostic. Byte-stable for
/// fixed inputs.
pub fn to_diagnostic(model: &str, cx: &Counterexample, stats: Stats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "error[model-check]: model `{model}` fails its {} obligation: {}\n",
        cx.kind.label(),
        cx.message
    ));
    out.push_str(&format!(
        "  --> grail-check({model}): minimized trace, {} step(s)\n",
        cx.steps.len()
    ));
    out.push_str("   |\n");
    out.push_str(&format!("   |   init: {}\n", cx.initial));
    for (i, step) in cx.steps.iter().enumerate() {
        out.push_str(&format!("   | {i:>5}: {}\n", step.action));
        out.push_str(&format!("   |        => {}\n", step.state));
    }
    out.push_str(&format!(
        "   = note: {} states, {} transitions explored\n",
        stats.states, stats.transitions
    ));
    out
}

/// The result of running one registry entry: the one-line verdict
/// `tests/models.rs` pins and, on failure, the diagnostic its assertion
/// prints. Deterministic for fixed model + budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Model name.
    pub model: &'static str,
    /// Whether the model was exhaustively verified.
    pub passed: bool,
    /// One-line outcome summary.
    pub line: String,
    /// Rustc-style diagnostic, when there is one.
    pub diagnostic: Option<String>,
}

/// Check `model` under `budget` and package the outcome as a [`Report`].
pub fn run_model<M: Model>(model: &M, budget: Budget) -> Report {
    let outcome = check(model, budget);
    let name = model.name();
    let stats = outcome.stats();
    match outcome {
        Outcome::Pass(s) => Report {
            model: name,
            passed: true,
            line: format!(
                "pass: {} states, {} transitions (fixpoint within budget)",
                s.states, s.transitions
            ),
            diagnostic: None,
        },
        Outcome::Violation(s, cx) => Report {
            model: name,
            passed: false,
            line: format!(
                "FAIL[{}]: {} ({} states explored, trace length {})",
                cx.kind.label(),
                cx.message,
                s.states,
                cx.steps.len()
            ),
            diagnostic: Some(to_diagnostic(name, &cx, stats)),
        },
        Outcome::Budget(s, what) => Report {
            model: name,
            passed: false,
            line: format!(
                "FAIL[budget]: {what} ({} states, {} transitions)",
                s.states, s.transitions
            ),
            diagnostic: Some(format!(
                "error[model-check]: model `{name}` exceeded its budget: {what}\n\
                 \x20 = note: raise the budget or shrink the model instance\n"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that may +1 or +2 up to a ceiling; invariant caps it.
    struct Counter {
        ceiling: u32,
        broken: bool,
    }

    impl Model for Counter {
        type State = u32;
        type Action = u32;
        fn name(&self) -> &'static str {
            "counter"
        }
        fn initial(&self) -> u32 {
            0
        }
        fn actions(&self, s: &u32) -> Vec<u32> {
            if *s >= self.ceiling {
                Vec::new()
            } else {
                vec![1, 2]
            }
        }
        fn step(&self, s: &u32, a: &u32) -> u32 {
            s + a
        }
        fn invariant(&self, s: &u32) -> Result<(), String> {
            let limit = if self.broken {
                self.ceiling
            } else {
                self.ceiling + 1
            };
            if *s > limit {
                Err(format!("counter {s} above {limit}"))
            } else {
                Ok(())
            }
        }
        fn encode(&self, s: &u32, out: &mut Vec<u8>) {
            out.extend_from_slice(&s.to_le_bytes());
        }
        fn describe_action(&self, a: &u32) -> String {
            format!("+{a}")
        }
        fn describe_state(&self, s: &u32) -> String {
            format!("n={s}")
        }
    }

    #[test]
    fn clean_counter_passes_and_counts_states() {
        let m = Counter {
            ceiling: 10,
            broken: false,
        };
        let out = check(&m, CI_BUDGET);
        assert!(out.passed(), "{out:?}");
        // States 0..=11 are reachable (10+2 overshoot allowed by +2).
        assert_eq!(out.stats().states, 12);
        let enabled: usize = (0..=11).map(|s| m.actions(&s).len()).sum();
        assert_eq!(out.stats().transitions, enabled);
        assert_eq!(enabled, 20);
    }

    #[test]
    fn broken_counter_yields_shortest_trace() {
        // ceiling 4: state 5 is reachable (3+2) and violates. Shortest
        // path to 5 is +2,+2,+1 or +1,+2,+2 — three steps either way;
        // the walk expands +1 before +2 at each layer, pinning the bytes.
        let m = Counter {
            ceiling: 4,
            broken: true,
        };
        match check(&m, CI_BUDGET) {
            Outcome::Violation(_, cx) => {
                assert_eq!(cx.kind, CxKind::Invariant);
                assert_eq!(cx.steps.len(), 3, "{cx:?}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_an_outcome_not_a_panic() {
        let m = Counter {
            ceiling: 1000,
            broken: false,
        };
        let out = check(&m, Budget { max_states: 16 });
        assert!(matches!(out, Outcome::Budget(_, _)), "{out:?}");
    }

    #[test]
    fn diagnostic_is_stable() {
        let cx = Counterexample {
            kind: CxKind::Invariant,
            message: "counter 5 above 4".to_string(),
            initial: "n=0".to_string(),
            steps: vec![TraceStep {
                action: "+1".to_string(),
                state: "n=1".to_string(),
            }],
        };
        assert_eq!(
            to_diagnostic("counter", &cx, Stats::default()),
            "error[model-check]: model `counter` fails its invariant obligation: counter 5 above 4\n\
             \x20 --> grail-check(counter): minimized trace, 1 step(s)\n\
             \x20  |\n\
             \x20  |   init: n=0\n\
             \x20  |     0: +1\n\
             \x20  |        => n=1\n\
             \x20  = note: 0 states, 0 transitions explored\n"
        );
    }

    /// A hand-drawn graph over small integers, for the obligations no
    /// shipped model can show failing: edges in expansion order, one
    /// optional invariant-breaking state, the states allowed to be
    /// final, one optional goal state.
    struct Graph {
        edges: Vec<(u8, u8)>,
        bad: Option<u8>,
        finals: &'static [u8],
        goal: Option<u8>,
    }

    impl Model for Graph {
        type State = u8;
        type Action = u8;
        fn name(&self) -> &'static str {
            "graph"
        }
        fn initial(&self) -> u8 {
            0
        }
        fn actions(&self, s: &u8) -> Vec<u8> {
            let out = self.edges.iter().filter(|(from, _)| from == s);
            out.map(|&(_, to)| to).collect()
        }
        fn step(&self, _s: &u8, a: &u8) -> u8 {
            *a
        }
        fn invariant(&self, s: &u8) -> Result<(), String> {
            match self.bad {
                Some(bad) if bad == *s => Err(format!("state {s} is bad")),
                _ => Ok(()),
            }
        }
        fn terminal(&self, s: &u8) -> Result<(), String> {
            if self.finals.contains(s) {
                Ok(())
            } else {
                Err(format!("stopped at {s}"))
            }
        }
        fn encode(&self, s: &u8, out: &mut Vec<u8>) {
            out.push(*s);
        }
        fn describe_action(&self, a: &u8) -> String {
            format!("go {a}")
        }
        fn describe_state(&self, s: &u8) -> String {
            format!("at {s}")
        }
        fn goal(&self, s: &u8) -> Option<bool> {
            self.goal.map(|g| g == *s)
        }
    }

    fn violation(g: &Graph) -> Counterexample {
        match check(g, CI_BUDGET) {
            Outcome::Violation(_, cx) => cx,
            other => panic!("expected violation, got {other:?}"),
        }
    }

    fn trace(cx: &Counterexample) -> Vec<&str> {
        cx.steps.iter().map(|s| s.action.as_str()).collect()
    }

    #[test]
    fn a_deadlock_is_reported_with_the_shortest_trace() {
        // 4 has no way out and is not final. The edge order leads a
        // depth-first walk there in three steps (1, 3, 4); two suffice.
        let g = Graph {
            edges: vec![(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)],
            bad: None,
            finals: &[],
            goal: None,
        };
        let cx = violation(&g);
        assert_eq!(cx.kind, CxKind::Deadlock);
        assert_eq!(cx.message, "stopped at 4");
        assert_eq!(cx.initial, "at 0");
        assert_eq!(trace(&cx), ["go 2", "go 4"]);
        // The same graph with 4 declared final is clean.
        let ok = Graph { finals: &[4], ..g };
        assert!(check(&ok, CI_BUDGET).passed());
    }

    #[test]
    fn a_sink_that_cannot_reach_the_goal_is_reported_at_its_shallowest() {
        // 0 -> 1 -> 2 -> 3 -> 0 keeps the goal (3) reachable; 9 only
        // loops on itself, so it never deadlocks and never gets back.
        // 4 can still return to 0, so 9 is the only stuck state.
        let g = Graph {
            edges: vec![
                (0, 1),
                (0, 4),
                (1, 2),
                (1, 9),
                (2, 3),
                (3, 0),
                (4, 0),
                (4, 9),
                (9, 9),
            ],
            bad: None,
            finals: &[],
            goal: Some(3),
        };
        let cx = violation(&g);
        assert_eq!(cx.kind, CxKind::GoalUnreachable);
        assert_eq!(trace(&cx), ["go 1", "go 9"]);
        assert_eq!(cx.steps[1].state, "at 9");
        // Give the sink a way back and the obligation holds.
        let ok = Graph {
            edges: [&g.edges[..], &[(9, 0)]].concat(),
            ..g
        };
        assert!(check(&ok, CI_BUDGET).passed());
    }

    #[test]
    fn the_shallowest_violation_wins_whatever_its_kind() {
        // Invariant breach at depth 3 down the first branch, deadlock
        // at depth 2 down the second: the deadlock is the report.
        let g = Graph {
            edges: vec![(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)],
            bad: Some(3),
            finals: &[],
            goal: None,
        };
        let cx = violation(&g);
        assert_eq!(cx.kind, CxKind::Deadlock);
        assert_eq!(trace(&cx), ["go 4", "go 5"]);
        // Without the deadlock the breach is found, at its depth.
        let cx = violation(&Graph { finals: &[5], ..g });
        assert_eq!(cx.kind, CxKind::Invariant);
        assert_eq!(trace(&cx), ["go 1", "go 2", "go 3"]);
    }
}
