//! `grail-check`: exhaustive, deterministic model checking for the
//! repo's concurrency and accounting protocols.
//!
//! The paper's energy claims only hold if every joule is conserved
//! across concurrent machinery. Byte-identity tests sample schedules;
//! this crate *proves* small instances by exhausting them: a protocol
//! is an explicit transition system (the [`Model`] trait), and the
//! [`Checker`] walks every reachable interleaving with a depth-first
//! search over FNV-fingerprinted states, a sleep-set partial-order
//! reduction, and a configurable state/depth [`Budget`]. On violation
//! it re-searches breadth-first for the *shortest* counterexample and
//! emits the action trace as JSONL plus a rustc-style diagnostic.
//!
//! Three production protocols ship as models (see [`models`]), each
//! extracted so the model drives the *real* transition code — the
//! horizon arithmetic of `grail_par::shard`, the crash tie-break of
//! `grail_sim::parallel`, the admission/placement/breaker core of
//! `grail_scheduler::chaos`, and the audited [`EnergyLedger`] API —
//! never a copy. The [`registry`] binds each model to the workspace
//! types it covers; grail-lint's `model-coverage` rule walks those
//! declarations so a new protocol state machine cannot land unchecked.
//!
//! Everything here is deterministic: no wall clock, no hashing with
//! random seeds (FNV-1a with exact collision buckets), `BTreeMap` only,
//! and the engine never spawns threads — fan-out across models goes
//! through `grail_par::Runner` exactly like the rest of the workspace.
//!
//! [`EnergyLedger`]: grail_power::EnergyLedger

#![forbid(unsafe_code)]

use grail_metrics::text::json_escape;
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
/// instance, not simulating a large one. Two contracts matter:
///
/// * [`encode`](Model::encode) must be injective: states that encode to
///   the same bytes are treated as identical.
/// * [`describe_action`](Model::describe_action) must be injective over
///   the actions enabled in any single state: the sleep-set bookkeeping
///   keys actions by their description.
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
    /// Serialize `s` injectively for fingerprinting and deduplication.
    fn encode(&self, s: &Self::State, out: &mut Vec<u8>);
    /// Human-readable action label (injective within one state).
    fn describe_action(&self, a: &Self::Action) -> String;
    /// Human-readable state summary for counterexample traces.
    fn describe_state(&self, s: &Self::State) -> String;
    /// May `a` and `b` commute (same final state either order, and
    /// neither enables/disables the other)? Used by the sleep-set
    /// reduction; `false` is always sound.
    fn independent(&self, _a: &Self::Action, _b: &Self::Action) -> bool {
        false
    }
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
    /// Maximum DFS depth (trace length) before giving up.
    pub max_depth: usize,
}

/// The committed CI budget: every shipped model must exhaust its state
/// space well inside this (see `tests/models.rs` and the `check` CI
/// job).
pub const CI_BUDGET: Budget = Budget {
    max_states: 1 << 18,
    max_depth: 4096,
};

impl Default for Budget {
    fn default() -> Self {
        CI_BUDGET
    }
}

/// Exploration statistics, reported on every outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Distinct states interned.
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Transitions skipped by the sleep-set reduction or the visited
    /// set.
    pub pruned: usize,
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

/// A minimized counterexample: the shortest action sequence from the
/// initial state to a violating state (breadth-first over the full,
/// unreduced transition relation, so no shorter trace exists).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which obligation failed.
    pub kind: CxKind,
    /// The violation message from the model.
    pub message: String,
    /// The initial state, rendered.
    pub initial: String,
    /// The minimized trace.
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
// FNV fingerprinting with exact collision buckets
// ---------------------------------------------------------------------------

/// FNV-1a over the encoded state. 64-bit fingerprints index the store;
/// full encodings disambiguate colliding fingerprints, so deduplication
/// is exact, not probabilistic.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interned state store: fingerprint buckets over exact encodings.
#[derive(Default)]
struct Store {
    buckets: BTreeMap<u64, Vec<usize>>,
    encodings: Vec<Vec<u8>>,
}

impl Store {
    /// Intern `enc`, returning `(id, freshly_inserted)`.
    fn intern(&mut self, enc: &[u8]) -> (usize, bool) {
        let h = fnv1a(enc);
        let bucket = self.buckets.entry(h).or_default();
        for &id in bucket.iter() {
            if self.encodings[id] == enc {
                return (id, false);
            }
        }
        let id = self.encodings.len();
        self.encodings.push(enc.to_vec());
        bucket.push(id);
        (id, true)
    }

    fn len(&self) -> usize {
        self.encodings.len()
    }
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// The exhaustive explorer.
#[derive(Debug, Clone, Copy)]
pub struct Checker {
    /// The exploration budget.
    pub budget: Budget,
}

/// One DFS frame: a state, its enabled actions, and the sleep set in
/// force when it was entered. `sleep` grows as earlier siblings finish.
struct Frame<S, A> {
    state: S,
    enabled: Vec<A>,
    /// Action keys (description hashes) currently asleep.
    sleep: Vec<u64>,
    /// Enabled actions paired with their keys, parallel to `enabled`.
    keys: Vec<u64>,
    next: usize,
}

impl Checker {
    /// A checker with the given budget.
    pub fn new(budget: Budget) -> Self {
        Checker { budget }
    }

    /// Exhaustively explore `model` and check every obligation.
    ///
    /// The main walk is a DFS with a sleep-set partial-order reduction:
    /// after exploring action `a` from state `s`, every later sibling's
    /// subtree puts `a` to sleep as long as it stays independent of the
    /// actions taken — orderings that provably commute are pruned. The
    /// reduction prunes *transitions*, never states (re-visiting a
    /// state with a weaker sleep set re-explores it), so every
    /// reachable state is still checked. On violation the engine
    /// switches to an unreduced breadth-first search for the shortest
    /// counterexample; models with a [`Model::goal`] get a final
    /// co-reachability pass over the full transition graph.
    pub fn check<M: Model>(&self, model: &M) -> Outcome {
        let mut stats = Stats::default();
        let mut store = Store::default();
        // Minimal sleep signature each interned state was explored
        // with: a revisit prunes only if its sleep set covers this one.
        let mut explored_sleep: BTreeMap<usize, Vec<u64>> = BTreeMap::new();

        let init = model.initial();
        if let Err(message) = model.invariant(&init) {
            return Outcome::Violation(
                stats,
                Counterexample {
                    kind: CxKind::Invariant,
                    message,
                    initial: model.describe_state(&init),
                    steps: Vec::new(),
                },
            );
        }
        let mut enc = Vec::new();
        model.encode(&init, &mut enc);
        let (init_id, _) = store.intern(&enc);
        stats.states = store.len();
        explored_sleep.insert(init_id, Vec::new());

        let mut stack = vec![self.frame(model, init, Vec::new())];
        if let Some(err) = Self::check_leaf(model, &stack[0]) {
            return match self.minimize(model, stats) {
                Some(cx) => Outcome::Violation(stats, cx),
                None => Outcome::Violation(stats, err),
            };
        }

        while let Some(top) = stack.last_mut() {
            if top.next >= top.enabled.len() {
                stack.pop();
                continue;
            }
            let i = top.next;
            top.next += 1;
            let key = top.keys[i];
            if top.sleep.contains(&key) {
                stats.pruned += 1;
                continue;
            }
            let action = top.enabled[i].clone();
            // Earlier siblings (and inherited sleepers) stay asleep in
            // this child only while independent of the action taken.
            let child_sleep: Vec<u64> = top
                .sleep
                .iter()
                .copied()
                .chain(top.keys[..i].iter().copied())
                .filter(|k| {
                    top.enabled
                        .iter()
                        .zip(top.keys.iter())
                        .find(|(_, kk)| *kk == k)
                        .is_some_and(|(b, _)| model.independent(&action, b))
                })
                .collect();
            let child = model.step(&top.state, &action);
            stats.transitions += 1;

            if let Err(message) = model.invariant(&child) {
                let fallback = Counterexample {
                    kind: CxKind::Invariant,
                    message,
                    initial: model.describe_state(&model.initial()),
                    steps: vec![TraceStep {
                        action: model.describe_action(&action),
                        state: model.describe_state(&child),
                    }],
                };
                return match self.minimize(model, stats) {
                    Some(cx) => Outcome::Violation(stats, cx),
                    None => Outcome::Violation(stats, fallback),
                };
            }

            enc.clear();
            model.encode(&child, &mut enc);
            let (id, fresh) = store.intern(&enc);
            stats.states = store.len();
            if stats.states > self.budget.max_states {
                return Outcome::Budget(
                    stats,
                    format!(
                        "state budget exhausted at {} states",
                        self.budget.max_states
                    ),
                );
            }
            let mut sig = child_sleep.clone();
            sig.sort_unstable();
            sig.dedup();
            let explore = if fresh {
                explored_sleep.insert(id, sig);
                true
            } else {
                match explored_sleep.get_mut(&id) {
                    Some(prev) if prev.iter().all(|k| sig.contains(k)) => {
                        // Already explored with a sleep set this visit
                        // only shrinks further: nothing new to see.
                        stats.pruned += 1;
                        false
                    }
                    Some(prev) => {
                        // Weaker sleep set: re-explore, remember the
                        // intersection as the new floor.
                        prev.retain(|k| sig.contains(k));
                        true
                    }
                    None => {
                        explored_sleep.insert(id, sig);
                        true
                    }
                }
            };
            if explore {
                if stack.len() >= self.budget.max_depth {
                    return Outcome::Budget(
                        stats,
                        format!("depth budget exhausted at depth {}", self.budget.max_depth),
                    );
                }
                let frame = self.frame_with(model, child, child_sleep);
                if let Some(err) = Self::check_leaf(model, &frame) {
                    return match self.minimize(model, stats) {
                        Some(cx) => Outcome::Violation(stats, cx),
                        None => Outcome::Violation(stats, err),
                    };
                }
                stack.push(frame);
            }
        }

        if let Some(cx) = self.goal_unreachable(model, stats) {
            return Outcome::Violation(stats, cx);
        }
        Outcome::Pass(stats)
    }

    fn frame<M: Model>(
        &self,
        model: &M,
        state: M::State,
        sleep: Vec<u64>,
    ) -> Frame<M::State, M::Action> {
        self.frame_with(model, state, sleep)
    }

    fn frame_with<M: Model>(
        &self,
        model: &M,
        state: M::State,
        sleep: Vec<u64>,
    ) -> Frame<M::State, M::Action> {
        let enabled = model.actions(&state);
        let keys = enabled
            .iter()
            .map(|a| fnv1a(model.describe_action(a).as_bytes()))
            .collect();
        Frame {
            state,
            enabled,
            sleep,
            keys,
            next: 0,
        }
    }

    /// Deadlock check for a freshly entered state.
    fn check_leaf<M: Model>(
        model: &M,
        frame: &Frame<M::State, M::Action>,
    ) -> Option<Counterexample> {
        if !frame.enabled.is_empty() {
            return None;
        }
        match model.terminal(&frame.state) {
            Ok(()) => None,
            Err(message) => Some(Counterexample {
                kind: CxKind::Deadlock,
                message,
                initial: model.describe_state(&model.initial()),
                steps: vec![TraceStep {
                    action: "(end of trace)".to_string(),
                    state: model.describe_state(&frame.state),
                }],
            }),
        }
    }

    /// Breadth-first search, without reduction, for the shortest trace
    /// to any violating state. Called only after the DFS found *a*
    /// violation, so a violating state is reachable; `None` only if the
    /// budget somehow cannot cover the re-search.
    fn minimize<M: Model>(&self, model: &M, _stats: Stats) -> Option<Counterexample> {
        let mut store = Store::default();
        let mut states: Vec<M::State> = Vec::new();
        let mut parent: Vec<Option<(usize, String)>> = Vec::new();
        let mut enc = Vec::new();

        let init = model.initial();
        model.encode(&init, &mut enc);
        store.intern(&enc);
        states.push(init);
        parent.push(None);

        let mut head = 0;
        while head < states.len() {
            let state = states[head].clone();
            if let Err(message) = model.invariant(&state) {
                return Some(self.rebuild(
                    model,
                    &states,
                    &parent,
                    head,
                    CxKind::Invariant,
                    message,
                ));
            }
            let enabled = model.actions(&state);
            if enabled.is_empty() {
                if let Err(message) = model.terminal(&state) {
                    return Some(self.rebuild(
                        model,
                        &states,
                        &parent,
                        head,
                        CxKind::Deadlock,
                        message,
                    ));
                }
            }
            for action in enabled {
                let child = model.step(&state, &action);
                enc.clear();
                model.encode(&child, &mut enc);
                let (id, fresh) = store.intern(&enc);
                if fresh {
                    if store.len() > self.budget.max_states.saturating_mul(2) {
                        return None;
                    }
                    debug_assert_eq!(id, states.len());
                    states.push(child);
                    parent.push(Some((head, model.describe_action(&action))));
                }
            }
            head += 1;
        }
        None
    }

    /// Reconstruct the action trace from the BFS parent links.
    fn rebuild<M: Model>(
        &self,
        model: &M,
        states: &[M::State],
        parent: &[Option<(usize, String)>],
        mut at: usize,
        kind: CxKind,
        message: String,
    ) -> Counterexample {
        let mut rev: Vec<TraceStep> = Vec::new();
        while let Some((prev, action)) = &parent[at] {
            rev.push(TraceStep {
                action: action.clone(),
                state: model.describe_state(&states[at]),
            });
            at = *prev;
        }
        rev.reverse();
        Counterexample {
            kind,
            message,
            initial: model.describe_state(&model.initial()),
            steps: rev,
        }
    }

    /// Co-reachability pass for models with a goal: every reachable
    /// state must still be able to reach a goal state. Runs over the
    /// full (unreduced) transition graph; the counterexample is the
    /// shortest path to the shallowest stuck state.
    fn goal_unreachable<M: Model>(&self, model: &M, _stats: Stats) -> Option<Counterexample> {
        let init = model.initial();
        model.goal(&init)?;

        let mut store = Store::default();
        let mut states: Vec<M::State> = Vec::new();
        let mut parent: Vec<Option<(usize, String)>> = Vec::new();
        let mut preds: Vec<Vec<usize>> = Vec::new();
        let mut goals: Vec<usize> = Vec::new();
        let mut enc = Vec::new();

        model.encode(&init, &mut enc);
        store.intern(&enc);
        states.push(init);
        parent.push(None);
        preds.push(Vec::new());

        let mut head = 0;
        while head < states.len() {
            let state = states[head].clone();
            if model.goal(&state) == Some(true) {
                goals.push(head);
            }
            for action in model.actions(&state) {
                let child = model.step(&state, &action);
                enc.clear();
                model.encode(&child, &mut enc);
                let (id, fresh) = store.intern(&enc);
                if fresh {
                    debug_assert_eq!(id, states.len());
                    states.push(child);
                    parent.push(Some((head, model.describe_action(&action))));
                    preds.push(Vec::new());
                }
                preds[id].push(head);
            }
            head += 1;
        }

        // Reverse reachability from the goal set.
        let mut co = vec![false; states.len()];
        let mut queue: Vec<usize> = goals;
        for &g in &queue {
            co[g] = true;
        }
        while let Some(s) = queue.pop() {
            for &p in &preds[s] {
                if !co[p] {
                    co[p] = true;
                    queue.push(p);
                }
            }
        }
        // BFS order == `states` order, so the first stuck state is the
        // shallowest one: its parent chain is a shortest path.
        let stuck = co.iter().position(|ok| !ok)?;
        Some(self.rebuild(
            model,
            &states,
            &parent,
            stuck,
            CxKind::GoalUnreachable,
            "no goal (settlement) state is reachable from here".to_string(),
        ))
    }
}

// ---------------------------------------------------------------------------
// Rendering: JSONL artifact + rustc-style diagnostic
// ---------------------------------------------------------------------------

/// Render a counterexample as JSONL: one header object, then one object
/// per step. Byte-stable for fixed inputs.
pub fn to_jsonl(model: &str, cx: &Counterexample) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"model\":\"{}\",\"kind\":\"{}\",\"message\":\"{}\",\"steps\":{},\"initial\":\"{}\"}}\n",
        json_escape(model),
        cx.kind.label(),
        json_escape(&cx.message),
        cx.steps.len(),
        json_escape(&cx.initial),
    ));
    for (i, step) in cx.steps.iter().enumerate() {
        out.push_str(&format!(
            "{{\"step\":{},\"action\":\"{}\",\"state\":\"{}\"}}\n",
            i,
            json_escape(&step.action),
            json_escape(&step.state),
        ));
    }
    out
}

/// Render a counterexample as a rustc-style diagnostic.
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
        "   = note: {} states, {} transitions explored before minimization\n",
        stats.states, stats.transitions
    ));
    out
}

/// The result of running one registry entry: everything the CLI, CI
/// job, and byte-stability tests consume. Deterministic for fixed
/// model + budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Model name.
    pub model: &'static str,
    /// Whether the model was exhaustively verified.
    pub passed: bool,
    /// One-line outcome summary.
    pub line: String,
    /// Counterexample JSONL artifact, when there is one.
    pub jsonl: Option<String>,
    /// Rustc-style diagnostic, when there is one.
    pub diagnostic: Option<String>,
}

/// Check `model` under `budget` and package the outcome as a [`Report`].
pub fn run_model<M: Model>(model: &M, budget: Budget) -> Report {
    let outcome = Checker::new(budget).check(model);
    let name = model.name();
    let stats = outcome.stats();
    match outcome {
        Outcome::Pass(s) => Report {
            model: name,
            passed: true,
            line: format!(
                "pass: {} states, {} transitions, {} pruned (fixpoint within budget)",
                s.states, s.transitions, s.pruned
            ),
            jsonl: None,
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
            jsonl: Some(to_jsonl(name, &cx)),
            diagnostic: Some(to_diagnostic(name, &cx, stats)),
        },
        Outcome::Budget(s, what) => Report {
            model: name,
            passed: false,
            line: format!(
                "FAIL[budget]: {what} ({} states, {} transitions)",
                s.states, s.transitions
            ),
            jsonl: None,
            diagnostic: Some(format!(
                "error[model-check]: model `{name}` exceeded its budget: {what}\n\
                 \x20 = note: raise --max-states/--max-depth or shrink the model instance\n"
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
        let out = Checker::new(Budget::default()).check(&m);
        assert!(out.passed(), "{out:?}");
        // States 0..=11 are reachable (10+2 overshoot allowed by +2).
        assert_eq!(out.stats().states, 12);
    }

    #[test]
    fn broken_counter_yields_shortest_trace() {
        // ceiling 4: state 5 is reachable (3+2) and violates. Shortest
        // path to 5 is +2,+2,+1 or +1,+2,+2 — three steps either way;
        // BFS explores +1 before +2 at each layer, pinning the bytes.
        let m = Counter {
            ceiling: 4,
            broken: true,
        };
        match Checker::new(Budget::default()).check(&m) {
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
        let out = Checker::new(Budget {
            max_states: 16,
            max_depth: 4096,
        })
        .check(&m);
        assert!(matches!(out, Outcome::Budget(_, _)), "{out:?}");
    }

    #[test]
    fn jsonl_and_diagnostic_are_stable() {
        let cx = Counterexample {
            kind: CxKind::Invariant,
            message: "x \"quoted\" and\nnewline".to_string(),
            initial: "n=0".to_string(),
            steps: vec![TraceStep {
                action: "+1".to_string(),
                state: "n=1".to_string(),
            }],
        };
        let j = to_jsonl("counter", &cx);
        assert!(j.starts_with("{\"model\":\"counter\",\"kind\":\"invariant\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("and\\nnewline"));
        assert_eq!(j.lines().count(), 2);
        let d = to_diagnostic("counter", &cx, Stats::default());
        assert!(d.starts_with("error[model-check]:"));
        assert!(d.contains("minimized trace, 1 step(s)"));
    }

    /// Two independent writers to disjoint slots: sleep sets must prune
    /// one of the two interleavings' transitions.
    struct TwoSlots;

    impl Model for TwoSlots {
        type State = [bool; 2];
        type Action = usize;
        fn name(&self) -> &'static str {
            "two-slots"
        }
        fn initial(&self) -> [bool; 2] {
            [false; 2]
        }
        fn actions(&self, s: &[bool; 2]) -> Vec<usize> {
            (0..2).filter(|&i| !s[i]).collect()
        }
        fn step(&self, s: &[bool; 2], a: &usize) -> [bool; 2] {
            let mut t = *s;
            t[*a] = true;
            t
        }
        fn invariant(&self, _s: &[bool; 2]) -> Result<(), String> {
            Ok(())
        }
        fn encode(&self, s: &[bool; 2], out: &mut Vec<u8>) {
            out.push(s[0] as u8);
            out.push(s[1] as u8);
        }
        fn describe_action(&self, a: &usize) -> String {
            format!("set{a}")
        }
        fn describe_state(&self, s: &[bool; 2]) -> String {
            format!("{s:?}")
        }
        fn independent(&self, _a: &usize, _b: &usize) -> bool {
            true
        }
    }

    #[test]
    fn sleep_sets_prune_commuting_interleavings() {
        let out = Checker::new(Budget::default()).check(&TwoSlots);
        assert!(out.passed());
        let s = out.stats();
        assert_eq!(s.states, 4, "all states still visited");
        assert!(
            s.pruned >= 1,
            "one of the two orderings must be slept: {s:?}"
        );
    }
}
