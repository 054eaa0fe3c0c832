//! Antichain-based trace inclusion between two LTSs.

use bb_lts::budget::{Exhausted, Stage, Watchdog};
use bb_lts::{tau_closure_from, ActionId, Lts, Observation, StateId};
use std::collections::HashMap;

/// A refinement violation: a shortest history of the implementation that the
/// specification cannot produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending trace; its last observation is the step the
    /// specification cannot match.
    pub trace: Vec<Observation>,
}

impl Violation {
    /// Renders the trace in the paper's history notation.
    pub fn to_pretty(&self) -> String {
        self.trace
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// Outcome of a [`trace_refines`] check.
#[derive(Debug, Clone)]
pub struct RefinementResult {
    /// `true` iff every trace of the implementation is a trace of the spec.
    pub holds: bool,
    /// A shortest counterexample when `holds` is `false`.
    pub violation: Option<Violation>,
    /// Number of product states explored (diagnostic/benchmark metric).
    pub product_states: usize,
}

/// Interned store of specification state subsets.
#[derive(Default)]
struct SubsetStore {
    ids: HashMap<Vec<StateId>, u32>,
    sets: Vec<Vec<StateId>>,
}

impl SubsetStore {
    fn intern(&mut self, set: Vec<StateId>) -> u32 {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(set.clone());
        self.ids.insert(set, id);
        id
    }
}

/// Checks `imp ⊑tr spec` (Definition 2.2): every trace of `imp` is a trace
/// of `spec`.
///
/// The specification is determinized on the fly by a τ-closed subset
/// construction; the breadth-first product search is pruned by an antichain
/// (a product node `(s, D)` is skipped when some `(s, D')` with `D' ⊆ D` was
/// already visited), which preserves both soundness and the minimality of
/// the returned counterexample.
///
/// ```
/// use bb_lts::{Action, LtsBuilder, ThreadId};
/// use bb_refine::trace_refines;
///
/// let mut b = LtsBuilder::new();
/// let s0 = b.add_state();
/// let s1 = b.add_state();
/// let a = b.intern_action(Action::call(ThreadId(1), "m", None));
/// b.add_transition(s0, a, s1);
/// let one_step = b.build(s0);
///
/// let mut b = LtsBuilder::new();
/// let s0 = b.add_state();
/// let empty = b.build(s0);
///
/// assert!(trace_refines(&empty, &one_step).holds);
/// let r = trace_refines(&one_step, &empty);
/// assert!(!r.holds);
/// assert_eq!(r.violation.unwrap().to_pretty(), "t1.call.m");
/// ```
pub fn trace_refines(imp: &Lts, spec: &Lts) -> RefinementResult {
    trace_refines_governed(imp, spec, RefineOptions::default(), &Watchdog::unlimited())
        .expect("an unlimited watchdog never trips")
}

/// Tuning knobs for [`trace_refines_governed`] (ablation studies).
#[derive(Debug, Clone, Copy)]
pub struct RefineOptions {
    /// Prune the product by the subset antichain (default). Disabling it
    /// falls back to exact `(state, subset)` memoization — the ablation
    /// measured in `benches/lin_check.rs`.
    pub antichain: bool,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { antichain: true }
    }
}

/// Budget-governed [`trace_refines`] with explicit [`RefineOptions`]: every
/// product node counts against the state cap, every scanned implementation
/// edge against the transition cap, and interned specification subsets
/// against the memory cap; the deadline and cancellation token are observed
/// from the product BFS loop (stage [`Stage::Refine`]).
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before the search concludes;
/// an aborted search proves neither refinement nor violation.
pub fn trace_refines_governed(
    imp: &Lts,
    spec: &Lts,
    options: RefineOptions,
    wd: &Watchdog,
) -> Result<RefinementResult, Exhausted> {
    let span = bb_obs::span("refine")
        .with("imp_states", imp.num_states())
        .with("spec_states", spec.num_states());
    let mut meter = wd.meter(Stage::Refine);
    // Spec observation index: observation -> spec action ids.
    let spec_index = spec.observation_index();
    // Implementation action -> optional observation (None = τ).
    let imp_obs: Vec<Option<Observation>> =
        imp.actions().iter().map(|a| a.observation()).collect();

    let mut subsets = SubsetStore::default();
    let init_subset = subsets.intern(tau_closure_from(spec, &[spec.initial()]));
    meter.add_state()?;
    meter.add_memory(subset_bytes(&subsets.sets[init_subset as usize]))?;

    /// A node of the BFS forest, remembering how it was reached.
    struct Node {
        imp_state: StateId,
        subset: u32,
        parent: Option<(usize, Option<u32>)>, // (node idx, imp action idx if visible)
    }

    let mut nodes: Vec<Node> = vec![Node {
        imp_state: imp.initial(),
        subset: init_subset,
        parent: None,
    }];
    // Antichain of minimal subsets per implementation state.
    let mut visited: HashMap<StateId, Vec<u32>> = HashMap::new();
    visited.insert(imp.initial(), vec![init_subset]);

    let mut cursor = 0usize;
    while cursor < nodes.len() {
        let (s, subset_id) = (nodes[cursor].imp_state, nodes[cursor].subset);
        for t in imp.successors(s) {
            meter.add_transition()?;
            match &imp_obs[t.action.index()] {
                None => {
                    // τ-step: spec subset unchanged.
                    let before = nodes.len();
                    try_push(
                        &mut nodes,
                        &mut visited,
                        &subsets,
                        t.target,
                        subset_id,
                        (cursor, None),
                        options.antichain,
                    );
                    if nodes.len() > before {
                        meter.add_state()?;
                    }
                }
                Some(obs) => {
                    let next = spec_step(spec, &subsets.sets[subset_id as usize], &spec_index, obs);
                    if next.is_empty() {
                        // Violation: reconstruct the trace.
                        let mut rev: Vec<Observation> = vec![obs.clone()];
                        let mut at = cursor;
                        loop {
                            let node = &nodes[at];
                            match node.parent {
                                None => break,
                                Some((p, via)) => {
                                    if let Some(aid) = via {
                                        let a = imp.action(ActionId(aid));
                                        rev.push(
                                            a.observation()
                                                .expect("recorded actions are visible"),
                                        );
                                    }
                                    at = p;
                                }
                            }
                        }
                        rev.reverse();
                        span.record("holds", 0u64);
                        span.record("product_states", nodes.len());
                        span.record("spec_subsets", subsets.sets.len());
                        bb_obs::hot::REFINE_PRODUCT_STATES.add(nodes.len() as u64);
                        bb_obs::hot::REFINE_SUBSETS.add(subsets.sets.len() as u64);
                        return Ok(RefinementResult {
                            holds: false,
                            violation: Some(Violation { trace: rev }),
                            product_states: nodes.len(),
                        });
                    }
                    let next_id = {
                        let stored = subsets.sets.len();
                        let mut store_next = next;
                        store_next.sort_unstable();
                        store_next.dedup();
                        let id = subsets.intern(store_next);
                        if subsets.sets.len() > stored {
                            meter.add_memory(subset_bytes(&subsets.sets[id as usize]))?;
                        }
                        id
                    };
                    let before = nodes.len();
                    try_push(
                        &mut nodes,
                        &mut visited,
                        &subsets,
                        t.target,
                        next_id,
                        (cursor, Some(t.action.0)),
                        options.antichain,
                    );
                    if nodes.len() > before {
                        meter.add_state()?;
                    }
                }
            }
        }
        cursor += 1;
    }

    #[allow(clippy::too_many_arguments)]
    fn try_push(
        nodes: &mut Vec<Node>,
        visited: &mut HashMap<StateId, Vec<u32>>,
        subsets: &SubsetStore,
        imp_state: StateId,
        subset: u32,
        parent: (usize, Option<u32>),
        antichain: bool,
    ) {
        let entry = visited.entry(imp_state).or_default();
        if !antichain {
            // Exact memoization only.
            if entry.contains(&subset) {
                return;
            }
            entry.push(subset);
            nodes.push(Node {
                imp_state,
                subset,
                parent: Some(parent),
            });
            return;
        }
        let set = &subsets.sets[subset as usize];
        // Skip if a visited subset is contained in `set`.
        for &v in entry.iter() {
            if is_subset(&subsets.sets[v as usize], set) {
                return;
            }
        }
        // Maintain the antichain: drop visited supersets of `set`.
        entry.retain(|&v| !is_subset(set, &subsets.sets[v as usize]));
        entry.push(subset);
        nodes.push(Node {
            imp_state,
            subset,
            parent: Some(parent),
        });
    }

    span.record("holds", 1u64);
    span.record("product_states", nodes.len());
    span.record("spec_subsets", subsets.sets.len());
    bb_obs::hot::REFINE_PRODUCT_STATES.add(nodes.len() as u64);
    bb_obs::hot::REFINE_SUBSETS.add(subsets.sets.len() as u64);
    Ok(RefinementResult {
        holds: true,
        violation: None,
        product_states: nodes.len(),
    })
}

/// Approximate heap footprint of one interned specification subset: the two
/// copies (set list and id map key) plus hash-map bookkeeping.
fn subset_bytes(set: &[StateId]) -> usize {
    2 * set.len() * std::mem::size_of::<StateId>() + 48
}

/// Sorted-slice subset test: is `a ⊆ b`?
fn is_subset(a: &[StateId], b: &[StateId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut i = 0;
    for x in b {
        if i == a.len() {
            return true;
        }
        if a[i] == *x {
            i += 1;
        } else if a[i] < *x {
            return false;
        }
    }
    i == a.len()
}

/// One determinized step of the specification: from subset `set`, perform
/// observation `obs` and take the τ-closure of the result.
fn spec_step(
    spec: &Lts,
    set: &[StateId],
    index: &HashMap<Observation, Vec<ActionId>>,
    obs: &Observation,
) -> Vec<StateId> {
    let Some(action_ids) = index.get(obs) else {
        return Vec::new();
    };
    let mut targets = Vec::new();
    for &s in set {
        for t in spec.successors(s) {
            if action_ids.contains(&t.action) {
                targets.push(t.target);
            }
        }
    }
    if targets.is_empty() {
        return targets;
    }
    tau_closure_from(spec, &targets)
}

/// Checks mutual trace refinement (`trace(a) = trace(b)`).
///
/// Used for the lock-freedom shortcut at the end of Section V-B: if the
/// quotient is trace-equivalent to the (divergence-free) specification, it
/// is lock-free.
pub fn trace_equivalent(a: &Lts, b: &Lts) -> bool {
    trace_refines(a, b).holds && trace_refines(b, a).holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::{Action, LtsBuilder, ThreadId};

    fn seq(labels: &[&str]) -> Lts {
        let mut b = LtsBuilder::new();
        let mut prev = b.add_state();
        let init = prev;
        for l in labels {
            let next = b.add_state();
            let a = b.intern_action(Action::call(ThreadId(1), l, None));
            b.add_transition(prev, a, next);
            prev = next;
        }
        b.build(init)
    }

    #[test]
    fn identical_systems_refine() {
        let a = seq(&["x", "y"]);
        let b = seq(&["x", "y"]);
        assert!(trace_refines(&a, &b).holds);
        assert!(trace_equivalent(&a, &b));
    }

    #[test]
    fn prefix_refines_extension() {
        let short = seq(&["x"]);
        let long = seq(&["x", "y"]);
        assert!(trace_refines(&short, &long).holds);
        assert!(!trace_refines(&long, &short).holds);
        assert!(!trace_equivalent(&short, &long));
    }

    #[test]
    fn counterexample_is_shortest() {
        let imp = seq(&["x", "y", "z"]);
        let spec = seq(&["x", "q"]);
        let r = trace_refines(&imp, &spec);
        assert!(!r.holds);
        let v = r.violation.unwrap();
        assert_eq!(v.trace.len(), 2);
        assert_eq!(&*v.trace[1].method, "y");
    }

    #[test]
    fn tau_steps_are_invisible() {
        // imp: x then τ then y; spec: x then y.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        let x = b.intern_action(Action::call(ThreadId(1), "x", None));
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let y = b.intern_action(Action::call(ThreadId(1), "y", None));
        b.add_transition(s0, x, s1);
        b.add_transition(s1, tau, s2);
        b.add_transition(s2, y, s3);
        let imp = b.build(s0);
        let spec = seq(&["x", "y"]);
        assert!(trace_equivalent(&imp, &spec));
    }

    #[test]
    fn nondeterministic_spec_accepts_both_branches() {
        // spec: x.(y + z) as two nondeterministic x-branches.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let l = b.add_state();
        let r = b.add_state();
        let e1 = b.add_state();
        let e2 = b.add_state();
        let x = b.intern_action(Action::call(ThreadId(1), "x", None));
        let y = b.intern_action(Action::call(ThreadId(1), "y", None));
        let z = b.intern_action(Action::call(ThreadId(1), "z", None));
        b.add_transition(s0, x, l);
        b.add_transition(s0, x, r);
        b.add_transition(l, y, e1);
        b.add_transition(r, z, e2);
        let spec = b.build(s0);

        let imp_y = seq(&["x", "y"]);
        let imp_z = seq(&["x", "z"]);
        assert!(trace_refines(&imp_y, &spec).holds);
        assert!(trace_refines(&imp_z, &spec).holds);
        let imp_bad = seq(&["x", "x"]);
        assert!(!trace_refines(&imp_bad, &spec).holds);
    }

    #[test]
    fn spec_with_tau_choice() {
        // spec: τ.x + τ.y — both x and y must be accepted as first letters.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let l = b.add_state();
        let r = b.add_state();
        let e1 = b.add_state();
        let e2 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let x = b.intern_action(Action::call(ThreadId(1), "x", None));
        let y = b.intern_action(Action::call(ThreadId(1), "y", None));
        b.add_transition(s0, tau, l);
        b.add_transition(s0, tau, r);
        b.add_transition(l, x, e1);
        b.add_transition(r, y, e2);
        let spec = b.build(s0);
        assert!(trace_refines(&seq(&["x"]), &spec).holds);
        assert!(trace_refines(&seq(&["y"]), &spec).holds);
        assert!(!trace_refines(&seq(&["x", "x"]), &spec).holds);
    }

    #[test]
    fn cyclic_implementation_terminates() {
        // imp: loop on x; spec: loop on x.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let x = b.intern_action(Action::call(ThreadId(1), "x", None));
        b.add_transition(s0, x, s0);
        let imp = b.build(s0);
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let x = b.intern_action(Action::call(ThreadId(1), "x", None));
        b.add_transition(s0, x, s1);
        b.add_transition(s1, x, s0);
        let spec = b.build(s0);
        assert!(trace_equivalent(&imp, &spec));
    }

    #[test]
    fn antichain_and_exact_memoization_agree() {
        use bb_lts::{random_lts, RandomLtsConfig};
        for seed in 0..25u64 {
            let a = random_lts(seed, RandomLtsConfig::default());
            let b = random_lts(seed + 1000, RandomLtsConfig::default());
            let run = |antichain| {
                trace_refines_governed(&a, &b, RefineOptions { antichain }, &Watchdog::unlimited())
                    .unwrap()
            };
            let (with, without) = (run(true), run(false));
            assert_eq!(with.holds, without.holds, "seed {seed}");
            // The antichain can only shrink the explored product.
            assert!(with.product_states <= without.product_states, "seed {seed}");
        }
    }

    #[test]
    fn value_mismatch_is_caught() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::ret(ThreadId(1), "deq", Some(1)));
        b.add_transition(s0, a, s1);
        let imp = b.build(s0);
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::ret(ThreadId(1), "deq", Some(2)));
        b.add_transition(s0, a, s1);
        let spec = b.build(s0);
        let r = trace_refines(&imp, &spec);
        assert!(!r.holds);
        assert_eq!(r.violation.unwrap().trace.len(), 1);
    }
}
