//! Reachability and τ-closure analyses.

use crate::builder::LtsBuilder;
use crate::lts::{Lts, StateId};

/// Returns the set of states reachable from the initial state, as a boolean
/// mask indexed by state id.
pub fn reachable_states(lts: &Lts) -> Vec<bool> {
    let mut seen = vec![false; lts.num_states()];
    let mut stack = vec![lts.initial()];
    seen[lts.initial().index()] = true;
    while let Some(s) = stack.pop() {
        for t in lts.successors(s) {
            if !seen[t.target.index()] {
                seen[t.target.index()] = true;
                stack.push(t.target);
            }
        }
    }
    seen
}

/// Returns a copy of `lts` restricted to the states reachable from its
/// initial state, renumbering states densely. The exploration in
/// [`explore_with`](crate::explore_with) only produces reachable states, but quotient
/// and product constructions may not.
pub fn restrict_to_reachable(lts: &Lts) -> Lts {
    let mask = reachable_states(lts);
    let mut remap: Vec<Option<StateId>> = vec![None; lts.num_states()];
    let mut builder = LtsBuilder::new();
    for s in lts.states() {
        if mask[s.index()] {
            remap[s.index()] = Some(builder.add_state());
        }
    }
    for (src, act, dst) in lts.iter_transitions() {
        if let (Some(ns), Some(nd)) = (remap[src.index()], remap[dst.index()]) {
            let aid = builder.intern_action(lts.action(act).clone());
            builder.add_transition(ns, aid, nd);
        }
    }
    let init = remap[lts.initial().index()].expect("initial state is always reachable");
    builder.build(init)
}

/// Per-state τ-closure: the set of states reachable via zero or more τ-steps.
///
/// Stored as a ragged array of sorted state lists. Memory is `O(Σ|closure|)`,
/// which is acceptable for the moderate systems where closures are needed
/// (weak bisimulation, determinization of specifications).
#[derive(Debug, Clone)]
pub struct TauClosure {
    offsets: Vec<u32>,
    members: Vec<StateId>,
}

impl TauClosure {
    /// States τ-reachable from `s` (including `s` itself), sorted by id.
    pub fn of(&self, s: StateId) -> &[StateId] {
        let lo = self.offsets[s.index()] as usize;
        let hi = self.offsets[s.index() + 1] as usize;
        &self.members[lo..hi]
    }

    /// Computes the τ-closure of every state of `lts`.
    ///
    /// Uses the τ-SCC condensation so that closures are shared between
    /// mutually τ-reachable states and computed in a single reverse
    /// topological pass.
    pub fn compute(lts: &Lts) -> TauClosure {
        bb_obs::hot::TAU_CLOSURE_BUILDS.incr();
        let cond = crate::scc::condensation(lts, |_, a, _| !lts.is_visible(a));
        // closure per SCC, in reverse topological id order (id 0 = sink-most).
        let mut scc_closure: Vec<Vec<StateId>> = vec![Vec::new(); cond.num_sccs];
        let groups = cond.members();
        for scc_idx in 0..cond.num_sccs {
            // Tarjan ids are reverse topological: all τ-successor SCCs of
            // scc_idx have smaller ids and are already computed.
            let mut acc: Vec<StateId> = groups[scc_idx].clone();
            for &s in &groups[scc_idx] {
                for t in lts.successors(s) {
                    if !lts.is_visible(t.action) {
                        let target_scc = cond.scc_of[t.target.index()];
                        if target_scc.index() != scc_idx {
                            acc.extend_from_slice(&scc_closure[target_scc.index()]);
                        }
                    }
                }
            }
            acc.sort_unstable();
            acc.dedup();
            scc_closure[scc_idx] = acc;
        }
        let mut offsets = Vec::with_capacity(lts.num_states() + 1);
        let mut members = Vec::new();
        offsets.push(0u32);
        for s in lts.states() {
            let scc = cond.scc_of[s.index()];
            members.extend_from_slice(&scc_closure[scc.index()]);
            offsets.push(members.len() as u32);
        }
        TauClosure { offsets, members }
    }
}

/// τ-closure of a single state set (used by subset constructions): extends
/// `set` with everything τ-reachable, returning a sorted, deduplicated set.
pub fn tau_closure_from(lts: &Lts, set: &[StateId]) -> Vec<StateId> {
    let mut seen: Vec<StateId> = set.to_vec();
    seen.sort_unstable();
    seen.dedup();
    let mut stack = seen.clone();
    while let Some(s) = stack.pop() {
        for t in lts.successors(s) {
            if !lts.is_visible(t.action) {
                if let Err(pos) = seen.binary_search(&t.target) {
                    seen.insert(pos, t.target);
                    stack.push(t.target);
                }
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, ThreadId};

    /// s0 --τ--> s1 --a--> s2 --τ--> s0 ; s3 unreachable.
    fn sample() -> Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let _s3 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, a, s2);
        b.add_transition(s2, tau, s0);
        b.build(s0)
    }

    #[test]
    fn reachability_excludes_orphans() {
        let lts = sample();
        let mask = reachable_states(&lts);
        assert_eq!(mask, vec![true, true, true, false]);
    }

    #[test]
    fn restriction_drops_unreachable() {
        let lts = sample();
        let r = restrict_to_reachable(&lts);
        assert_eq!(r.num_states(), 3);
        assert_eq!(r.num_transitions(), 3);
    }

    #[test]
    fn tau_closure_of_each_state() {
        let lts = sample();
        let cl = TauClosure::compute(&lts);
        assert_eq!(cl.of(StateId(0)), &[StateId(0), StateId(1)]);
        assert_eq!(cl.of(StateId(1)), &[StateId(1)]);
        assert_eq!(cl.of(StateId(2)), &[StateId(0), StateId(1), StateId(2)]);
    }

    #[test]
    fn tau_closure_handles_cycles() {
        // τ-cycle s0 <-> s1.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, tau, s0);
        let lts = b.build(s0);
        let cl = TauClosure::compute(&lts);
        assert_eq!(cl.of(s0), &[s0, s1]);
        assert_eq!(cl.of(s1), &[s0, s1]);
    }

    #[test]
    fn set_closure() {
        let lts = sample();
        let cl = tau_closure_from(&lts, &[StateId(2)]);
        assert_eq!(cl, vec![StateId(0), StateId(1), StateId(2)]);
    }
}
