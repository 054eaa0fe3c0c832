//! Bisimilarity checks between two object systems.
//!
//! Definition 4.1 is lifted to systems by relating their initial states in
//! the disjoint union (as in Definition 5.5 for `≈div`).

use crate::diagnostics::{distinguishing_formula, Formula};
use crate::partition::Partition;
use crate::signatures::{
    partition, partition_governed_opts, partition_with_history_opts, Equivalence, PartitionOptions,
    RefinementHistory,
};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::{disjoint_union, Lts, StateId};

/// The result of comparing two systems under a bisimulation equivalence.
///
/// Produced by [`BisimCheck::run`]. Keeps the union system, the final
/// partition and the refinement history so that callers can extract
/// diagnostics when the systems are inequivalent.
#[derive(Debug, Clone)]
pub struct BisimCheck {
    /// Whether the two systems' initial states are related.
    pub equivalent: bool,
    /// The disjoint union over which the partition was computed.
    pub union: Lts,
    /// Image of the left (resp. right) system's initial state in the union.
    pub left_initial: StateId,
    /// Image of the right system's initial state in the union.
    pub right_initial: StateId,
    /// Final partition of the union.
    pub partition: Partition,
    /// Per-round refinement history (for distinguishing formulas).
    pub history: RefinementHistory,
    /// The equivalence that was checked.
    pub equivalence: Equivalence,
}

impl BisimCheck {
    /// Compares `left` and `right` under `eq`, retaining diagnostics.
    pub fn run(left: &Lts, right: &Lts, eq: Equivalence) -> BisimCheck {
        let u = disjoint_union(left, right);
        let (p, history) = partition_with_history_opts(&u.lts, eq, PartitionOptions::default());
        let equivalent = p.same_block(u.left_initial, u.right_initial);
        BisimCheck {
            equivalent,
            union: u.lts,
            left_initial: u.left_initial,
            right_initial: u.right_initial,
            partition: p,
            history,
            equivalence: eq,
        }
    }

    /// A human-readable explanation of why the initial states differ, or
    /// `None` when the systems are equivalent.
    pub fn diagnosis(&self) -> Option<Formula> {
        if self.equivalent {
            return None;
        }
        Some(distinguishing_formula(
            &self.union,
            &self.history,
            self.equivalence,
            self.left_initial,
            self.right_initial,
        ))
    }
}

/// Returns `true` iff `left` and `right` are bisimilar under `eq`
/// (initial states related in the disjoint union).
///
/// This is the check used for Theorem 5.8 (with
/// [`Equivalence::BranchingDiv`]) and the `≈`/`~w` columns of Table VII.
pub fn bisimilar(left: &Lts, right: &Lts, eq: Equivalence) -> bool {
    bisimilar_opts(left, right, eq, &Watchdog::unlimited(), PartitionOptions::default())
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`bisimilar`] with explicit [`PartitionOptions`] (worker
/// count and refinement engine): the underlying partition refinement is
/// metered against `wd` (see [`partition_governed_opts`]). The verdict is
/// identical for every option combination.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict is reached;
/// callers must treat this as *unknown*, never as inequivalence.
pub fn bisimilar_opts(
    left: &Lts,
    right: &Lts,
    eq: Equivalence,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<bool, Exhausted> {
    if eq == Equivalence::Weak {
        // Weak signatures need τ-closures, which are expensive on large
        // systems. Since ≈ refines ~w and every system is branching
        // bisimilar to its ≈-quotient, the weak verdict between the
        // originals equals the weak verdict between the (much smaller)
        // quotients.
        let reduce = |lts: &Lts| -> Result<Lts, Exhausted> {
            let p = partition_governed_opts(lts, Equivalence::Branching, wd, opts)?;
            Ok(crate::quotient::quotient(lts, &p).lts)
        };
        let (lq, rq) = (reduce(left)?, reduce(right)?);
        let u = disjoint_union(&lq, &rq);
        let p = partition_governed_opts(&u.lts, Equivalence::Weak, wd, opts)?;
        return Ok(p.same_block(u.left_initial, u.right_initial));
    }
    let u = disjoint_union(left, right);
    let p = partition_governed_opts(&u.lts, eq, wd, opts)?;
    Ok(p.same_block(u.left_initial, u.right_initial))
}

/// Returns `true` iff states `a` and `b` of the same system are related
/// under `eq` — e.g. the `s1 ≈ s3` queries of the MS-queue analysis in
/// Section III/VII.
pub fn bisimilar_states(lts: &Lts, a: StateId, b: StateId, eq: Equivalence) -> bool {
    let p = partition(lts, eq);
    p.same_block(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::{Action, LtsBuilder, ThreadId};

    /// `spec`: s0 --a--> s1. `impl`: s0 --τ--> s0' --a--> s1'.
    fn spec_and_impl() -> (Lts, Lts) {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, a, s1);
        let spec = b.build(s0);

        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, a, s2);
        let imp = b.build(s0);
        (spec, imp)
    }

    #[test]
    fn inert_tau_implementation_is_branching_bisimilar() {
        let (spec, imp) = spec_and_impl();
        assert!(bisimilar(&spec, &imp, Equivalence::Branching));
        assert!(bisimilar(&spec, &imp, Equivalence::BranchingDiv));
        assert!(bisimilar(&spec, &imp, Equivalence::Weak));
        assert!(!bisimilar(&spec, &imp, Equivalence::Strong));
    }

    #[test]
    fn divergent_implementation_fails_div_check() {
        let (spec, _) = spec_and_impl();
        // Implementation with a τ-self-loop before the a.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s0);
        b.add_transition(s0, a, s1);
        let diverging = b.build(s0);

        assert!(bisimilar(&spec, &diverging, Equivalence::Branching));
        assert!(!bisimilar(&spec, &diverging, Equivalence::BranchingDiv));
    }

    #[test]
    fn check_carries_diagnosis_only_on_failure() {
        let (spec, imp) = spec_and_impl();
        let ok = BisimCheck::run(&spec, &imp, Equivalence::Branching);
        assert!(ok.equivalent);
        assert!(ok.diagnosis().is_none());

        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "b", None));
        b.add_transition(s0, a, s1);
        let other = b.build(s0);
        let bad = BisimCheck::run(&spec, &other, Equivalence::Branching);
        assert!(!bad.equivalent);
        assert!(bad.diagnosis().is_some());
    }

    #[test]
    fn states_within_one_system() {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);
        assert!(bisimilar_states(&lts, s0, s1, Equivalence::Branching));
        assert!(!bisimilar_states(&lts, s0, s2, Equivalence::Branching));
    }
}
