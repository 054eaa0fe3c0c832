//! Quotient transition systems (Definition 5.1).

use crate::partition::Partition;
use crate::signatures::{partition_governed_opts, Equivalence, PartitionOptions};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::{ActionId, Lts, LtsBuilder, StateId};

/// The quotient `Δ/≈` of an object system under a partition, per
/// Definition 5.1: visible transitions project onto blocks unconditionally;
/// τ-transitions project only when they cross blocks (inert τ-steps vanish).
#[derive(Debug, Clone)]
pub struct Quotient {
    /// The quotient LTS. State `i` is the block `BlockId(i)` of the partition.
    pub lts: Lts,
    /// For each block, the least original state contained in it. Useful for
    /// lifting diagnostics on the quotient back to the original system.
    pub representatives: Vec<StateId>,
}

/// Builds the quotient of `lts` under `p` (Definition 5.1).
///
/// Theorem 5.2: when `p` is the branching-bisimulation partition, the
/// quotient preserves linearizability — `trace(Δ) = trace(Δ/≈)`.
///
/// # Panics
///
/// Panics if `p` does not partition exactly the states of `lts`.
pub fn quotient(lts: &Lts, p: &Partition) -> Quotient {
    assert_eq!(
        p.num_states(),
        lts.num_states(),
        "partition does not match LTS"
    );
    let _span = bb_obs::span("quotient")
        .with("states", lts.num_states())
        .with("blocks", p.num_blocks());
    let (b, representatives) = project(lts, p);
    let init = StateId(p.block_of(lts.initial()).0);
    Quotient {
        lts: b.build(init),
        representatives,
    }
}

/// The transitions of the Definition 5.1 quotient of `lts` under `p`, in a
/// builder the caller finishes, plus each block's least member.
fn project(lts: &Lts, p: &Partition) -> (LtsBuilder, Vec<StateId>) {
    let mut b = LtsBuilder::new();
    b.add_states(p.num_blocks());

    let mut representatives = vec![StateId(u32::MAX); p.num_blocks()];
    for s in lts.states() {
        let blk = p.block_of(s).index();
        if representatives[blk].0 == u32::MAX {
            representatives[blk] = s;
        }
    }

    // Each source action is interned once, on its first surviving
    // occurrence, so quotient action ids (and `.aut` bytes) follow
    // transition order.
    let mut ids: Vec<Option<ActionId>> = vec![None; lts.num_actions()];
    for (src, act, dst) in lts.iter_transitions() {
        let bs = p.block_of(src);
        let bd = p.block_of(dst);
        let visible = lts.is_visible(act);
        if !visible && bs == bd {
            continue; // inert τ-step: dropped by rule (2) of Definition 5.1
        }
        let aid = *ids[act.index()].get_or_insert_with(|| b.intern_action(lts.action(act).clone()));
        b.add_transition(StateId(bs.0), aid, StateId(bd.0));
    }
    (b, representatives)
}

/// Builds the *divergence-preserving* quotient of `lts`: the Definition 5.1
/// quotient of the `≈div` partition, with a τ-self-loop added to every
/// block that contains divergent states.
///
/// Unlike the plain quotient (which by Lemma 5.7 never diverges), this
/// system is `≈div`-bisimilar to the original, so it preserves all
/// next-free LTL/CTL* properties — progress properties like lock-freedom
/// can be model-checked on it (Section V-B) at a fraction of the size.
pub fn div_quotient(lts: &Lts) -> Quotient {
    div_quotient_opts(lts, &Watchdog::unlimited(), PartitionOptions::default())
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`div_quotient`] with explicit [`PartitionOptions`]: the
/// underlying `≈div` partition is metered against `wd` (see
/// [`partition_governed_opts`](crate::partition_governed_opts)). The
/// quotient is identical for every option combination.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage `bisim`) when the budget trips.
pub fn div_quotient_opts(
    lts: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<Quotient, Exhausted> {
    let p = partition_governed_opts(lts, Equivalence::BranchingDiv, wd, opts)?;
    let divergent = crate::divergence::divergent_states(lts, &p);
    let (mut b, representatives) = project(lts, &p);
    // Re-introduce divergences as block-level self-loops.
    let tau = b.intern_action(bb_lts::Action::tau(bb_lts::ThreadId(0)));
    for (blk, rep) in representatives.iter().enumerate() {
        if rep.0 != u32::MAX && divergent[rep.index()] {
            b.add_transition(StateId(blk as u32), tau, StateId(blk as u32));
        }
    }
    let init = StateId(p.block_of(lts.initial()).0);
    Ok(Quotient {
        lts: b.build(init),
        representatives,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signatures::{partition, Equivalence};
    use bb_lts::{Action, ThreadId};

    /// s0 --τ--> s1 --a--> s2 with an extra inert τ s1 --τ--> s0.
    fn sample() -> Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, tau, s0);
        b.add_transition(s1, a, s2);
        b.build(s0)
    }

    #[test]
    fn inert_taus_vanish() {
        let lts = sample();
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        assert_eq!(q.lts.num_states(), 2);
        assert_eq!(q.lts.num_transitions(), 1);
        let (_, act, _) = q.lts.iter_transitions().next().unwrap();
        assert!(q.lts.is_visible(act));
    }

    #[test]
    fn class_crossing_tau_survives() {
        // s0 --τ--> s1 where s1 has an `a` option s0 lacks... that τ is not
        // inert, and must appear in the quotient.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let s3 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        let c = b.intern_action(Action::call(ThreadId(1), "b", None));
        b.add_transition(s0, a, s2);
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, c, s3);
        let lts = b.build(s0);
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        let taus: Vec<_> = q
            .lts
            .iter_transitions()
            .filter(|(_, act, _)| !q.lts.is_visible(*act))
            .collect();
        assert_eq!(taus.len(), 1, "the effectful τ must survive quotienting");
    }

    #[test]
    fn representatives_are_least_members() {
        let lts = sample();
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        // Block of s0 (= block of s1) is represented by s0.
        let b0 = p.block_of(StateId(0));
        assert_eq!(q.representatives[b0.index()], StateId(0));
    }

    #[test]
    fn quotient_initial_is_block_of_initial() {
        let lts = sample();
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        assert_eq!(q.lts.initial().index(), p.block_of(lts.initial()).index());
    }

    #[test]
    fn quotient_is_idempotent() {
        let lts = sample();
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        let p2 = partition(&q.lts, Equivalence::Branching);
        assert_eq!(p2.num_blocks(), q.lts.num_states());
    }

    #[test]
    fn div_quotient_preserves_divergence() {
        // s0 --a--> s1 with τ-self-loop on s1.
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        b.add_transition(s0, a, s1);
        b.add_transition(s1, tau, s1);
        let lts = b.build(s0);

        // Plain quotient loses the divergence (Lemma 5.7)…
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        assert!(!crate::divergence::has_tau_cycle(&q.lts));
        // …the divergence-preserving quotient keeps it.
        let dq = div_quotient(&lts);
        assert!(crate::divergence::has_tau_cycle(&dq.lts));
        assert!(crate::compare::bisimilar(
            &lts,
            &dq.lts,
            Equivalence::BranchingDiv
        ));
    }

    #[test]
    fn div_quotient_of_divergence_free_system_is_plain() {
        // An acyclic system: τ then a (note: sample() has a τ-cycle).
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, tau, s1);
        b.add_transition(s1, a, s2);
        let lts = b.build(s0);
        let dq = div_quotient(&lts);
        assert!(!crate::divergence::has_tau_cycle(&dq.lts));
        assert!(crate::compare::bisimilar(
            &lts,
            &dq.lts,
            Equivalence::BranchingDiv
        ));
    }

    #[test]
    fn div_quotient_of_tau_cycle_sample_keeps_divergence() {
        // sample() has the inert τ-cycle s0 ↔ s1: divergent.
        let lts = sample();
        let dq = div_quotient(&lts);
        assert!(crate::divergence::has_tau_cycle(&dq.lts));
        assert!(crate::compare::bisimilar(
            &lts,
            &dq.lts,
            Equivalence::BranchingDiv
        ));
    }
}