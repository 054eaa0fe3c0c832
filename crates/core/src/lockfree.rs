//! Lock-freedom checking via divergence-sensitive branching bisimulation
//! (Theorems 5.8 and 5.9).

use crate::linearizability::branching_quotient;
use bb_bisim::{
    bisimilar_governed_jobs, div_bisimilar_to_quotient, divergence_witness_governed, Equivalence,
    Lasso, Partition, PartitionOptions, Quotient,
};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::{Jobs, Lts};
use std::time::{Duration, Instant};

/// Result of the automatic lock-freedom check (Theorem 5.9).
#[derive(Debug, Clone)]
pub struct LockFreeReport {
    /// Whether the system is lock-free.
    pub lock_free: bool,
    /// `|Δ|`.
    pub impl_states: usize,
    /// `|Δ/≈|`.
    pub quotient_states: usize,
    /// Whether `Δ ≈div Δ/≈` held (fails exactly when a divergence exists).
    pub div_bisimilar_to_quotient: bool,
    /// A τ-cycle witness (Fig. 9 style) when lock-freedom is violated.
    pub divergence: Option<Lasso>,
    /// Wall-clock time of the `≈div` check and the witness search (Δ/≈ is
    /// an input of the check).
    pub time: Duration,
}

/// Automatically checks lock-freedom of `imp` (Theorem 5.9): compute the
/// branching-bisimulation quotient `Δ/≈`, check `Δ ≈div Δ/≈`, and conclude.
///
/// By Lemma 5.7 the quotient of a finite system has no infinite τ-path, so
/// `Δ ≈div Δ/≈` fails exactly when `Δ` has a reachable divergence — i.e. a
/// τ-cycle (Lemma 5.6), which is returned as a lasso witness.
///
/// ```
/// use bb_algorithms::hw_queue::HwQueue;
/// use bb_core::verify_lock_freedom;
/// use bb_sim::{explore_system, Bound};
///
/// # fn main() -> Result<(), bb_lts::ExploreError> {
/// let lts = explore_system(
///     &HwQueue::for_bound(&[1], 2, 1),
///     Bound::new(2, 1),
///     Default::default(),
/// )?;
/// let report = verify_lock_freedom(&lts);
/// assert!(!report.lock_free, "the HW dequeue spins on the empty queue");
/// assert!(report.divergence.is_some());
/// # Ok(())
/// # }
/// ```
pub fn verify_lock_freedom(imp: &Lts) -> LockFreeReport {
    verify_lock_freedom_governed(imp, &Watchdog::unlimited())
        .expect("an unlimited watchdog never trips")
}

/// [`verify_lock_freedom`] with `jobs` worker threads for the partition
/// refinements; the report is identical at any worker count.
pub fn verify_lock_freedom_jobs(imp: &Lts, jobs: Jobs) -> LockFreeReport {
    verify_lock_freedom_governed_jobs(imp, &Watchdog::unlimited(), jobs)
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`verify_lock_freedom`]: the quotient, the `≈div` check
/// and the divergence-witness search are all metered against `wd`.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict; an aborted
/// check says nothing about lock-freedom.
pub fn verify_lock_freedom_governed(imp: &Lts, wd: &Watchdog) -> Result<LockFreeReport, Exhausted> {
    verify_lock_freedom_governed_jobs(imp, wd, Jobs::serial())
}

/// [`verify_lock_freedom_governed`] with `jobs` worker threads for the
/// partition refinements; the report is identical at any worker count.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict; an aborted
/// check says nothing about lock-freedom.
pub fn verify_lock_freedom_governed_jobs(
    imp: &Lts,
    wd: &Watchdog,
    jobs: Jobs,
) -> Result<LockFreeReport, Exhausted> {
    verify_lock_freedom_opts(imp, wd, PartitionOptions::default().with_jobs(jobs))
}

/// [`verify_lock_freedom_governed`] with explicit [`PartitionOptions`]
/// (worker count and refinement engine) for the partition refinements; the
/// report is identical for every option combination.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict; an aborted
/// check says nothing about lock-freedom.
pub fn verify_lock_freedom_opts(
    imp: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<LockFreeReport, Exhausted> {
    let (p, q) = branching_quotient(imp, wd, opts)?;
    verify_lock_freedom_pre(imp, wd, opts, &p, &q)
}

/// [`verify_lock_freedom_opts`] given the implementation's branching
/// partition `imp_partition` and its quotient `imp_quotient` = Δ/≈, which a
/// verify computes once and shares with the linearizability check. The
/// `≈div` refinement of Δ ⊎ Δ/≈ starts from `≈` lifted to the union (see
/// [`div_bisimilar_to_quotient`]); the report is identical to refining from
/// the universal partition.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict.
pub(crate) fn verify_lock_freedom_pre(
    imp: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
    imp_partition: &Partition,
    imp_quotient: &Quotient,
) -> Result<LockFreeReport, Exhausted> {
    let span = bb_obs::span("lockfree").with("impl_states", imp.num_states());
    let start = Instant::now();
    let (div_bisim, _) = div_bisimilar_to_quotient(imp, imp_partition, imp_quotient, wd, opts)?;
    let divergence = if div_bisim {
        None
    } else {
        let w = divergence_witness_governed(imp, wd)?;
        debug_assert!(
            w.is_some(),
            "Δ ≉div Δ/≈ for a finite system implies a reachable τ-cycle"
        );
        w
    };
    span.record("lock_free", u64::from(div_bisim));
    span.record("quotient_states", imp_quotient.lts.num_states());
    Ok(LockFreeReport {
        lock_free: div_bisim,
        impl_states: imp.num_states(),
        quotient_states: imp_quotient.lts.num_states(),
        div_bisimilar_to_quotient: div_bisim,
        divergence,
        time: start.elapsed(),
    })
}

/// Result of the abstraction-based lock-freedom check (Theorem 5.8).
#[derive(Debug, Clone)]
pub struct AbstractionReport {
    /// Whether `Δ ≈div ΔAbs` held.
    pub div_bisimilar: bool,
    /// Whether the abstract program is lock-free (checked by Theorem 5.9 on
    /// the abstract system).
    pub abstract_lock_free: bool,
    /// The conclusion for the concrete object: `Some(lock_free)` when the
    /// abstraction applies (`div_bisimilar`), `None` when it does not.
    pub concrete_lock_free: Option<bool>,
    /// `|Δ|`.
    pub impl_states: usize,
    /// `|ΔAbs|`.
    pub abstract_states: usize,
    /// Wall-clock time.
    pub time: Duration,
}

/// Checks lock-freedom of `imp` through a hand-written abstract program
/// `abs` (Theorem 5.8): if `imp ≈div abs`, then `imp` is lock-free iff
/// `abs` is; lock-freedom of the (much smaller) abstract program is decided
/// by Theorem 5.9.
pub fn verify_lock_freedom_via_abstraction(imp: &Lts, abs: &Lts) -> AbstractionReport {
    verify_lock_freedom_via_abstraction_jobs(imp, abs, Jobs::serial())
}

/// [`verify_lock_freedom_via_abstraction`] with `jobs` worker threads for
/// the `≈div` check; the report is identical at any worker count.
pub fn verify_lock_freedom_via_abstraction_jobs(
    imp: &Lts,
    abs: &Lts,
    jobs: Jobs,
) -> AbstractionReport {
    let start = Instant::now();
    let wd = Watchdog::unlimited();
    let div_bisimilar = bisimilar_governed_jobs(imp, abs, Equivalence::BranchingDiv, &wd, jobs)
        .expect("an unlimited watchdog never trips");
    let abs_report = verify_lock_freedom_governed_jobs(abs, &wd, jobs)
        .expect("an unlimited watchdog never trips");
    AbstractionReport {
        div_bisimilar,
        abstract_lock_free: abs_report.lock_free,
        concrete_lock_free: div_bisimilar.then_some(abs_report.lock_free),
        impl_states: imp.num_states(),
        abstract_states: abs.num_states(),
        time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::ms_queue::MsQueue;
    use bb_algorithms::treiber::Treiber;
    use bb_lts::ExploreLimits;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn treiber_is_lock_free() {
        let alg = Treiber::new(&[1]);
        let imp = explore_system(&alg, Bound::new(2, 2), ExploreLimits::default()).unwrap();
        let report = verify_lock_freedom(&imp);
        assert!(report.lock_free);
        assert!(report.divergence.is_none());
        assert!(report.quotient_states < report.impl_states);
    }

    #[test]
    fn ms_queue_is_lock_free() {
        let alg = MsQueue::new(&[1]);
        let imp = explore_system(&alg, Bound::new(2, 2), ExploreLimits::default()).unwrap();
        let report = verify_lock_freedom(&imp);
        assert!(report.lock_free);
    }

    #[test]
    fn divergent_system_is_caught() {
        // A hand-built system with a reachable τ-loop.
        use bb_lts::{Action, LtsBuilder, ThreadId};
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let call = b.intern_action(Action::call(ThreadId(1), "m", None));
        let tau = b.intern_action(Action::tau(ThreadId(1)));
        b.add_transition(s0, call, s1);
        b.add_transition(s1, tau, s1);
        let lts = b.build(s0);
        let report = verify_lock_freedom(&lts);
        assert!(!report.lock_free);
        let lasso = report.divergence.unwrap();
        assert_eq!(lasso.cycle.len(), 1);
    }

    #[test]
    fn treiber_via_its_own_spec_as_abstraction() {
        // For fixed-LP algorithms the abstract program coincides with the
        // specification (Section VI-C); Treiber ≈div stack spec.
        use bb_algorithms::specs::SeqStack;
        use bb_sim::AtomicSpec;
        let bound = Bound::new(2, 1);
        let imp = explore_system(&Treiber::new(&[1]), bound, ExploreLimits::default()).unwrap();
        let abs = explore_system(
            &AtomicSpec::new(SeqStack::new(&[1])),
            bound,
            ExploreLimits::default(),
        )
        .unwrap();
        let report = verify_lock_freedom_via_abstraction(&imp, &abs);
        assert!(report.div_bisimilar, "Treiber ≈div its specification");
        assert_eq!(report.concrete_lock_free, Some(true));
    }
}
