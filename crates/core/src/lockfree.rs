//! Lock-freedom checking via divergence-sensitive branching bisimulation
//! (Theorems 5.8 and 5.9).

use bb_bisim::{
    bisimilar_opts, divergence_witness_governed, partition_governed_opts, Equivalence, Lasso,
    PartitionOptions,
};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::Lts;
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
    /// A τ-cycle witness (Fig. 9 style) when lock-freedom is violated.
    pub divergence: Option<Lasso>,
    /// Wall-clock time of the divergence search (the `≈` partition that
    /// gives `|Δ/≈|` is computed before it and not timed here).
    pub time: Duration,
}

/// Automatically checks lock-freedom of `imp` (Theorem 5.9): `imp` is
/// lock-free iff `Δ ≈div Δ/≈`.
///
/// The check needs no second refinement. By Lemma 5.7 the quotient of a
/// finite system has no τ-cycle, and by Lemma 5.6 a τ-cycle of `Δ` stays
/// inside one `≈`-class. So `Δ ≈div Δ/≈` fails exactly when `Δ` has a
/// reachable τ-cycle, which one Tarjan pass over the τ-edges finds
/// ([`divergence_witness_governed`]) and which is returned as a lasso
/// witness. `|Δ/≈|`, the number of `≈`-classes, is computed for the report.
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
    verify_lock_freedom_opts(imp, &Watchdog::unlimited(), PartitionOptions::default())
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`verify_lock_freedom`] with explicit
/// [`PartitionOptions`] (worker count and refinement engine): the `≈`
/// partition and the divergence search are both metered against `wd`. The
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
    let p = partition_governed_opts(imp, Equivalence::Branching, wd, opts)?;
    verify_lock_freedom_pre(imp, wd, p.num_blocks())
}

/// [`verify_lock_freedom_opts`] given `|Δ/≈|` = `quotient_states`, which a
/// verify computes once for the linearizability check.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict.
pub(crate) fn verify_lock_freedom_pre(
    imp: &Lts,
    wd: &Watchdog,
    quotient_states: usize,
) -> Result<LockFreeReport, Exhausted> {
    let span = bb_obs::span("lockfree").with("impl_states", imp.num_states());
    let start = Instant::now();
    let divergence = divergence_witness_governed(imp, wd)?;
    let lock_free = divergence.is_none();
    span.record("lock_free", u64::from(lock_free));
    span.record("quotient_states", quotient_states);
    Ok(LockFreeReport {
        lock_free,
        impl_states: imp.num_states(),
        quotient_states,
        divergence,
        time: start.elapsed(),
    })
}

/// Result of the abstraction-based lock-freedom check (Theorem 5.8).
#[derive(Debug, Clone)]
pub struct AbstractionReport {
    /// Whether `Δ ≈div ΔAbs` held.
    pub div_bisimilar: bool,
    /// Whether the abstract program is lock-free (Theorem 5.9 on the
    /// abstract system: it has no reachable τ-cycle).
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
    verify_lock_freedom_via_abstraction_opts(
        imp,
        abs,
        &Watchdog::unlimited(),
        PartitionOptions::default(),
    )
    .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`verify_lock_freedom_via_abstraction`] with explicit
/// [`PartitionOptions`]: the `≈div` check and the abstract program's
/// divergence search are metered against `wd`. The report is identical for
/// every option combination.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict; an aborted
/// check says nothing about lock-freedom.
pub fn verify_lock_freedom_via_abstraction_opts(
    imp: &Lts,
    abs: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<AbstractionReport, Exhausted> {
    let start = Instant::now();
    let div_bisimilar = bisimilar_opts(imp, abs, Equivalence::BranchingDiv, wd, opts)?;
    let abstract_lock_free = divergence_witness_governed(abs, wd)?.is_none();
    Ok(AbstractionReport {
        div_bisimilar,
        abstract_lock_free,
        concrete_lock_free: div_bisimilar.then_some(abstract_lock_free),
        impl_states: imp.num_states(),
        abstract_states: abs.num_states(),
        time: start.elapsed(),
    })
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
