//! Additional progress-property checks (Section V-B).
//!
//! Beyond the automatic lock-freedom check of Theorem 5.9
//! ([`verify_lock_freedom`](crate::verify_lock_freedom)), this module
//! provides:
//!
//! * [`verify_lock_freedom_ltl`] — the "off-the-shelf model checker" route:
//!   lock-freedom as the next-free LTL formula `□◇(ret ∨ done)`, checked on
//!   the *divergence-preserving* quotient (which is `≈div`-bisimilar to the
//!   object, hence preserves all next-free LTL per Section V-B);
//! * [`verify_wait_freedom`] — per-thread starvation analysis: a thread is
//!   starved when it can take infinitely many steps without completing an
//!   operation, i.e. (under a bounded client, where infinite executions are
//!   eventually τ-only) when a reachable τ-cycle contains one of its steps.

use bb_bisim::{div_quotient, starvation_witness, Lasso};
use bb_lts::{Lts, ThreadId};
use bb_ltl::{check, lock_freedom, CheckResult};
use std::time::{Duration, Instant};

/// Result of the LTL route to lock-freedom.
#[derive(Debug, Clone)]
pub struct LtlLockFreeReport {
    /// Whether `□◇(ret ∨ done)` holds on the divergence-preserving
    /// quotient (hence on the object, by `≈div`-preservation of next-free
    /// LTL).
    pub lock_free: bool,
    /// The model-checker verdict, including a lasso counterexample on
    /// failure.
    pub check: CheckResult,
    /// `|Δ|`.
    pub impl_states: usize,
    /// Size of the divergence-preserving quotient the formula was checked
    /// on.
    pub quotient_states: usize,
    /// Wall-clock time (quotienting + model checking).
    pub time: Duration,
}

/// Checks lock-freedom by model checking `□◇(ret ∨ done)` on the
/// divergence-preserving quotient of `imp`.
///
/// Agrees with [`verify_lock_freedom`](crate::verify_lock_freedom)
/// (Theorem 5.9) on every system; this route demonstrates the paper's
/// point that `≈div` preserves *all* next-free LTL, so any progress
/// property — not just lock-freedom — can be checked on the small
/// quotient.
pub fn verify_lock_freedom_ltl(imp: &Lts) -> LtlLockFreeReport {
    let start = Instant::now();
    let q = div_quotient(imp);
    let result = check(&q.lts, &lock_freedom());
    LtlLockFreeReport {
        lock_free: result.holds,
        impl_states: imp.num_states(),
        quotient_states: q.lts.num_states(),
        check: result,
        time: start.elapsed(),
    }
}

/// Per-thread starvation verdicts.
#[derive(Debug, Clone)]
pub struct WaitFreeReport {
    /// For each thread, a witness cycle in which the thread keeps taking
    /// steps without ever returning, if one exists.
    pub starved: Vec<(ThreadId, Option<Lasso>)>,
    /// Wall-clock time.
    pub time: Duration,
}

impl WaitFreeReport {
    /// `true` iff no thread can be starved while continuously taking steps.
    ///
    /// Note the bounded-client caveat: algorithms that are lock-free but
    /// not wait-free only exhibit starvation under an *unbounded*
    /// adversary, which a bounded most-general client cannot express; this
    /// check detects the stronger violations where a thread spins on its
    /// own (HW queue, the Fu et al. reclamation).
    pub fn wait_free(&self) -> bool {
        self.starved.iter().all(|(_, w)| w.is_none())
    }

    /// Threads with a starvation witness.
    pub fn starving_threads(&self) -> Vec<ThreadId> {
        self.starved
            .iter()
            .filter_map(|(t, w)| w.as_ref().map(|_| *t))
            .collect()
    }
}

/// Analyzes starvation for threads `1..=num_threads` of `imp`.
pub fn verify_wait_freedom(imp: &Lts, num_threads: u8) -> WaitFreeReport {
    let start = Instant::now();
    let starved = (1..=num_threads)
        .map(|i| {
            let t = ThreadId(i);
            (t, starvation_witness(imp, t))
        })
        .collect();
    WaitFreeReport {
        starved,
        time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::hw_queue::HwQueue;
    use bb_algorithms::ms_queue::MsQueue;
    use bb_algorithms::treiber_hp_fu::TreiberHpFu;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn ltl_route_agrees_with_theorem_59() {
        let ms = explore_system(&MsQueue::new(&[1]), Bound::new(2, 2)).unwrap();
        let r = verify_lock_freedom_ltl(&ms);
        assert!(r.lock_free);
        assert!(r.quotient_states < r.impl_states);

        let hw = explore_system(&HwQueue::for_bound(&[1], 2, 1), Bound::new(2, 1)).unwrap();
        let r = verify_lock_freedom_ltl(&hw);
        assert!(!r.lock_free);
        assert!(r.check.counterexample.is_some());
    }

    #[test]
    fn hw_queue_starves_its_dequeuer() {
        let hw = explore_system(&HwQueue::for_bound(&[1], 2, 1), Bound::new(2, 1)).unwrap();
        let r = verify_wait_freedom(&hw, 2);
        assert!(!r.wait_free());
        assert!(!r.starving_threads().is_empty());
    }

    #[test]
    fn fu_stack_starves_the_reclaimer() {
        let fu = explore_system(&TreiberHpFu::new(&[1], 2), Bound::new(2, 2)).unwrap();
        let r = verify_wait_freedom(&fu, 2);
        assert!(!r.wait_free());
    }

    #[test]
    fn ms_queue_has_no_bounded_client_starvation() {
        let ms = explore_system(&MsQueue::new(&[1]), Bound::new(2, 2)).unwrap();
        let r = verify_wait_freedom(&ms, 2);
        assert!(r.wait_free(), "no τ-cycles under a bounded client");
    }
}
