//! Theorem 5.9's own check as the oracle of the lock-freedom verdict.
//!
//! A verify decides lock-freedom with one τ-cycle search over Δ
//! (`verify_lock_freedom`). By Lemma 5.7 Δ/≈ has no τ-cycle, and by
//! Lemma 5.6 a τ-cycle of Δ stays inside one ≈-class, so `Δ ≈div Δ/≈`
//! holds iff Δ has no reachable τ-cycle. This harness runs the paper's
//! check — the `≈div` refinement of Δ ⊎ Δ/≈ — on every roster object at
//! 2-2 and 3-1 and asserts that both verdicts agree. It also pins Table
//! II's lock-freedom verdicts and checks the shape of every lasso.

use bbverify::algorithms::roster::{with_case, Case, ALGORITHMS};
use bbverify::bisim::{bisimilar, partition, quotient, Equivalence, Lasso};
use bbverify::core::verify_lock_freedom;
use bbverify::lts::Lts;
use bbverify::sim::{explore_system, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};

/// The non-blocking objects that Table II refutes; the others are
/// lock-free.
const NOT_LOCK_FREE: [&str; 2] = ["hw-queue", "treiber-hp-fu"];

/// Explores a roster object under the most general client.
struct Explore(Bound);

impl Case for Explore {
    type Out = Lts;

    fn run<A: ObjectAlgorithm, S: SequentialSpec>(
        self,
        alg: &A,
        _seq: &AtomicSpec<S>,
        _non_blocking: bool,
    ) -> Lts {
        explore_system(alg, self.0)
            .unwrap_or_else(|e| panic!("exploration of {} exceeded limits: {e}", alg.name()))
    }
}

/// A lasso starts at the initial state, its steps are transitions of
/// `lts` that follow one another, and its cycle is τ-only and closes.
fn assert_lasso(lts: &Lts, lasso: &Lasso, what: &str) {
    assert!(!lasso.cycle.is_empty(), "{what}: empty cycle");
    let mut at = lts.initial();
    for &(s, a, t) in lasso.prefix.iter().chain(&lasso.cycle) {
        assert_eq!(s, at, "{what}: lasso steps must be consecutive");
        assert!(
            lts.successors(s)
                .iter()
                .any(|tr| tr.action == a && tr.target == t),
            "{what}: {s:?} --{a:?}--> {t:?} is not a transition"
        );
        at = t;
    }
    assert_eq!(at, lasso.knot(), "{what}: the cycle must close");
    assert!(
        lasso.cycle.iter().all(|&(_, a, _)| !lts.is_visible(a)),
        "{what}: the cycle must be τ-only"
    );
}

#[test]
fn tau_cycle_search_equals_div_check_on_the_roster() {
    for &(name, _, non_blocking) in ALGORITHMS {
        for (threads, ops) in [(2, 2), (3, 1)] {
            let what = format!("{name} {threads}-{ops}");
            let bound = Bound::new(threads, ops);
            let lts = with_case(name, &[1], threads, ops, Explore(bound)).expect("a roster name");
            let report = verify_lock_freedom(&lts);
            let q = quotient(&lts, &partition(&lts, Equivalence::Branching));
            let div = bisimilar(&lts, &q.lts, Equivalence::BranchingDiv);
            assert_eq!(
                report.lock_free, div,
                "{what}: τ-cycle search against Δ ≈div Δ/≈"
            );
            assert_eq!(report.quotient_states, q.lts.num_states(), "{what}: |Δ/≈|");
            match &report.divergence {
                Some(lasso) => assert_lasso(&lts, lasso, &what),
                None => assert!(report.lock_free, "{what}: a refutation carries a lasso"),
            }
            if non_blocking {
                let expected = !NOT_LOCK_FREE.contains(&name);
                assert_eq!(report.lock_free, expected, "{what}: Table II's verdict");
            }
        }
    }
}
