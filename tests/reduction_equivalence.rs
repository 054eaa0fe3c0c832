//! Differential equivalence harness for the `bb-reduce` subsystem.
//!
//! For **every** algorithm in `crates/algorithms` (the full `bbv list`
//! roster) this test builds the state space twice — unreduced and with the
//! reduction layers enabled — and asserts that
//!
//! 1. the reduced LTS is divergence-sensitive branching bisimilar (`≈div`)
//!    to the full one (for the implementation *and* the spec), and
//! 2. the verification pipeline returns identical verdicts on both,
//!    including on the three known-buggy case studies, whose *failures*
//!    must survive reduction unchanged.
//!
//! A final test checks that reduction composes with the parallel engine:
//! the reduced LTS is byte-identical at any `--jobs` count.

use bbverify::algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*, treiber::Treiber,
    treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};
use bbverify::lts::{to_aut, ExploreOptions, Jobs, Watchdog};
use bbverify::reduce::{differential_check, explore_reduced, DifferentialReport, ReduceMode};
use bbverify::sim::{AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};

/// Runs the differential check at `mode` and asserts it passed.
fn check<A: ObjectAlgorithm, S: SequentialSpec>(
    alg: &A,
    spec: &AtomicSpec<S>,
    threads: u8,
    ops: u32,
    lock_freedom: bool,
    mode: ReduceMode,
) -> DifferentialReport {
    let r = differential_check(
        alg,
        spec,
        Bound::new(threads, ops),
        mode,
        Jobs::available(),
        lock_freedom,
        &Watchdog::unlimited(),
    )
    .expect("an unlimited watchdog never trips");
    assert!(r.passed(), "{}", r.render());
    r
}

/// One differential case: `≈div` + verdict equality at `--reduce full`.
/// The individual layers are exercised on representative algorithms below
/// and by the `bb-reduce` unit tests; running every algorithm at every mode
/// would triple the runtime for little extra coverage.
macro_rules! case {
    ($test:ident, $alg:expr, $spec:expr, $t:expr, $o:expr, lock_freedom = $lf:expr) => {
        #[test]
        fn $test() {
            check(&$alg, &AtomicSpec::new($spec), $t, $o, $lf, ReduceMode::Full);
        }
    };
}

case!(treiber, Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), 2, 2, lock_freedom = true);
case!(treiber_hp, TreiberHp::new(&[1], 2), SeqStack::new(&[1]), 2, 2, lock_freedom = true);
case!(ms_queue, MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, lock_freedom = true);
case!(dglm_queue, DglmQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, lock_freedom = true);
case!(ccas, Ccas::new(2), SeqCcas::new(2), 2, 2, lock_freedom = true);
case!(rdcss, Rdcss::new(2), SeqRdcss::new(2), 2, 1, lock_freedom = true);
case!(newcas, NewCas::new(2), SeqRegister::new(2), 2, 2, lock_freedom = true);
case!(hm_list, HmList::revised(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = true);
case!(hsy_stack, HsyStack::new(&[1]), SeqStack::new(&[1]), 2, 2, lock_freedom = true);
case!(lazy_list, LazyList::new(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = false);
case!(optimistic_list, OptimisticList::new(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = false);
case!(fine_list, FineList::new(&[1]), SeqSet::new(&[1]), 2, 2, lock_freedom = false);
case!(two_lock_queue, TwoLockQueue::new(&[1]), SeqQueue::new(&[1]), 2, 2, lock_freedom = false);
case!(coarse_stack, CoarseLocked::new(SeqStack::new(&[1])), SeqStack::new(&[1]), 2, 2, lock_freedom = false);
case!(coarse_queue, CoarseLocked::new(SeqQueue::new(&[1])), SeqQueue::new(&[1]), 2, 2, lock_freedom = false);
case!(coarse_set, CoarseLocked::new(SeqSet::new(&[1])), SeqSet::new(&[1]), 2, 2, lock_freedom = false);

/// The three buggy case studies must *stay* buggy under reduction: a
/// reduction that silently erased a counterexample would pass `≈div`-less
/// pipelines while breaking soundness in the most damaging way.
#[test]
fn hw_queue_lock_freedom_bug_survives_reduction() {
    let r = check(
        &HwQueue::for_bound(&[1], 3, 1),
        &AtomicSpec::new(SeqQueue::new(&[1])),
        3,
        1,
        true,
        ReduceMode::Full,
    );
    assert!(r.full_linearizable && r.reduced_linearizable);
    assert_eq!(r.full_lock_free, Some(false));
    assert_eq!(r.reduced_lock_free, Some(false));
}

#[test]
fn treiber_hp_fu_bug_survives_reduction() {
    let r = check(
        &TreiberHpFu::new(&[1], 2),
        &AtomicSpec::new(SeqStack::new(&[1])),
        2,
        2,
        true,
        ReduceMode::Full,
    );
    assert_eq!(r.full_lock_free, Some(false));
    assert_eq!(r.reduced_lock_free, Some(false));
}

#[test]
fn hm_list_buggy_violation_survives_reduction() {
    let r = check(
        &HmList::buggy(&[1]),
        &AtomicSpec::new(SeqSet::new(&[1])),
        2,
        2,
        false,
        ReduceMode::Full,
    );
    assert!(!r.full_linearizable && !r.reduced_linearizable);
}

/// The individual layers are each sound on their own for representative
/// algorithms of each annotation shape: CAS-loop with private allocation
/// (Treiber), per-thread shared slots (TreiberHp), lock ownership (coarse).
#[test]
fn individual_layers_on_representative_algorithms() {
    for mode in [ReduceMode::Sym, ReduceMode::Por] {
        check(&Treiber::new(&[1]), &AtomicSpec::new(SeqStack::new(&[1])), 2, 2, true, mode);
        check(&TreiberHp::new(&[1], 2), &AtomicSpec::new(SeqStack::new(&[1])), 2, 2, true, mode);
        check(
            &CoarseLocked::new(SeqSet::new(&[1])),
            &AtomicSpec::new(SeqSet::new(&[1])),
            2,
            2,
            false,
            mode,
        );
    }
}

/// Reduction composes deterministically with `--jobs N`: the reduced LTS is
/// byte-identical regardless of worker count, for an algorithm exercising
/// every reducer feature (ample chains, proviso fallbacks, symmetry with
/// per-thread slot renaming).
#[test]
fn reduced_exploration_is_deterministic_across_jobs() {
    let alg = TreiberHp::new(&[1], 2);
    let bound = Bound::new(2, 2);
    let (base, stats) =
        explore_reduced(&alg, bound, ReduceMode::Full, &ExploreOptions::new()).unwrap();
    assert!(stats.ample_states > 0, "reducer must actually fire: {stats}");
    for jobs in [2, 4, 8] {
        let (par, _) = explore_reduced(
            &alg,
            bound,
            ReduceMode::Full,
            &ExploreOptions::new().with_jobs(Jobs::new(jobs)),
        )
        .unwrap();
        assert_eq!(
            to_aut(&base),
            to_aut(&par),
            "reduced LTS must be identical at {jobs} worker threads"
        );
    }
}
