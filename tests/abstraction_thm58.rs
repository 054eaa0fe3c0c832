//! Theorem 5.8: lock-freedom via hand-written abstract programs
//! (Section VI-D). The concrete MS/DGLM queues must be divergence-sensitive
//! branching bisimilar to the abstract queue of Fig. 8, which is itself
//! lock-free — so lock-freedom transfers.

use bbverify::algorithms::abstracts::{AbsCcas, AbsQueue, AbsRdcss};
use bbverify::algorithms::ccas::Ccas;
use bbverify::algorithms::dglm_queue::DglmQueue;
use bbverify::algorithms::ms_queue::MsQueue;
use bbverify::algorithms::rdcss::Rdcss;
use bbverify::algorithms::specs::SeqStack;
use bbverify::algorithms::treiber::Treiber;
use bbverify::core::verify_lock_freedom_via_abstraction;
use bbverify::sim::{explore_system, AtomicSpec, Bound};

#[test]
fn ms_queue_div_bisimilar_to_abstract_queue() {
    for bound in [Bound::new(2, 1), Bound::new(2, 2), Bound::new(2, 3)] {
        let imp = explore_system(&MsQueue::new(&[1]), bound).unwrap();
        let abs = explore_system(&AbsQueue::new(&[1]), bound).unwrap();
        let r = verify_lock_freedom_via_abstraction(&imp, &abs);
        assert!(
            r.div_bisimilar,
            "MS ≈div AbsQueue must hold at {}-{}",
            bound.threads, bound.ops_per_thread
        );
        assert!(r.abstract_lock_free);
        assert_eq!(r.concrete_lock_free, Some(true));
        assert!(r.abstract_states < r.impl_states);
    }
}

#[test]
fn dglm_queue_div_bisimilar_to_abstract_queue() {
    let bound = Bound::new(2, 2);
    let imp = explore_system(&DglmQueue::new(&[1]), bound).unwrap();
    let abs = explore_system(&AbsQueue::new(&[1]), bound).unwrap();
    let r = verify_lock_freedom_via_abstraction(&imp, &abs);
    assert!(r.div_bisimilar, "DGLM ≈div AbsQueue (same abstract object)");
    assert_eq!(r.concrete_lock_free, Some(true));
}

#[test]
fn ms_and_dglm_share_the_same_quotient() {
    // Table VI: MS and DGLM map to the same quotient (Δ*≈). Equivalent
    // claim: MS ≈ DGLM.
    let bound = Bound::new(2, 2);
    let ms = explore_system(&MsQueue::new(&[1]), bound).unwrap();
    let dglm = explore_system(&DglmQueue::new(&[1]), bound).unwrap();
    assert!(bbverify::bisim::bisimilar(
        &ms,
        &dglm,
        bbverify::bisim::Equivalence::BranchingDiv
    ));
}

#[test]
fn ccas_div_bisimilar_to_abstract_ccas() {
    // The helper-collapsed abstract CCAS matches the concrete object at
    // these instances; at deeper bounds (2-3+) the collapse becomes
    // observable and the Theorem 5.9 route applies instead (see
    // EXPERIMENTS.md).
    let bound = Bound::new(2, 2);
    let imp = explore_system(&Ccas::new(2), bound).unwrap();
    let abs = explore_system(&AbsCcas::new(2), bound).unwrap();
    let r = verify_lock_freedom_via_abstraction(&imp, &abs);
    assert!(r.div_bisimilar, "CCAS ≈div AbsCcas");
    assert_eq!(r.concrete_lock_free, Some(true));
}

#[test]
fn rdcss_div_bisimilar_to_abstract_rdcss() {
    let bound = Bound::new(2, 2);
    let imp = explore_system(&Rdcss::new(2), bound).unwrap();
    let abs = explore_system(&AbsRdcss::new(2), bound).unwrap();
    let r = verify_lock_freedom_via_abstraction(&imp, &abs);
    assert!(r.div_bisimilar, "RDCSS ≈div AbsRdcss");
    assert_eq!(r.concrete_lock_free, Some(true));
}

#[test]
fn fixed_lp_algorithm_abstract_is_its_spec() {
    // Section VI-C: for static LPs the abstract program coincides with the
    // specification. Treiber ≈div stack spec.
    let bound = Bound::new(2, 2);
    let imp = explore_system(&Treiber::new(&[1]), bound).unwrap();
    let abs = explore_system(&AtomicSpec::new(SeqStack::new(&[1])), bound).unwrap();
    let r = verify_lock_freedom_via_abstraction(&imp, &abs);
    assert!(r.div_bisimilar);
    assert_eq!(r.concrete_lock_free, Some(true));
}
