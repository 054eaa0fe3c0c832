//! Integration test reproducing Table I: the k-trace classification of
//! τ-transitions. Algorithms with non-fixed linearization points exhibit
//! τ-edges that are 1-trace equivalent but 2-trace inequivalent; simple
//! fixed-LP algorithms only exhibit 1-trace-inequivalent edges.
//!
//! The `≡₁ ∧ ≢₂` phenomenon needs enough concurrent operations to build the
//! branching potential of Fig. 6 (the paper's own instance uses 2 threads ×
//! 5 operations with three distinct values); the smallest configurations we
//! found are HW 3-1, CCAS/RDCSS 2-3 and MS/DGLM 3-2. The two largest cases
//! are ignored in debug builds — run `cargo test --release` to include
//! them.

use bbverify::algorithms::{
    ccas::Ccas, dglm_queue::DglmQueue, hw_queue::HwQueue, ms_queue::MsQueue, newcas::NewCas,
    rdcss::Rdcss, treiber::Treiber,
};
use bbverify::ktrace::{classify_tau_edges, KtraceLimits};
use bbverify::lts::Lts;
use bbverify::sim::{explore_system, Bound, ObjectAlgorithm};

fn lts_of<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Lts {
    explore_system(alg, Bound::new(threads, ops)).unwrap()
}

fn classify(lts: &Lts) -> (bool, bool) {
    let c = classify_tau_edges(lts, KtraceLimits::default()).unwrap();
    (c.has_eq1_neq2(), c.has_neq1())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "≈5 s in release; run with --release")]
fn table1_ms_queue_has_higher_inequivalence() {
    let lts = lts_of(&MsQueue::new(&[1]), 3, 2);
    let (eq1_neq2, neq1) = classify(&lts);
    assert!(neq1, "MS queue has effectful τ-steps");
    assert!(eq1_neq2, "MS queue exhibits ≡₁∧≢₂ (non-fixed LPs, Fig. 6)");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "≈4 s in release; run with --release")]
fn table1_dglm_queue_has_higher_inequivalence() {
    let lts = lts_of(&DglmQueue::new(&[1]), 3, 2);
    let (eq1_neq2, neq1) = classify(&lts);
    assert!(neq1);
    assert!(eq1_neq2, "DGLM queue exhibits ≡₁∧≢₂");
}

#[test]
fn table1_hw_queue_has_higher_inequivalence() {
    let lts = lts_of(&HwQueue::for_bound(&[1, 2], 3, 1), 3, 1);
    let (eq1_neq2, neq1) = classify(&lts);
    assert!(neq1);
    assert!(eq1_neq2, "HW queue exhibits ≡₁∧≢₂");
}

#[test]
fn table1_ccas_has_higher_inequivalence() {
    let lts = lts_of(&Ccas::new(2), 2, 3);
    let (eq1_neq2, neq1) = classify(&lts);
    assert!(neq1);
    assert!(eq1_neq2, "CCAS exhibits ≡₁∧≢₂");
}

#[test]
fn table1_rdcss_has_higher_inequivalence() {
    let lts = lts_of(&Rdcss::new(2), 2, 3);
    let (eq1_neq2, neq1) = classify(&lts);
    assert!(neq1);
    assert!(eq1_neq2, "RDCSS exhibits ≡₁∧≢₂");
}

#[test]
fn table1_treiber_only_first_level() {
    for (th, op) in [(2, 2), (2, 3), (3, 1)] {
        let lts = lts_of(&Treiber::new(&[1]), th, op);
        let (eq1_neq2, neq1) = classify(&lts);
        assert!(neq1, "Treiber has effectful τ-steps (the CAS LPs)");
        assert!(!eq1_neq2, "fixed LPs: no ≡₁∧≢₂ edges at {th}-{op}");
    }
}

#[test]
fn table1_newcas_only_first_level() {
    for (th, op) in [(2, 2), (2, 3), (3, 1)] {
        let lts = lts_of(&NewCas::new(2), th, op);
        let (eq1_neq2, neq1) = classify(&lts);
        assert!(neq1);
        assert!(!eq1_neq2, "fixed LPs: no ≡₁∧≢₂ edges at {th}-{op}");
    }
}
