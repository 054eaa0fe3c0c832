//! Cap computation (Section III-B): the smallest k at which the ≡ₖ
//! hierarchy stabilizes. Fixed-LP algorithms cap at 1 (ordinary trace
//! equivalence already coincides with branching bisimilarity on their
//! state spaces); the Fig. 6 phenomenon forces a cap ≥ 2.

use bbverify::algorithms::{ccas::Ccas, newcas::NewCas, treiber::Treiber};
use bbverify::ktrace::{cap, KtraceLimits};
use bbverify::sim::{explore_system, Bound, ObjectAlgorithm};

fn cap_of<A: ObjectAlgorithm>(alg: &A, th: u8, op: u32) -> usize {
    let lts = explore_system(alg, Bound::new(th, op)).unwrap();
    cap(&lts, 20, KtraceLimits::default())
        .unwrap()
        .expect("hierarchy stabilizes")
}

#[test]
fn treiber_caps_at_one() {
    assert_eq!(cap_of(&Treiber::new(&[1]), 2, 2), 1);
}

#[test]
fn newcas_caps_at_one() {
    assert_eq!(cap_of(&NewCas::new(2), 2, 2), 1);
}

#[test]
fn ccas_needs_higher_levels() {
    // CCAS at 2-3 exhibits ≡₁∧≢₂ edges, so its cap is at least 2.
    assert!(cap_of(&Ccas::new(2), 2, 3) >= 2);
}
