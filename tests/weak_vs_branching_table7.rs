//! Integration tests for Section VII / Table VII: comparing weak and
//! branching bisimilarity between object systems `Δ` and their one-block
//! specifications `Θsp`.
//!
//! Per Table VII, only the Treiber stack is (weakly and branching)
//! bisimilar to its specification; algorithms with non-fixed linearization
//! points are not. And per the Fig. 6 discussion, weak bisimulation can
//! relate states across an effectful linearization-point step that
//! branching bisimulation separates.

use bbverify::algorithms::{
    ccas::Ccas, hsy_stack::HsyStack, hw_queue::HwQueue, ms_queue::MsQueue, specs::*,
    treiber::Treiber,
};
use bbverify::bisim::{bisimilar, partition, BisimCheck, Equivalence};
use bbverify::lts::{ExploreLimits, Lts};
use bbverify::sim::{explore_system, AtomicSpec, Bound, ObjectAlgorithm};

fn lts_of<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Lts {
    explore_system(alg, Bound::new(threads, ops), ExploreLimits::default()).unwrap()
}

#[test]
fn treiber_is_bisimilar_to_its_spec() {
    // Table VII row "2-2 Treiber": ~w Yes, ≈ Yes.
    let imp = lts_of(&Treiber::new(&[1]), 2, 2);
    let spec = lts_of(&AtomicSpec::new(SeqStack::new(&[1])), 2, 2);
    assert!(bisimilar(&imp, &spec, Equivalence::Branching), "Treiber ≈ Θsp");
    assert!(bisimilar(&imp, &spec, Equivalence::Weak), "Treiber ~w Θsp");
}

#[test]
fn ms_queue_is_not_bisimilar_to_its_spec() {
    // Table VII rows for MS: both No. (At 2-2 the implementation is still
    // bisimilar to the one-block spec; the non-fixed-LP structure becomes
    // observable from 2-3 on — the paper's instance is 2-5.)
    let imp = lts_of(&MsQueue::new(&[1]), 2, 3);
    let spec = lts_of(&AtomicSpec::new(SeqQueue::new(&[1])), 2, 3);
    assert!(!bisimilar(&imp, &spec, Equivalence::Branching));
    assert!(!bisimilar(&imp, &spec, Equivalence::Weak));
    // The Fig. 7 explanation `examples/ms_queue.rs` prints, pinned so the
    // diagnostics replay stays byte-identical.
    let formula = BisimCheck::run(&imp, &spec, Equivalence::Branching)
        .diagnosis()
        .expect("inequivalent systems carry a diagnosis");
    assert_eq!(
        formula.to_string(),
        "⟨t1.call.Enq(1)⟩⟨t2.call.Deq⟩⟨τ⟩⟨τ⟩⟨t1.ret.Enq⟩⟨t1.call.Enq(1)⟩⟨t1.ret.Enq⟩⟨t1.call.Deq⟩"
    );
}

#[test]
fn hw_queue_is_not_bisimilar_to_its_spec() {
    let imp = lts_of(&HwQueue::for_bound(&[1], 2, 2), 2, 2);
    let spec = lts_of(&AtomicSpec::new(SeqQueue::new(&[1])), 2, 2);
    assert!(!bisimilar(&imp, &spec, Equivalence::Branching));
    assert!(!bisimilar(&imp, &spec, Equivalence::Weak));
}

#[test]
fn ccas_is_not_bisimilar_to_its_spec() {
    let imp = lts_of(&Ccas::new(2), 2, 2);
    let spec = lts_of(&AtomicSpec::new(SeqCcas::new(2)), 2, 2);
    assert!(!bisimilar(&imp, &spec, Equivalence::Branching));
    assert!(!bisimilar(&imp, &spec, Equivalence::Weak));
}

/// The HSY stack at 3-2 is the sharpest instance of the Section VII
/// argument: *weak* bisimulation relates the implementation to its
/// one-block specification — failing to perceive the effect of the
/// elimination-layer linearization points — while *branching* bisimulation
/// separates them.
#[test]
#[cfg_attr(debug_assertions, ignore = "≈1 min in debug; run with --release")]
fn hsy_weak_equates_but_branching_separates() {
    let imp = lts_of(&HsyStack::new(&[1]), 3, 2);
    let spec = lts_of(&AtomicSpec::new(SeqStack::new(&[1])), 3, 2);
    assert!(bisimilar(&imp, &spec, Equivalence::Weak), "HSY ~w Θsp at 3-2");
    assert!(
        !bisimilar(&imp, &spec, Equivalence::Branching),
        "HSY ≉ Θsp at 3-2"
    );
}

/// The Section VII phenomenon at state level: weak bisimulation relates
/// some states across a τ-step that branching bisimulation separates
/// (Fig. 6: `s1 ~w s3` but `s1 ≉ s3`).
#[test]
fn weak_relates_states_that_branching_separates() {
    // Search over the MS-queue state space for a τ-edge with weak-equal
    // but branching-different endpoints. (Needs the interleaving depth of
    // three threads, like the ≡₁∧≢₂ phenomenon — weak bisimilarity
    // coincides with ≡... the hierarchy collapses at 2 threads here, so we
    // use the CCAS instance where the phenomenon appears at 2-3.)
    let lts = lts_of(&Ccas::new(2), 2, 3);
    let pw = partition(&lts, Equivalence::Weak);
    let pb = partition(&lts, Equivalence::Branching);
    assert!(
        pb.num_blocks() >= pw.num_blocks(),
        "branching refines weak on this instance"
    );
    let mut found = false;
    for (src, act, dst) in lts.iter_transitions() {
        if lts.is_visible(act) {
            continue;
        }
        if pw.same_block(src, dst) && !pb.same_block(src, dst) {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "expected a τ-edge related by ~w but separated by ≈ (Fig. 6 shape)"
    );
}

/// Weak and branching bisimilarity coincide with the specification verdicts
/// on every Table VII instance we model — but the partitions they induce
/// differ in general (previous test), which is exactly why the paper
/// argues for branching bisimulation.
#[test]
fn verdicts_match_on_table7_instances() {
    let checks: Vec<(Lts, Lts)> = vec![
        (
            lts_of(&Treiber::new(&[1]), 2, 1),
            lts_of(&AtomicSpec::new(SeqStack::new(&[1])), 2, 1),
        ),
        (
            lts_of(&MsQueue::new(&[1]), 2, 1),
            lts_of(&AtomicSpec::new(SeqQueue::new(&[1])), 2, 1),
        ),
    ];
    for (imp, spec) in &checks {
        assert_eq!(
            bisimilar(imp, spec, Equivalence::Branching),
            bisimilar(imp, spec, Equivalence::Weak),
        );
    }
}
