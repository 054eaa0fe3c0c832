//! The quotient as an analysis tool (Section VI-D.1): computing Δ/≈ "for
//! free" recovers the linearization-point structure — the only internal
//! steps surviving in the quotient are the statements where methods take
//! effect, matching the published manual analyses.

use bbverify::algorithms::{dglm_queue::DglmQueue, ms_queue::MsQueue, treiber::Treiber};
use bbverify::bisim::{partition, quotient, Equivalence};
use bbverify::refine::trace_equivalent;
use bbverify::sim::{explore_system, Bound, ObjectAlgorithm};
use std::collections::BTreeSet;

fn surviving_tags<A: ObjectAlgorithm>(alg: &A, th: u8, op: u32) -> BTreeSet<String> {
    let lts = explore_system(alg, Bound::new(th, op)).unwrap();
    let p = partition(&lts, Equivalence::Branching);
    let q = quotient(&lts, &p);
    q.lts
        .iter_transitions()
        .filter(|(_, a, _)| !q.lts.is_visible(*a))
        .filter_map(|(_, a, _)| q.lts.action(a).tag.as_ref().map(|t| t.to_string()))
        .collect()
}

fn set(tags: &[&str]) -> BTreeSet<String> {
    tags.iter().map(|s| s.to_string()).collect()
}

/// The paper's Section VI-D.1 claim, verbatim: "all internal steps in the
/// quotient are labeled with Lines 8, 20, 21, 28" of Fig. 5. (At 2-2 the
/// L21 validation is still inert — it needs the deeper interleavings of
/// 2-3 to become effectful, so the full set is asserted there.)
#[test]
fn ms_queue_quotient_recovers_fig5_linearization_points() {
    let tags = surviving_tags(&MsQueue::new(&[1]), 2, 2);
    assert_eq!(tags, set(&["L8", "L20", "L28"]));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "≈10 s in debug; run with --release")]
fn ms_queue_quotient_full_lp_set_at_2_3() {
    let tags = surviving_tags(&MsQueue::new(&[1]), 2, 3);
    assert_eq!(tags, set(&["L8", "L20", "L21", "L28"]));
}

/// Treiber: the push CAS (L4), the pop CAS (L13) and the empty-case read of
/// `Top` (L10) are the linearization points.
#[test]
fn treiber_quotient_recovers_linearization_points() {
    let tags = surviving_tags(&Treiber::new(&[1]), 2, 2);
    assert_eq!(tags, set(&["L4", "L10", "L13"]));
}

/// DGLM: enqueue-link CAS (E5), dequeue next-read (D2, the empty LP) and
/// dequeue head CAS (D4).
#[test]
fn dglm_quotient_recovers_linearization_points() {
    let tags = surviving_tags(&DglmQueue::new(&[1]), 2, 2);
    assert_eq!(tags, set(&["D2", "D4", "E5"]));
}

/// Theorem 5.2 on a real object system: the quotient has the same traces.
#[test]
fn quotient_preserves_traces_of_real_systems() {
    for (name, lts) in [
        (
            "treiber",
            explore_system(&Treiber::new(&[1]), Bound::new(2, 2)).unwrap(),
        ),
        (
            "ms-queue",
            explore_system(&MsQueue::new(&[1]), Bound::new(2, 1)).unwrap(),
        ),
    ] {
        let p = partition(&lts, Equivalence::Branching);
        let q = quotient(&lts, &p);
        assert!(trace_equivalent(&lts, &q.lts), "{name}");
    }
}
