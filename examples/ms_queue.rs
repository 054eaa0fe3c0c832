//! The MS lock-free queue walk-through of Section VI-D:
//!
//! 1. generate the object LTS under the most general client,
//! 2. compute the branching-bisimulation quotient and show that the only
//!    internal steps surviving in it are the key statements of Fig. 5
//!    (lines 8, 20, 21, 28) — the linearization-point analysis,
//! 3. verify linearizability on the quotients (Theorem 5.3),
//! 4. verify lock-freedom automatically (Theorem 5.9) and via the abstract
//!    queue of Fig. 8 (Theorem 5.8),
//! 5. show the diagnostic for the non-fixed LP: the quotient of the queue
//!    is *not* branching bisimilar to the quotient of its specification,
//!    and print a distinguishing explanation (cf. Fig. 7).
//!
//! ```sh
//! cargo run --release --example ms_queue
//! ```

use bbverify::algorithms::abstracts::AbsQueue;
use bbverify::algorithms::{ms_queue::MsQueue, specs::SeqQueue};
use bbverify::bisim::{bisimilar, partition, quotient, BisimCheck, Equivalence};
use bbverify::core::{
    verify_linearizability, verify_lock_freedom, verify_lock_freedom_via_abstraction,
};
use bbverify::lts::ExploreLimits;
use bbverify::sim::{explore_system, AtomicSpec, Bound};
use std::collections::BTreeSet;

fn main() -> Result<(), bbverify::lts::ExploreError> {
    let bound = Bound::new(2, 3);
    let limits = ExploreLimits::default();

    println!("== 1. state-space generation ==");
    let imp = explore_system(&MsQueue::new(&[1]), bound, limits)?;
    let spec = explore_system(&AtomicSpec::new(SeqQueue::new(&[1])), bound, limits)?;
    println!("Δ_MS  : {} states, {} transitions", imp.num_states(), imp.num_transitions());
    println!("Θsp   : {} states", spec.num_states());

    println!("\n== 2. quotient analysis (linearization points for free) ==");
    let p = partition(&imp, Equivalence::Branching);
    let q = quotient(&imp, &p);
    println!("Δ/≈   : {} states (reduction ×{:.0})",
        q.lts.num_states(),
        imp.num_states() as f64 / q.lts.num_states() as f64);
    let surviving: BTreeSet<&str> = q
        .lts
        .iter_transitions()
        .filter(|(_, a, _)| !q.lts.is_visible(*a))
        .filter_map(|(_, a, _)| q.lts.action(a).tag.as_deref())
        .collect();
    println!("internal steps surviving in the quotient: {surviving:?}");
    println!("(the effective statements; the paper reports lines 8, 20, 21, 28)");

    println!("\n== 3. linearizability via Theorem 5.3 ==");
    let lin = verify_linearizability(&imp, &spec);
    println!(
        "Δ/≈ ⊑tr Θsp/≈ : {}   ({} vs {} quotient states, {:?})",
        lin.linearizable, lin.impl_quotient_states, lin.spec_quotient_states, lin.time
    );

    println!("\n== 4. lock-freedom ==");
    let lf = verify_lock_freedom(&imp);
    // The paper's check, next to the τ-cycle search that decides it.
    let div = bisimilar(&imp, &q.lts, Equivalence::BranchingDiv);
    println!(
        "Theorem 5.9 (automatic): lock-free = {}   (Δ ≈div Δ/≈: {div})",
        lf.lock_free
    );
    let abs = explore_system(&AbsQueue::new(&[1]), bound, limits)?;
    let via_abs = verify_lock_freedom_via_abstraction(&imp, &abs);
    println!(
        "Theorem 5.8 (abstract queue of Fig. 8): Δ ≈div ΔAbs = {}, ΔAbs lock-free = {} ⇒ lock-free = {:?}",
        via_abs.div_bisimilar, via_abs.abstract_lock_free, via_abs.concrete_lock_free
    );
    println!(
        "|ΔAbs| = {} (vs |Δ| = {})",
        via_abs.abstract_states, via_abs.impl_states
    );

    println!("\n== 5. the non-fixed linearization point (cf. Fig. 7) ==");
    let check = BisimCheck::run(&imp, &spec, Equivalence::Branching);
    println!("Δ ≈ Θsp : {}", check.equivalent);
    if let Some(formula) = check.diagnosis() {
        println!("distinguishing explanation (Δ satisfies, Θsp does not):");
        println!("  {formula}");
        println!("(the one-block spec cannot mirror the Deq interleaving of lines 20/21/28)");
    }
    Ok(())
}
