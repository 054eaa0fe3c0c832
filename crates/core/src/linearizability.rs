//! Linearizability checking on branching-bisimulation quotients
//! (Theorem 5.3).

use bb_bisim::{partition_governed_opts, quotient, Equivalence, PartitionOptions, Quotient};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::Lts;
use bb_refine::{trace_refines_governed, RefineOptions, Violation};
use std::time::{Duration, Instant};

/// Result of a linearizability check.
#[derive(Debug, Clone)]
pub struct LinReport {
    /// Whether every history of the implementation is linearizable
    /// (Theorem 2.3 via Theorem 5.3).
    pub linearizable: bool,
    /// `|Δ|` — states of the implementation LTS.
    pub impl_states: usize,
    /// `|Δ/≈|` — states of its branching-bisimulation quotient.
    pub impl_quotient_states: usize,
    /// `|Θsp|` — states of the specification LTS.
    pub spec_states: usize,
    /// `|Θsp/≈|` — states of its quotient.
    pub spec_quotient_states: usize,
    /// Product states explored by the refinement check.
    pub refinement_product_states: usize,
    /// A non-linearizable history (shortest), when found.
    pub violation: Option<Violation>,
    /// Wall-clock time of the specification's quotienting plus refinement
    /// (Δ/≈ is an input of the check).
    pub time: Duration,
}

impl LinReport {
    /// State-space reduction factor `|Δ| / |Δ/≈|` (cf. Fig. 10).
    pub fn reduction_factor(&self) -> f64 {
        self.impl_states as f64 / self.impl_quotient_states.max(1) as f64
    }
}

/// Checks linearizability of `imp` against the linearizable specification
/// `spec` by quotienting both under branching bisimulation and checking
/// trace refinement of the quotients (Theorem 5.3).
///
/// Both LTSs must use the same method names/values in their visible actions
/// (the most general clients must agree), otherwise refinement trivially
/// fails.
pub fn verify_linearizability(imp: &Lts, spec: &Lts) -> LinReport {
    verify_linearizability_opts(imp, spec, &Watchdog::unlimited(), PartitionOptions::default())
        .expect("an unlimited watchdog never trips")
}

/// Budget-governed [`verify_linearizability`] with explicit
/// [`PartitionOptions`] (worker count): both quotient computations and the
/// refinement search are metered against `wd`. The report is identical at
/// any worker count.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict; an aborted
/// check must be treated as *unknown*, never as a violation.
pub fn verify_linearizability_opts(
    imp: &Lts,
    spec: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<LinReport, Exhausted> {
    let q_imp = branching_quotient(imp, wd, opts)?;
    verify_linearizability_pre(imp, spec, wd, opts, &q_imp)
}

/// [`verify_linearizability_opts`] given the implementation's quotient
/// `imp_quotient` = Δ/≈, which a verify computes once and shares with the
/// lock-freedom check.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before a verdict.
pub(crate) fn verify_linearizability_pre(
    imp: &Lts,
    spec: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
    imp_quotient: &Quotient,
) -> Result<LinReport, Exhausted> {
    let span = bb_obs::span("lin")
        .with("impl_states", imp.num_states())
        .with("spec_states", spec.num_states());
    let start = Instant::now();
    let p_spec = partition_governed_opts(spec, Equivalence::Branching, wd, opts)?;
    let q_spec = quotient(spec, &p_spec);
    let refinement =
        trace_refines_governed(&imp_quotient.lts, &q_spec.lts, RefineOptions::default(), wd)?;
    span.record("linearizable", u64::from(refinement.holds));
    span.record("impl_quotient_states", imp_quotient.lts.num_states());
    span.record("spec_quotient_states", q_spec.lts.num_states());
    Ok(LinReport {
        linearizable: refinement.holds,
        impl_states: imp.num_states(),
        impl_quotient_states: imp_quotient.lts.num_states(),
        spec_states: spec.num_states(),
        spec_quotient_states: q_spec.lts.num_states(),
        refinement_product_states: refinement.product_states,
        violation: refinement.violation,
        time: start.elapsed(),
    })
}

/// The branching quotient of `lts` (Definition 5.1) — computed once per
/// verify and read by both checks.
pub(crate) fn branching_quotient(
    lts: &Lts,
    wd: &Watchdog,
    opts: PartitionOptions,
) -> Result<Quotient, Exhausted> {
    let p = partition_governed_opts(lts, Equivalence::Branching, wd, opts)?;
    Ok(quotient(lts, &p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::specs::SeqStack;
    use bb_algorithms::treiber::Treiber;
    use bb_sim::{explore_system, AtomicSpec, Bound};

    #[test]
    fn treiber_is_linearizable() {
        let alg = Treiber::new(&[1, 2]);
        let spec = AtomicSpec::new(SeqStack::new(&[1, 2]));
        let bound = Bound::new(2, 2);
        let imp = explore_system(&alg, bound).unwrap();
        let sp = explore_system(&spec, bound).unwrap();
        let report = verify_linearizability(&imp, &sp);
        assert!(report.linearizable, "violation: {:?}", report.violation);
        assert!(report.impl_quotient_states < report.impl_states);
        assert!(report.reduction_factor() > 1.0);
    }

    #[test]
    fn wrong_spec_is_rejected_with_counterexample() {
        // Check the stack against a QUEUE spec: the LIFO/FIFO mismatch must
        // surface as a refinement violation. (Method names must align, so
        // rename via a stack spec with swapped semantics: push/pop against
        // queue order.) We emulate by comparing stack impl to stack spec
        // with domain mismatch instead: impl pushes {1,2}, spec only {1}.
        let alg = Treiber::new(&[1, 2]);
        let spec = AtomicSpec::new(SeqStack::new(&[1]));
        let bound = Bound::new(2, 1);
        let imp = explore_system(&alg, bound).unwrap();
        let sp = explore_system(&spec, bound).unwrap();
        let report = verify_linearizability(&imp, &sp);
        assert!(!report.linearizable);
        let v = report.violation.expect("counterexample expected");
        assert!(!v.trace.is_empty());
    }
}
