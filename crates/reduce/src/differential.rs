//! The differential equivalence harness: the headline correctness tool of
//! the reduction subsystem.
//!
//! For a given algorithm, bound and mode, [`differential_check`] builds the
//! state space twice — unreduced and reduced — and checks that
//!
//! 1. the two LTSs are **divergence-sensitive branching bisimilar**
//!    (`≈div`, the exact equivalence every verification theorem of the
//!    paper is stated up to), and
//! 2. every verdict of the verification pipeline (linearizability via
//!    branching-bisimulation quotients + trace refinement, lock-freedom via
//!    the divergence check) is **identical** on both.
//!
//! A reduction layer with an unsound annotation (a footprint that is not
//! hereditary, a `rename_threads` that moves observable data) shows up here
//! as a `≈div` mismatch long before it could corrupt a verdict.

use crate::mode::ReduceMode;
use crate::reducer::{explore_reduced, ReduceStats};
use bb_bisim::{bisimilar_opts, Equivalence, PartitionOptions};
use bb_core::{
    verify_case_governed_with, verify_case_lts, GovernedConfig, GovernedReport, VerifyConfig,
};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::{ExploreOptions, Jobs};
use bb_sim::{explore_system_with, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};

/// Outcome of one differential run.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// Algorithm name.
    pub name: &'static str,
    /// Reduction mode under test.
    pub mode: ReduceMode,
    /// Client bound.
    pub bound: Bound,
    /// States / transitions of the unreduced implementation LTS.
    pub full_states: usize,
    /// Transitions of the unreduced implementation LTS.
    pub full_transitions: usize,
    /// States of the reduced implementation LTS.
    pub reduced_states: usize,
    /// Transitions of the reduced implementation LTS.
    pub reduced_transitions: usize,
    /// Whether reduced ≈div full, for both implementation and spec.
    pub equivalent: bool,
    /// Whether the pipeline verdicts agree on both state spaces.
    pub verdicts_match: bool,
    /// Linearizability verdict on the unreduced pair.
    pub full_linearizable: bool,
    /// Linearizability verdict on the reduced pair.
    pub reduced_linearizable: bool,
    /// Lock-freedom verdict on the unreduced pair, when checked.
    pub full_lock_free: Option<bool>,
    /// Lock-freedom verdict on the reduced pair, when checked.
    pub reduced_lock_free: Option<bool>,
    /// Reducer counters from the implementation exploration.
    pub stats: ReduceStats,
}

impl DifferentialReport {
    /// `true` when the reduced state space is a sound stand-in: `≈div`
    /// holds and every verdict agrees.
    pub fn passed(&self) -> bool {
        self.equivalent && self.verdicts_match
    }

    /// State-count reduction factor (`≥ 1.0` when the reduction shrinks).
    pub fn reduction_factor(&self) -> f64 {
        self.full_states as f64 / (self.reduced_states.max(1)) as f64
    }

    /// One-line rendering for sweep output.
    pub fn render(&self) -> String {
        format!(
            "{:<32} {:<4} {}-{}: full {}/{} reduced {}/{} ({:.2}x) ≈div {} verdicts {} [{}]",
            self.name,
            self.mode,
            self.bound.threads,
            self.bound.ops_per_thread,
            self.full_states,
            self.full_transitions,
            self.reduced_states,
            self.reduced_transitions,
            self.reduction_factor(),
            if self.equivalent { "ok" } else { "MISMATCH" },
            if self.verdicts_match { "ok" } else { "MISMATCH" },
            self.stats
        )
    }
}

/// Runs the differential check for `alg` against `spec` at `bound`. Every
/// stage — the four explorations, both `≈div` comparisons and both
/// pipeline runs — is metered against `wd`.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before both verdicts; an
/// aborted check says nothing about the reduction.
pub fn differential_check<A, S>(
    alg: &A,
    spec: &AtomicSpec<S>,
    bound: Bound,
    mode: ReduceMode,
    jobs: Jobs,
    check_lock_freedom: bool,
    wd: &Watchdog,
) -> Result<DifferentialReport, Exhausted>
where
    A: ObjectAlgorithm,
    S: SequentialSpec,
{
    let opts = ExploreOptions::governed(wd).with_jobs(jobs);

    let full_imp = explore_system_with(alg, bound, &opts)?;
    let full_spec = explore_system_with(spec, bound, &opts)?;
    let (red_imp, stats) = explore_reduced(alg, bound, mode, &opts)?;
    let (red_spec, _) = explore_reduced(spec, bound, mode, &opts)?;

    let popts = PartitionOptions::default().with_jobs(jobs);
    let div_bisimilar = |a, b| bisimilar_opts(a, b, Equivalence::BranchingDiv, wd, popts);
    let equivalent =
        div_bisimilar(&full_imp, &red_imp)? && div_bisimilar(&full_spec, &red_spec)?;

    let mut config = VerifyConfig::new(bound).with_jobs(jobs);
    if !check_lock_freedom {
        config = config.linearizability_only();
    }
    let full_report = verify_case_lts(alg.name(), config, &full_imp, &full_spec, wd)?;
    let red_report = verify_case_lts(alg.name(), config, &red_imp, &red_spec, wd)?;

    let full_lock_free = full_report.lock_freedom.as_ref().map(|r| r.lock_free);
    let reduced_lock_free = red_report.lock_freedom.as_ref().map(|r| r.lock_free);
    let verdicts_match = full_report.linearizable() == red_report.linearizable()
        && full_lock_free == reduced_lock_free;

    Ok(DifferentialReport {
        name: alg.name(),
        mode,
        bound,
        full_states: full_imp.num_states(),
        full_transitions: full_imp.num_transitions(),
        reduced_states: red_imp.num_states(),
        reduced_transitions: red_imp.num_transitions(),
        equivalent,
        verdicts_match,
        full_linearizable: full_report.linearizable(),
        reduced_linearizable: red_report.linearizable(),
        full_lock_free,
        reduced_lock_free,
        stats,
    })
}

/// [`bb_core::verify_case_governed`] over the *reduced* state spaces: the
/// same budget ladder, rungs and verdict scoping, with every exploration
/// replaced by the reducer. Sound because the reduced systems are `≈div`
/// the unreduced ones, and `≈div` preserves and reflects every checked
/// property (Theorems 5.3/5.9 of the paper).
pub fn verify_case_reduced_governed<A, S>(
    alg: &A,
    spec: &AtomicSpec<S>,
    mode: ReduceMode,
    config: &GovernedConfig,
) -> GovernedReport
where
    A: ObjectAlgorithm,
    S: SequentialSpec,
{
    let explorer = |bound: Bound, wd: &Watchdog| {
        let opts = ExploreOptions::governed(wd).with_jobs(config.jobs);
        let (imp, _) = explore_reduced(alg, bound, mode, &opts)?;
        let (sp, _) = explore_reduced(spec, bound, mode, &opts)?;
        Ok((imp, sp))
    };
    verify_case_governed_with(alg.name(), config, &explorer)
}
