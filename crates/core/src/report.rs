//! One-call verification pipeline for an algorithm/specification pair.

use crate::linearizability::{branching_quotient, verify_linearizability_pre, LinReport};
use bb_bisim::{Lasso, PartitionOptions};
use crate::lockfree::{verify_lock_freedom_pre, LockFreeReport};
use bb_lts::budget::{Exhausted, Watchdog};
use bb_lts::{ExploreError, ExploreLimits, Jobs, Lts};
use bb_lts::ExploreOptions;
use bb_sim::{explore_system_with, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};

/// Configuration of [`verify_case`].
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// Client bound (`#Th.-#Op.`).
    pub bound: Bound,
    /// Exploration limits.
    pub limits: ExploreLimits,
    /// Whether to run the lock-freedom check (skipped for the lock-based
    /// fine-grained lists of Table II, which are not lock-free by design).
    pub check_lock_freedom: bool,
    /// Worker threads for the parallel exploration and refinement passes.
    /// Deterministic: the report is identical at any count.
    pub jobs: Jobs,
}

impl VerifyConfig {
    /// Default configuration for `bound`: explore with default limits and
    /// check both properties on the sequential engine.
    pub fn new(bound: Bound) -> Self {
        VerifyConfig {
            bound,
            limits: ExploreLimits::default(),
            check_lock_freedom: true,
            jobs: Jobs::serial(),
        }
    }

    /// Skip the lock-freedom check (for lock-based algorithms).
    pub fn linearizability_only(mut self) -> Self {
        self.check_lock_freedom = false;
        self
    }

    /// Use `jobs` worker threads for exploration and refinement.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Combined verification report for one case study (one row of Table II).
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Algorithm name.
    pub name: &'static str,
    /// The bound used.
    pub bound: Bound,
    /// Linearizability result (Theorem 5.3).
    pub linearizability: LinReport,
    /// Lock-freedom result (Theorem 5.9), when checked.
    pub lock_freedom: Option<LockFreeReport>,
}

impl CaseReport {
    /// Whether the object is linearizable.
    pub fn linearizable(&self) -> bool {
        self.linearizability.linearizable
    }

    /// Whether the object is lock-free (`false` if the check was skipped).
    pub fn lock_free(&self) -> bool {
        self.lock_freedom.as_ref().is_some_and(|r| r.lock_free)
    }

    /// One-line summary in the style of Table II.
    pub fn summary(&self) -> String {
        let lin = if self.linearizable() { "✓" } else { "✗" };
        let lf = match &self.lock_freedom {
            None => "—".to_string(),
            Some(r) if r.lock_free => "✓".to_string(),
            Some(_) => "✗".to_string(),
        };
        format!(
            "{:<34} {}-{}  lin={}  lock-free={}  |Δ|={}  |Δ/≈|={}",
            self.name,
            self.bound.threads,
            self.bound.ops_per_thread,
            lin,
            lf,
            self.linearizability.impl_states,
            self.linearizability.impl_quotient_states,
        )
    }
}

/// Explores `alg` and its specification under `config.bound` and runs both
/// verification methods of Fig. 1.
///
/// # Errors
///
/// Returns [`ExploreError`] if either state space exceeds the limits.
pub fn verify_case<A, S>(
    alg: &A,
    spec: &AtomicSpec<S>,
    config: VerifyConfig,
) -> Result<CaseReport, ExploreError>
where
    A: ObjectAlgorithm,
    S: SequentialSpec,
{
    let opts = ExploreOptions::limits(config.limits).with_jobs(config.jobs);
    let imp = explore_system_with(alg, config.bound, &opts).map_err(ExploreError::from)?;
    let sp = explore_system_with(spec, config.bound, &opts).map_err(ExploreError::from)?;
    Ok(verify_case_lts(alg.name(), config, &imp, &sp, &Watchdog::unlimited())
        .expect("an unlimited watchdog never trips"))
}

/// Both methods of Fig. 1 over explored LTSs, metered against `wd` — the
/// pipeline of [`verify_case`], of every rung of the governed ladder and of
/// an unbudgeted `bbv verify`. Δ is partitioned and quotiented once, and
/// the linearizability check refines Δ/≈ against Θsp/≈. The lock-freedom
/// check is one τ-cycle search over Δ (see
/// [`verify_lock_freedom`](crate::verify_lock_freedom)). `config.limits` is
/// not read: the LTSs are already explored.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget trips before both verdicts; an
/// aborted check must be treated as *unknown*, never as a verdict.
pub fn verify_case_lts(
    name: &'static str,
    config: VerifyConfig,
    imp: &Lts,
    spec: &Lts,
    wd: &Watchdog,
) -> Result<CaseReport, Exhausted> {
    let opts = PartitionOptions::default().with_jobs(config.jobs);
    let q_imp = branching_quotient(imp, wd, opts)?;
    let linearizability = verify_linearizability_pre(imp, spec, wd, opts, &q_imp)?;
    let lock_freedom = if config.check_lock_freedom {
        Some(verify_lock_freedom_pre(imp, wd, q_imp.lts.num_states())?)
    } else {
        None
    };
    Ok(CaseReport {
        name,
        bound: config.bound,
        linearizability,
        lock_freedom,
    })
}

/// Renders a divergence/starvation lasso in the CADP style of Fig. 9:
/// the prefix actions, then the repeated τ-loop.
pub fn format_lasso(lts: &Lts, lasso: &Lasso) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("<initial state>\n");
    for (_, a, _) in &lasso.prefix {
        let _ = writeln!(out, "\"{}\"", lts.action(*a));
    }
    out.push_str("-- τ-loop (divergence) --\n");
    for (_, a, _) in &lasso.cycle {
        let _ = writeln!(out, "\"{}\"", lts.action(*a));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::specs::SeqQueue;
    use bb_algorithms::ms_queue::MsQueue;

    #[test]
    fn ms_queue_case() {
        let report = verify_case(
            &MsQueue::new(&[1]),
            &AtomicSpec::new(SeqQueue::new(&[1])),
            VerifyConfig::new(Bound::new(2, 1)),
        )
        .unwrap();
        assert!(report.linearizable());
        assert!(report.lock_free());
        let s = report.summary();
        assert!(s.contains("lin=✓"));
        assert!(s.contains("lock-free=✓"));
    }

    #[test]
    fn lasso_formatting() {
        use bb_lts::{Action, LtsBuilder, ThreadId};
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let call = b.intern_action(Action::call(ThreadId(1), "m", None));
        let tau = b.intern_action(Action::tau_tagged(ThreadId(1), "L3"));
        b.add_transition(s0, call, s1);
        b.add_transition(s1, tau, s1);
        let lts = b.build(s0);
        let lasso = bb_bisim::divergence_witness(&lts).unwrap();
        let text = format_lasso(&lts, &lasso);
        assert!(text.contains("<initial state>"));
        assert!(text.contains("t1.call.m"));
        assert!(text.contains("τ-loop"));
        assert!(text.contains("t1.tau[L3]"));
    }

    #[test]
    fn linearizability_only_skips_lock_freedom() {
        let report = verify_case(
            &MsQueue::new(&[1]),
            &AtomicSpec::new(SeqQueue::new(&[1])),
            VerifyConfig::new(Bound::new(2, 1)).linearizability_only(),
        )
        .unwrap();
        assert!(report.lock_freedom.is_none());
        assert!(report.summary().contains("lock-free=—"));
    }
}
