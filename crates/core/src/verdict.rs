//! Three-valued verdicts and the budget fallback ladder.
//!
//! A budget-governed verification can end three ways: the property was
//! **proved**, it was **refuted** (with a counterexample in the underlying
//! report), or the budget ran out first and the outcome is **inconclusive**
//! — never silently wrong. [`verify_case_governed`] wraps the full pipeline
//! of [`verify_case`](crate::verify_case) in a [`Watchdog`] and, when a
//! stage exhausts its budget, walks a fallback ladder:
//!
//! 1. [`Rung::Direct`] — the pipeline as requested;
//! 2. [`Rung::StrongReduction`] — pre-reduce both systems by their *strong*
//!    bisimulation quotients first. Strong bisimilarity refines branching
//!    bisimilarity and preserves/reflects divergence, so every verdict on
//!    the reduced systems is a verdict on the originals;
//! 3. [`Rung::ReducedBound`] — retry at a smaller client bound. Histories
//!    of the smaller client embed in the larger one, so a *refutation*
//!    transfers soundly to the requested bound, but a proof does not: a
//!    positive answer is downgraded to [`Verdict::Inconclusive`] naming the
//!    bound that was actually covered.
//!
//! The wall-clock deadline and the cancellation token are **global** to the
//! ladder — a blown deadline fails the remaining rungs fast — while
//! state/transition/memory caps are per stage and reset on every rung.

use crate::report::{verify_case_lts, CaseReport, VerifyConfig};
use bb_bisim::PartitionOptions;
use bb_lts::budget::{Budget, Exhausted, Watchdog};
use bb_lts::{ExploreOptions, Jobs, Lts};
use bb_sim::{explore_system_with, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};
use std::fmt;
use std::time::{Duration, Instant};

/// Three-valued outcome of a governed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The property holds at the requested bound.
    Proved,
    /// The property fails; the underlying report has the counterexample.
    Refuted,
    /// The budget ran out before a sound answer was reached.
    Inconclusive {
        /// What prevented an answer (exhausted stage, reduced-bound scope…).
        reason: String,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }

    /// `true` for [`Verdict::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted)
    }

    /// `true` for [`Verdict::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::Inconclusive { .. })
    }

    fn of(holds: bool) -> Verdict {
        if holds {
            Verdict::Proved
        } else {
            Verdict::Refuted
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proved => write!(f, "proved"),
            Verdict::Refuted => write!(f, "refuted"),
            Verdict::Inconclusive { reason } => write!(f, "inconclusive ({reason})"),
        }
    }
}

/// A rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The pipeline exactly as requested.
    Direct,
    /// Strong-bisimulation pre-reduction of both systems.
    StrongReduction,
    /// The requested pipeline at a smaller client bound.
    ReducedBound,
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rung::Direct => write!(f, "direct"),
            Rung::StrongReduction => write!(f, "strong-reduction"),
            Rung::ReducedBound => write!(f, "reduced-bound"),
        }
    }
}

/// Record of one ladder rung: what was tried and how it ended.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The rung.
    pub rung: Rung,
    /// The client bound the rung ran at.
    pub bound: Bound,
    /// `None` when the rung completed; the exhaustion otherwise.
    pub failure: Option<Exhausted>,
}

/// Configuration of [`verify_case_governed`].
#[derive(Debug, Clone)]
pub struct GovernedConfig {
    /// Client bound (`#Th.-#Op.`).
    pub bound: Bound,
    /// Resource budget; the deadline and cancellation token span the whole
    /// ladder, the caps apply per stage.
    pub budget: Budget,
    /// Whether to run the lock-freedom check.
    pub check_lock_freedom: bool,
    /// Whether to walk the fallback ladder after a budget exhaustion
    /// (disable for a single direct attempt).
    pub fallback: bool,
    /// Worker threads for the parallel exploration and refinement passes.
    /// Deterministic: verdicts and reports are identical at any count.
    pub jobs: Jobs,
    /// Spill cold seen-set segments to this directory when exploration
    /// memory crosses the high-water mark. Deterministic: spill decisions
    /// happen only at level boundaries, so verdicts are identical with or
    /// without a spill tier.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl GovernedConfig {
    /// Default configuration: check both properties under `budget` with the
    /// fallback ladder enabled, on the sequential engine.
    pub fn new(bound: Bound, budget: Budget) -> Self {
        GovernedConfig {
            bound,
            budget,
            check_lock_freedom: true,
            fallback: true,
            jobs: Jobs::serial(),
            spill_dir: None,
        }
    }

    /// Skip the lock-freedom check (for lock-based algorithms).
    pub fn linearizability_only(mut self) -> Self {
        self.check_lock_freedom = false;
        self
    }

    /// Disable the fallback ladder.
    pub fn no_fallback(mut self) -> Self {
        self.fallback = false;
        self
    }

    /// Use `jobs` worker threads for exploration and refinement.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Spill cold seen-set segments under `dir` (see
    /// [`GovernedConfig::spill_dir`]).
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// Outcome of a governed verification: per-property verdicts plus the
/// ladder trace that produced them.
#[derive(Debug, Clone)]
pub struct GovernedReport {
    /// Algorithm name.
    pub name: &'static str,
    /// The bound the caller asked for.
    pub requested_bound: Bound,
    /// Linearizability verdict.
    pub linearizability: Verdict,
    /// Lock-freedom verdict, when the check was requested.
    pub lock_freedom: Option<Verdict>,
    /// Which rung (and at which bound) produced the verdicts, when any
    /// rung completed.
    pub answered: Option<(Rung, Bound)>,
    /// Every rung that was tried, in order.
    pub attempts: Vec<Attempt>,
    /// The full classical report of the answering rung.
    pub details: Option<CaseReport>,
    /// The Δ the answering rung checked: the explored implementation, or
    /// its strong quotient on the strong-reduction rung. Output only; it
    /// is the ladder's own LTS, moved out, never a copy.
    pub imp: Option<Lts>,
    /// Total wall-clock time across all rungs.
    pub elapsed: Duration,
}

impl GovernedReport {
    /// Collapses the per-property verdicts for exit-code purposes: refuted
    /// dominates, then inconclusive, then proved.
    pub fn overall(&self) -> Verdict {
        let verdicts =
            std::iter::once(&self.linearizability).chain(self.lock_freedom.iter());
        let mut inconclusive: Option<&Verdict> = None;
        for v in verdicts {
            match v {
                Verdict::Refuted => return Verdict::Refuted,
                Verdict::Inconclusive { .. } => inconclusive = Some(v),
                Verdict::Proved => {}
            }
        }
        inconclusive.cloned().unwrap_or(Verdict::Proved)
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} {}-{}: linearizability {}",
            self.name,
            self.requested_bound.threads,
            self.requested_bound.ops_per_thread,
            self.linearizability
        );
        if let Some(lf) = &self.lock_freedom {
            let _ = writeln!(out, "{} lock-freedom {}", " ".repeat(self.name.len()), lf);
        }
        match &self.answered {
            Some((rung, bound)) => {
                let _ = writeln!(
                    out,
                    "answered by the {} rung at bound {}-{} in {:.1?}",
                    rung, bound.threads, bound.ops_per_thread, self.elapsed
                );
            }
            None => {
                let _ = writeln!(out, "no ladder rung completed in {:.1?}", self.elapsed);
            }
        }
        for a in &self.attempts {
            match &a.failure {
                None => {
                    let _ = writeln!(
                        out,
                        "  rung {} ({}-{}): completed",
                        a.rung, a.bound.threads, a.bound.ops_per_thread
                    );
                }
                Some(e) => {
                    let _ = writeln!(
                        out,
                        "  rung {} ({}-{}): {}",
                        a.rung, a.bound.threads, a.bound.ops_per_thread, e
                    );
                }
            }
        }
        out
    }
}

/// The next smaller client bound to retry at, or `None` at the floor.
fn reduced_bound(b: Bound) -> Option<Bound> {
    if b.ops_per_thread > 1 {
        Some(Bound::new(b.threads, b.ops_per_thread - 1))
    } else if b.threads > 1 {
        Some(Bound::new(b.threads - 1, 1))
    } else {
        None
    }
}

/// Explores `sys`, the implementation (`role` `imp`) or the specification
/// (`spec`) of `case`, at `bound` with `opts`, through the active
/// checkpoint session: a section an earlier run completed seeds the LTS,
/// and a fresh exploration is offered back. Every explored LTS of a run
/// goes through here, so one scheme names every section:
/// `{case}/e{STATE_ENCODING_VERSION}/b{threads}-{ops}/{role}`.
///
/// # Errors
///
/// Returns [`Exhausted`] (stage `explore`) when any budget axis trips.
pub fn explore_checkpointed<A: ObjectAlgorithm>(
    case: &str,
    role: &str,
    sys: &A,
    bound: Bound,
    opts: &ExploreOptions<'_>,
) -> Result<Lts, Exhausted> {
    // Completed explorations are the coarsest checkpoint unit: a resumed
    // run reloads them from the session instead of re-exploring. Section
    // names encode the pipeline position; the session's config tag pins
    // everything else (case, bound, domain, ...), so a section can never
    // seed a different setup. The state-encoding version is part of the
    // section identity: a checkpointed LTS from an older encoding must
    // never seed a run whose (version-bumped) encoding could enumerate
    // differently.
    let section = format!(
        "{case}/e{}/b{}-{}/{role}",
        bb_sim::STATE_ENCODING_VERSION,
        bound.threads,
        bound.ops_per_thread
    );
    let persist = bb_persist::active();
    if let Some(lts) = persist.as_ref().and_then(|p| p.seed_lts(&section)) {
        return Ok(lts);
    }
    let lts = explore_system_with(sys, bound, opts)?;
    if let Some(p) = persist.as_ref() {
        p.offer_lts(&section, &lts);
    }
    Ok(lts)
}

/// The explored (implementation, specification) pair at `bound`, lent out
/// of `cache`. On a miss the cache is refilled by
/// [`explore_checkpointed`]; the pair is never copied.
fn explore_pair<'c, A, S>(
    alg: &A,
    spec: &AtomicSpec<S>,
    bound: Bound,
    cache: &'c mut Option<(Bound, Lts, Lts)>,
    opts: &ExploreOptions<'_>,
) -> Result<(&'c Lts, &'c Lts), Exhausted>
where
    A: ObjectAlgorithm,
    S: SequentialSpec,
{
    if !cache.as_ref().is_some_and(|(b, _, _)| *b == bound) {
        // No later rung returns to another bound, so its pair can go
        // before this one is built.
        *cache = None;
        let imp = explore_checkpointed(alg.name(), "imp", alg, bound, opts)?;
        let sp = explore_checkpointed(alg.name(), "spec", spec, bound, opts)?;
        *cache = Some((bound, imp, sp));
    }
    let (_, imp, sp) = cache.as_ref().expect("the cache holds `bound`");
    Ok((imp, sp))
}

/// Moves the implementation LTS out of the pair cache.
fn take_imp(cache: &mut Option<(Bound, Lts, Lts)>) -> Lts {
    let (_, imp, _) = cache.take().expect("the answering rung explored its pair");
    imp
}

/// Strong-bisimulation pre-reduction: replace `lts` by its strong quotient.
fn strong_reduce(lts: &Lts, wd: &Watchdog, opts: PartitionOptions) -> Result<Lts, Exhausted> {
    let p = bb_bisim::partition_governed_opts(lts, bb_bisim::Equivalence::Strong, wd, opts)?;
    Ok(bb_bisim::quotient(lts, &p).lts)
}

/// Runs one ladder rung under its `rung` span and records the attempt.
fn attempt<T>(
    attempts: &mut Vec<Attempt>,
    rung: Rung,
    bound: Bound,
    run: impl FnOnce() -> Result<T, Exhausted>,
) -> Option<T> {
    let span = bb_obs::span("rung")
        .with("rung", rung.to_string())
        .with("threads", bound.threads as u64)
        .with("ops", bound.ops_per_thread as u64);
    let result = run();
    span.record("ok", u64::from(result.is_ok()));
    drop(span);
    let (answer, failure) = match result {
        Ok(t) => (Some(t), None),
        Err(e) => (None, Some(e)),
    };
    attempts.push(Attempt { rung, bound, failure });
    answer
}

/// Verifies `alg` against `spec` under a resource budget, degrading
/// gracefully through the fallback ladder instead of running away or
/// panicking. See the module docs for the ladder and its soundness
/// argument.
pub fn verify_case_governed<A, S>(
    alg: &A,
    spec: &AtomicSpec<S>,
    config: &GovernedConfig,
) -> GovernedReport
where
    A: ObjectAlgorithm,
    S: SequentialSpec,
{
    let start = Instant::now();
    let name = alg.name();
    let wd = Watchdog::new(config.budget.clone());
    let spill_dir = config.spill_dir.as_deref().map(bb_persist::SpillDir::new);
    let mut eopts = ExploreOptions::governed(&wd).with_jobs(config.jobs);
    if let Some(sd) = spill_dir.as_ref() {
        eopts = eopts.with_spill(sd);
    }
    let popts = PartitionOptions::default().with_jobs(config.jobs);
    let mut attempts: Vec<Attempt> = Vec::new();
    // The explored pair of the last bound tried; a later rung at the same
    // bound borrows it instead of exploring again.
    let mut cache: Option<(Bound, Lts, Lts)> = None;
    let case = VerifyConfig {
        check_lock_freedom: config.check_lock_freedom,
        ..VerifyConfig::new(config.bound).with_jobs(config.jobs)
    };
    let check = |bound: Bound, imp: &Lts, sp: &Lts| {
        verify_case_lts(name, VerifyConfig { bound, ..case }, imp, sp, &wd)
    };

    // `verdict(holds, property)` maps a rung's answer onto a verdict.
    let finish = |attempts: Vec<Attempt>,
                  answered: (Rung, Bound),
                  report: CaseReport,
                  imp: Lts,
                  verdict: &dyn Fn(bool, &str) -> Verdict| GovernedReport {
        name,
        requested_bound: config.bound,
        linearizability: verdict(report.linearizable(), "linearizability"),
        lock_freedom: report
            .lock_freedom
            .as_ref()
            .map(|r| verdict(r.lock_free, "lock-freedom")),
        answered: Some(answered),
        attempts,
        details: Some(report),
        imp: Some(imp),
        elapsed: start.elapsed(),
    };
    let genuine = |holds: bool, _: &str| Verdict::of(holds);

    // --- Rung 1: direct --------------------------------------------------
    let direct = attempt(&mut attempts, Rung::Direct, config.bound, || {
        let (imp, sp) = explore_pair(alg, spec, config.bound, &mut cache, &eopts)?;
        check(config.bound, imp, sp)
    });
    if let Some(report) = direct {
        let imp = take_imp(&mut cache);
        return finish(attempts, (Rung::Direct, config.bound), report, imp, &genuine);
    }

    if config.fallback {
        // --- Rung 2: strong pre-reduction --------------------------------
        // Only applicable when the exploration itself succeeded: the
        // reduction runs on the explored systems.
        if cache.as_ref().is_some_and(|(b, _, _)| *b == config.bound) {
            let strong = attempt(&mut attempts, Rung::StrongReduction, config.bound, || {
                let (imp, sp) = explore_pair(alg, spec, config.bound, &mut cache, &eopts)?;
                let imp_r = strong_reduce(imp, &wd, popts)?;
                let sp_r = strong_reduce(sp, &wd, popts)?;
                Ok((check(config.bound, &imp_r, &sp_r)?, imp_r))
            });
            // Strong bisimilarity preserves every checked property, so
            // these verdicts are genuine for the requested bound.
            if let Some((report, imp_r)) = strong {
                let answered = (Rung::StrongReduction, config.bound);
                return finish(attempts, answered, report, imp_r, &genuine);
            }
        }

        // --- Rung 3: reduced bound ---------------------------------------
        if let Some(small) = reduced_bound(config.bound) {
            let reduced = attempt(&mut attempts, Rung::ReducedBound, small, || {
                let (imp, sp) = explore_pair(alg, spec, small, &mut cache, &eopts)?;
                check(small, imp, sp)
            });
            if let Some(report) = reduced {
                // Histories at the smaller bound embed in the requested
                // bound, so refutations transfer; proofs do not.
                let scoped = |holds: bool, what: &str| {
                    if holds {
                        Verdict::Inconclusive {
                            reason: format!(
                                "{what} verified only at reduced bound {}-{}; \
                                 budget exhausted at requested bound {}-{}",
                                small.threads,
                                small.ops_per_thread,
                                config.bound.threads,
                                config.bound.ops_per_thread
                            ),
                        }
                    } else {
                        Verdict::Refuted
                    }
                };
                let imp = take_imp(&mut cache);
                return finish(attempts, (Rung::ReducedBound, small), report, imp, &scoped);
            }
        }
    }

    // Every rung exhausted: inconclusive across the board, naming the last
    // exhaustion.
    let reason = attempts
        .last()
        .and_then(|a| a.failure.as_ref())
        .map(|e| e.to_string())
        .unwrap_or_else(|| "budget exhausted".to_string());
    let inconclusive = Verdict::Inconclusive { reason };
    GovernedReport {
        name,
        requested_bound: config.bound,
        linearizability: inconclusive.clone(),
        lock_freedom: config.check_lock_freedom.then(|| inconclusive.clone()),
        answered: None,
        attempts,
        details: None,
        imp: None,
        elapsed: start.elapsed(),
    }
}

/// Runs `f` with panics contained: a panicking verification (a bug, not a
/// budget trip) is reported as an `Err` with the panic message instead of
/// tearing down the whole sweep.
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::ms_queue::MsQueue;
    use bb_algorithms::specs::SeqQueue;

    fn msq() -> (MsQueue, AtomicSpec<SeqQueue>) {
        (MsQueue::new(&[1]), AtomicSpec::new(SeqQueue::new(&[1])))
    }

    #[test]
    fn unlimited_budget_answers_on_the_direct_rung() {
        let (alg, spec) = msq();
        let config = GovernedConfig::new(Bound::new(2, 1), Budget::unlimited());
        let r = verify_case_governed(&alg, &spec, &config);
        assert_eq!(r.linearizability, Verdict::Proved);
        assert_eq!(r.lock_freedom, Some(Verdict::Proved));
        assert_eq!(r.answered, Some((Rung::Direct, Bound::new(2, 1))));
        assert_eq!(r.overall(), Verdict::Proved);
        assert_eq!(r.attempts.len(), 1);
    }

    #[test]
    fn zero_deadline_is_inconclusive_not_wrong() {
        let (alg, spec) = msq();
        let config = GovernedConfig::new(
            Bound::new(2, 2),
            Budget::unlimited().with_deadline(Duration::ZERO),
        );
        let r = verify_case_governed(&alg, &spec, &config);
        assert!(r.linearizability.is_inconclusive(), "{:?}", r.linearizability);
        assert!(r.answered.is_none());
        assert!(r.overall().is_inconclusive());
        // The deadline is global: no rung can complete, and each recorded
        // attempt names its exhaustion.
        assert!(r.attempts.iter().all(|a| a.failure.is_some()));
    }

    #[test]
    fn ladder_answers_via_reduced_bound_under_state_cap() {
        let (alg, spec) = msq();
        // A state cap too small for 2-2 exploration but enough for 2-1.
        let config = GovernedConfig::new(
            Bound::new(2, 2),
            Budget::unlimited().with_max_states(2_000),
        );
        let r = verify_case_governed(&alg, &spec, &config);
        match &r.answered {
            Some((Rung::ReducedBound, b)) => {
                assert_eq!(*b, Bound::new(2, 1));
                // MS queue is linearizable, so at the reduced bound the
                // positive answer must be downgraded to inconclusive.
                assert!(r.linearizability.is_inconclusive());
                let Verdict::Inconclusive { reason } = &r.linearizability else {
                    unreachable!()
                };
                assert!(reason.contains("reduced bound 2-1"), "{reason}");
            }
            other => panic!("expected a reduced-bound answer, got {other:?}"),
        }
        assert!(r.overall().is_inconclusive());
    }

    #[test]
    fn overall_verdict_prefers_refuted() {
        let r = GovernedReport {
            name: "x",
            requested_bound: Bound::new(1, 1),
            linearizability: Verdict::Inconclusive {
                reason: "t".into(),
            },
            lock_freedom: Some(Verdict::Refuted),
            answered: None,
            attempts: vec![],
            details: None,
            imp: None,
            elapsed: Duration::ZERO,
        };
        assert_eq!(r.overall(), Verdict::Refuted);
    }

    #[test]
    fn run_isolated_contains_panics() {
        let ok = run_isolated(|| 7);
        assert_eq!(ok, Ok(7));
        let err = run_isolated(|| -> u32 { panic!("boom {}", 42) }).unwrap_err();
        assert!(err.contains("boom 42"), "{err}");
    }

    #[test]
    fn render_names_the_exhausted_stage() {
        let (alg, spec) = msq();
        let config = GovernedConfig::new(
            Bound::new(2, 2),
            Budget::unlimited().with_deadline(Duration::ZERO),
        );
        let r = verify_case_governed(&alg, &spec, &config);
        let text = r.render();
        assert!(text.contains("inconclusive"), "{text}");
        assert!(text.contains("explore"), "{text}");
        assert!(text.contains("deadline"), "{text}");
    }
}
