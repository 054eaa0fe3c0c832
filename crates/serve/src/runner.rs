//! The shared job runner: one [`JobSpec`] in, one buffered outcome out,
//! byte-identical whether the caller is the `bbv` CLI or a daemon worker
//! thread. This is the single execution path — the CLI does not keep its
//! own copy — so the serve differential guarantee (served bytes equal
//! direct-run bytes) holds by construction and the tests merely confirm it.
//!
//! The runner owns the persistence choreography of one run: it installs
//! the checkpoint session when asked, consults the result cache before
//! computing, isolates the dispatch against panics (a checker bug is an
//! inconclusive outcome, not a crash — essential in a long-lived daemon),
//! always tears the persist session down, and stores conclusive outcomes
//! back into the cache.

use crate::spec::{Command, JobSpec};
use bb_algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*, treiber::Treiber,
    treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};
use bb_bisim::{partition_opts, quotient, Equivalence, PartitionOptions};
use bb_core::{
    format_lasso, run_isolated, verify_case_governed, verify_case_lts, verify_wait_freedom,
    GovernedConfig, Verdict, VerifyConfig,
};
use bb_lts::budget::CancelToken;
use bb_lts::{to_aut, to_dot, Budget, ExploreOptions, Lts, Watchdog};
use bb_persist::{Cache, CacheEntry};
use bb_reduce::{differential_check, explore_reduced, verify_case_reduced_governed, ReduceMode};
use bb_sim::{explore_system_with, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};
use std::path::PathBuf;

/// Exit code: every checked property was proved.
pub const EXIT_PROVED: i32 = 0;
/// Exit code: a property was refuted.
pub const EXIT_REFUTED: i32 = 1;
/// Exit code: budget exhausted or an internal fault.
pub const EXIT_INCONCLUSIVE: i32 = 2;
/// Exit code: usage or parse error.
pub const EXIT_USAGE: i32 = 3;

/// Checkpoint session request for one run. `argv` is recorded verbatim in
/// the checkpoint (it is what `bbv resume` replays), so the CLI passes its
/// raw command line — including the `--checkpoint` flags themselves — and
/// the daemon passes the canonical [`JobSpec::to_argv`] rendering.
#[derive(Debug, Clone)]
pub struct CheckpointCtl {
    /// Checkpoint directory.
    pub dir: PathBuf,
    /// Also cut every N refinement rounds.
    pub every: u64,
    /// The argv to record for `bbv resume`.
    pub argv: Vec<String>,
}

/// Per-run controls orthogonal to the spec: cooperative cancellation and
/// the optional checkpoint session.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    /// Tripping this token makes every governed loop unwind with a
    /// `cancelled` exhaustion at its next check boundary.
    pub cancel: CancelToken,
    /// Install a checkpoint session for this run.
    pub checkpoint: Option<CheckpointCtl>,
    /// Spill cold seen-set segments under this directory when exploration
    /// memory crosses the high-water mark (`--spill`). Local execution
    /// control, not part of the job spec: results are bit-identical with or
    /// without a spill tier.
    pub spill_dir: Option<PathBuf>,
    /// Use the rich-struct hash-map seen-set instead of the compact arena
    /// (`--compact off`). Results are bit-identical either way.
    pub no_compact: bool,
}

/// Buffered stdout plus named artifacts (`dot`, `aut`) of one command run.
/// Buffering is what lets the result cache and the daemon replay the
/// complete observable outcome byte-for-byte.
#[derive(Debug, Default, Clone)]
pub struct RunOutput {
    /// Everything the command would print to stdout.
    pub stdout: String,
    /// Named renderings (quotient `dot`/`aut`), written by the caller to
    /// whatever paths this invocation asked for.
    pub artifacts: Vec<(String, Vec<u8>)>,
}

/// The complete observable outcome of one executed job.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// stdout bytes (cache-replayed verbatim on a hit).
    pub stdout: String,
    /// Process exit code (`0..=3`, see the `EXIT_*` constants).
    pub exit_code: i32,
    /// Named artifacts.
    pub artifacts: Vec<(String, Vec<u8>)>,
    /// Whether the outcome was served from the result cache.
    pub cache_hit: bool,
}

/// `println!` into a [`RunOutput`] buffer.
macro_rules! outln {
    ($out:expr $(, $($arg:tt)*)?) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out.stdout $(, $($arg)*)?);
    }};
}

/// Runs `spec` to completion: checkpoint install, cache lookup, isolated
/// dispatch, cache store. Diagnostics go to stderr as in a direct CLI run;
/// the returned stdout/exit/artifacts are the bytes the CLI would produce.
pub fn execute(spec: &JobSpec, cache: Option<&Cache>, ctl: &RunCtl) -> ExecResult {
    if let Some(ck) = &ctl.checkpoint {
        if let Err(e) = bb_persist::install(&ck.dir, ck.every, ck.argv.clone(), spec.config_tag())
        {
            eprintln!(
                "error: could not open checkpoint directory {}: {e}",
                ck.dir.display()
            );
            return ExecResult {
                stdout: String::new(),
                exit_code: EXIT_USAGE,
                artifacts: Vec::new(),
                cache_hit: false,
            };
        }
    }
    let key = spec.cache_key();
    if spec.cacheable() {
        if let Some(entry) = cache.and_then(|c| c.lookup(&key)) {
            bb_persist::clear();
            return ExecResult {
                stdout: entry.stdout,
                exit_code: entry.exit_code,
                artifacts: entry.artifacts,
                cache_hit: true,
            };
        }
    }
    // A panicking case (a bug in a checker, not a budget trip) is an
    // inconclusive run, not a crash.
    let isolated = run_isolated(|| {
        let mut out = RunOutput::default();
        let code = dispatch_named(spec, ctl, &mut out);
        (code, out)
    });
    // Final checkpoint flush + sink teardown happens whether the dispatch
    // returned or panicked (no-op when no session is installed): a daemon
    // worker must never leak a session into the next job.
    bb_persist::clear();
    let (code, out) = match isolated {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("internal fault (treated as inconclusive): {msg}");
            (EXIT_INCONCLUSIVE, RunOutput::default())
        }
    };
    // Inconclusive outcomes are never cached: they depend on wall-clock
    // budgets and a retry might do better. Usage errors likewise.
    if spec.cacheable() && (code == EXIT_PROVED || code == EXIT_REFUTED) {
        if let Some(c) = cache {
            let entry = CacheEntry {
                key,
                stdout: out.stdout.clone(),
                exit_code: code,
                artifacts: out.artifacts.clone(),
            };
            if let Err(e) = c.store(&entry) {
                bb_obs::diag!("persist: cache store failed: {e}");
            }
        }
    }
    ExecResult {
        stdout: out.stdout,
        exit_code: code,
        artifacts: out.artifacts,
        cache_hit: false,
    }
}

/// The budget of this run: the spec's declarative budget, observed through
/// the caller's cancellation token.
fn budget_of(spec: &JobSpec, ctl: &RunCtl) -> Budget {
    spec.budget().with_cancel_token(ctl.cancel.clone())
}

fn dispatch_named(spec: &JobSpec, ctl: &RunCtl, out: &mut RunOutput) -> i32 {
    let d = &spec.domain;
    let dsize = d.len() as i64;
    let th = spec.threads;
    let ops = spec.ops;
    match spec.algorithm.as_str() {
        "treiber" => dispatch(&Treiber::new(d), &AtomicSpec::new(SeqStack::new(d)), spec, ctl, true, out),
        "treiber-hp" => dispatch(&TreiberHp::new(d, th), &AtomicSpec::new(SeqStack::new(d)), spec, ctl, true, out),
        "treiber-hp-fu" => dispatch(&TreiberHpFu::new(d, th), &AtomicSpec::new(SeqStack::new(d)), spec, ctl, true, out),
        "ms-queue" => dispatch(&MsQueue::new(d), &AtomicSpec::new(SeqQueue::new(d)), spec, ctl, true, out),
        "dglm-queue" => dispatch(&DglmQueue::new(d), &AtomicSpec::new(SeqQueue::new(d)), spec, ctl, true, out),
        "hw-queue" => dispatch(
            &HwQueue::for_bound(d, th, ops),
            &AtomicSpec::new(SeqQueue::new(d)),
            spec,
            ctl,
            true,
            out,
        ),
        "ccas" => dispatch(&Ccas::new(dsize), &AtomicSpec::new(SeqCcas::new(dsize)), spec, ctl, true, out),
        "rdcss" => dispatch(&Rdcss::new(dsize), &AtomicSpec::new(SeqRdcss::new(dsize)), spec, ctl, true, out),
        "newcas" => dispatch(&NewCas::new(dsize), &AtomicSpec::new(SeqRegister::new(dsize)), spec, ctl, true, out),
        "hm-list" => dispatch(&HmList::revised(d), &AtomicSpec::new(SeqSet::new(d)), spec, ctl, true, out),
        "hm-list-buggy" => dispatch(&HmList::buggy(d), &AtomicSpec::new(SeqSet::new(d)), spec, ctl, true, out),
        "hsy-stack" => dispatch(&HsyStack::new(d), &AtomicSpec::new(SeqStack::new(d)), spec, ctl, true, out),
        "lazy-list" => dispatch(&LazyList::new(d), &AtomicSpec::new(SeqSet::new(d)), spec, ctl, false, out),
        "optimistic-list" => dispatch(&OptimisticList::new(d), &AtomicSpec::new(SeqSet::new(d)), spec, ctl, false, out),
        "fine-list" => dispatch(&FineList::new(d), &AtomicSpec::new(SeqSet::new(d)), spec, ctl, false, out),
        "two-lock-queue" => dispatch(&TwoLockQueue::new(d), &AtomicSpec::new(SeqQueue::new(d)), spec, ctl, false, out),
        "coarse-stack" => dispatch(&CoarseLocked::new(SeqStack::new(d)), &AtomicSpec::new(SeqStack::new(d)), spec, ctl, false, out),
        "coarse-queue" => dispatch(&CoarseLocked::new(SeqQueue::new(d)), &AtomicSpec::new(SeqQueue::new(d)), spec, ctl, false, out),
        "coarse-set" => dispatch(&CoarseLocked::new(SeqSet::new(d)), &AtomicSpec::new(SeqSet::new(d)), spec, ctl, false, out),
        other => {
            eprintln!("unknown algorithm `{other}`; try `bbv list`");
            EXIT_USAGE
        }
    }
}

/// Explores under the spec budget; exhaustion is an inconclusive outcome
/// (exit 2), reported with the exhausted stage and its partial statistics.
///
/// With `--reduce`, exploration unfolds the reduced system instead and the
/// reducer counters go to stderr (stdout stays diffable across modes).
///
/// With a checkpoint session installed, a previously completed section
/// seeds the LTS directly, and a freshly explored one is offered back
/// (stage boundaries are always cut points).
///
/// `--compact off` and `--spill` select the seen-set exactly as on the
/// budgeted path.
fn explore_or_inconclusive<A: ObjectAlgorithm>(
    alg: &A,
    bound: Bound,
    wd: &Watchdog,
    spec: &JobSpec,
    ctl: &RunCtl,
) -> Result<Lts, i32> {
    let persist = bb_persist::active();
    let section = format!("{}/b{}-{}", alg.name(), bound.threads, bound.ops_per_thread);
    if let Some(p) = persist.as_ref() {
        if let Some(lts) = p.seed_lts(&section) {
            return Ok(lts);
        }
    }
    let spill = ctl.spill_dir.as_deref().map(bb_persist::SpillDir::new);
    let mut eo = ExploreOptions::governed(wd)
        .with_jobs(spec.jobs)
        .with_compact(!ctl.no_compact);
    if let Some(sd) = spill.as_ref() {
        eo = eo.with_spill(sd);
    }
    let result = if spec.reduce != ReduceMode::None {
        explore_reduced(alg, bound, spec.reduce, &eo).map(|(lts, stats)| {
            bb_obs::diag!("reduction {} [{}]: {stats}", spec.reduce, alg.name());
            lts
        })
    } else {
        explore_system_with(alg, bound, &eo)
    };
    match result {
        Ok(lts) => {
            if let Some(p) = persist.as_ref() {
                p.offer_lts(&section, &lts);
            }
            Ok(lts)
        }
        Err(e) => {
            eprintln!("inconclusive: {e}");
            Err(EXIT_INCONCLUSIVE)
        }
    }
}

fn dispatch<A: ObjectAlgorithm, S: SequentialSpec>(
    alg: &A,
    seq: &AtomicSpec<S>,
    spec: &JobSpec,
    ctl: &RunCtl,
    non_blocking: bool,
    out: &mut RunOutput,
) -> i32 {
    let bound = Bound::new(spec.threads, spec.ops);

    if spec.command == Command::ReduceCheck {
        return reduce_check(alg, seq, spec, bound, non_blocking, out);
    }
    if spec.command == Command::Verify && spec.budgeted() {
        return verify_governed(alg, seq, spec, ctl, bound, non_blocking, out);
    }

    let wd = Watchdog::new(budget_of(spec, ctl));
    let imp = match explore_or_inconclusive(alg, bound, &wd, spec, ctl) {
        Ok(l) => l,
        Err(c) => return c,
    };

    if spec.command == Command::Check {
        let Some(raw) = &spec.formula else {
            eprintln!("`check` needs --formula \"...\"; e.g. --formula \"G F (ret | done)\"");
            return EXIT_USAGE;
        };
        let formula = match bb_ltl::parse(raw) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("formula error {e}");
                return EXIT_USAGE;
            }
        };
        // Model check on the divergence-preserving quotient: it is
        // ≈div-bisimilar to the object, so all next-free LTL carries over.
        let q = bb_bisim::div_quotient_opts(
            &imp,
            PartitionOptions::default()
                .with_jobs(spec.jobs)
                .with_mode(spec.refine),
        );
        let result = match bb_ltl::check_governed(&q.lts, &formula, &wd) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("inconclusive: {e}");
                return EXIT_INCONCLUSIVE;
            }
        };
        outln!(out, "algorithm : {}", alg.name());
        outln!(out, "formula   : {formula}");
        outln!(
            out,
            "checked on: divergence-preserving quotient ({} of {} states)",
            q.lts.num_states(),
            imp.num_states()
        );
        outln!(out, "holds     : {}", result.holds);
        if let Some(ce) = &result.counterexample {
            outln!(out, "counterexample:");
            for line in ce.to_pretty().lines() {
                outln!(out, "  {line}");
            }
        }
        return if result.holds { EXIT_PROVED } else { EXIT_REFUTED };
    }

    if spec.command == Command::Quotient {
        let popts = PartitionOptions::default()
            .with_jobs(spec.jobs)
            .with_mode(spec.refine);
        let p = partition_opts(&imp, Equivalence::Branching, popts);
        let q = quotient(&imp, &p);
        outln!(out, "algorithm : {}", alg.name());
        outln!(out, "bound     : {}-{}", bound.threads, bound.ops_per_thread);
        outln!(out, "|Δ|       : {}", imp.num_states());
        outln!(out, "|Δ/≈|     : {}", q.lts.num_states());
        outln!(
            out,
            "reduction : ×{:.1}",
            imp.num_states() as f64 / q.lts.num_states() as f64
        );
        // Both artifacts are always rendered: the cache stores them so a
        // later hit can honour paths the original invocation did not ask
        // for, and the requested subset is written after dispatch.
        out.artifacts.push(("dot".into(), to_dot(&q.lts, alg.name()).into_bytes()));
        out.artifacts.push(("aut".into(), to_aut(&q.lts).into_bytes()));
        return EXIT_PROVED;
    }

    let sp = match explore_or_inconclusive(seq, bound, &wd, spec, ctl) {
        Ok(l) => l,
        Err(c) => return c,
    };
    let mut cfg = VerifyConfig::new(bound)
        .with_jobs(spec.jobs)
        .with_refine(spec.refine);
    if !spec.check_lock_freedom || !non_blocking {
        cfg = cfg.linearizability_only();
    }
    let report = verify_case_lts(alg.name(), cfg, &imp, &sp);
    outln!(out, "{}", report.summary());
    if let Some(v) = &report.linearizability.violation {
        outln!(out, "non-linearizable history:");
        outln!(out, "  {}", v.to_pretty());
    }
    if let Some(lf) = &report.lock_freedom {
        if let Some(lasso) = &lf.divergence {
            outln!(out, "lock-freedom violation (τ-loop):");
            for line in format_lasso(&imp, lasso).lines() {
                outln!(out, "  {line}");
            }
        }
    }
    if spec.wait_freedom {
        let wf = verify_wait_freedom(&imp, spec.threads);
        if wf.wait_free() {
            outln!(out, "starvation : none under the bounded client");
        } else {
            outln!(out, "starvation : threads {:?} can spin forever", wf.starving_threads());
        }
    }
    let failed = !report.linearizable()
        || report.lock_freedom.as_ref().is_some_and(|l| !l.lock_free);
    if failed {
        EXIT_REFUTED
    } else {
        EXIT_PROVED
    }
}

/// `reduce-check`: run the differential harness — full and reduced state
/// spaces must be `≈div` with identical verdicts. `--reduce` selects the
/// layer under test (default: `full`, both layers).
fn reduce_check<A: ObjectAlgorithm, S: SequentialSpec>(
    alg: &A,
    seq: &AtomicSpec<S>,
    spec: &JobSpec,
    bound: Bound,
    non_blocking: bool,
    out: &mut RunOutput,
) -> i32 {
    let mode = if spec.reduce == ReduceMode::None {
        ReduceMode::Full
    } else {
        spec.reduce
    };
    let lock_freedom = spec.check_lock_freedom && non_blocking;
    match differential_check(alg, seq, bound, mode, spec.jobs, lock_freedom) {
        Ok(r) => {
            outln!(out, "{}", r.render());
            if r.passed() {
                EXIT_PROVED
            } else {
                EXIT_REFUTED
            }
        }
        Err(e) => {
            eprintln!("inconclusive: {e}");
            EXIT_INCONCLUSIVE
        }
    }
}

/// The budget-governed `verify` path: run the fallback ladder and map the
/// overall verdict onto the exit code.
fn verify_governed<A: ObjectAlgorithm, S: SequentialSpec>(
    alg: &A,
    seq: &AtomicSpec<S>,
    spec: &JobSpec,
    ctl: &RunCtl,
    bound: Bound,
    non_blocking: bool,
    out: &mut RunOutput,
) -> i32 {
    let mut config = GovernedConfig::new(bound, budget_of(spec, ctl))
        .with_jobs(spec.jobs)
        .with_refine(spec.refine)
        .with_compact(!ctl.no_compact);
    if let Some(dir) = &ctl.spill_dir {
        config = config.with_spill_dir(dir);
    }
    if !spec.check_lock_freedom || !non_blocking {
        config = config.linearizability_only();
    }
    if spec.no_fallback {
        config = config.no_fallback();
    }
    let report = if spec.reduce == ReduceMode::None {
        verify_case_governed(alg, seq, &config)
    } else {
        verify_case_reduced_governed(alg, seq, spec.reduce, &config)
    };
    {
        use std::fmt::Write as _;
        let _ = write!(out.stdout, "{}", report.render());
    }
    if let Some(details) = &report.details {
        outln!(out, "{}", details.summary());
        if let Some(v) = &details.linearizability.violation {
            outln!(out, "non-linearizable history:");
            outln!(out, "  {}", v.to_pretty());
        }
        if let Some(lf) = &details.lock_freedom {
            if let Some(lasso) = &lf.divergence {
                outln!(
                    out,
                    "lock-freedom violation: τ-loop of {} step(s) after a {}-step prefix",
                    lasso.cycle.len(),
                    lasso.prefix.len()
                );
            }
        }
    }
    match report.overall() {
        Verdict::Proved => EXIT_PROVED,
        Verdict::Refuted => EXIT_REFUTED,
        Verdict::Inconclusive { .. } => EXIT_INCONCLUSIVE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::Jobs;

    fn spec(alg: &str) -> JobSpec {
        JobSpec {
            algorithm: alg.into(),
            threads: 2,
            ops: 1,
            jobs: Jobs::new(1),
            ..JobSpec::default()
        }
    }

    #[test]
    fn verify_and_quotient_produce_buffered_outcomes() {
        let r = execute(&spec("treiber"), None, &RunCtl::default());
        assert_eq!(r.exit_code, EXIT_PROVED);
        assert!(!r.cache_hit);
        assert!(r.stdout.contains("Treiber"), "{}", r.stdout);
        let mut q = spec("treiber");
        q.command = Command::Quotient;
        let r = execute(&q, None, &RunCtl::default());
        assert_eq!(r.exit_code, EXIT_PROVED);
        let names: Vec<&str> = r.artifacts.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["dot", "aut"]);
    }

    #[test]
    fn cache_roundtrip_is_byte_identical_and_counted() {
        let dir = std::env::temp_dir().join(format!("bb-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).unwrap();
        let mut s = spec("treiber");
        s.command = Command::Quotient;
        let cold = execute(&s, Some(&cache), &RunCtl::default());
        assert!(!cold.cache_hit);
        let warm = execute(&s, Some(&cache), &RunCtl::default());
        assert!(warm.cache_hit);
        assert_eq!(warm.stdout, cold.stdout);
        assert_eq!(warm.exit_code, cold.exit_code);
        assert_eq!(warm.artifacts, cold.artifacts);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_tripped_cancel_token_is_inconclusive() {
        let ctl = RunCtl::default();
        ctl.cancel.cancel();
        let mut s = spec("ms-queue");
        s.timeout = Some(std::time::Duration::from_secs(3600));
        let r = execute(&s, None, &ctl);
        assert_eq!(r.exit_code, EXIT_INCONCLUSIVE);
    }
}
