//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p bb-bench --bin tables -- all
//! cargo run --release -p bb-bench --bin tables -- table3 --large
//! ```
//!
//! Subcommands: `table1` … `table7`, `fig10`, `all`, plus `verdicts`
//! (machine-diffable verdict lines; CI diffs them across `--jobs` and a
//! warm `--cache`), and `phases` (per-phase wall-clock breakdown of the
//! verification pipeline, collected through bb-obs spans — the
//! EXPERIMENTS.md observability table). The `--large` flag extends the
//! sweeps towards the paper's original configurations (minutes of runtime
//! instead of seconds); `--jobs N` runs exploration and refinement on N
//! worker threads (deterministic — only timings change). An unknown option,
//! or one the subcommand would ignore, exits 3 and names it. Absolute state
//! counts and times differ from the paper (different front end, hardware and
//! heap canonicalization — see DESIGN.md); the *shape* of every result is
//! reproduced.

use bb_algorithms::roster::{with_case, Case, ALGORITHMS};
use bb_bench::{check, lts_of_jobs, mark, sabotage_point};
use bb_bisim::{bisimilar_opts, partition_opts, quotient, Equivalence, PartitionOptions};
use bb_core::{
    verify_case_lts, verify_linearizability_opts, verify_lock_freedom_opts,
    verify_lock_freedom_via_abstraction_opts, CaseReport, VerifyConfig,
};
use bb_ktrace::{classify_tau_edges, KtraceLimits};
use bb_lts::{Exhausted, ExploreError, ExploreLimits, ExploreOptions, Jobs, Lts, Watchdog};
use bb_persist::{Cache, CacheEntry};
use bb_sim::{explore_system_with, AtomicSpec, Bound, ObjectAlgorithm, SequentialSpec};
use std::time::Instant;

use bb_algorithms::abstracts::AbsQueue;
use bb_algorithms::{
    ccas::Ccas, dglm_queue::DglmQueue, hm_list::HmList, hsy_stack::HsyStack, hw_queue::HwQueue,
    lazy_list::LazyList, ms_queue::MsQueue, newcas::NewCas, rdcss::Rdcss, specs::*,
    treiber::Treiber, treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(3);
        }
    };
    let Opts { large, jobs, cache } = opts;
    match cmd {
        "verdicts" => guarded("verdicts", || verdicts(jobs, cache)),
        "phases" => phases(jobs),
        "table1" => guarded("table1", || table1(jobs)),
        "table2" => guarded("table2", || table2(jobs)),
        "table3" => guarded("table3", || table3(large, jobs)),
        "table4" => guarded("table4", || table4(large, jobs)),
        "table5" => guarded("table5", || table5(jobs)),
        "table6" => guarded("table6", || table6(large, jobs)),
        "table7" => guarded("table7", || table7(jobs)),
        "fig10" => guarded("fig10", || fig10(large, jobs)),
        "all" => {
            guarded("table1", || table1(jobs));
            guarded("table2", || table2(jobs));
            guarded("table3", || table3(large, jobs));
            guarded("table4", || table4(large, jobs));
            guarded("table5", || table5(jobs));
            guarded("table6", || table6(large, jobs));
            guarded("table7", || table7(jobs));
            guarded("fig10", || fig10(large, jobs));
        }
        _ => unreachable!("parse_args admits only the subcommands above"),
    }
}

const USAGE: &str = "usage: tables [table1..table7|fig10|verdicts|phases|all] \
                     [--large] [--jobs N] [--cache DIR]";

/// The sweeps that read `--large`.
const LARGE_SWEEPS: [&str; 5] = ["table3", "table4", "table6", "fig10", "all"];

/// The options of a `tables` run.
struct Opts {
    /// Extend the sweeps towards the paper's original configurations.
    large: bool,
    /// Exploration and refinement workers (default: all cores). Every table
    /// is deterministic in the worker count — only the timing columns change.
    jobs: Jobs,
    /// Per-case result cache of the `verdicts` sweep: a second sweep over
    /// the same roster replays every verdict line from the cache
    /// byte-identically (the cache-soundness CI job diffs exactly that).
    cache: Option<Cache>,
}

/// Walks argv once: the subcommand (default `all`), then its options. An
/// unknown option, or one the subcommand would ignore, is an error naming
/// it.
fn parse_args(args: &[String]) -> Result<(&str, Opts), String> {
    let cmd = args.first().map_or("all", String::as_str);
    let known = [
        "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig10",
        "verdicts", "phases", "all",
    ];
    if !known.contains(&cmd) {
        return Err(format!("unknown subcommand `{cmd}`"));
    }
    let mut large = false;
    let mut jobs = Jobs::available();
    let mut cache_dir = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--large" if LARGE_SWEEPS.contains(&cmd) => large = true,
            "--jobs" => {
                let raw = it.next().ok_or("--jobs needs a thread count")?;
                let n: usize = raw.parse().map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Jobs::new(n);
            }
            "--cache" if cmd == "verdicts" => {
                cache_dir = Some(it.next().ok_or("--cache needs a directory")?);
            }
            "--large" | "--cache" => return Err(format!("{a} does not apply to `{cmd}`")),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let cache = match cache_dir {
        Some(dir) => Some(
            Cache::open(std::path::Path::new(dir)).map_err(|e| format!("--cache {dir}: {e}"))?,
        ),
        None => None,
    };
    Ok((cmd, Opts { large, jobs, cache }))
}

/// Runs one table with panic isolation: a fault in any table aborts only
/// that table, so an `all` sweep still produces every other result.
fn guarded(name: &str, f: impl FnOnce()) {
    if let Err(fault) = bb_core::run_isolated(f) {
        eprintln!(
            "[{name}] aborted by internal fault (treated as inconclusive): {}",
            fault.lines().next().unwrap_or("panic")
        );
    }
}

/// Partition options for `--jobs N`. The tables cap exploration only; their
/// later stages run under `Watchdog::unlimited()`.
fn popts(jobs: Jobs) -> PartitionOptions {
    PartitionOptions::default().with_jobs(jobs)
}

const UNLIMITED: &str = "an unlimited watchdog never trips";

// ------------------------------------------------------------------ Table I

fn table1(jobs: Jobs) {
    println!("\n=== TABLE I — k-trace equivalence in various concurrent algorithms ===");
    println!("(paper: non-fixed-LP algorithms exhibit ≡₁∧≢₂ τ-edges)\n");
    println!(
        "{:<22} {:>6} {:>14} {:>10} {:>10} {:>9}",
        "Object", "#Th-#Op", "non-fixed LPs", "≡₁ and ≢₂", "≢₁", "time"
    );

    let row = |name: &str, cfg: &str, nonfixed: bool, lts: &Lts| {
        let t0 = Instant::now();
        match classify_tau_edges(lts, KtraceLimits::default()) {
            Ok(c) => println!(
                "{:<22} {:>6} {:>14} {:>10} {:>10} {:>8.1?}",
                name,
                cfg,
                if nonfixed { "✓" } else { "" },
                check(c.has_eq1_neq2()),
                check(c.has_neq1()),
                t0.elapsed()
            ),
            Err(e) => println!("{name:<22} {cfg:>6} (aborted: {e})"),
        }
    };

    row("HW queue", "3-1", true, &lts_of_jobs(&HwQueue::for_bound(&[1, 2], 3, 1), 3, 1, jobs));
    row("MS queue", "3-2", true, &lts_of_jobs(&MsQueue::new(&[1]), 3, 2, jobs));
    row("DGLM queue", "3-2", true, &lts_of_jobs(&DglmQueue::new(&[1]), 3, 2, jobs));
    row("Treiber stack", "2-2", false, &lts_of_jobs(&Treiber::new(&[1]), 2, 2, jobs));
    row("NewCompareAndSet", "2-2", false, &lts_of_jobs(&NewCas::new(2), 2, 2, jobs));
    row("CCAS", "2-3", true, &lts_of_jobs(&Ccas::new(2), 2, 3, jobs));
    row("RDCSS", "2-3", true, &lts_of_jobs(&Rdcss::new(2), 2, 3, jobs));
}

// ----------------------------------------------------------------- Table II

/// Table II's rows: the paper's label, then the roster case.
const TABLE2: [(&str, &str, &[i64], u8, u32); 15] = [
    ("1. Treiber stack", "treiber", &[1, 2], 2, 2),
    ("2. Treiber stack + HP (Michael)", "treiber-hp", &[1], 2, 2),
    ("3. Treiber stack + HP (Fu et al.)", "treiber-hp-fu", &[1], 2, 2),
    ("4. MS lock-free queue", "ms-queue", &[1, 2], 2, 2),
    ("5. DGLM queue", "dglm-queue", &[1, 2], 2, 2),
    ("6. CCAS", "ccas", &[1, 2], 2, 2),
    ("7. RDCSS", "rdcss", &[1, 2], 2, 1),
    ("8. NewCompareAndSet", "newcas", &[1, 2], 2, 2),
    ("9-1. HM lock-free list (buggy)", "hm-list-buggy", &[1], 2, 2),
    ("9-2. HM lock-free list (revised)", "hm-list", &[1], 2, 2),
    ("10. HW queue", "hw-queue", &[1], 3, 1),
    ("11. HSY stack", "hsy-stack", &[1], 2, 2),
    ("12. Heller et al. lazy list", "lazy-list", &[1], 2, 2),
    ("13. Optimistic list", "optimistic-list", &[1], 2, 2),
    ("14. Fine-grained syn. list", "fine-list", &[1], 2, 2),
];

fn table2(jobs: Jobs) {
    println!("\n=== TABLE II — verified algorithms using branching bisimulation ===\n");
    println!(
        "{:<40} {:>6} {:>16} {:>10} {:>12} {:>10}",
        "Case study", "#Th-#Op", "Linearizability", "Lock-free", "|Δ|", "|Δ/≈|"
    );

    // Each case runs fault-isolated: a panic or an exhausted exploration in
    // one row prints `inconclusive` (with the partial statistics carried by
    // the error) and the sweep continues with the remaining rows.
    for (label, name, domain, th, op) in TABLE2 {
        let cfg_col = format!("{th}-{op}");
        match run_case(name, domain, Fig1::new(label, th, op, jobs)) {
            Ok(Ok(r)) => println!(
                "{label:<40} {cfg_col:>6} {:>16} {:>10} {:>12} {:>10}",
                check(r.linearizable()),
                lf_mark(&r),
                r.linearizability.impl_states,
                r.linearizability.impl_quotient_states,
            ),
            Ok(Err(e)) => println!(
                "{label:<40} {cfg_col:>6} inconclusive: exploration aborted, {}",
                ExploreError::from(e),
            ),
            Err(fault) => println!(
                "{label:<40} {cfg_col:>6} inconclusive: internal fault ({})",
                fault.lines().next().unwrap_or("panic"),
            ),
        }
    }
    println!("\n(✗ in row 3 / 10: lock-freedom violations; ✗ in row 9-1: the known");
    println!(" linearizability bug. All three counterexamples are machine-generated");
    println!(" — run `cargo run --release --example bug_hunt`.)");
}

// ---------------------------------------------------------------- Table III

fn table3(large: bool, jobs: Jobs) {
    println!("\n=== TABLE III — automatically checking lock-freedom of the MS queue (Thm 5.9) ===\n");
    println!(
        "{:>7} {:>12} {:>10} {:>22} {:>10}",
        "#Th-#Op", "|Δ_MS|", "|Δ_MS/≈|", "lock-free (Thm 5.9)", "time"
    );
    let mut configs = vec![(2u8, 1u32), (2, 2), (2, 3), (3, 1)];
    if large {
        configs.extend([(2, 4), (2, 5), (3, 2)]);
    }
    for (th, op) in configs {
        let imp = lts_of_jobs(&MsQueue::new(&[1, 2]), th, op, jobs);
        let t0 = Instant::now();
        let r =
            verify_lock_freedom_opts(&imp, &Watchdog::unlimited(), popts(jobs)).expect(UNLIMITED);
        println!(
            "{:>7} {:>12} {:>10} {:>22} {:>9.2?}",
            format!("{th}-{op}"),
            r.impl_states,
            r.quotient_states,
            mark(r.lock_free),
            t0.elapsed()
        );
    }
}

// ----------------------------------------------------------------- Table IV

fn table4(large: bool, jobs: Jobs) {
    println!("\n=== TABLE IV — automatically checking lock-freedom of the HM list (Thm 5.9) ===\n");
    println!(
        "{:>7} {:>12} {:>10} {:>22} {:>10}",
        "#Th-#Op", "|Δ_HM|", "|Δ_HM/≈|", "lock-free (Thm 5.9)", "time"
    );
    let mut configs = vec![(2u8, 1u32), (2, 2), (3, 1)];
    if large {
        configs.extend([(2, 3), (2, 4)]);
    }
    for (th, op) in configs {
        let imp = lts_of_jobs(&HmList::revised(&[1, 2]), th, op, jobs);
        let t0 = Instant::now();
        let r =
            verify_lock_freedom_opts(&imp, &Watchdog::unlimited(), popts(jobs)).expect(UNLIMITED);
        println!(
            "{:>7} {:>12} {:>10} {:>22} {:>9.2?}",
            format!("{th}-{op}"),
            r.impl_states,
            r.quotient_states,
            mark(r.lock_free),
            t0.elapsed()
        );
    }
}

// ------------------------------------------------------------------ Table V

fn table5(jobs: Jobs) {
    println!("\n=== TABLE V — checking lock-freedom of the HW queue ===\n");
    println!(
        "{:>7} {:>12} {:>10} {:>22} {:>10}",
        "#Th-#Op", "|Δ_HW|", "|Δ_HW/≈|", "lock-free (Thm 5.9)", "time"
    );
    let (th, op) = (3u8, 1u32);
    let imp = lts_of_jobs(&HwQueue::for_bound(&[1], th, op), th, op, jobs);
    let t0 = Instant::now();
    let r = verify_lock_freedom_opts(&imp, &Watchdog::unlimited(), popts(jobs)).expect(UNLIMITED);
    println!(
        "{:>7} {:>12} {:>10} {:>22} {:>9.2?}",
        format!("{th}-{op}"),
        r.impl_states,
        r.quotient_states,
        mark(r.lock_free),
        t0.elapsed()
    );
    if let Some(lasso) = &r.divergence {
        println!("\n-- Fig. 9: the divergence generated by the check --");
        for line in bb_core::format_lasso(&imp, lasso).lines() {
            println!("   {line}");
        }
    }
}

// ----------------------------------------------------------------- Table VI

fn table6(large: bool, jobs: Jobs) {
    println!("\n=== TABLE VI — verifying linearizability and lock-freedom of concurrent queues ===\n");
    println!(
        "{:>7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}  {:>21} {:>21}",
        "#Th-#Op", "|Δ_MS|", "|Δ_DGLM|", "|Θsp|", "|ΔAbs|", "|Θsp/≈|", "|Δ*/≈|",
        "Thm 5.8 MS/DGLM", "Thm 5.3 MS/DGLM"
    );
    let mut configs = vec![(2u8, 1u32), (2, 2), (2, 3), (3, 1)];
    if large {
        configs.extend([(2, 4), (3, 2)]);
    }
    for (th, op) in configs {
        let dom: &[i64] = &[1, 2];
        let ms = lts_of_jobs(&MsQueue::new(dom), th, op, jobs);
        let dglm = lts_of_jobs(&DglmQueue::new(dom), th, op, jobs);
        let spec = lts_of_jobs(&AtomicSpec::new(SeqQueue::new(dom)), th, op, jobs);
        let abs = lts_of_jobs(&AbsQueue::new(dom), th, op, jobs);

        let spec_q = {
            let p = partition_opts(&spec, Equivalence::Branching, popts(jobs));
            quotient(&spec, &p).lts.num_states()
        };
        let ms_q = {
            let p = partition_opts(&ms, Equivalence::Branching, popts(jobs));
            quotient(&ms, &p).lts.num_states()
        };

        let wd = Watchdog::unlimited();
        let via_abs = |imp: &Lts| {
            verify_lock_freedom_via_abstraction_opts(imp, &abs, &wd, popts(jobs)).expect(UNLIMITED)
        };
        let lin = |imp: &Lts| {
            verify_linearizability_opts(imp, &spec, &wd, popts(jobs)).expect(UNLIMITED)
        };
        let t0 = Instant::now();
        let lf_ms = via_abs(&ms);
        let t_lf_ms = t0.elapsed();
        let t0 = Instant::now();
        let lf_dglm = via_abs(&dglm);
        let t_lf_dglm = t0.elapsed();

        let t0 = Instant::now();
        let lin_ms = lin(&ms);
        let t_lin_ms = t0.elapsed();
        let t0 = Instant::now();
        let lin_dglm = lin(&dglm);
        let t_lin_dglm = t0.elapsed();

        let lf_ok = lf_ms.concrete_lock_free == Some(true)
            && lf_dglm.concrete_lock_free == Some(true);
        let lin_ok = lin_ms.linearizable && lin_dglm.linearizable;
        println!(
            "{:>7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9}  {:>7.2?}/{:<7.2?} {:>4} {:>7.2?}/{:<7.2?} {:>4}",
            format!("{th}-{op}"),
            ms.num_states(),
            dglm.num_states(),
            spec.num_states(),
            abs.num_states(),
            spec_q,
            ms_q,
            t_lf_ms,
            t_lf_dglm,
            mark(lf_ok),
            t_lin_ms,
            t_lin_dglm,
            mark(lin_ok),
        );
    }
    println!("\n(MS and DGLM share the specification and the abstract queue of Fig. 8;");
    println!(" both are ≈div-bisimilar to it, so Theorem 5.8 transfers lock-freedom.)");
}

// ---------------------------------------------------------------- Table VII

fn table7(jobs: Jobs) {
    println!("\n=== TABLE VII — checking Δ ≈ Θsp and Δ ~w Θsp for various algorithms ===\n");
    println!(
        "{:>7} {:<12} {:>10} {:>8} {:>9} {:>9} {:>5} {:>5}",
        "#Th-#Op", "Object", "|Δ|", "|Δ/≈|", "|Θsp|", "|Θsp/≈|", "~w", "≈"
    );

    macro_rules! row {
        ($name:expr, $alg:expr, $spec:expr, $th:expr, $op:expr) => {{
            let imp = lts_of_jobs(&$alg, $th, $op, jobs);
            let spec = lts_of_jobs(&AtomicSpec::new($spec), $th, $op, jobs);
            let dq = {
                let p = partition_opts(&imp, Equivalence::Branching, popts(jobs));
                quotient(&imp, &p).lts.num_states()
            };
            let sq = {
                let p = partition_opts(&spec, Equivalence::Branching, popts(jobs));
                quotient(&spec, &p).lts.num_states()
            };
            let wd = Watchdog::unlimited();
            let w = bisimilar_opts(&imp, &spec, Equivalence::Weak, &wd, popts(jobs))
                .expect(UNLIMITED);
            let b = bisimilar_opts(&imp, &spec, Equivalence::Branching, &wd, popts(jobs))
                .expect(UNLIMITED);
            println!(
                "{:>7} {:<12} {:>10} {:>8} {:>9} {:>9} {:>5} {:>5}",
                format!("{}-{}", $th, $op),
                $name,
                imp.num_states(),
                dq,
                spec.num_states(),
                sq,
                mark(w),
                mark(b),
            );
        }};
    }

    row!("MS", MsQueue::new(&[1]), SeqQueue::new(&[1]), 2, 3);
    row!("DGLM", DglmQueue::new(&[1]), SeqQueue::new(&[1]), 2, 3);
    row!("HW", HwQueue::for_bound(&[1], 2, 2), SeqQueue::new(&[1]), 2, 2);
    row!("HM", HmList::revised(&[1]), SeqSet::new(&[1]), 2, 2);
    row!("Lazy", LazyList::new(&[1]), SeqSet::new(&[1]), 2, 2);
    row!("CCAS", Ccas::new(2), SeqCcas::new(2), 2, 2);
    row!("Treiber", Treiber::new(&[1]), SeqStack::new(&[1]), 2, 2);
    row!("HSY", HsyStack::new(&[1]), SeqStack::new(&[1]), 3, 2);
    println!("\n(Only the Treiber stack is branching bisimilar to its one-block");
    println!(" specification. Note the HSY 3-2 row: weak bisimulation RELATES the");
    println!(" implementation to the spec while branching bisimulation separates");
    println!(" them — weak bisimilarity misses the effect of linearization points,");
    println!(" the paper's Section VII argument, here at whole-system level.)");
}

// ------------------------------------------------------------------ Fig. 10

fn fig10(large: bool, jobs: Jobs) {
    println!("\n=== FIG. 10 — state-space reduction using ≈-quotienting ===");
    println!("(2 threads, increasing #operations; log-log data series)\n");
    println!(
        "{:<28} {:>4} {:>12} {:>10} {:>10}",
        "Object", "#Op", "|Δ|", "|Δ/≈|", "factor"
    );

    macro_rules! series {
        ($name:expr, $alg:expr, $max:expr) => {{
            for op in 1..=$max {
                let lts = match bb_sim::explore_system_with(
                    &$alg,
                    Bound::new(2, op),
                    &bb_lts::ExploreOptions::limits(bb_lts::ExploreLimits {
                        max_states: 20_000_000,
                        max_transitions: 80_000_000,
                    })
                    .with_jobs(jobs),
                ) {
                    Ok(l) => l,
                    Err(e) => {
                        println!("{:<28} {:>4} (aborted: {e})", $name, op);
                        break;
                    }
                };
                let p = partition_opts(&lts, Equivalence::Branching, popts(jobs));
                let q = quotient(&lts, &p);
                println!(
                    "{:<28} {:>4} {:>12} {:>10} {:>10.1}",
                    $name,
                    op,
                    lts.num_states(),
                    q.lts.num_states(),
                    lts.num_states() as f64 / q.lts.num_states() as f64
                );
            }
        }};
    }

    let deep: u32 = if large { 5 } else { 3 };
    let shallow: u32 = if large { 4 } else { 3 };
    series!("Treiber stack", Treiber::new(&[1]), deep + 1);
    series!("Treiber stack + HP", TreiberHp::new(&[1], 2), shallow);
    series!("Treiber stack + HP (Fu)", TreiberHpFu::new(&[1], 2), shallow);
    series!("MS lock-free queue", MsQueue::new(&[1]), deep);
    series!("DGLM queue", DglmQueue::new(&[1]), deep);
    series!("HW queue", HwQueue::for_bound(&[1], 2, deep), deep);
    series!("NewCompareAndSet", NewCas::new(2), deep + 1);
    series!("CCAS", Ccas::new(2), deep);
    series!("RDCSS", Rdcss::new(2), shallow);
    series!("HSY stack", HsyStack::new(&[1]), shallow);
    series!("HM lock-free list", HmList::revised(&[1]), shallow);
    println!("\n(The reduction factor grows with the number of operations — the");
    println!(" trend of Fig. 10; the paper reports 2–3 orders of magnitude at 2-10.)");
}

// ------------------------------------------------------ per-phase breakdown

/// Per-phase wall-clock breakdown of the full verification pipeline
/// (exploration, partition refinement, trace refinement, divergence
/// analysis), collected through bb-obs spans. Timing columns vary run to
/// run; the phase *shape* — which phases dominate on which object — is the
/// reproducible part (see EXPERIMENTS.md).
fn phases(jobs: Jobs) {
    println!("\n=== Per-phase time breakdown (bb-obs spans; wall-clock µs) ===\n");
    println!(
        "{:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>7}",
        "Object", "#Th-#Op", "explore", "bisim", "refine", "diverge", "total", "sig-recomp", "rounds"
    );

    for (name, domain) in [("treiber", &[1, 2][..]), ("ms-queue", &[1, 2]), ("hm-list", &[1])] {
        bb_obs::install(bb_obs::ObsConfig { progress: false, quiet: true });
        let outcome = run_case(name, domain, Fig1::new(name, 2, 2, jobs));
        let session = bb_obs::finish();
        match (outcome, session) {
            (Ok(Ok(_)), Some(s)) => {
                let us = |phase: &str| s.phase_total(phase).0;
                let counter = |name: &str| {
                    s.counters().iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
                };
                println!(
                    "{:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>7}",
                    name,
                    "2-2",
                    us("explore"),
                    us("bisim"),
                    us("refine"),
                    us("divergence"),
                    s.elapsed_us(),
                    counter("bisim.signature_recomputes"),
                    counter("bisim.rounds"),
                );
            }
            (Ok(Err(e)), _) => println!("{name:<12} 2-2 (aborted: {})", ExploreError::from(e)),
            (Err(fault), _) => println!(
                "{name:<12} 2-2 internal fault: {}",
                fault.lines().next().unwrap_or("panic")
            ),
            (_, None) => println!("{name:<12} 2-2 (no obs session)"),
        }
    }
    println!("\n(Phases nest — `explore` and `bisim` run inside `lin`/`lockfree`, so");
    println!(" columns overlap and do not sum to `total`. `sig-recomp` counts state");
    println!(" signature recomputations across every partition-refinement round.)");
}

/// The `verdicts` rows: roster name, domain and bound.
const VERDICT_ROWS: [(&str, &[i64], u8, u32); 19] = [
    ("treiber", &[1, 2], 2, 2),
    ("treiber-hp", &[1], 2, 2),
    ("treiber-hp-fu", &[1], 2, 2),
    ("ms-queue", &[1, 2], 2, 2),
    ("dglm-queue", &[1, 2], 2, 2),
    ("hw-queue", &[1], 3, 1),
    ("ccas", &[1, 2], 2, 2),
    ("rdcss", &[1, 2], 2, 1),
    ("newcas", &[1, 2], 2, 2),
    ("hm-list", &[1], 2, 2),
    ("hm-list-buggy", &[1], 2, 2),
    ("hsy-stack", &[1], 2, 2),
    ("lazy-list", &[1], 2, 2),
    ("optimistic-list", &[1], 2, 2),
    ("fine-list", &[1], 2, 2),
    ("two-lock-queue", &[1], 2, 2),
    ("coarse-stack", &[1], 2, 2),
    ("coarse-queue", &[1], 2, 2),
    ("coarse-set", &[1], 2, 2),
];

/// Machine-diffable verdict lines: no state counts, no timings — only what
/// must stay invariant under `--jobs`, the result cache and any change that
/// keeps the verdicts.
///
/// With `--cache DIR`, each conclusive verdict line is memoized per case; a
/// second sweep replays every line byte-identically from the cache (CI runs
/// the roster twice and requires the second pass to be all hits).
fn verdicts(jobs: Jobs, cache: Option<Cache>) {
    let (mut hits, mut misses) = (0u32, 0u32);
    for (name, domain, th, op) in VERDICT_ROWS {
        let lf = ALGORITHMS.iter().any(|&(n, _, nb)| n == name && nb);
        // `reduce=none` and `refine=incremental` stay so cache entries of
        // earlier versions still hit.
        let key = format!(
            "bbench{}.{}|verdict|{name}|{th}-{op}|lf{lf}|reduce=none|refine=incremental",
            bb_persist::FORMAT_VERSION,
            bb_sim::STATE_ENCODING_VERSION,
        );
        if let Some(entry) = cache.as_ref().and_then(|c| c.lookup(&key)) {
            hits += 1;
            print!("{}", entry.stdout);
            continue;
        }
        misses += 1;
        match run_case(name, domain, Fig1::new(name, th, op, jobs)) {
            Ok(Ok(r)) => {
                let line = format!(
                    "{name:<24} {th}-{op} lin={} lock-free={}",
                    check(r.linearizable()),
                    lf_mark(&r)
                );
                println!("{line}");
                // Only conclusive verdicts are memoized; aborted and faulted
                // cases rerun every sweep.
                if let Some(c) = cache.as_ref() {
                    let entry = CacheEntry {
                        key,
                        stdout: format!("{line}\n"),
                        exit_code: 0,
                        artifacts: Vec::new(),
                    };
                    if let Err(e) = c.store(&entry) {
                        eprintln!("verdicts: cache store failed: {e}");
                    }
                }
            }
            Ok(Err(e)) => println!("{name:<24} {th}-{op} inconclusive: {e}"),
            Err(fault) => println!(
                "{name:<24} {th}-{op} internal fault: {}",
                fault.lines().next().unwrap_or("panic")
            ),
        }
    }
    if cache.is_some() {
        // Stderr so the stdout stream stays byte-diffable across sweeps.
        eprintln!("verdicts cache: {hits} hit(s), {misses} miss(es)");
    }
}

// ------------------------------------------------------------ roster cases

/// A roster case as the sweeps run it: explored under the default caps,
/// then both methods of Fig. 1 under an unlimited watchdog, with
/// lock-freedom checked on the non-blocking objects only. `label` names the
/// case in its report.
#[derive(Clone, Copy)]
struct Fig1 {
    label: &'static str,
    bound: Bound,
    jobs: Jobs,
}

impl Fig1 {
    /// The case at `th`-`op` on `jobs` workers.
    fn new(label: &'static str, th: u8, op: u32, jobs: Jobs) -> Self {
        Fig1 {
            label,
            bound: Bound::new(th, op),
            jobs,
        }
    }
}

impl Case for Fig1 {
    type Out = Result<CaseReport, Exhausted>;

    fn run<A: ObjectAlgorithm, S: SequentialSpec>(
        self,
        alg: &A,
        seq: &AtomicSpec<S>,
        non_blocking: bool,
    ) -> Self::Out {
        sabotage_point(alg.name());
        let Fig1 { label, bound, jobs } = self;
        let opts = ExploreOptions::limits(ExploreLimits::default()).with_jobs(jobs);
        let imp = explore_system_with(alg, bound, &opts)?;
        let spec = explore_system_with(seq, bound, &opts)?;
        let mut cfg = VerifyConfig::new(bound).with_jobs(jobs);
        if !non_blocking {
            cfg = cfg.linearizability_only();
        }
        verify_case_lts(label, cfg, &imp, &spec, &Watchdog::unlimited())
    }
}

/// Runs `case` on roster entry `name` over `domain`, fault-isolated: the
/// outer `Err` carries a panic message.
fn run_case(
    name: &str,
    domain: &[i64],
    case: Fig1,
) -> Result<Result<CaseReport, Exhausted>, String> {
    let (th, op) = (case.bound.threads, case.bound.ops_per_thread);
    bb_core::run_isolated(|| with_case(name, domain, th, op, case).expect("a roster name"))
}

/// The lock-freedom column: `—` when the check was skipped.
fn lf_mark(r: &CaseReport) -> &'static str {
    r.lock_freedom.as_ref().map_or("—", |l| check(l.lock_free))
}
