//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```sh
//! cargo run --release -p bb-bench --bin tables -- all
//! cargo run --release -p bb-bench --bin tables -- table3 --large
//! ```
//!
//! Subcommands: `table1` … `table7`, `fig10`, `all`, plus two reduction
//! sweeps: `reduce` (reduction-factor table, `--reduce none` vs `full`) and
//! `verdicts` (machine-diffable verdict lines; run once per `--reduce` mode
//! and diff — CI does exactly that), and `phases` (per-phase wall-clock
//! breakdown of the verification pipeline, collected through bb-obs spans
//! — the EXPERIMENTS.md observability table). The `--large` flag
//! extends the sweeps towards the paper's original configurations (minutes
//! of runtime instead of seconds); `--jobs N` runs exploration and
//! refinement on N worker threads (deterministic — only timings change). Absolute state counts and times differ
//! from the paper (different front end, hardware and heap canonicalization
//! — see DESIGN.md); the *shape* of every result is reproduced.

use bb_bench::{check, lts_of_jobs, mark, try_lts_of_jobs};
use bb_bisim::{
    bisimilar_governed_jobs, partition_jobs, partition_with_stats, quotient, Equivalence,
    PartitionOptions, RefineMode,
};
use bb_core::{
    verify_case_lts, verify_linearizability_jobs, verify_lock_freedom_jobs,
    verify_lock_freedom_via_abstraction_jobs, VerifyConfig,
};
use bb_ktrace::{classify_tau_edges, KtraceLimits};
use bb_lts::{ExploreOptions, Jobs, Lts, Watchdog};
use bb_reduce::scratch::ScratchPad;
use bb_reduce::{explore_reduced, ReduceMode};
use bb_persist::{Cache, CacheEntry};
use bb_sim::{AtomicSpec, Bound};
use std::time::Instant;

use bb_algorithms::abstracts::AbsQueue;
use bb_algorithms::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*, treiber::Treiber,
    treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = args.iter().any(|a| a == "--large");
    let jobs = match parse_jobs(&args) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    };
    let reduce = match parse_reduce(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    };
    let refine = match parse_refine(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    };
    let cache = match parse_cache(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    };
    let compact = match parse_compact(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    };
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    match cmd {
        "reduce" => guarded("reduce", || reduce_table(large, jobs)),
        "verdicts" => guarded("verdicts", || verdicts(reduce, refine, jobs, cache, compact)),
        "perf" => {
            let against = match parse_against(&args) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(3);
                }
            };
            // Not `guarded`: the gate's exit code IS the result, so a fault
            // here must fail the run rather than degrade to a log line.
            perf(&parse_out(&args), against.as_ref());
        }
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
        other => {
            eprintln!("unknown subcommand `{other}`");
            eprintln!(
                "usage: tables [table1..table7|fig10|reduce|verdicts|phases|perf|all] \
                 [--large] [--jobs N] [--reduce none|sym|por|full] \
                 [--refine full|incremental] [--compact on|off] [--out FILE] \
                 [--cache DIR] [--against BASELINE.json] [--max-regress PCT]"
            );
            std::process::exit(3);
        }
    }
}

/// Parses `--reduce MODE` (default: no reduction).
fn parse_reduce(args: &[String]) -> Result<ReduceMode, String> {
    let Some(pos) = args.iter().position(|a| a == "--reduce") else {
        return Ok(ReduceMode::None);
    };
    args.get(pos + 1)
        .ok_or("--reduce needs a mode: none, sym, por, full")?
        .parse()
}

/// Parses `--refine MODE` (default: the engine default, incremental).
/// Both engines compute identical partitions; `verdicts` runs once per mode
/// in CI and the outputs are diffed byte-for-byte.
fn parse_refine(args: &[String]) -> Result<RefineMode, String> {
    let Some(pos) = args.iter().position(|a| a == "--refine") else {
        return Ok(RefineMode::default());
    };
    args.get(pos + 1)
        .ok_or("--refine needs a mode: full or incremental")?
        .parse()
}

/// Parses `--compact on|off` (default on). `verdicts --compact off` runs the
/// sweep through the rich-struct hash-map seen-set instead of the bit-packed
/// arena — CI byte-diffs the two stdout streams to pin down that the store
/// never influences a verdict.
fn parse_compact(args: &[String]) -> Result<bool, String> {
    let Some(pos) = args.iter().position(|a| a == "--compact") else {
        return Ok(true);
    };
    match args.get(pos + 1).map(String::as_str) {
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(format!("--compact: expected on or off, got `{other}`")),
        None => Err("--compact needs on or off".into()),
    }
}

/// Parses `--out FILE` for the `perf` subcommand (default: BENCH_5.json).
fn parse_out(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|pos| args.get(pos + 1).cloned())
        .unwrap_or_else(|| "BENCH_5.json".into())
}

/// The perf gate's configuration: a committed baseline report to diff
/// against, and the allowed regression percentage.
struct Against {
    baseline: String,
    max_regress_pct: f64,
}

/// Parses `--against FILE` and `--max-regress PCT` (default 25) for the
/// `perf` subcommand's regression gate.
fn parse_against(args: &[String]) -> Result<Option<Against>, String> {
    let Some(pos) = args.iter().position(|a| a == "--against") else {
        if args.iter().any(|a| a == "--max-regress") {
            return Err("--max-regress only makes sense with --against".into());
        }
        return Ok(None);
    };
    let baseline = args.get(pos + 1).ok_or("--against needs a baseline file")?.clone();
    let max_regress_pct = match args.iter().position(|a| a == "--max-regress") {
        None => 25.0,
        Some(p) => {
            let raw = args.get(p + 1).ok_or("--max-regress needs a percentage")?;
            let pct: f64 = raw.parse().map_err(|e| format!("--max-regress: {e}"))?;
            if !pct.is_finite() || pct < 0.0 {
                return Err("--max-regress must be a non-negative percentage".into());
            }
            pct
        }
    };
    Ok(Some(Against { baseline, max_regress_pct }))
}

/// Parses `--cache DIR` for the `verdicts` sweep: per-case result cache.
/// A second sweep over the same roster replays every verdict line from the
/// cache byte-identically (the cache-soundness CI job diffs exactly that).
fn parse_cache(args: &[String]) -> Result<Option<Cache>, String> {
    let Some(pos) = args.iter().position(|a| a == "--cache") else {
        return Ok(None);
    };
    let dir = args.get(pos + 1).ok_or("--cache needs a directory")?;
    Cache::open(std::path::Path::new(dir))
        .map(Some)
        .map_err(|e| format!("--cache {dir}: {e}"))
}

/// Parses `--jobs N` (default: all cores). Every table is deterministic in
/// the worker count — only the timing columns change.
fn parse_jobs(args: &[String]) -> Result<Jobs, String> {
    let Some(pos) = args.iter().position(|a| a == "--jobs") else {
        return Ok(Jobs::available());
    };
    let raw = args.get(pos + 1).ok_or("--jobs needs a thread count")?;
    let n: usize = raw.parse().map_err(|e| format!("--jobs: {e}"))?;
    if n == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(Jobs::new(n))
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

fn table2(jobs: Jobs) {
    println!("\n=== TABLE II — verified algorithms using branching bisimulation ===\n");
    println!(
        "{:<40} {:>6} {:>16} {:>10} {:>12} {:>10}",
        "Case study", "#Th-#Op", "Linearizability", "Lock-free", "|Δ|", "|Δ/≈|"
    );

    // Each case runs fault-isolated: a panic or an exhausted exploration in
    // one row prints `inconclusive` (with the partial statistics carried by
    // the error) and the sweep continues with the remaining rows.
    macro_rules! case {
        ($name:expr, $alg:expr, $spec:expr, $th:expr, $op:expr, $lf:expr) => {{
            let cfg_col = format!("{}-{}", $th, $op);
            let outcome = bb_core::run_isolated(|| -> Result<String, bb_lts::ExploreError> {
                let bound = Bound::new($th, $op);
                let imp = try_lts_of_jobs(&$alg, $th, $op, jobs)?;
                let spec = try_lts_of_jobs(&AtomicSpec::new($spec), $th, $op, jobs)?;
                let mut cfg = VerifyConfig::new(bound).with_jobs(jobs);
                if !$lf {
                    cfg = cfg.linearizability_only();
                }
                let r = verify_case_lts($name, cfg, &imp, &spec);
                let lf_mark = match &r.lock_freedom {
                    None => "—".to_string(),
                    Some(l) => check(l.lock_free).to_string(),
                };
                Ok(format!(
                    "{:<40} {:>6} {:>16} {:>10} {:>12} {:>10}",
                    $name,
                    cfg_col,
                    check(r.linearizable()),
                    lf_mark,
                    r.linearizability.impl_states,
                    r.linearizability.impl_quotient_states,
                ))
            });
            match outcome {
                Ok(Ok(line)) => println!("{line}"),
                Ok(Err(e)) => println!(
                    "{:<40} {:>6} inconclusive: exploration aborted, {e}",
                    $name,
                    format!("{}-{}", $th, $op),
                ),
                Err(fault) => println!(
                    "{:<40} {:>6} inconclusive: internal fault ({})",
                    $name,
                    format!("{}-{}", $th, $op),
                    fault.lines().next().unwrap_or("panic"),
                ),
            }
        }};
    }

    case!("1. Treiber stack", Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), 2, 2, true);
    case!("2. Treiber stack + HP (Michael)", TreiberHp::new(&[1], 2), SeqStack::new(&[1]), 2, 2, true);
    case!("3. Treiber stack + HP (Fu et al.)", TreiberHpFu::new(&[1], 2), SeqStack::new(&[1]), 2, 2, true);
    case!("4. MS lock-free queue", MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, true);
    case!("5. DGLM queue", DglmQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, true);
    case!("6. CCAS", Ccas::new(2), SeqCcas::new(2), 2, 2, true);
    case!("7. RDCSS", Rdcss::new(2), SeqRdcss::new(2), 2, 1, true);
    case!("8. NewCompareAndSet", NewCas::new(2), SeqRegister::new(2), 2, 2, true);
    case!("9-1. HM lock-free list (buggy)", HmList::buggy(&[1]), SeqSet::new(&[1]), 2, 2, true);
    case!("9-2. HM lock-free list (revised)", HmList::revised(&[1]), SeqSet::new(&[1]), 2, 2, true);
    case!("10. HW queue", HwQueue::for_bound(&[1], 3, 1), SeqQueue::new(&[1]), 3, 1, true);
    case!("11. HSY stack", HsyStack::new(&[1]), SeqStack::new(&[1]), 2, 2, true);
    case!("12. Heller et al. lazy list", LazyList::new(&[1]), SeqSet::new(&[1]), 2, 2, false);
    case!("13. Optimistic list", OptimisticList::new(&[1]), SeqSet::new(&[1]), 2, 2, false);
    case!("14. Fine-grained syn. list", FineList::new(&[1]), SeqSet::new(&[1]), 2, 2, false);
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
        let r = verify_lock_freedom_jobs(&imp, jobs);
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
        let r = verify_lock_freedom_jobs(&imp, jobs);
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
    let r = verify_lock_freedom_jobs(&imp, jobs);
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
            let p = partition_jobs(&spec, Equivalence::Branching, jobs);
            quotient(&spec, &p).lts.num_states()
        };
        let ms_q = {
            let p = partition_jobs(&ms, Equivalence::Branching, jobs);
            quotient(&ms, &p).lts.num_states()
        };

        let t0 = Instant::now();
        let lf_ms = verify_lock_freedom_via_abstraction_jobs(&ms, &abs, jobs);
        let t_lf_ms = t0.elapsed();
        let t0 = Instant::now();
        let lf_dglm = verify_lock_freedom_via_abstraction_jobs(&dglm, &abs, jobs);
        let t_lf_dglm = t0.elapsed();

        let t0 = Instant::now();
        let lin_ms = verify_linearizability_jobs(&ms, &spec, jobs);
        let t_lin_ms = t0.elapsed();
        let t0 = Instant::now();
        let lin_dglm = verify_linearizability_jobs(&dglm, &spec, jobs);
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
                let p = partition_jobs(&imp, Equivalence::Branching, jobs);
                quotient(&imp, &p).lts.num_states()
            };
            let sq = {
                let p = partition_jobs(&spec, Equivalence::Branching, jobs);
                quotient(&spec, &p).lts.num_states()
            };
            let wd = Watchdog::unlimited();
            let w = bisimilar_governed_jobs(&imp, &spec, Equivalence::Weak, &wd, jobs)
                .expect("an unlimited watchdog never trips");
            let b = bisimilar_governed_jobs(&imp, &spec, Equivalence::Branching, &wd, jobs)
                .expect("an unlimited watchdog never trips");
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
                let p = partition_jobs(&lts, Equivalence::Branching, jobs);
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

// ---------------------------------------------------- on-the-fly reduction

fn reduce_table(large: bool, jobs: Jobs) {
    println!("\n=== On-the-fly reduction — `--reduce none` vs `--reduce full` ===");
    println!("(ample-set POR + thread-symmetry; both `≈div`-preserving, so every");
    println!(" verdict is unchanged — `tables verdicts` cross-checks that)\n");
    println!(
        "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "Object", "#Th-#Op", "|Δ| st", "|Δ| tr", "red st", "red tr", "st ×", "tr ×", "time"
    );

    macro_rules! row {
        ($name:expr, $alg:expr, $th:expr, $op:expr) => {{
            let opts = ExploreOptions::limits(bb_lts::ExploreLimits {
                max_states: 20_000_000,
                max_transitions: 80_000_000,
            })
            .with_jobs(jobs);
            let outcome = (|| -> Result<_, bb_lts::budget::Exhausted> {
                let full = bb_sim::explore_system_with(&$alg, Bound::new($th, $op), &opts)?;
                let t0 = Instant::now();
                let (red, _) = explore_reduced(&$alg, Bound::new($th, $op), ReduceMode::Full, &opts)?;
                Ok((full, red, t0.elapsed()))
            })();
            match outcome {
                Ok((full, red, dt)) => println!(
                    "{:<28} {:>7} {:>12} {:>12} {:>12} {:>12} {:>8.2} {:>8.2} {:>9.2?}",
                    $name,
                    format!("{}-{}", $th, $op),
                    full.num_states(),
                    full.num_transitions(),
                    red.num_states(),
                    red.num_transitions(),
                    full.num_states() as f64 / red.num_states().max(1) as f64,
                    full.num_transitions() as f64 / red.num_transitions().max(1) as f64,
                    dt,
                ),
                Err(e) => println!("{:<28} {:>7} (aborted: {e})", $name, format!("{}-{}", $th, $op)),
            }
        }};
    }

    row!("Treiber stack", Treiber::new(&[1]), 2, 2);
    row!("Treiber stack", Treiber::new(&[1]), 3, 2);
    row!("MS lock-free queue", MsQueue::new(&[1]), 2, 2);
    row!("MS lock-free queue", MsQueue::new(&[1]), 2, 3);
    row!("Coarse-locked set", CoarseLocked::new(SeqSet::new(&[1])), 2, 2);
    row!("Coarse-locked set", CoarseLocked::new(SeqSet::new(&[1])), 3, 2);
    row!("Scratch pad (per-thread slots)", ScratchPad::new(&[1, 2], 4), 4, 2);
    row!("Scratch pad (per-thread slots)", ScratchPad::new(&[1, 2], 5), 5, 2);
    if large {
        row!("Treiber stack", Treiber::new(&[1]), 3, 3);
        row!("MS lock-free queue", MsQueue::new(&[1]), 3, 2);
        row!("Coarse-locked set", CoarseLocked::new(SeqSet::new(&[1])), 3, 3);
        row!("Scratch pad (per-thread slots)", ScratchPad::new(&[1, 2], 6), 6, 1);
    }
    println!("\n(POR prunes interleavings of private/owned τ-steps — it mostly removes");
    println!(" transitions and defers call branching; symmetry merges states that only");
    println!(" differ by a permutation of per-thread data, which is where the state-");
    println!(" count factor comes from on objects with per-thread slots.)");
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

    macro_rules! row {
        ($name:expr, $alg:expr, $spec:expr, $th:expr, $op:expr) => {{
            bb_obs::install(bb_obs::ObsConfig { progress: false, quiet: true });
            let outcome = bb_core::run_isolated(|| -> Result<(), bb_lts::ExploreError> {
                let imp = try_lts_of_jobs(&$alg, $th, $op, jobs)?;
                let spec = try_lts_of_jobs(&AtomicSpec::new($spec), $th, $op, jobs)?;
                let cfg = VerifyConfig::new(Bound::new($th, $op)).with_jobs(jobs);
                let _ = verify_case_lts($name, cfg, &imp, &spec);
                Ok(())
            });
            let session = bb_obs::finish();
            match (outcome, session) {
                (Ok(Ok(())), Some(s)) => {
                    let us = |phase: &str| s.phase_total(phase).0;
                    let counter = |name: &str| {
                        s.counters().iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
                    };
                    println!(
                        "{:<12} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>7}",
                        $name,
                        format!("{}-{}", $th, $op),
                        us("explore"),
                        us("bisim"),
                        us("refine"),
                        us("divergence"),
                        s.elapsed_us(),
                        counter("bisim.signature_recomputes"),
                        counter("bisim.rounds"),
                    );
                }
                (Ok(Err(e)), _) => {
                    println!("{:<12} {}-{} (aborted: {e})", $name, $th, $op)
                }
                (Err(fault), _) => println!(
                    "{:<12} {}-{} internal fault: {}",
                    $name,
                    $th,
                    $op,
                    fault.lines().next().unwrap_or("panic")
                ),
                (_, None) => println!("{:<12} {}-{} (no obs session)", $name, $th, $op),
            }
        }};
    }

    row!("treiber", Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), 2, 2);
    row!("ms-queue", MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2);
    row!("hm-list", HmList::revised(&[1]), SeqSet::new(&[1]), 2, 2);
    println!("\n(Phases nest — `explore` and `bisim` run inside `lin`/`lockfree`, so");
    println!(" columns overlap and do not sum to `total`. `sig-recomp` counts state");
    println!(" signature recomputations across every partition-refinement round.)");
}

/// Machine-diffable verdict lines: no state counts, no timings — only what
/// must stay invariant under any sound reduction. CI runs this twice
/// (`--reduce none` / `--reduce full`) and diffs the output byte-for-byte.
///
/// With `--cache DIR`, each conclusive verdict line is memoized per case; a
/// second sweep replays every line byte-identically from the cache (CI runs
/// the roster twice and requires the second pass to be all hits).
fn verdicts(
    reduce: ReduceMode,
    refine: RefineMode,
    jobs: Jobs,
    cache: Option<Cache>,
    compact: bool,
) {
    let (mut hits, mut misses) = (0u32, 0u32);
    macro_rules! case {
        ($name:expr, $alg:expr, $spec:expr, $th:expr, $op:expr, $lf:expr) => {{
            let key = format!(
                "bbench{}.{}|verdict|{}|{}-{}|lf{}|reduce={reduce}|refine={refine}",
                bb_persist::FORMAT_VERSION,
                bb_sim::STATE_ENCODING_VERSION,
                $name,
                $th,
                $op,
                $lf,
            );
            if let Some(entry) = cache.as_ref().and_then(|c| c.lookup(&key)) {
                hits += 1;
                print!("{}", entry.stdout);
            } else {
                misses += 1;
                let bound = Bound::new($th, $op);
                let opts = ExploreOptions::limits(bb_lts::ExploreLimits::default())
                    .with_jobs(jobs)
                    .with_compact(compact);
                let outcome =
                    bb_core::run_isolated(|| -> Result<String, bb_lts::budget::Exhausted> {
                        let (imp, spec) = if reduce == ReduceMode::None {
                            (
                                bb_sim::explore_system_with(&$alg, bound, &opts)?,
                                bb_sim::explore_system_with(&AtomicSpec::new($spec), bound, &opts)?,
                            )
                        } else {
                            (
                                explore_reduced(&$alg, bound, reduce, &opts)?.0,
                                explore_reduced(&AtomicSpec::new($spec), bound, reduce, &opts)?.0,
                            )
                        };
                        let mut cfg = VerifyConfig::new(bound).with_jobs(jobs).with_refine(refine);
                        if !$lf {
                            cfg = cfg.linearizability_only();
                        }
                        let r = verify_case_lts($name, cfg, &imp, &spec);
                        let lf_mark = match &r.lock_freedom {
                            None => "—".to_string(),
                            Some(l) => check(l.lock_free).to_string(),
                        };
                        Ok(format!(
                            "{:<24} {}-{} lin={} lock-free={}",
                            $name,
                            $th,
                            $op,
                            check(r.linearizable()),
                            lf_mark,
                        ))
                    });
                match outcome {
                    Ok(Ok(line)) => {
                        println!("{line}");
                        // Only conclusive verdicts are memoized; aborted and
                        // faulted cases rerun every sweep.
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
                    Ok(Err(e)) => println!("{:<24} {}-{} inconclusive: {e}", $name, $th, $op),
                    Err(fault) => println!(
                        "{:<24} {}-{} internal fault: {}",
                        $name,
                        $th,
                        $op,
                        fault.lines().next().unwrap_or("panic")
                    ),
                }
            }
        }};
    }

    case!("treiber", Treiber::new(&[1, 2]), SeqStack::new(&[1, 2]), 2, 2, true);
    case!("treiber-hp", TreiberHp::new(&[1], 2), SeqStack::new(&[1]), 2, 2, true);
    case!("treiber-hp-fu", TreiberHpFu::new(&[1], 2), SeqStack::new(&[1]), 2, 2, true);
    case!("ms-queue", MsQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, true);
    case!("dglm-queue", DglmQueue::new(&[1, 2]), SeqQueue::new(&[1, 2]), 2, 2, true);
    case!("hw-queue", HwQueue::for_bound(&[1], 3, 1), SeqQueue::new(&[1]), 3, 1, true);
    case!("ccas", Ccas::new(2), SeqCcas::new(2), 2, 2, true);
    case!("rdcss", Rdcss::new(2), SeqRdcss::new(2), 2, 1, true);
    case!("newcas", NewCas::new(2), SeqRegister::new(2), 2, 2, true);
    case!("hm-list", HmList::revised(&[1]), SeqSet::new(&[1]), 2, 2, true);
    case!("hm-list-buggy", HmList::buggy(&[1]), SeqSet::new(&[1]), 2, 2, true);
    case!("hsy-stack", HsyStack::new(&[1]), SeqStack::new(&[1]), 2, 2, true);
    case!("lazy-list", LazyList::new(&[1]), SeqSet::new(&[1]), 2, 2, false);
    case!("optimistic-list", OptimisticList::new(&[1]), SeqSet::new(&[1]), 2, 2, false);
    case!("fine-list", FineList::new(&[1]), SeqSet::new(&[1]), 2, 2, false);
    case!("two-lock-queue", TwoLockQueue::new(&[1]), SeqQueue::new(&[1]), 2, 2, false);
    case!("coarse-stack", CoarseLocked::new(SeqStack::new(&[1])), SeqStack::new(&[1]), 2, 2, false);
    case!("coarse-queue", CoarseLocked::new(SeqQueue::new(&[1])), SeqQueue::new(&[1]), 2, 2, false);
    case!("coarse-set", CoarseLocked::new(SeqSet::new(&[1])), SeqSet::new(&[1]), 2, 2, false);
    if cache.is_some() {
        // Stderr so the stdout stream stays byte-diffable across sweeps.
        eprintln!("verdicts cache: {hits} hit(s), {misses} miss(es)");
    }
}

// --------------------------------------------------- refinement engine perf

/// Worker count for the sharded `perf` column, stored under the `fused` key
/// (see [`perf`]): one shard per available hardware thread — forcing more
/// shards than cores only adds spawn/join overhead to the measurement.
fn sharded_jobs() -> Jobs {
    Jobs::available()
}

/// One `perf` roster entry: full vs incremental refinement on the same LTS.
struct PerfRow {
    name: &'static str,
    bound: String,
    states: usize,
    transitions: usize,
    rounds: usize,
    full_recomputes: u64,
    full_us: u128,
    full_peak_sig_bytes: usize,
    inc_recomputes: u64,
    inc_dirty_states: u64,
    inc_us: u128,
    inc_peak_sig_bytes: usize,
    sharded_recomputes: u64,
    sharded_us: u128,
}

/// Measures one roster case under both refinement engines, plus the
/// incremental engine with worklists sharded across available cores. All
/// three partitions are asserted equal (block ids included); the statistics
/// are deterministic and taken from the last sample, while the wall-clock is
/// the best of `samples` runs.
fn perf_row(name: &'static str, th: u8, op: u32, lts: &Lts, samples: u32) -> PerfRow {
    let eq = Equivalence::Branching;
    let full_opts = PartitionOptions::default().with_mode(RefineMode::Full);
    let inc_opts = PartitionOptions::default().with_mode(RefineMode::Incremental);
    let sharded_opts = PartitionOptions::default()
        .with_mode(RefineMode::Incremental)
        .with_jobs(sharded_jobs());

    let mut full_us = u128::MAX;
    let mut inc_us = u128::MAX;
    let mut sharded_us = u128::MAX;
    let (mut p_full, mut full_stats) = partition_with_stats(lts, eq, full_opts);
    let (mut p_inc, mut inc_stats) = partition_with_stats(lts, eq, inc_opts);
    let (mut p_sharded, mut sharded_stats) = partition_with_stats(lts, eq, sharded_opts);
    for _ in 0..samples {
        let t0 = Instant::now();
        let (p, s) = partition_with_stats(lts, eq, full_opts);
        full_us = full_us.min(t0.elapsed().as_micros());
        (p_full, full_stats) = (p, s);
        let t0 = Instant::now();
        let (p, s) = partition_with_stats(lts, eq, inc_opts);
        inc_us = inc_us.min(t0.elapsed().as_micros());
        (p_inc, inc_stats) = (p, s);
        let t0 = Instant::now();
        let (p, s) = partition_with_stats(lts, eq, sharded_opts);
        sharded_us = sharded_us.min(t0.elapsed().as_micros());
        (p_sharded, sharded_stats) = (p, s);
    }
    assert_eq!(
        p_full, p_inc,
        "{name} {th}-{op}: full and incremental partitions must be identical"
    );
    assert_eq!(
        p_full, p_sharded,
        "{name} {th}-{op}: sharded partition must match the serial engines"
    );
    assert_eq!(full_stats.rounds, inc_stats.rounds);
    assert_eq!(full_stats.rounds, sharded_stats.rounds);
    PerfRow {
        name,
        bound: format!("{th}-{op}"),
        states: lts.num_states(),
        transitions: lts.num_transitions(),
        rounds: full_stats.rounds,
        full_recomputes: full_stats.sig_recomputes,
        full_us,
        full_peak_sig_bytes: full_stats.peak_sig_bytes,
        inc_recomputes: inc_stats.sig_recomputes,
        inc_dirty_states: inc_stats.dirty_states,
        inc_us,
        inc_peak_sig_bytes: inc_stats.peak_sig_bytes,
        sharded_recomputes: sharded_stats.sig_recomputes,
        sharded_us,
    }
}

// ------------------------------------------------- compact state-store perf

/// One state-store entry: the same exploration driven through the rich
/// hash-map seen-set and through the bit-packed arena, recording the peak
/// in-core store bytes (seen set + frontier + index) and the best
/// exploration wall-clock of each. Byte counts are deterministic; both
/// engines are asserted to produce the identical `.aut`.
struct StoreRow {
    name: &'static str,
    bound: String,
    states: usize,
    transitions: usize,
    rich_bytes: usize,
    compact_bytes: usize,
    raw_bytes: u64,
    stored_bytes: u64,
    rich_us: u128,
    compact_us: u128,
}

fn store_row<A: bb_sim::ObjectAlgorithm>(
    name: &'static str,
    alg: &A,
    th: u8,
    op: u32,
    samples: u32,
) -> StoreRow {
    let bound = Bound::new(th, op);
    let opts = ExploreOptions::limits(bb_lts::ExploreLimits::default()).with_jobs(Jobs::serial());
    let rich_opts = opts.with_compact(false);
    let (mut rich_us, mut compact_us) = (u128::MAX, u128::MAX);
    let (mut rich, mut compact) = (None, None);
    for _ in 0..samples {
        let t0 = Instant::now();
        let r = bb_sim::explore_system_report(alg, bound, &rich_opts).expect("unbudgeted");
        rich_us = rich_us.min(t0.elapsed().as_micros());
        rich = Some(r);
        let t0 = Instant::now();
        let c = bb_sim::explore_system_report(alg, bound, &opts).expect("unbudgeted");
        compact_us = compact_us.min(t0.elapsed().as_micros());
        compact = Some(c);
    }
    let (rich_lts, rich_rep) = rich.expect("samples >= 1");
    let (compact_lts, compact_rep) = compact.expect("samples >= 1");
    assert_eq!(
        bb_lts::to_aut(&rich_lts),
        bb_lts::to_aut(&compact_lts),
        "{name} {th}-{op}: compact store changed the LTS"
    );
    StoreRow {
        name,
        bound: format!("{th}-{op}"),
        states: compact_lts.num_states(),
        transitions: compact_lts.num_transitions(),
        rich_bytes: rich_rep.store_bytes_peak,
        compact_bytes: compact_rep.store_bytes_peak,
        raw_bytes: compact_rep.store.raw_bytes,
        stored_bytes: compact_rep.store.stored_bytes,
        rich_us,
        compact_us,
    }
}

/// `perf` — full vs incremental vs sharded partition refinement on a fixed
/// seeded roster. Writes a machine-readable JSON report (schema
/// `bb-bench/perf-v2`, default `BENCH_5.json`); the counters are
/// deterministic, only the wall-clock columns vary run to run. The sharded
/// column times `partition_with_stats` on the incremental engine at
/// [`sharded_jobs`] threads, predecessor table build included; it keeps the
/// `fused` key, the name the committed baselines carry.
///
/// With `--against BASELINE.json` the run becomes the CI regression gate:
/// the fresh report is diffed against the committed baseline
/// ([`bb_bench::perf::compare`] — counters directly, wall-clock as
/// within-run ratios) and the process exits 1 when anything regressed
/// beyond `--max-regress PCT`.
fn perf(out: &str, against: Option<&Against>) {
    const SAMPLES: u32 = 3;
    println!("\n=== Refinement engine — full vs incremental vs sharded (branching) ===");
    println!("(sharded = incremental at all cores, table build timed; JSON key `fused`)");
    println!("(best of {SAMPLES} runs; counters deterministic, partitions asserted equal)\n");
    println!(
        "{:<12} {:>5} {:>9} {:>10} {:>7} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "Object", "#T-#O", "states", "trans", "rounds", "full recomp", "inc recomp", "dirty/n",
        "full time", "inc time", "shard time"
    );

    let jobs = Jobs::serial();
    let rows = [
        perf_row("treiber", 2, 2, &lts_of_jobs(&Treiber::new(&[1]), 2, 2, jobs), SAMPLES),
        perf_row("lazy-list", 2, 1, &lts_of_jobs(&LazyList::new(&[1]), 2, 1, jobs), SAMPLES),
        perf_row("lazy-list", 2, 2, &lts_of_jobs(&LazyList::new(&[1]), 2, 2, jobs), SAMPLES),
        perf_row("ms-queue", 2, 2, &lts_of_jobs(&MsQueue::new(&[1, 2]), 2, 2, jobs), SAMPLES),
        // The raised roster rungs (PR 10): the bounds the compact store makes
        // routinely affordable. Kept to cases whose refinement stays in
        // CI-budget seconds.
        perf_row("treiber", 3, 2, &lts_of_jobs(&Treiber::new(&[1]), 3, 2, jobs), SAMPLES),
        perf_row("newcas", 3, 3, &lts_of_jobs(&NewCas::new(2), 3, 3, jobs), SAMPLES),
        perf_row("newcas", 3, 4, &lts_of_jobs(&NewCas::new(2), 3, 4, jobs), SAMPLES),
    ];

    let mut json = String::from("{\n  \"schema\": \"bb-bench/perf-v2\",\n");
    json.push_str("  \"equivalence\": \"branching\",\n  \"jobs\": 1,\n");
    json.push_str(&format!("  \"fused_jobs\": {},\n", sharded_jobs().get()));
    json.push_str(&format!("  \"samples\": {SAMPLES},\n  \"entries\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        let full_work = r.rounds as u64 * r.states as u64;
        assert!(
            r.inc_recomputes < full_work,
            "{} {}: incremental must recompute strictly fewer than rounds × n",
            r.name,
            r.bound
        );
        println!(
            "{:<12} {:>5} {:>9} {:>10} {:>7} {:>12} {:>12} {:>7.1}% {:>8}µs {:>8}µs {:>8}µs",
            r.name,
            r.bound,
            r.states,
            r.transitions,
            r.rounds,
            r.full_recomputes,
            r.inc_recomputes,
            100.0 * r.inc_dirty_states as f64 / full_work.max(1) as f64,
            r.full_us,
            r.inc_us,
            r.sharded_us,
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"bound\": \"{}\", \"states\": {}, \"transitions\": {}, \
             \"rounds\": {}, \
             \"full\": {{\"sig_recomputes\": {}, \"peak_sig_bytes\": {}, \"min_wall_us\": {}}}, \
             \"incremental\": {{\"sig_recomputes\": {}, \"dirty_states\": {}, \
             \"peak_sig_bytes\": {}, \"min_wall_us\": {}}}, \
             \"fused\": {{\"jobs\": {}, \"sig_recomputes\": {}, \"min_wall_us\": {}}}, \
             \"partitions_equal\": true}}{}\n",
            r.name,
            r.bound,
            r.states,
            r.transitions,
            r.rounds,
            r.full_recomputes,
            r.full_peak_sig_bytes,
            r.full_us,
            r.inc_recomputes,
            r.inc_dirty_states,
            r.inc_peak_sig_bytes,
            r.inc_us,
            sharded_jobs().get(),
            r.sharded_recomputes,
            r.sharded_us,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");

    // ---- state-store sweep: rich hash map vs bit-packed arena -----------
    const STORE_SAMPLES: u32 = 2;
    println!("\n=== State store — rich hash map vs bit-packed arena ===");
    println!("(serial exploration, best of {STORE_SAMPLES} runs; byte counts deterministic,");
    println!(" `.aut` asserted identical between the stores)\n");
    println!(
        "{:<12} {:>5} {:>9} {:>10} {:>12} {:>12} {:>6} {:>10} {:>10}",
        "Object", "#T-#O", "states", "trans", "rich bytes", "arena bytes", "ratio", "rich time",
        "arena time"
    );
    let store_rows = [
        store_row("treiber", &Treiber::new(&[1]), 2, 2, STORE_SAMPLES),
        store_row("lazy-list", &LazyList::new(&[1]), 2, 2, STORE_SAMPLES),
        store_row("ms-queue", &MsQueue::new(&[1, 2]), 2, 2, STORE_SAMPLES),
        store_row("treiber", &Treiber::new(&[1]), 3, 2, STORE_SAMPLES),
        store_row("newcas", &NewCas::new(2), 3, 3, STORE_SAMPLES),
        store_row("newcas", &NewCas::new(2), 3, 4, STORE_SAMPLES),
    ];
    json.push_str("  \"store_entries\": [\n");
    for (i, r) in store_rows.iter().enumerate() {
        let ratio = r.rich_bytes as f64 / r.compact_bytes.max(1) as f64;
        println!(
            "{:<12} {:>5} {:>9} {:>10} {:>12} {:>12} {:>5.1}x {:>8}µs {:>8}µs",
            r.name,
            r.bound,
            r.states,
            r.transitions,
            r.rich_bytes,
            r.compact_bytes,
            ratio,
            r.rich_us,
            r.compact_us,
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"bound\": \"{}\", \"states\": {}, \"transitions\": {}, \
             \"rich\": {{\"store_bytes\": {}, \"min_wall_us\": {}}}, \
             \"compact\": {{\"store_bytes\": {}, \"raw_bytes\": {}, \"stored_bytes\": {}, \
             \"min_wall_us\": {}}}, \"aut_identical\": true}}{}\n",
            r.name,
            r.bound,
            r.states,
            r.transitions,
            r.rich_bytes,
            r.rich_us,
            r.compact_bytes,
            r.raw_bytes,
            r.stored_bytes,
            r.compact_us,
            if i + 1 == store_rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = bb_persist::write_atomic(std::path::Path::new(out), json.as_bytes()) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(3);
    }
    println!("\n(report written to {out})");

    let Some(gate) = against else { return };
    let base_text = match std::fs::read_to_string(&gate.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", gate.baseline);
            std::process::exit(3);
        }
    };
    let baseline = match bb_bench::perf::parse_report(&base_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: baseline {}: {e}", gate.baseline);
            std::process::exit(3);
        }
    };
    // Re-parsing our own emission keeps the gate honest: it sees exactly
    // what a future run diffing against `out` as a baseline would see.
    let current = match bb_bench::perf::parse_report(&json) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: fresh report failed to parse: {e}");
            std::process::exit(3);
        }
    };
    println!("\n=== Perf gate — current vs {} ===\n", gate.baseline);
    let mut checks = bb_bench::perf::compare(&baseline, &current, gate.max_regress_pct);
    // Store entries gate the same way; baselines predating the compact
    // store (no `store_entries`) parse as empty and contribute no checks.
    let (base_store, cur_store) = match (
        bb_bench::perf::parse_store_report(&base_text),
        bb_bench::perf::parse_store_report(&json),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: store entries: {e}");
            std::process::exit(3);
        }
    };
    checks.extend(bb_bench::perf::compare_store(&base_store, &cur_store, gate.max_regress_pct));
    let regressions = bb_bench::perf::report(&checks, gate.max_regress_pct, |line| {
        println!("{line}");
    });
    if regressions > 0 {
        eprintln!("perf gate FAILED: {regressions} regression(s) beyond {}%", gate.max_regress_pct);
        std::process::exit(1);
    }
}
