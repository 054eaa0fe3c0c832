//! `benchmark`: times `bbv verify` end to end on four workloads, with a
//! traced per-layer pass. See `README.md` next to this crate.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run --workload lockfree-proof --seed 1 --seconds 8 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A B
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads wait4 rusage with the 64-bit Linux layout");

mod host;
mod metrics;
mod pool;
mod proc;
mod stats;
mod traced;

use bb_obs::json::JsonValue;
use metrics::{Samples, END_TO_END, PER_LAYER};
use pool::{parse_outcome, pass_order, Instance, Outcome};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use traced::{Span, Tracer};

#[global_allocator]
static ALLOC: traced::CountingAlloc = traced::CountingAlloc;

/// Warm-up passes before timing; `setup_s` is the median of their times.
const SETUP_PASSES: u64 = 2;
/// Every instance gets at least this many timed samples, however long that
/// takes past `--seconds`.
const MIN_SAMPLES: usize = 2;
/// Repetitions of the traced pass.
const TRACE_REPS: u64 = 3;
/// A `bbv` run taking longer than this is killed and counted as failed.
const RUN_LIMIT: Duration = Duration::from_secs(60);

const USAGE: &str = "\
usage: benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       benchmark compare A B   (A, B: results files or directories of them)
workloads: lockfree-proof, blocking-lin, refuted, governed";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The benchmark package directory.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
        out: bench_dir().join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => r.workload = value.clone(),
            "--seed" => r.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => r.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                r.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => r.out = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
        }
    }
    if !pool::WORKLOADS.contains(&r.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", r.workload));
    }
    Ok(r)
}

/// Builds `bbv` from the repository's sources and returns its path, as
/// reported by cargo (which honours `CARGO_TARGET_DIR`).
fn build_bbv() -> Result<PathBuf, String> {
    let root = bench_dir()
        .parent()
        .ok_or("benchmark directory has no parent")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--bin", "bbv"])
        .args([
            "--message-format=json-render-diagnostics",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not run cargo: {e}"))?;
    if !out.status.success() {
        return Err("building bbv failed".into());
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| bb_obs::json::parse(l).ok())
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(JsonValue::as_str)
                == Some("bbv")
        })
        .find_map(|m| {
            m.get("executable")
                .and_then(JsonValue::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no bbv executable".into())
}

/// A directory removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One measured and checked `bbv verify` run.
struct BbvRun {
    measured: proc::Measured,
    outcome: Outcome,
    spill_segments: f64,
    spill_bytes: f64,
    /// Why the run does not match the expected file, if it does not.
    failure: Option<String>,
}

fn run_bbv(bbv: &Path, inst: &Instance, work: &Path) -> Result<BbvRun, String> {
    let spill = work.join("spill");
    let stdout_path = work.join("stdout");
    let stderr_path = work.join("stderr");
    let io = |e: std::io::Error| format!("{}: {e}", inst.label());
    let mut cmd = Command::new(bbv);
    cmd.arg("verify")
        .args(inst.argv(&spill))
        .args(["--jobs", "1", "--quiet"])
        .stdin(Stdio::null())
        .stdout(std::fs::File::create(&stdout_path).map_err(io)?)
        .stderr(std::fs::File::create(&stderr_path).map_err(io)?);
    let measured = proc::run(&mut cmd, RUN_LIMIT).map_err(io)?;
    let stdout = std::fs::read_to_string(&stdout_path).map_err(io)?;
    let outcome = parse_outcome(&stdout);
    let (mut spill_segments, mut spill_bytes) = (0.0, 0.0);
    if let Ok(entries) = std::fs::read_dir(&spill) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().ends_with(".bbp") {
                spill_segments += 1.0;
                spill_bytes += e.metadata().map_or(0, |m| m.len()) as f64;
            }
        }
        std::fs::remove_dir_all(&spill).map_err(io)?;
    }
    let failure = if measured.timed_out {
        Some(format!("killed after {RUN_LIMIT:?}"))
    } else if let Some(sig) = std::os::unix::process::ExitStatusExt::signal(&measured.status) {
        Some(format!("died on signal {sig}"))
    } else if measured.status.code() != Some(inst.exit) {
        Some(format!(
            "exit {:?}, expected {}",
            measured.status.code(),
            inst.exit
        ))
    } else if outcome.verdict != inst.verdict {
        Some(format!(
            "verdict `{}`, expected `{}`",
            outcome.verdict, inst.verdict
        ))
    } else {
        None
    };
    let failure = failure.map(|why| {
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        format!("{}: {why} {tail:?}", inst.label())
    });
    Ok(BbvRun {
        measured,
        outcome,
        spill_segments,
        spill_bytes,
        failure,
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let all = pool::parse_expected(include_str!("../expected.tsv"))?;
    let insts: Vec<Instance> = all
        .into_iter()
        .filter(|i| i.workload == a.workload)
        .collect();
    let bbv = build_bbv()?;
    let work = WorkDir(a.out.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |r: BbvRun| {
        attempted += 1;
        if let Some(f) = r.failure.clone() {
            eprintln!("FAILED {f}");
            failures.push(f);
        }
        r
    };

    // The reference kernel runs before every `bbv` run, outside the times
    // it scales; each phase is scaled by the kernel's times in that phase.
    let mut setup_kernel_ms = Vec::new();

    // Set-up: untimed warm-up passes, each one checked run per instance.
    let mut setup_passes_s = Vec::new();
    for pass in 0..SETUP_PASSES {
        let mut pass_s = 0.0;
        for i in pass_order(insts.len(), a.seed, pass) {
            setup_kernel_ms.push(host::reference_ms());
            let t = Instant::now();
            check(run_bbv(&bbv, &insts[i], &work.0)?);
            pass_s += t.elapsed().as_secs_f64();
        }
        setup_passes_s.push(pass_s);
    }
    eprintln!("{}: set-up passes {setup_passes_s:.2?} s", a.workload);

    // Timed phase: one client in a closed loop over seeded pass orders.
    let mut samples = vec![Samples::default(); insts.len()];
    let start = Instant::now();
    'timed: for pass in SETUP_PASSES.. {
        for i in pass_order(insts.len(), a.seed, pass) {
            let enough = samples.iter().all(|s| s.wall_ms.len() >= MIN_SAMPLES);
            if enough && start.elapsed().as_secs_f64() >= a.seconds {
                break 'timed;
            }
            let kernel_ms = host::reference_ms();
            let r = check(run_bbv(&bbv, &insts[i], &work.0)?);
            let s = &mut samples[i];
            s.kernel_ms.push(kernel_ms);
            s.wall_ms.push(r.measured.wall_ms);
            s.cpu_ms.push(r.measured.cpu_ms);
            s.rss_mb.push(r.measured.rss_mb);
            s.spill_segments.push(r.spill_segments);
            s.spill_bytes.push(r.spill_bytes);
        }
    }
    eprintln!(
        "{}: timed phase {:.2} s",
        a.workload,
        start.elapsed().as_secs_f64()
    );
    let timed_kernel_ms: Vec<f64> = samples.iter().flat_map(|s| s.kernel_ms.clone()).collect();
    let speed = [
        host::speed_factor(&setup_kernel_ms),
        host::speed_factor(&timed_kernel_ms),
    ];
    let e2e = metrics::end_to_end(&setup_passes_s, &samples, speed);
    let e2e_raw = metrics::end_to_end(&setup_passes_s, &samples, [1.0, 1.0]);
    let labels: Vec<String> = insts.iter().map(Instance::label).collect();

    let base = format!("{}-s{}-t{}", a.workload, a.seed, u8::from(a.trace));
    let (mut results_file, stem) = claim_results_file(&a.out, &base)?;
    let (layers, mismatches) = if a.trace {
        let (spans, mismatches) = traced_pass(&insts, &bbv, a.seed, &work.0, &mut check)?;
        let path = a.out.join(format!("{stem}.trace.ndjson"));
        let spans = write_and_reload(&spans, &path)?;
        let rows = metrics::per_layer(&spans, &labels, &samples);
        (Some(rows), mismatches)
    } else {
        (None, Vec::new())
    };

    // The results file: every number behind the metrics.
    let e2e_rows = || {
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(m, v)| (m.name, m.unit, *v))
    };
    let layer_rows = |v: &[f64]| {
        PER_LAYER
            .iter()
            .zip(v.to_vec())
            .map(|(m, v)| (m.name, m.unit, v))
    };
    let instances = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let s = &samples[i];
            let mut fields = vec![
                ("instance".to_string(), JsonValue::Str(labels[i].clone())),
                ("verdict".into(), JsonValue::Str(inst.verdict.clone())),
                ("wall_ms".into(), metrics::summary_json(&s.wall_ms)),
                ("cpu_ms".into(), metrics::summary_json(&s.cpu_ms)),
                ("rss_mb".into(), metrics::summary_json(&s.rss_mb)),
                (
                    "samples".into(),
                    JsonValue::Obj(vec![
                        ("wall_ms".into(), numbers(&s.wall_ms)),
                        ("cpu_ms".into(), numbers(&s.cpu_ms)),
                        ("kernel_ms".into(), numbers(&s.kernel_ms)),
                    ]),
                ),
            ];
            if let Some(rows) = &layers {
                fields.push((
                    "per_layer".into(),
                    metrics::metrics_json(layer_rows(&rows[i])),
                ));
            }
            JsonValue::Obj(fields)
        })
        .collect();
    let correct = failures.is_empty() && mismatches.is_empty();
    let strings = |v: &[String]| JsonValue::Arr(v.iter().cloned().map(JsonValue::Str).collect());
    let num = JsonValue::Num;
    let mut doc = vec![
        (
            "schema".to_string(),
            JsonValue::Str("bbv-benchmark/v1".into()),
        ),
        ("workload".into(), JsonValue::Str(a.workload.clone())),
        ("seed".into(), num(a.seed as f64)),
        ("seconds".into(), num(a.seconds)),
        ("trace".into(), JsonValue::Bool(a.trace)),
        ("host".into(), host::describe()),
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failures.len() as f64)),
        ("failures".into(), strings(&failures)),
        ("cross_check_mismatches".into(), strings(&mismatches)),
        ("setup_passes_s".into(), numbers(&setup_passes_s)),
        (
            "reference_kernel_ms".into(),
            JsonValue::Obj(vec![
                ("set_up".into(), numbers(&setup_kernel_ms)),
                ("timed".into(), numbers(&timed_kernel_ms)),
            ]),
        ),
        ("instances".into(), JsonValue::Arr(instances)),
        ("metrics".into(), metrics::metrics_json(e2e_rows())),
        (
            "metrics_unscaled".into(),
            metrics::metrics_json(
                END_TO_END
                    .iter()
                    .zip(&e2e_raw)
                    .map(|(m, v)| (m.name, m.unit, *v)),
            ),
        ),
    ];
    let totals = layers.as_deref().map(metrics::totals);
    if let Some(v) = &totals {
        doc.push(("per_layer".into(), metrics::metrics_json(layer_rows(v))));
    }
    let results_path = a.out.join(format!("{stem}.json"));
    writeln!(results_file, "{}", JsonValue::Obj(doc).render())
        .map_err(|e| format!("{}: {e}", results_path.display()))?;

    let shown: Vec<(&str, &str, f64)> = match &totals {
        Some(v) => layer_rows(v).collect(),
        None => e2e_rows().collect(),
    };
    for (name, unit, value) in &shown {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!("results: {}", results_path.display());
    let line = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failures.len() as f64)),
        ("metrics".into(), metrics::metrics_json(shown.into_iter())),
    ]);
    println!("{}", line.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The traced pass, [`TRACE_REPS`] times over the pool in seeded orders.
/// Each traced instance follows a checked `bbv` run of it, recorded as a
/// `bbv` span: the two run back to back, so their difference
/// (`bbv.unattributed_ms`) is not blurred by drift in host speed. Returns
/// the spans and, from the first repetition, every instance where the
/// in-process verdict, `|Δ|` or `|Δ/≈|` differs from what that `bbv` run
/// printed.
fn traced_pass(
    insts: &[Instance],
    bbv: &Path,
    seed: u64,
    work: &Path,
    check: &mut dyn FnMut(BbvRun) -> BbvRun,
) -> Result<(Vec<Span>, Vec<String>), String> {
    let mut tracer = Tracer::new();
    let mut mismatches = Vec::new();
    for rep in 0..TRACE_REPS {
        for i in pass_order(insts.len(), seed, 1000 + rep) {
            let printed = check(run_bbv(bbv, &insts[i], work)?);
            tracer.bbv_run(&insts[i], rep, printed.measured.wall_ms);
            let spill = insts[i].spills().then(|| work.join("traced-spill"));
            let seen = tracer.instance(&insts[i], rep, spill.clone());
            if let Some(dir) = spill {
                let _ = std::fs::remove_dir_all(dir);
            }
            let bbv_saw = &printed.outcome;
            let agrees = seen.as_ref().is_ok_and(|s| {
                s.verdict == bbv_saw.verdict
                    && Some(s.states) == bbv_saw.states
                    && Some(s.quotient_states) == bbv_saw.quotient_states
                    && s.summary
                        .as_ref()
                        .is_none_or(|l| Some(l) == bbv_saw.summary.as_ref())
            });
            if rep == 0 && !agrees {
                let m = format!(
                    "{}: traced {seen:?}, bbv printed {bbv_saw:?}",
                    insts[i].label()
                );
                eprintln!("MISMATCH {m}");
                mismatches.push(m);
            }
        }
    }
    eprintln!("traced pass {:.2} s", tracer.elapsed_s());
    Ok((tracer.spans, mismatches))
}

/// Writes the spans as NDJSON and reads them back: the per-layer metrics
/// are derived from the file, so it always holds what they describe.
fn write_and_reload(spans: &[Span], path: &Path) -> Result<Vec<Span>, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let lines: String = spans.iter().map(|s| s.to_json() + "\n").collect();
    std::fs::write(path, lines).map_err(io)?;
    std::fs::read_to_string(path)
        .map_err(io)?
        .lines()
        .map(Span::from_json)
        .collect()
}

/// Creates the first free results file `<base>-<n>.json` in `out`, so
/// repeated runs with the same arguments never overwrite each other.
/// Returns it with its stem, which the trace file shares.
fn claim_results_file(out: &Path, base: &str) -> Result<(std::fs::File, String), String> {
    for n in 1.. {
        let stem = format!("{base}-{n}");
        let path = out.join(format!("{stem}.json"));
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(f) => return Ok((f, stem)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    unreachable!("the loop returns")
}

/// A JSON array of numbers.
fn numbers(xs: &[f64]) -> JsonValue {
    JsonValue::Arr(xs.iter().map(|v| JsonValue::Num(*v)).collect())
}

/// Results files at `path`: the file itself, or every `*.json` in it.
fn load_results(path: &str) -> Result<Vec<JsonValue>, String> {
    let p = Path::new(path);
    let files: Vec<PathBuf> = if p.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(p)
            .map_err(|e| format!("{path}: {e}"))?
            .flatten()
            .map(|e| e.path())
            .filter(|f| f.extension().is_some_and(|x| x == "json"))
            .collect();
        v.sort();
        v
    } else {
        vec![p.to_path_buf()]
    };
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            bb_obs::json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let (report, regressed) = metrics::compare(&load_results(a)?, &load_results(b)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
