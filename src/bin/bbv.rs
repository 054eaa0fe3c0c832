//! `bbv` — command-line front end for the branching-bisimulation verifier.
//!
//! ```sh
//! bbv list
//! bbv verify ms-queue --threads 2 --ops 2
//! bbv verify ms-queue --threads 3 --ops 3 --timeout 30s --max-states 1e6
//! bbv verify hm-list-buggy --threads 2 --ops 2      # shows the counterexample
//! bbv quotient treiber --threads 2 --ops 1 --dot out.dot
//! bbv check hw-queue --formula "G F (ret | done)"   # arbitrary next-free LTL
//! bbv verify ms-queue --ops 3 --timeout 1h --checkpoint ckpt/   # crash-safe
//! bbv resume ckpt/                                  # continue a killed run
//! bbv verify treiber --cache .bbv-cache             # memoize the verdict
//! bbv cache stats .bbv-cache
//! bbv serve --dir .bbv-serve --workers 4 --cache .bbv-cache    # daemon
//! bbv submit verify treiber --dir .bbv-serve        # served run, same bytes
//! ```
//!
//! Every verification command — direct or served — runs through
//! `bb_serve::runner::execute`, so a served job's stdout, artifacts and
//! exit code are byte-identical to a direct run of the same spec.
//!
//! Exit codes: `0` every checked property was proved, `1` a property was
//! refuted, `2` the verification was inconclusive (budget exhausted or an
//! internal fault), `3` usage or parse error.

use bbverify::algorithms::roster::ALGORITHMS;
use bbverify::serve::{
    discover_addr, execute, CheckpointCtl, Client, Command, JobSpec, RunCtl, ServeConfig,
    EXIT_PROVED, EXIT_REFUTED, EXIT_USAGE,
};
use bbverify::lts::Jobs;
use bb_obs::json::JsonValue;
use bb_persist::Cache;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// CLI options: the [`JobSpec`] knobs plus flags that only exist on the
/// command line (output paths, observability, persistence directories).
struct Options {
    threads: u8,
    ops: u32,
    domain: Vec<i64>,
    check_lock_freedom: bool,
    wait_freedom: bool,
    dot: Option<String>,
    aut: Option<String>,
    formula: Option<String>,
    timeout: Option<Duration>,
    max_states: Option<usize>,
    max_transitions: Option<usize>,
    max_memory: Option<usize>,
    no_fallback: bool,
    jobs: Jobs,
    metrics: Option<String>,
    trace: Option<String>,
    progress: bool,
    quiet: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    cache: Option<String>,
    spill: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            threads: 2,
            ops: 2,
            domain: vec![1, 2],
            check_lock_freedom: true,
            wait_freedom: false,
            dot: None,
            aut: None,
            formula: None,
            timeout: None,
            max_states: None,
            max_transitions: None,
            max_memory: None,
            no_fallback: false,
            jobs: Jobs::available(),
            metrics: None,
            trace: None,
            progress: false,
            quiet: false,
            checkpoint: None,
            checkpoint_every: None,
            cache: None,
            spill: None,
        }
    }
}

impl Options {
    /// The result-relevant subset of these options as a daemon-shippable
    /// job spec.
    fn to_spec(&self, command: Command, algorithm: &str) -> JobSpec {
        JobSpec {
            command,
            algorithm: algorithm.to_string(),
            threads: self.threads,
            ops: self.ops,
            domain: self.domain.clone(),
            check_lock_freedom: self.check_lock_freedom,
            wait_freedom: self.wait_freedom,
            formula: self.formula.clone(),
            timeout: self.timeout,
            max_states: self.max_states,
            max_transitions: self.max_transitions,
            max_memory: self.max_memory,
            no_fallback: self.no_fallback,
            jobs: self.jobs,
        }
    }
}

/// Parses a duration like `30s`, `1.5s`, `500ms`, `2m`, or plain seconds.
fn parse_duration(raw: &str) -> Result<Duration, String> {
    let s = raw.trim();
    let (num, scale) = if let Some(x) = s.strip_suffix("ms") {
        (x, 1e-3)
    } else if let Some(x) = s.strip_suffix('s') {
        (x, 1.0)
    } else if let Some(x) = s.strip_suffix('m') {
        (x, 60.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("`{raw}` is not a duration (try 30s, 500ms, 2m)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("`{raw}` is not a non-negative duration"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Parses a count like `1000000`, `1_000_000`, or `1e6`.
fn parse_count(raw: &str) -> Result<usize, String> {
    let clean: String = raw.chars().filter(|c| *c != '_').collect();
    if let Ok(n) = clean.parse::<usize>() {
        return Ok(n);
    }
    let v: f64 = clean
        .parse()
        .map_err(|_| format!("`{raw}` is not a count (try 1000000 or 1e6)"))?;
    if !v.is_finite() || v < 0.0 || v > usize::MAX as f64 {
        return Err(format!("`{raw}` is out of range for a count"));
    }
    Ok(v as usize)
}

/// Parses the options of `command`. An option the command would ignore is
/// an error naming it, as `JobSpec::validate` does for the spec's knobs.
fn parse_options(args: &[String], command: Command) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                opts.threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--ops" => {
                opts.ops = it
                    .next()
                    .ok_or("--ops needs a value")?
                    .parse()
                    .map_err(|e| format!("--ops: {e}"))?;
            }
            "--domain" => {
                let raw = it.next().ok_or("--domain needs a value, e.g. 1,2,3")?;
                opts.domain = raw
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("--domain: {e}")))
                    .collect::<Result<_, _>>()?;
                if opts.domain.is_empty() {
                    return Err("--domain must not be empty".into());
                }
            }
            "--no-lock-freedom" => opts.check_lock_freedom = false,
            "--wait-freedom" => opts.wait_freedom = true,
            "--dot" => opts.dot = Some(it.next().ok_or("--dot needs a path")?.clone()),
            "--aut" => opts.aut = Some(it.next().ok_or("--aut needs a path")?.clone()),
            "--formula" => {
                opts.formula = Some(it.next().ok_or("--formula needs an LTL formula")?.clone())
            }
            "--timeout" => {
                opts.timeout =
                    Some(parse_duration(it.next().ok_or("--timeout needs a duration")?)?)
            }
            "--max-states" => {
                opts.max_states =
                    Some(parse_count(it.next().ok_or("--max-states needs a count")?)?)
            }
            "--max-transitions" => {
                opts.max_transitions =
                    Some(parse_count(it.next().ok_or("--max-transitions needs a count")?)?)
            }
            "--max-memory" => {
                opts.max_memory =
                    Some(parse_count(it.next().ok_or("--max-memory needs a byte count")?)?)
            }
            "--no-fallback" => opts.no_fallback = true,
            "--jobs" => {
                let n: usize = it
                    .next()
                    .ok_or("--jobs needs a thread count")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Jobs::new(n);
            }
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a path")?.clone())
            }
            "--trace" => opts.trace = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--progress" => opts.progress = true,
            "--quiet" => opts.quiet = true,
            "--checkpoint" => {
                opts.checkpoint = Some(it.next().ok_or("--checkpoint needs a directory")?.clone())
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(parse_count(
                    it.next().ok_or("--checkpoint-every needs a round count")?,
                )? as u64)
            }
            "--cache" => {
                opts.cache = Some(it.next().ok_or("--cache needs a directory")?.clone())
            }
            "--spill" => {
                opts.spill = Some(it.next().ok_or("--spill needs a directory")?.clone())
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint DIR".into());
    }
    if command != Command::Quotient {
        for (flag, set) in [("--dot", opts.dot.is_some()), ("--aut", opts.aut.is_some())] {
            if set {
                return Err(format!("{flag} works only on `quotient`"));
            }
        }
    }
    Ok(opts)
}

fn print_usage() {
    eprintln!("usage: bbv <list|verify|quotient|check> [algorithm] [options]");
    eprintln!("       bbv resume <checkpoint-dir> [extra options]");
    eprintln!("       bbv cache <stats|verify|gc> <cache-dir> [--json]");
    eprintln!("       bbv serve [--dir D] [--addr H:P] [--workers N] [--queue N] [--cache DIR]");
    eprintln!("                 [--metrics-addr H:P]   (Prometheus exposition on /metrics)");
    eprintln!("       bbv submit [command] <algorithm> [options] [--priority N] [--detach]");
    eprintln!("       bbv <status|watch|cancel> <job>  /  bbv <stats|drain|ping>");
    eprintln!("       bbv top [--interval MS] [--once]   (live daemon dashboard; plain");
    eprintln!("               line-per-refresh when stdout is not a terminal)");
    eprintln!("       bbv jobs dump <job>    (flight-recorder dump: live ring or post-mortem)");
    eprintln!("       bbv metrics [--lint]   (print the exposition; --lint checks the format)");
    eprintln!("  options: --threads N  --ops N  --domain 1,2");
    eprintln!("           --no-lock-freedom  --wait-freedom  --dot FILE  --aut FILE");
    eprintln!("           --formula \"G F (ret | done)\"   (for `check` only)");
    eprintln!("           --no-lock-freedom works on `verify` only");
    eprintln!("           --dot and --aut write the quotient: `quotient` only");
    eprintln!("           --wait-freedom runs on `verify` without a budget flag only");
    eprintln!("           --jobs N   (worker threads; default = all cores, output identical)");
    eprintln!("  observe: --metrics FILE   (phase spans + counters as one JSON document)");
    eprintln!("           --trace FILE     (per-span event stream, NDJSON)");
    eprintln!("           --progress       (stderr heartbeat: states/sec, frontier depth)");
    eprintln!("           --quiet          (silence diagnostic counters on stderr)");
    eprintln!("           observability is output-neutral: stdout, .aut files and exit");
    eprintln!("           codes are byte-identical with or without these flags");
    eprintln!("  budget:  --timeout 30s  --max-states 1e6  --max-transitions 1e7");
    eprintln!("           --max-memory 2e9  --no-fallback   (`verify` with a budget flag only)");
    eprintln!("           --spill DIR     (spill cold seen-set segments to disk when memory");
    eprintln!("           nears the cap; verdicts and artifacts stay byte-identical)");
    eprintln!("           with a budget, `verify` degrades gracefully: on exhaustion it");
    eprintln!("           retries with strong-bisimulation pre-reduction, then a smaller");
    eprintln!("           bound, and reports which rung answered");
    eprintln!("  persist: --checkpoint DIR       (cut crash-safe checkpoints; `bbv resume DIR`");
    eprintln!("           replays the recorded invocation, seeds every completed section and");
    eprintln!("           converges to the byte-identical verdict of an uninterrupted run)");
    eprintln!("           --checkpoint-every N   (with --checkpoint: also cut every N refinement");
    eprintln!("           rounds; default 8)");
    eprintln!("           --cache DIR            (content-addressed result cache: conclusive");
    eprintln!("           verdicts and quotient artifacts replay byte-identically on a hit;");
    eprintln!("           corrupt entries are detected and recomputed, never trusted)");
    eprintln!("  serve:   `bbv serve` runs the verification daemon (protocol bb-serve/v1):");
    eprintln!("           bounded priority queue with cache-backed admission, crash-safe");
    eprintln!("           submit journal, live progress streaming to `bbv watch`; a served");
    eprintln!("           job's stdout/artifacts/exit code are byte-identical to a direct");
    eprintln!("           run of the same spec. Clients find the daemon via --addr H:P or");
    eprintln!("           --dir D (reads D/serve.addr).");
    eprintln!("  exit codes: 0 proved   1 refuted   2 inconclusive (budget/internal fault)");
    eprintln!("              3 usage or parse error");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(main_dispatch(&args));
}

/// Top-level command dispatch; `bbv resume` re-enters it with the replayed
/// argv, so it must stay free of process-global side effects of its own.
fn main_dispatch(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("available algorithms:");
            for (name, desc, _) in ALGORITHMS {
                println!("  {name:<18} {desc}");
            }
            EXIT_PROVED
        }
        Some("help") | Some("--help") | Some("-h") => {
            print_usage();
            EXIT_PROVED
        }
        Some("resume") => resume(&args[1..]),
        Some("cache") => cache_admin(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("submit") => client_submit(&args[1..]),
        Some(cmd @ ("status" | "watch" | "cancel")) => client_job_cmd(cmd, &args[1..]),
        Some(cmd @ ("stats" | "drain" | "ping")) => client_daemon_cmd(cmd, &args[1..]),
        Some("top") => top_cmd(&args[1..]),
        Some("jobs") => jobs_cmd(&args[1..]),
        Some("metrics") => metrics_cmd(&args[1..]),
        Some(cmd @ ("verify" | "quotient" | "check")) => {
            let command = Command::parse(cmd).expect("matched command words parse");
            run(&args[1..], command)
        }
        other => {
            if let Some(cmd) = other {
                eprintln!("error: unknown command `{cmd}`");
            }
            print_usage();
            EXIT_USAGE
        }
    }
}

/// `bbv resume <dir> [overrides]`: replay the argv recorded in the
/// checkpoint at `dir`. The re-run installs its checkpoint session at
/// `dir` (the recorded `--checkpoint` value is replaced, so a moved or
/// copied directory resumes itself), seeds every completed section, and
/// converges to the byte-identical verdict of an uninterrupted run.
/// Overrides are appended after the recorded flags, so later occurrences
/// win (`bbv resume ckpt --timeout 60s` raises the budget that tripped the
/// original run).
fn resume(args: &[String]) -> i32 {
    let Some(dir) = args.first() else {
        eprintln!("usage: bbv resume <checkpoint-dir> [extra options]");
        return EXIT_USAGE;
    };
    let Some(mut argv) = bb_persist::recorded_argv(Path::new(dir)) else {
        eprintln!("error: no readable checkpoint in `{dir}` (nothing to resume)");
        return EXIT_USAGE;
    };
    if argv.first().map(String::as_str) == Some("resume") {
        eprintln!("error: checkpoint in `{dir}` records a recursive resume; refusing");
        return EXIT_USAGE;
    }
    match argv.iter().position(|a| a == "--checkpoint") {
        Some(i) if i + 1 < argv.len() => argv[i + 1] = dir.clone(),
        _ => argv.extend(["--checkpoint".to_string(), dir.clone()]),
    }
    argv.extend(args[1..].iter().cloned());
    // Stderr only: the resumed run's stdout must stay byte-identical.
    eprintln!("resuming from {dir}: bbv {}", argv.join(" "));
    main_dispatch(&argv)
}

/// `bbv cache <stats|verify|gc> <dir> [--json]`: inspect and maintain a
/// result cache. `verify` exits 1 when corrupt entries exist (for CI);
/// `gc` removes corrupt and old-format entries. `stats --json` emits the
/// same `bb-cache/v1` object the serve daemon embeds in its `stats` reply.
fn cache_admin(args: &[String]) -> i32 {
    let json = args.iter().any(|a| a == "--json");
    let pos: Vec<&String> = args.iter().filter(|a| a.as_str() != "--json").collect();
    let (Some(op), Some(dir)) = (pos.first(), pos.get(1)) else {
        eprintln!("usage: bbv cache <stats|verify|gc> <cache-dir> [--json]");
        return EXIT_USAGE;
    };
    let cache = match Cache::open(Path::new(dir.as_str())) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: could not open cache directory {dir}: {e}");
            return EXIT_USAGE;
        }
    };
    // One aligned `label : value` table across all three subcommands.
    let row = |label: &str, value: &dyn std::fmt::Display| println!("{label:<8}: {value}");
    match op.as_str() {
        "stats" => {
            let s = cache.stats();
            if json {
                println!("{}", s.to_json());
            } else {
                row("cache", dir);
                row("entries", &s.entries);
                row("bytes", &s.bytes);
                row("corrupt", &s.corrupt);
            }
            EXIT_PROVED
        }
        "verify" => {
            let (ok, corrupt) = cache.verify();
            row("intact", &ok.len());
            row("corrupt", &corrupt.len());
            for p in &corrupt {
                println!("  {}", p.display());
            }
            if corrupt.is_empty() {
                EXIT_PROVED
            } else {
                EXIT_REFUTED
            }
        }
        "gc" => {
            let removed = cache.gc();
            row("removed", &removed);
            EXIT_PROVED
        }
        other => {
            eprintln!("unknown cache operation `{other}`; try stats, verify or gc");
            EXIT_USAGE
        }
    }
}

/// Writes the artifacts the current flags ask for (quotient `--dot`/`--aut`)
/// through the atomic writer. Called for live, cache-replayed and served
/// runs alike, so a hit honours the paths of *this* invocation, not the
/// recorded one.
fn write_requested_artifacts(artifacts: &[(String, Vec<u8>)], opts: &Options, code: i32) -> i32 {
    let mut code = code;
    let find = |name: &str| artifacts.iter().find(|(n, _)| n == name).map(|(_, b)| b);
    let requests: [(&Option<String>, &str, &str); 2] = [
        (&opts.dot, "dot", "Graphviz DOT"),
        (&opts.aut, "aut", "Aldebaran .aut, CADP-compatible"),
    ];
    for (path, name, desc) in requests {
        let Some(path) = path else { continue };
        let Some(bytes) = find(name) else { continue };
        match bb_persist::write_atomic(Path::new(path), bytes) {
            Ok(()) => println!("quotient written to {path} ({desc})"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                code = EXIT_USAGE;
            }
        }
    }
    code
}

/// Writes the `--metrics` / `--trace` exports after a run. Failures go to
/// stderr only: observability never changes the verification exit code.
fn write_obs_outputs(session: &bb_obs::Session, opts: &Options, algorithm: &str, command: Command) {
    let meta: Vec<(&str, bb_obs::Value)> = vec![
        ("command", command.as_str().into()),
        ("algorithm", algorithm.into()),
        ("threads", u64::from(opts.threads).into()),
        ("ops", u64::from(opts.ops).into()),
        ("jobs", opts.jobs.get().into()),
    ];
    if let Some(path) = &opts.metrics {
        let json = session.metrics_json(&meta);
        if let Err(e) = bb_persist::write_atomic(Path::new(path), json.as_bytes()) {
            eprintln!("could not write metrics to {path}: {e}");
        }
    }
    if let Some(path) = &opts.trace {
        let ndjson = session.trace_ndjson();
        if let Err(e) = bb_persist::write_atomic(Path::new(path), ndjson.as_bytes()) {
            eprintln!("could not write trace to {path}: {e}");
        }
    }
}

/// Runs one direct verification command through the shared runner.
fn run(args: &[String], command: Command) -> i32 {
    let Some(name) = args.first() else {
        eprintln!("missing algorithm name; try `bbv list`");
        return EXIT_USAGE;
    };
    let opts = match parse_options(&args[1..], command) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    // Accept underscores interchangeably with dashes (`ms_queue` = `ms-queue`).
    let canon = name.replace('_', "-");
    let recording = opts.metrics.is_some() || opts.trace.is_some() || opts.progress;
    if recording {
        bb_obs::install(bb_obs::ObsConfig {
            progress: opts.progress,
            quiet: opts.quiet,
        });
    } else {
        bb_obs::set_quiet(opts.quiet);
    }
    let spec = opts.to_spec(command, &canon);
    let code = {
        let _root = bb_obs::span("bbv")
            .with("command", command.as_str())
            .with("algorithm", canon.as_str());
        run_spec(&spec, &opts, args)
    };
    if recording {
        if let Some(session) = bb_obs::finish() {
            write_obs_outputs(&session, &opts, &canon, command);
        }
    }
    code
}

/// Runs one parsed spec: wires the CLI persistence flags into a `RunCtl`,
/// executes through the shared runner, and prints the buffered outcome.
fn run_spec(spec: &JobSpec, opts: &Options, argv_tail: &[String]) -> i32 {
    let mut ctl = RunCtl {
        spill_dir: opts.spill.as_ref().map(PathBuf::from),
        ..RunCtl::default()
    };
    if let Some(dir) = &opts.checkpoint {
        // The raw command line (with the --checkpoint flags themselves) is
        // recorded, so `bbv resume` re-installs the session on replay.
        let mut argv = vec![spec.command.as_str().to_string()];
        argv.extend(argv_tail.iter().cloned());
        ctl.checkpoint = Some(CheckpointCtl {
            dir: PathBuf::from(dir),
            every: opts.checkpoint_every.unwrap_or(8),
            argv,
        });
    }
    let cache = match &opts.cache {
        Some(dir) => match Cache::open(Path::new(dir)) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("error: could not open cache directory {dir}: {e}");
                return EXIT_USAGE;
            }
        },
        None => None,
    };
    let result = execute(spec, cache.as_ref(), &ctl);
    print!("{}", result.stdout);
    write_requested_artifacts(&result.artifacts, opts, result.exit_code)
}

/// Client-side flags shared by every daemon-facing subcommand, split off
/// before the verification options are parsed.
struct ClientOpts {
    addr: Option<String>,
    dir: String,
    priority: i64,
    detach: bool,
    rest: Vec<String>,
}

fn split_client_flags(args: &[String]) -> Result<ClientOpts, String> {
    let mut c = ClientOpts {
        addr: None,
        dir: ".bbv-serve".into(),
        priority: 0,
        detach: false,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => c.addr = Some(it.next().ok_or("--addr needs host:port")?.clone()),
            "--dir" => c.dir = it.next().ok_or("--dir needs a serve directory")?.clone(),
            "--priority" => {
                c.priority = it
                    .next()
                    .ok_or("--priority needs an integer")?
                    .parse()
                    .map_err(|e| format!("--priority: {e}"))?;
            }
            "--detach" => c.detach = true,
            _ => c.rest.push(a.clone()),
        }
    }
    Ok(c)
}

/// Resolves the daemon address: explicit `--addr` wins, otherwise the
/// `serve.addr` discovery file in the serve directory.
fn connect(c: &ClientOpts) -> Result<Client, String> {
    let addr = match &c.addr {
        Some(a) => a.clone(),
        None => discover_addr(Path::new(&c.dir)).map_err(|e| e.to_string())?,
    };
    Client::connect(&addr).map_err(|e| format!("could not connect to {addr}: {e}"))
}

/// `bbv serve`: run the verification daemon in the foreground until a
/// client drains it.
fn serve_cmd(args: &[String]) -> i32 {
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--dir" => {
                    cfg.dir = PathBuf::from(it.next().ok_or("--dir needs a directory")?)
                }
                "--addr" => cfg.addr = it.next().ok_or("--addr needs host:port")?.clone(),
                "--workers" => {
                    let n: usize = it
                        .next()
                        .ok_or("--workers needs a count")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                    if n == 0 {
                        return Err("--workers must be at least 1".into());
                    }
                    cfg.workers = n;
                }
                "--queue" => {
                    cfg.queue_cap = it
                        .next()
                        .ok_or("--queue needs a capacity")?
                        .parse()
                        .map_err(|e| format!("--queue: {e}"))?;
                }
                "--cache" => {
                    cfg.cache = Some(PathBuf::from(it.next().ok_or("--cache needs a directory")?))
                }
                "--metrics-addr" => {
                    cfg.metrics_addr =
                        Some(it.next().ok_or("--metrics-addr needs host:port")?.clone())
                }
                other => return Err(format!("unknown serve option `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    }
    match bbverify::serve::serve(cfg) {
        Ok(()) => EXIT_PROVED,
        Err(e) => {
            eprintln!("serve error: {e}");
            EXIT_USAGE
        }
    }
}

/// `bbv submit [command] <algorithm> [options]`: ship a job to the daemon.
/// Waits for the result by default (stdout/artifacts/exit code then match a
/// direct run byte-for-byte); `--detach` just prints the job id.
fn client_submit(args: &[String]) -> i32 {
    let c = match split_client_flags(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let (command, name_idx) = match c.rest.first().map(String::as_str).and_then(Command::parse) {
        Some(cmd) => (cmd, 1),
        // Two leading words with no command among them: the first was meant
        // as one.
        None if c.rest.get(1).is_some_and(|a| !a.starts_with('-')) => {
            eprintln!("error: unknown command `{}`", c.rest[0]);
            return EXIT_USAGE;
        }
        None => (Command::Verify, 0),
    };
    let Some(name) = c.rest.get(name_idx) else {
        eprintln!("usage: bbv submit [verify|quotient|check] <algorithm> [options]");
        return EXIT_USAGE;
    };
    let opts = match parse_options(&c.rest[name_idx + 1..], command) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    for (flag, set) in [
        ("--checkpoint", opts.checkpoint.is_some()),
        ("--cache", opts.cache.is_some()),
        ("--metrics", opts.metrics.is_some()),
        ("--trace", opts.trace.is_some()),
        ("--spill", opts.spill.is_some()),
    ] {
        if set {
            eprintln!("note: {flag} is daemon-side; ignored for a submitted job");
        }
    }
    let spec = opts.to_spec(command, &name.replace('_', "-"));
    if let Err(e) = spec.validate() {
        eprintln!("error: {e}");
        return EXIT_USAGE;
    }
    let mut client = match connect(&c) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    if c.detach {
        return match client.submit(&spec, c.priority) {
            Ok(reply) => {
                println!("{}", reply.render());
                if reply.get("ok").and_then(JsonValue::as_bool) == Some(true) {
                    EXIT_PROVED
                } else {
                    EXIT_USAGE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                EXIT_USAGE
            }
        };
    }
    let progress = opts.progress;
    match client.submit_and_wait(&spec, c.priority, |ev| {
        // Live events go to stderr; stdout stays byte-identical to a
        // direct run.
        if progress {
            eprintln!("{}", ev.render());
        }
    }) {
        Ok(res) => {
            print!("{}", res.stdout);
            write_requested_artifacts(&res.artifacts, &opts, res.exit_code)
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_USAGE
        }
    }
}

/// `bbv status|watch|cancel <job>`: single-job client commands.
fn client_job_cmd(cmd: &str, args: &[String]) -> i32 {
    let c = match split_client_flags(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let Some(job) = c.rest.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("usage: bbv {cmd} <job-id> [--dir D | --addr H:P]");
        return EXIT_USAGE;
    };
    let mut client = match connect(&c) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let reply = match cmd {
        "status" => client.status(job),
        "cancel" => client.cancel(job),
        "watch" => client.watch(job, |ev| println!("{}", ev.render())),
        _ => unreachable!("dispatch covers the command words"),
    };
    print_reply(reply)
}

/// `bbv stats|drain|ping`: daemon-wide client commands.
fn client_daemon_cmd(cmd: &str, args: &[String]) -> i32 {
    let c = match split_client_flags(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    if !c.rest.is_empty() {
        eprintln!("usage: bbv {cmd} [--dir D | --addr H:P]");
        return EXIT_USAGE;
    }
    let mut client = match connect(&c) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let reply = match cmd {
        "stats" => client.stats(),
        "drain" => client.drain(),
        "ping" => client.ping(),
        _ => unreachable!("dispatch covers the command words"),
    };
    print_reply(reply)
}

/// `bbv metrics [--lint]`: fetch the daemon's Prometheus exposition over
/// the protocol and print it. `--lint` additionally runs the strict format
/// checker and exits 1 when the document is malformed (the CI gate).
fn metrics_cmd(args: &[String]) -> i32 {
    let lint = args.iter().any(|a| a == "--lint");
    let rest: Vec<String> = args.iter().filter(|a| a.as_str() != "--lint").cloned().collect();
    let c = match split_client_flags(&rest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    if !c.rest.is_empty() {
        eprintln!("usage: bbv metrics [--lint] [--dir D | --addr H:P]");
        return EXIT_USAGE;
    }
    let mut client = match connect(&c) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let text = match client.metrics() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    print!("{text}");
    if lint {
        if let Err(e) = bb_obs::prom::lint(&text) {
            eprintln!("metrics lint failed: {e}");
            return EXIT_REFUTED;
        }
        eprintln!("metrics lint: ok ({} lines)", text.lines().count());
    }
    EXIT_PROVED
}

/// `bbv jobs dump <job>`: print a job's flight-recorder dump (NDJSON) —
/// the live ring of a running job, or the post-mortem the daemon persisted
/// when the job failed, was cancelled, or ended inconclusive.
fn jobs_cmd(args: &[String]) -> i32 {
    let usage = || eprintln!("usage: bbv jobs dump <job-id> [--dir D | --addr H:P]");
    if args.first().map(String::as_str) != Some("dump") {
        usage();
        return EXIT_USAGE;
    }
    let c = match split_client_flags(&args[1..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    let Some(job) = c.rest.first().and_then(|s| s.parse::<u64>().ok()) else {
        usage();
        return EXIT_USAGE;
    };
    let mut client = match connect(&c) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    match client.dump(job) {
        Ok(dump) => {
            print!("{dump}");
            EXIT_PROVED
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_USAGE
        }
    }
}

/// Renders one `stats` reply as the `bbv top` dashboard (multi-line) or as
/// one compact line for non-terminal output.
fn render_top(v: &JsonValue, plain: bool) -> String {
    let num = |path: &[&str]| -> u64 {
        let mut cur = v;
        for p in path {
            match cur.get(p) {
                Some(next) => cur = next,
                None => return 0,
            }
        }
        cur.as_u64().unwrap_or(0)
    };
    let pending = num(&["queue", "pending"]);
    let cap = num(&["queue", "cap"]);
    let running = num(&["queue", "running"]);
    let workers = num(&["workers"]);
    let completed = num(&["served", "completed"]);
    let from_cache = num(&["served", "from_cache"]);
    let cancelled = num(&["served", "cancelled"]);
    let cache_pct = (from_cache * 100).checked_div(completed).unwrap_or(0);
    let uptime_s = num(&["uptime_ms"]) / 1000;
    let jobs = v.get("jobs").and_then(JsonValue::as_array).unwrap_or(&[]);
    if plain {
        let mut line = format!(
            "up {uptime_s}s queue {pending}/{cap} busy {running}/{workers} done {completed} cached {cache_pct}% cancelled {cancelled} active"
        );
        for j in jobs {
            let id = j.get("job").and_then(JsonValue::as_u64).unwrap_or(0);
            let state = j.get("state").and_then(JsonValue::as_str).unwrap_or("?");
            let phase = j.get("phase").and_then(JsonValue::as_str).unwrap_or("");
            let states = j.get("states").and_then(JsonValue::as_u64).unwrap_or(0);
            line.push_str(&format!(" [{id} {state} {phase} {states}]"));
        }
        if jobs.is_empty() {
            line.push_str(" none");
        }
        return line;
    }
    let mut out = String::new();
    out.push_str(&format!(
        "bbv top — uptime {uptime_s}s   queue {pending}/{cap}   workers {running}/{workers} busy\n"
    ));
    out.push_str(&format!(
        "admission: submitted {}  admitted {}  rejected {}  cache_hits {}  replayed {}\n",
        num(&["admission", "submitted"]),
        num(&["admission", "admitted"]),
        num(&["admission", "rejected"]),
        num(&["admission", "cache_hits"]),
        num(&["admission", "replayed"]),
    ));
    out.push_str(&format!(
        "served:    completed {completed}  computed {}  from_cache {from_cache} ({cache_pct}%)  cancelled {cancelled}  avg_job_ms {}\n",
        num(&["served", "computed"]),
        num(&["avg_job_ms"]),
    ));
    out.push_str(&format!(
        "journal:   replayed_records {}\n",
        num(&["journal", "replayed_records"])
    ));
    out.push_str(&format!("{:>5}  {:<9} {:<16} {:<14} {:>10} {:>12}\n", "JOB", "STATE", "ALGORITHM", "PHASE", "STATES", "TRANSITIONS"));
    if jobs.is_empty() {
        out.push_str("  (no queued or running jobs)\n");
    }
    for j in jobs {
        out.push_str(&format!(
            "{:>5}  {:<9} {:<16} {:<14} {:>10} {:>12}\n",
            j.get("job").and_then(JsonValue::as_u64).unwrap_or(0),
            j.get("state").and_then(JsonValue::as_str).unwrap_or("?"),
            j.get("algorithm").and_then(JsonValue::as_str).unwrap_or("?"),
            j.get("phase").and_then(JsonValue::as_str).unwrap_or(""),
            j.get("states").and_then(JsonValue::as_u64).unwrap_or(0),
            j.get("transitions").and_then(JsonValue::as_u64).unwrap_or(0),
        ));
    }
    out
}

/// `bbv top [--interval MS] [--once]`: live daemon dashboard driving the
/// `stats` op. Full-screen refresh on a terminal; one summary line per
/// refresh when stdout is redirected (logs, CI).
fn top_cmd(args: &[String]) -> i32 {
    use std::io::IsTerminal;
    let mut interval_ms: u64 = 1000;
    let mut once = false;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval" => {
                interval_ms = match it.next().map(|s| s.parse::<u64>()) {
                    Some(Ok(n)) if n > 0 => n,
                    _ => {
                        eprintln!("error: --interval needs a positive millisecond count");
                        return EXIT_USAGE;
                    }
                };
            }
            "--once" => once = true,
            _ => rest.push(a.clone()),
        }
    }
    let c = match split_client_flags(&rest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_USAGE;
        }
    };
    if !c.rest.is_empty() {
        eprintln!("usage: bbv top [--interval MS] [--once] [--dir D | --addr H:P]");
        return EXIT_USAGE;
    }
    let tty = std::io::stdout().is_terminal();
    let mut refreshed = false;
    loop {
        // One connection per refresh: the daemon may restart between
        // refreshes, and a `stats` round trip is one line each way.
        let reply = connect(&c).and_then(|mut client| client.stats());
        let v = match reply {
            Ok(v) => v,
            Err(e) => {
                if refreshed {
                    eprintln!("top: daemon gone ({e})");
                    return EXIT_PROVED;
                }
                eprintln!("error: {e}");
                return EXIT_USAGE;
            }
        };
        refreshed = true;
        if tty {
            // Clear the screen and repaint from the top-left.
            print!("\x1b[2J\x1b[H{}", render_top(&v, false));
        } else {
            println!("{}", render_top(&v, true));
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if once {
            return EXIT_PROVED;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

/// Prints a protocol reply and maps it onto the exit code.
fn print_reply(reply: Result<JsonValue, String>) -> i32 {
    match reply {
        Ok(v) => {
            println!("{}", v.render());
            if v.get("ok").and_then(JsonValue::as_bool) == Some(false)
                || v.get("error").is_some()
            {
                EXIT_USAGE
            } else {
                EXIT_PROVED
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_USAGE
        }
    }
}
