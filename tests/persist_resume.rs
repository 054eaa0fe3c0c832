//! Crash/resume equivalence: a `bbv` run that dies mid-pipeline — by an
//! injected deterministic fault, a real SIGKILL, or a budget trip — must,
//! after `bbv resume`, converge to the byte-identical verdict of an
//! uninterrupted run (timings masked), at any `--jobs`. Corrupt checkpoints
//! must degrade to recomputation, never to a panic or a wrong answer.

mod common;

use common::mask_durations;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn bbv(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bbv"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("bbv runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbv-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The value of counter `name` in a `--metrics` document.
fn counter(metrics: &Path, name: &str) -> u64 {
    let json = std::fs::read_to_string(metrics).expect("metrics written");
    json.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|s| s.trim_start().split(|c: char| !c.is_ascii_digit()).next()?.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} present in metrics: {json}"))
}

#[test]
fn fault_crash_then_resume_is_byte_identical_across_jobs() {
    for jobs in ["1", "4"] {
        let base = bbv(
            &[
                "verify", "ms-queue", "--threads", "2", "--ops", "2", "--timeout", "120s",
                "--jobs", jobs,
            ],
            &[],
        );
        assert_eq!(base.status.code(), Some(0), "{}", String::from_utf8_lossy(&base.stderr));

        let ckpt = tmp_dir(&format!("crash-{jobs}"));
        let crashed = bbv(
            &[
                "verify", "ms-queue", "--threads", "2", "--ops", "2", "--timeout", "120s",
                "--jobs", jobs,
                "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
            ],
            &[("BB_FAULT", "round-abort:2")],
        );
        assert!(
            !crashed.status.success(),
            "round-abort must kill the run: {}",
            stdout_of(&crashed)
        );
        assert!(
            ckpt.join("checkpoint.bbp").exists(),
            "the aborted run must leave a checkpoint behind"
        );

        let metrics = ckpt.with_extension("metrics.json");
        let resumed = bbv(
            &["resume", ckpt.to_str().unwrap(), "--metrics", metrics.to_str().unwrap()],
            &[],
        );
        assert_eq!(
            resumed.status.code(),
            Some(0),
            "resume must converge (jobs={jobs}): {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            mask_durations(&stdout_of(&resumed)),
            mask_durations(&stdout_of(&base)),
            "resumed verdict must be byte-identical (jobs={jobs})"
        );
        // Both explored LTSs, and round 1 of Δ's partition, which the
        // refinement re-enters from instead of the universal partition.
        assert_eq!(counter(&metrics, "persist.seed_hits"), 3, "jobs={jobs}");
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_dir_all(&ckpt);
    }
}

#[test]
fn sigkill_mid_run_then_resume_matches_uninterrupted() {
    let base = bbv(
        &["verify", "ms-queue", "--threads", "2", "--ops", "2", "--timeout", "120s", "--jobs", "1"],
        &[],
    );
    assert_eq!(base.status.code(), Some(0));

    let ckpt = tmp_dir("sigkill");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bbv"))
        .args([
            "verify", "ms-queue", "--threads", "2", "--ops", "2", "--timeout", "120s",
            "--jobs", "1", "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("bbv spawns");

    // Kill as soon as the first checkpoint cut lands on disk. If the run
    // wins the race and finishes first, the resume below degenerates to a
    // fully-seeded replay — still a valid identity check.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.join("checkpoint.bbp").exists() && Instant::now() < deadline {
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        ckpt.join("checkpoint.bbp").exists(),
        "a checkpoint must exist before or after the kill"
    );

    let resumed = bbv(&["resume", ckpt.to_str().unwrap()], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        mask_durations(&stdout_of(&resumed)),
        mask_durations(&stdout_of(&base)),
        "post-SIGKILL resume must reproduce the uninterrupted verdict"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn corrupt_checkpoint_recomputes_cleanly_and_resume_refuses() {
    let ckpt = tmp_dir("corrupt");
    std::fs::create_dir_all(&ckpt).unwrap();
    std::fs::write(ckpt.join("checkpoint.bbp"), b"BBPSgarbage-not-a-checkpoint").unwrap();

    // A verify over a corrupt checkpoint recomputes from scratch...
    let base = bbv(&["verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1"], &[]);
    let run = bbv(
        &[
            "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
            "--checkpoint", ckpt.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    assert_eq!(mask_durations(&stdout_of(&run)), mask_durations(&stdout_of(&base)));

    // ...and overwrites it with an intact one: resume now works.
    let resumed = bbv(&["resume", ckpt.to_str().unwrap()], &[]);
    assert_eq!(resumed.status.code(), Some(0));
    assert_eq!(mask_durations(&stdout_of(&resumed)), mask_durations(&stdout_of(&base)));

    // A resume of a *still*-corrupt checkpoint refuses with a clean usage
    // error, not a panic.
    let ckpt2 = tmp_dir("corrupt2");
    std::fs::create_dir_all(&ckpt2).unwrap();
    std::fs::write(ckpt2.join("checkpoint.bbp"), b"garbage").unwrap();
    let refused = bbv(&["resume", ckpt2.to_str().unwrap()], &[]);
    assert_eq!(refused.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("nothing to resume"),
        "{}",
        String::from_utf8_lossy(&refused.stderr)
    );
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&ckpt2);
}

#[test]
fn checkpoint_write_fault_preserves_the_previous_checkpoint() {
    let ckpt = tmp_dir("wfault");
    let args = [
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
    ];
    let first = bbv(&args, &[]);
    assert_eq!(first.status.code(), Some(0));
    let intact = std::fs::read(ckpt.join("checkpoint.bbp")).expect("checkpoint written");

    // Re-run with a fault that aborts the process inside the first atomic
    // write (after the temp file, before the rename): the previous
    // checkpoint must survive byte-for-byte.
    let faulted = bbv(&args, &[("BB_FAULT", "checkpoint-write:1")]);
    assert!(!faulted.status.success(), "checkpoint-write fault must abort the run");
    let after = std::fs::read(ckpt.join("checkpoint.bbp")).expect("checkpoint still present");
    assert_eq!(after, intact, "a torn write must never replace an intact checkpoint");

    // And the surviving checkpoint still resumes to the right verdict.
    let resumed = bbv(&["resume", ckpt.to_str().unwrap()], &[]);
    assert_eq!(resumed.status.code(), Some(0));
    assert_eq!(
        mask_durations(&stdout_of(&resumed)),
        mask_durations(&stdout_of(&first))
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Satellite of the budget system: a mid-refinement budget trip (injected
/// via the deterministic `alloc-cap` fault) must (a) report the last
/// completed round's partition statistics in the inconclusive verdict, and
/// (b) leave a checkpoint that a fault-free resume completes to the exact
/// uninterrupted verdict, seeding the explored sections.
#[test]
fn refinement_budget_trip_reports_round_progress_and_resumes() {
    let base = bbv(
        &[
            "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
            "--max-states", "1000000", "--no-fallback", "--jobs", "1",
        ],
        &[],
    );
    assert_eq!(base.status.code(), Some(0));

    // The alloc-cap hit count that lands inside partition refinement
    // depends on the exact exploration sizes, so scan a band; the serial
    // count sequence itself is deterministic.
    let mut exercised = false;
    for k in (200..700).step_by(10) {
        let ckpt = tmp_dir(&format!("trip-{k}"));
        let tripped = bbv(
            &[
                "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
                "--max-states", "1000000", "--no-fallback", "--jobs", "1",
                "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
            ],
            &[("BB_FAULT", &format!("alloc-cap:{k}"))],
        );
        let text = stdout_of(&tripped);
        if tripped.status.code() == Some(2) && text.contains("last completed round") {
            assert!(text.contains("stage exhausted"), "{text}");
            exercised = true;
            let resumed = bbv(&["resume", ckpt.to_str().unwrap()], &[]);
            assert_eq!(
                resumed.status.code(),
                Some(0),
                "{}",
                String::from_utf8_lossy(&resumed.stderr)
            );
            assert_eq!(
                mask_durations(&stdout_of(&resumed)),
                mask_durations(&stdout_of(&base)),
                "budget-tripped resume must reproduce the uninterrupted verdict"
            );
            let _ = std::fs::remove_dir_all(&ckpt);
            break;
        }
        let _ = std::fs::remove_dir_all(&ckpt);
    }
    assert!(
        exercised,
        "no alloc-cap count in [200,700) tripped refinement with round progress"
    );
}

/// Ladder fault smoke: a run the governed ladder answers at a reduced
/// bound, crashed by an injected fault and then resumed, must match its own
/// uninterrupted baseline byte-for-byte (timings masked), and the verdict
/// row of its reduced-bound rung must match a direct run at that bound.
#[test]
fn reduced_runs_crash_resume_and_agree_with_unreduced() {
    let unreduced = bbv(&["verify", "ms-queue", "--threads", "2", "--ops", "1", "--domain", "1"], &[]);
    assert_eq!(unreduced.status.code(), Some(0));
    let unreduced_text = stdout_of(&unreduced);
    let row = unreduced_text.lines().next().expect("a verdict row");

    let args = [
        "verify", "ms-queue", "--threads", "2", "--ops", "2", "--domain", "1",
        "--max-states", "2e3",
    ];
    let base = bbv(&args, &[]);
    assert_eq!(base.status.code(), Some(2));
    let base_text = stdout_of(&base);
    assert!(base_text.contains("answered by the reduced-bound rung at bound 2-1"), "{base_text}");

    let ckpt = tmp_dir("reduced-bound");
    let ckpt_str = ckpt.to_str().unwrap().to_owned();
    let mut crash_args: Vec<&str> = args.to_vec();
    crash_args.extend(["--checkpoint", &ckpt_str, "--checkpoint-every", "1"]);
    let crashed = bbv(&crash_args, &[("BB_FAULT", "round-abort:1")]);
    assert!(!crashed.status.success(), "the fault must abort the run");
    assert!(ckpt.join("checkpoint.bbp").exists());

    let resumed = bbv(&["resume", &ckpt_str], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_text = stdout_of(&resumed);
    assert_eq!(
        mask_durations(&resumed_text),
        mask_durations(&base_text),
        "the resumed run must match its uninterrupted baseline"
    );
    assert!(
        resumed_text.lines().any(|line| line == row),
        "the reduced-bound rung's row must agree with the direct run's {row:?}:\n{resumed_text}"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The `mid-round` fault panics inside a refinement round (as opposed to
/// `round-abort`'s hard abort between rounds): the run must die nonzero,
/// and the checkpoint cut *before* the poisoned round must still resume to
/// the uninterrupted verdict.
#[test]
fn mid_round_panic_then_resume_matches_uninterrupted() {
    let base = bbv(&["verify", "treiber", "--threads", "2", "--ops", "2"], &[]);
    assert_eq!(base.status.code(), Some(0));

    let ckpt = tmp_dir("midround");
    let crashed = bbv(
        &[
            "verify", "treiber", "--threads", "2", "--ops", "2",
            "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
        ],
        &[("BB_FAULT", "mid-round:3")],
    );
    assert!(!crashed.status.success(), "mid-round panic must fail the run");
    assert!(ckpt.join("checkpoint.bbp").exists());

    let resumed = bbv(&["resume", ckpt.to_str().unwrap()], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        mask_durations(&stdout_of(&resumed)),
        mask_durations(&stdout_of(&base))
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Crash/resume must also reproduce file artifacts: a quotient run killed
/// mid-refinement and resumed writes the byte-identical `.aut`.
#[test]
fn quotient_aut_after_crash_resume_is_byte_identical() {
    let aut_base = std::env::temp_dir().join(format!("bbv-rq-base-{}.aut", std::process::id()));
    let aut_res = std::env::temp_dir().join(format!("bbv-rq-res-{}.aut", std::process::id()));
    let base = bbv(
        &[
            "quotient", "ms-queue", "--threads", "2", "--ops", "2",
            "--aut", aut_base.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(base.status.code(), Some(0), "{}", String::from_utf8_lossy(&base.stderr));

    let ckpt = tmp_dir("quotient-crash");
    let crashed = bbv(
        &[
            "quotient", "ms-queue", "--threads", "2", "--ops", "2",
            "--aut", aut_res.to_str().unwrap(),
            "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
        ],
        &[("BB_FAULT", "round-abort:2")],
    );
    assert!(!crashed.status.success());
    let _ = std::fs::remove_file(&aut_res);

    // The recorded argv carries the --aut path, so the resume writes it.
    let resumed = bbv(&["resume", ckpt.to_str().unwrap()], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    // The "quotient written to <path>" lines name each invocation's own
    // --aut path; everything else must match byte-for-byte.
    let sans_paths = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("written to"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        mask_durations(&sans_paths(&stdout_of(&resumed))),
        mask_durations(&sans_paths(&stdout_of(&base)))
    );
    let a_base = std::fs::read(&aut_base).expect("baseline .aut");
    let a_res = std::fs::read(&aut_res).expect("resumed .aut");
    assert_eq!(a_base, a_res, "resumed quotient .aut must be byte-identical");
    let _ = std::fs::remove_file(&aut_base);
    let _ = std::fs::remove_file(&aut_res);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The recorded argv replays through the same CLI parser, so overrides
/// appended to `bbv resume` win over the recorded flags.
#[test]
fn resume_accepts_overrides_after_recorded_argv() {
    let ckpt = tmp_dir("override");
    let run = bbv(
        &[
            "verify", "ms-queue", "--threads", "2", "--ops", "2", "--max-states", "200",
            "--no-fallback", "--checkpoint", ckpt.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(run.status.code(), Some(2), "tiny budget must be inconclusive");

    // Raising the budget on resume turns the same invocation conclusive.
    let resumed = bbv(
        &["resume", ckpt.to_str().unwrap(), "--max-states", "1000000"],
        &[],
    );
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let base = bbv(
        &[
            "verify", "ms-queue", "--threads", "2", "--ops", "2", "--max-states", "200",
            "--no-fallback", "--max-states", "1000000",
        ],
        &[],
    );
    assert_eq!(
        mask_durations(&stdout_of(&resumed)),
        mask_durations(&stdout_of(&base))
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// `bbv resume DIR --jobs N` must accept a worker-count override without
/// invalidating the checkpoint fingerprint: the config tag deliberately
/// excludes `--jobs`, so a checkpoint cut at `--jobs 1` must still seed a
/// resume at `--jobs 4`, and the resumed report must be byte-identical to
/// an uninterrupted run.
#[test]
fn resume_jobs_override_reuses_jobs1_checkpoint() {
    let base = bbv(
        &["verify", "ms-queue", "--threads", "2", "--ops", "2", "--timeout", "120s", "--jobs", "1"],
        &[],
    );
    assert_eq!(base.status.code(), Some(0));

    // Crash a --jobs 1 run mid-refinement so the checkpoint holds both
    // exploration sections and partial refinement rounds.
    let ckpt = tmp_dir("jobs-override");
    let crashed = bbv(
        &[
            "verify", "ms-queue", "--threads", "2", "--ops", "2", "--timeout", "120s",
            "--jobs", "1",
            "--checkpoint", ckpt.to_str().unwrap(), "--checkpoint-every", "1",
        ],
        &[("BB_FAULT", "round-abort:2")],
    );
    assert!(!crashed.status.success());

    // Resume at --jobs 4, with metrics on so seeding is observable.
    let metrics = std::env::temp_dir().join(format!("bbv-jobs-override-{}.json", std::process::id()));
    let resumed = bbv(
        &[
            "resume", ckpt.to_str().unwrap(),
            "--jobs", "4", "--metrics", metrics.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        mask_durations(&stdout_of(&resumed)),
        mask_durations(&stdout_of(&base)),
        "jobs-override resume must converge to the jobs=1 report byte-for-byte"
    );

    // The checkpoint really seeded: at least one section was reused rather
    // than recomputed (a fingerprint mismatch would force seed_hits = 0).
    let seeds = counter(&metrics, "persist.seed_hits");
    assert!(seeds >= 1, "the jobs=1 checkpoint must seed the jobs=4 resume");
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// `--checkpoint` is output-neutral: stdout and the exit code are
/// byte-identical with and without it (like the bb-obs flags).
#[test]
fn checkpointing_is_output_neutral() {
    let plain = bbv(&["verify", "hm-list-buggy", "--threads", "2", "--ops", "2", "--domain", "1"], &[]);
    let ckpt = tmp_dir("neutral");
    let with = bbv(
        &[
            "verify", "hm-list-buggy", "--threads", "2", "--ops", "2", "--domain", "1",
            "--checkpoint", ckpt.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(plain.status.code(), Some(1));
    assert_eq!(with.status.code(), Some(1));
    assert_eq!(stdout_of(&plain), stdout_of(&with));
    // And a second, fully-seeded run over the same checkpoint agrees too.
    let seeded = bbv(
        &[
            "verify", "hm-list-buggy", "--threads", "2", "--ops", "2", "--domain", "1",
            "--checkpoint", ckpt.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(seeded.status.code(), Some(1));
    assert_eq!(stdout_of(&seeded), stdout_of(&plain));
    let _ = std::fs::remove_dir_all(&ckpt);
}

// Compile-time guard: the helper is exercised by every test above, but make
// the masking itself visible in one place.
#[test]
fn duration_masking_only_touches_duration_tokens() {
    let line = "answered by the direct rung at bound 2-2 in 862.8ms";
    assert_eq!(
        mask_durations(line),
        "answered by the direct rung at bound 2-2 in <T>"
    );
    let stats = "after 52 states, 80 transitions, 11.5 KiB peak, 1.4ms elapsed";
    assert_eq!(
        mask_durations(stats),
        "after 52 states, 80 transitions, 11.5 KiB peak, <T> elapsed"
    );
    assert!(!mask_durations("lin=✓ lock-free=✓ |Δ|=16347").contains("<T>"));
    let _ = Path::new("unused");
}
