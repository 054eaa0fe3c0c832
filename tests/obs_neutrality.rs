//! Observability must be verdict- and output-neutral: enabling `--metrics`,
//! `--trace` and `--progress` may add stderr lines and write the named
//! files, but stdout, exit codes and exported `.aut` artifacts stay
//! byte-identical at any `--jobs` count.

mod common;

use common::mask_durations;
use std::process::Command;

fn bbv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbv"))
        .args(args)
        .output()
        .expect("bbv runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bbv_neutral_{name}_{}", std::process::id()))
}

/// Runs `verify` twice — plain, and with the full observability surface on —
/// and asserts stdout and the exit code are byte-identical.
fn assert_neutral(algo: &str, jobs: &str, expect_code: i32) {
    let base_args = ["verify", algo, "--threads", "2", "--ops", "1", "--domain", "1",
                     "--jobs", jobs];
    let plain = bbv(&base_args);

    let m = tmp(&format!("{algo}_{jobs}_m.json"));
    let t = tmp(&format!("{algo}_{jobs}_t.ndjson"));
    let mut obs_args: Vec<&str> = base_args.to_vec();
    obs_args.extend(["--metrics", m.to_str().unwrap(), "--trace", t.to_str().unwrap(),
                     "--progress"]);
    let observed = bbv(&obs_args);
    let _ = std::fs::remove_file(m);
    let _ = std::fs::remove_file(t);

    assert_eq!(plain.status.code(), Some(expect_code), "plain run verdict changed");
    assert_eq!(observed.status.code(), Some(expect_code), "observability changed the exit code");
    assert_eq!(
        plain.stdout, observed.stdout,
        "observability changed stdout (--jobs {jobs}):\nplain:\n{}\nobserved:\n{}",
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&observed.stdout)
    );
}

#[test]
fn verify_stdout_is_identical_with_metrics_on_one_worker() {
    assert_neutral("ms-queue", "1", 0);
}

#[test]
fn verify_stdout_is_identical_with_metrics_on_four_workers() {
    assert_neutral("ms-queue", "4", 0);
}

#[test]
fn refutation_stdout_is_identical_with_metrics() {
    // A failing verdict (the HW queue spins): exit code 1 either way, and
    // the counterexample text is unchanged by observation.
    assert_neutral("hw-queue", "1", 1);
    assert_neutral("hw-queue", "4", 1);
}

#[test]
fn verify_stdout_is_identical_across_worker_counts() {
    let run = |jobs: &str| {
        bbv(&["verify", "ms-queue", "--threads", "2", "--ops", "1", "--domain", "1",
              "--jobs", jobs])
    };
    let one = run("1");
    let four = run("4");
    assert_eq!(one.status.code(), four.status.code());
    assert_eq!(one.stdout, four.stdout, "verdict output must not depend on --jobs");
}

#[test]
fn exported_aut_is_identical_with_metrics() {
    let run = |tag: &str, extra: &[&str]| -> Vec<u8> {
        let aut = tmp(&format!("q_{tag}.aut"));
        let mut args = vec!["quotient", "treiber", "--threads", "2", "--ops", "1",
                            "--domain", "1", "--aut", aut.to_str().unwrap()];
        args.extend(extra);
        let out = bbv(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&aut).unwrap();
        let _ = std::fs::remove_file(aut);
        bytes
    };
    let m = tmp("q_m.json");
    let plain = run("plain", &[]);
    let observed = run("obs", &["--metrics", m.to_str().unwrap()]);
    let _ = std::fs::remove_file(m);
    assert_eq!(plain, observed, ".aut bytes changed under --metrics");
}

/// `--quiet` silences the one-line diagnostics on stderr (here: the corrupt
/// checkpoint a run ignores) of a run the governed ladder answers at a
/// reduced bound, and nothing else: the rung report on stdout and the exit
/// code stay as they are (timings masked).
#[test]
fn quiet_silences_reduction_diagnostics_but_not_verdicts() {
    let run = |tag: &str, quiet: bool| {
        let ckpt = tmp(&format!("quiet_{tag}"));
        let _ = std::fs::remove_dir_all(&ckpt);
        std::fs::create_dir_all(&ckpt).unwrap();
        std::fs::write(ckpt.join("checkpoint.bbp"), b"not a checkpoint").unwrap();
        let mut args = vec!["verify", "treiber", "--threads", "2", "--ops", "2", "--domain", "1",
                            "--max-states", "300", "--checkpoint", ckpt.to_str().unwrap()];
        if quiet {
            args.push("--quiet");
        }
        let out = bbv(&args);
        let _ = std::fs::remove_dir_all(&ckpt);
        out
    };
    let loud = run("loud", false);
    let quiet = run("quiet", true);
    assert_eq!(loud.status.code(), Some(2));
    assert_eq!(quiet.status.code(), Some(2));
    let loud_out = String::from_utf8_lossy(&loud.stdout);
    assert!(loud_out.contains("answered by the reduced-bound rung"), "{loud_out}");
    assert_eq!(
        mask_durations(&loud_out),
        mask_durations(&String::from_utf8_lossy(&quiet.stdout)),
        "--quiet must not touch stdout"
    );
    let loud_err = String::from_utf8_lossy(&loud.stderr);
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(loud_err.contains("corrupt checkpoint"), "diagnostic expected on stderr: {loud_err}");
    assert!(!quiet_err.contains("corrupt checkpoint"), "--quiet leaks diagnostics: {quiet_err}");
}
