//! End-to-end tests of the `bbv` command-line front end.

mod common;

use common::mask_durations;
use std::process::Command;

fn bbv(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bbv"))
        .args(args)
        .output()
        .expect("bbv runs")
}

#[test]
fn list_shows_all_algorithms() {
    let out = bbv(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "treiber",
        "ms-queue",
        "hw-queue",
        "hm-list-buggy",
        "two-lock-queue",
        "coarse-set",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn verify_success_exits_zero() {
    let out = bbv(&["verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lin=✓"));
    assert!(text.contains("lock-free=✓"));
}

#[test]
fn verify_bug_exits_nonzero_with_counterexample() {
    let out = bbv(&[
        "verify",
        "hm-list-buggy",
        "--threads",
        "2",
        "--ops",
        "2",
        "--domain",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lin=✗"));
    assert!(text.contains("non-linearizable history"));
}

#[test]
fn lock_freedom_violation_prints_loop() {
    let out = bbv(&["verify", "hw-queue", "--threads", "2", "--ops", "1", "--domain", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lock-free=✗"));
    assert!(text.contains("τ-loop"));
}

#[test]
fn quotient_writes_dot_and_aut() {
    let dir = std::env::temp_dir();
    let dot = dir.join("bbv_test_q.dot");
    let aut = dir.join("bbv_test_q.aut");
    let out = bbv(&[
        "quotient",
        "treiber",
        "--threads",
        "2",
        "--ops",
        "1",
        "--domain",
        "1",
        "--dot",
        dot.to_str().unwrap(),
        "--aut",
        aut.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("digraph"));
    let aut_text = std::fs::read_to_string(&aut).unwrap();
    assert!(aut_text.starts_with("des ("));
    // The exported quotient parses back.
    let lts = bbverify::lts::from_aut(&aut_text).unwrap();
    assert!(lts.num_states() > 1);
    let _ = std::fs::remove_file(dot);
    let _ = std::fs::remove_file(aut);
}

#[test]
fn unknown_algorithm_is_a_usage_error() {
    let out = bbv(&["verify", "no-such-thing"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn unknown_option_is_a_usage_error() {
    let out = bbv(&["verify", "treiber", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(3));
    // `--fuse`, `--reduce`, `reduce-check`, `--refine` and `--compact` were
    // retired; they are now as unknown as any typo, and the error names them.
    for (args, named) in [
        (&["verify", "treiber", "--fuse"][..], "--fuse"),
        (&["verify", "treiber", "--reduce", "none"], "--reduce"),
        (&["verify", "treiber", "--reduce", "por"], "--reduce"),
        (&["reduce-check", "treiber"], "reduce-check"),
        (&["submit", "reduce-check", "treiber"], "reduce-check"),
        (&["verify", "treiber", "--refine", "full"], "--refine"),
        (&["verify", "treiber", "--refine", "incremental"], "--refine"),
        (&["verify", "treiber", "--compact", "off"], "--compact"),
        (&["submit", "verify", "treiber", "--compact", "off"], "--compact"),
    ] {
        let out = bbv(args);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = bbv(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn help_documents_exit_codes() {
    let out = bbv(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("exit codes"), "{text}");
    assert!(text.contains("--timeout"), "{text}");
    assert!(text.contains("--max-states"), "{text}");
}

#[test]
fn underscore_algorithm_names_are_accepted() {
    let out = bbv(&["verify", "ms_queue", "--threads", "2", "--ops", "1", "--domain", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn tiny_timeout_is_inconclusive_exit_2() {
    let started = std::time::Instant::now();
    let out = bbv(&["verify", "ms-queue", "--threads", "3", "--ops", "3", "--timeout", "250ms"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    // Well under 2x the deadline even with process startup slack.
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("inconclusive"), "{text}");
    assert!(text.contains("deadline"), "{text}");
    // The report names the exhausted stage.
    assert!(text.contains("explore"), "{text}");
}

#[test]
fn state_cap_falls_back_to_reduced_bound() {
    let out = bbv(&[
        "verify", "ms-queue", "--threads", "2", "--ops", "2", "--domain", "1",
        "--max-states", "2e3",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("reduced-bound"), "{text}");
    assert!(text.contains("reduced bound 2-1"), "{text}");
}

#[test]
fn generous_budget_still_proves() {
    let out = bbv(&[
        "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1",
        "--timeout", "120s", "--max-states", "1e6",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("linearizability proved"), "{text}");
    assert!(text.contains("direct"), "{text}");
}

#[test]
fn budgeted_refutation_exits_one() {
    let out = bbv(&[
        "verify", "hw-queue", "--threads", "2", "--ops", "1", "--domain", "1",
        "--timeout", "120s",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lock-freedom refuted"), "{text}");
}

#[test]
fn bad_budget_values_are_usage_errors() {
    let out = bbv(&["verify", "treiber", "--timeout", "soon"]);
    assert_eq!(out.status.code(), Some(3));
    let out = bbv(&["verify", "treiber", "--max-states", "many"]);
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn wait_freedom_flag_reports_starvation() {
    let out = bbv(&[
        "verify",
        "hw-queue",
        "--threads",
        "2",
        "--ops",
        "1",
        "--domain",
        "1",
        "--wait-freedom",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("starvation"), "{text}");
    assert!(text.contains("spin forever"), "{text}");
}

/// `--wait-freedom` runs only on an unbudgeted `verify`. Anywhere else it
/// would be dropped silently, so it is a usage error instead.
#[test]
fn wait_freedom_where_it_cannot_run_is_a_usage_error() {
    let base = ["hw-queue", "--threads", "2", "--ops", "1", "--domain", "1", "--wait-freedom"];
    for extra in [
        &["verify", "--timeout", "60s"][..],
        &["verify", "--max-states", "1e6"],
        &["quotient"],
        &["check", "--formula", "G F (ret | done)"],
    ] {
        let (command, flags) = extra.split_at(1);
        let args: Vec<&str> = command.iter().chain(&base).chain(flags).copied().collect();
        let out = bbv(&args);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--wait-freedom"), "{args:?}: {err}");
    }
}

/// An option a command would ignore is a usage error naming it, direct and
/// submitted alike (`submit` rejects it before contacting a daemon).
/// `--dot` and `--aut` write the quotient, so only `quotient` takes them.
#[test]
fn options_a_command_would_ignore_are_usage_errors() {
    let base = ["treiber", "--threads", "2", "--ops", "1", "--domain", "1"];
    let formula = ["--formula", "G F (ret | done)"];
    let tmp = std::env::temp_dir();
    let aut = tmp.join(format!("bbv_cli_ignored_{}.aut", std::process::id()));
    let dot = tmp.join(format!("bbv_cli_ignored_{}.dot", std::process::id()));
    let (aut, dot) = (aut.to_str().unwrap(), dot.to_str().unwrap());
    for (extra, named) in [
        (&["verify", formula[0], formula[1]][..], "--formula"),
        (&["quotient", "--no-lock-freedom", formula[0], formula[1]], "--formula"),
        (&["quotient", "--no-lock-freedom"], "--no-lock-freedom"),
        (&["check", formula[0], formula[1], "--no-lock-freedom"], "--no-lock-freedom"),
        (&["verify", "--no-fallback"], "--no-fallback"),
        (&["quotient", "--no-fallback"], "--no-fallback"),
        (&["quotient", "--max-states", "1e6", "--no-fallback"], "--no-fallback"),
        (&["verify", "--checkpoint-every", "1"], "--checkpoint-every"),
        (&["verify", "--aut", aut], "--aut"),
        (&["verify", "--dot", dot], "--dot"),
        (&["check", formula[0], formula[1], "--aut", aut], "--aut"),
        (&["submit", "verify", "--aut", aut], "--aut"),
    ] {
        let words = if extra[0] == "submit" { 2 } else { 1 };
        let (command, flags) = extra.split_at(words);
        let args: Vec<&str> = command.iter().chain(&base).chain(flags).copied().collect();
        let out = bbv(&args);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
    assert!(!std::path::Path::new(aut).exists(), "a rejected run wrote {aut}");
    assert!(!std::path::Path::new(dot).exists(), "a rejected run wrote {dot}");
}

#[test]
fn check_subcommand_with_parsed_formula() {
    let out = bbv(&[
        "check",
        "hw-queue",
        "--threads",
        "2",
        "--ops",
        "1",
        "--domain",
        "1",
        "--formula",
        "G F (ret | done)",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("holds     : false"), "{text}");
    assert!(text.contains("counterexample"), "{text}");

    let out = bbv(&[
        "check", "treiber", "--threads", "2", "--ops", "1", "--domain", "1", "--formula",
        "G F (ret | done)",
    ]);
    assert!(out.status.success());
}

#[test]
fn check_rejects_bad_formula_as_usage_error() {
    let out = bbv(&["check", "treiber", "--formula", "G G %"]);
    assert_eq!(out.status.code(), Some(3));
}

/// A state cap the requested bound exhausts hands the run to the ladder's
/// reduced-bound rung, whose verdict row is the one a direct run at that
/// bound prints, proved and refuted alike.
#[test]
fn verify_with_reduction_matches_unreduced_verdict() {
    // (algorithm, state cap, exit code of the capped run, of the direct run)
    for (algo, cap, code, unreduced_code) in [("treiber", "300", 2, 0), ("hw-queue", "400", 1, 1)] {
        let out = bbv(&[
            "verify", algo, "--threads", "2", "--ops", "2", "--domain", "1", "--max-states", cap,
        ]);
        assert_eq!(out.status.code(), Some(code), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("answered by the reduced-bound rung at bound 2-1"), "{algo}: {text}");

        let unreduced = bbv(&["verify", algo, "--threads", "2", "--ops", "1", "--domain", "1"]);
        assert_eq!(unreduced.status.code(), Some(unreduced_code), "{algo}");
        let unreduced_text = String::from_utf8_lossy(&unreduced.stdout);
        let row = unreduced_text.lines().next().expect("a verdict row");
        assert!(
            text.lines().any(|line| line == row),
            "{algo}: the reduced-bound rung's row differs from {row:?}:\n{text}"
        );
    }
}

/// `--spill` is output-neutral on the governed ladder. Under this cap a
/// segment of ms-queue 2-2 spills and probes read it back, yet the direct
/// rung answers with or without the spill tier, and stdout matches (elapsed
/// times masked) at `--jobs` 1 and 4.
#[test]
fn spill_is_output_neutral_under_a_memory_cap() {
    let tmp = std::env::temp_dir().join(format!("bbv_cli_spill_{}", std::process::id()));
    let metrics = tmp.join("m.json");
    let capped = [
        "verify",
        "ms-queue",
        "--threads",
        "2",
        "--ops",
        "2",
        "--max-memory",
        "1.2e6",
    ];
    for jobs in ["1", "4"] {
        let spill = tmp.join(format!("spill-j{jobs}"));
        let in_core = bbv(&[&capped[..], &["--jobs", jobs]].concat());
        let spilled = bbv(&[
            &capped[..],
            &["--jobs", jobs, "--spill", spill.to_str().unwrap()],
            &["--metrics", metrics.to_str().unwrap()],
        ]
        .concat());
        for out in [&in_core, &spilled] {
            assert_eq!(
                out.status.code(),
                Some(0),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let text = String::from_utf8_lossy(&spilled.stdout);
        assert!(text.contains("answered by the direct rung"), "{text}");
        assert_eq!(
            mask_durations(&text),
            mask_durations(&String::from_utf8_lossy(&in_core.stdout)),
            "--jobs {jobs}: --spill must not change stdout"
        );
        let doc = bb_obs::json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let counter = |name| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(bb_obs::json::JsonValue::as_u64)
                .unwrap_or(0)
        };
        assert!(
            counter("compact.spill_segments") > 0,
            "--jobs {jobs}: a segment must spill"
        );
        assert!(
            counter("compact.spill_reloads") > 0,
            "--jobs {jobs}: probes must read it back"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
