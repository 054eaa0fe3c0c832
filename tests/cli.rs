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
    // `--fuse` was retired; it is now as unknown as any typo.
    let out = bbv(&["verify", "treiber", "--fuse"]);
    assert_eq!(out.status.code(), Some(3));
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

#[test]
fn verify_with_reduction_matches_unreduced_verdict() {
    let base = bbv(&["verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1"]);
    for mode in ["sym", "por", "full"] {
        let out = bbv(&[
            "verify", "treiber", "--threads", "2", "--ops", "1", "--domain", "1", "--reduce", mode,
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("lin=✓"), "--reduce {mode}: {text}");
        // The reduction counters go to stderr; the verdict on stdout must
        // carry the same marks as the unreduced run.
        let base_text = String::from_utf8_lossy(&base.stdout);
        assert_eq!(
            base_text.contains("lock-free=✓"),
            text.contains("lock-free=✓"),
            "--reduce {mode} changed the lock-freedom verdict"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("reduction"), "--reduce {mode}: {err}");
    }
}

#[test]
fn reduce_check_passes_and_bad_mode_is_usage_error() {
    let out = bbv(&["reduce-check", "treiber", "--threads", "2", "--ops", "1", "--domain", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("≈div ok"), "{text}");
    assert!(text.contains("verdicts ok"), "{text}");

    let out = bbv(&["verify", "treiber", "--reduce", "nope"]);
    assert_eq!(out.status.code(), Some(3));
}

/// `--compact off` selects the rich seen-set whether or not a budget flag
/// routes the run through the governed ladder: the exploration's
/// `compact.compression_pct` gauge reads 100 (no compression) on both paths.
#[test]
fn compact_off_is_honoured_with_and_without_a_budget() {
    for budget in [&[][..], &["--max-states", "1e7"][..]] {
        let m = std::env::temp_dir().join(format!(
            "bbv_cli_compact_{}_{}.json",
            budget.len(),
            std::process::id()
        ));
        let mut args = vec![
            "verify", "treiber", "--threads", "2", "--ops", "2", "--compact", "off",
            "--metrics", m.to_str().unwrap(),
        ];
        args.extend_from_slice(budget);
        let out = bbv(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let doc = bb_obs::json::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
        let _ = std::fs::remove_file(&m);
        let pct = doc
            .get("counters")
            .and_then(|c| c.get("compact.compression_pct"))
            .and_then(bb_obs::json::JsonValue::as_u64);
        assert_eq!(pct, Some(100), "--compact off {budget:?}");
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
