//! Fault isolation of the `tables` sweep: one panicking case must print an
//! `inconclusive` row and leave every other row intact.

use std::process::Command;

fn tables(args: &[&str], sabotage: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tables"));
    cmd.args(args);
    match sabotage {
        Some(pat) => cmd.env("BB_SABOTAGE", pat),
        None => cmd.env_remove("BB_SABOTAGE"),
    };
    cmd.output().expect("tables runs")
}

#[test]
fn sabotaged_case_does_not_kill_the_table2_sweep() {
    let out = tables(&["table2"], Some("MS lock-free queue"));
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The sabotaged row degrades to inconclusive with the fault message...
    assert!(text.contains("4. MS lock-free queue"), "{text}");
    assert!(text.contains("inconclusive: internal fault"), "{text}");
    assert!(text.contains("BB_SABOTAGE"), "{text}");
    // ...and all fourteen other rows still print.
    for row in [
        "1. Treiber stack",
        "2. Treiber stack + HP",
        "3. Treiber stack + HP",
        "5. DGLM queue",
        "6. CCAS",
        "7. RDCSS",
        "8. NewCompareAndSet",
        "9-1. HM lock-free list",
        "9-2. HM lock-free list",
        "10. HW queue",
        "11. HSY stack",
        "12. Heller",
        "13. Optimistic list",
        "14. Fine-grained",
    ] {
        assert!(text.contains(row), "missing `{row}` in:\n{text}");
    }
}

/// An unknown or retired subcommand or option, or an option the subcommand
/// would ignore, exits 3 before any table runs, and the error names it.
#[test]
fn unknown_subcommands_and_options_are_usage_errors() {
    for (args, named) in [
        (&["frobnicate"][..], "frobnicate"),
        (&["perf"], "perf"),
        (&["phases", "--reduce", "full"], "--reduce"),
        (&["verdicts", "--jbos", "4"], "--jbos"),
        (&["verdicts", "--refine", "full"], "--refine"),
        (&["verdicts", "--compact", "off"], "--compact"),
        (&["table2", "--cache", "unused-cache-dir"], "--cache"),
        (&["table2", "--large"], "--large"),
    ] {
        let out = tables(args, None);
        assert_eq!(out.status.code(), Some(3), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
    }
}
