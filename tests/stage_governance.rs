//! The run's watchdog reaches every stage of a `bbv` run.
//!
//! `bb_serve::runner::execute` builds one watchdog per run from the spec's
//! caps and the caller's cancel token. Each `verify`, `quotient` and
//! `check` rerun below starts from a checkpoint that already holds the
//! explored LTSs, so exploration meters nothing and only a later stage —
//! partition refinement, trace inclusion, `≈div` or the `≈div` quotient of
//! `check` — can stop the run. It must stop there: inconclusive, exit 2.
//!
//! The checkpoint session is process-global and `execute` clears it, so
//! this binary holds a single test.

use bb_obs::hot::CKPT_SEED_HITS;
use bbverify::lts::Jobs;
use bbverify::serve::{
    execute, CheckpointCtl, Command, JobSpec, RunCtl, EXIT_INCONCLUSIVE, EXIT_PROVED,
};
use std::path::Path;

/// An unbudgeted ms-queue 2-2 job.
fn spec(command: Command) -> JobSpec {
    JobSpec {
        command,
        algorithm: "ms-queue".into(),
        formula: (command == Command::Check).then(|| "G F (ret | done)".into()),
        jobs: Jobs::serial(),
        ..JobSpec::default()
    }
}

/// `spec` under a per-stage cap of `max_states`.
fn capped(command: Command, max_states: usize) -> JobSpec {
    JobSpec {
        max_states: Some(max_states),
        ..spec(command)
    }
}

/// The exit code of `spec`, run with a pre-tripped cancel token when
/// `cancelled`, and with a checkpoint session over `dir` when given.
fn run(spec: &JobSpec, cancelled: bool, dir: Option<&Path>) -> i32 {
    let ctl = RunCtl {
        checkpoint: dir.map(|d| CheckpointCtl {
            dir: d.to_path_buf(),
            every: 1,
            argv: spec.to_argv(),
        }),
        ..RunCtl::default()
    };
    if cancelled {
        ctl.cancel.cancel();
    }
    execute(spec, None, &ctl).exit_code
}

#[test]
fn the_run_watchdog_reaches_every_stage() {
    bb_obs::set_recording(true);
    let root = std::env::temp_dir().join(format!("bbv-stage-governance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // (case, rerun, cancelled). A cancelled `check` already stops in its
    // LTL stage, so the cap is what reaches its `≈div` quotient.
    let seeded = [
        ("verify, cancelled", spec(Command::Verify), true),
        ("quotient, cancelled", spec(Command::Quotient), true),
        ("quotient, capped", capped(Command::Quotient, 1000), false),
        ("check, capped", capped(Command::Check, 1000), false),
    ];
    for (case, rerun, cancelled) in seeded {
        let dir = root.join(rerun.command.as_str());
        // The seed is the same job unbudgeted. `config_tag` leaves budgets
        // out, so the capped rerun reads the sections the seed saved.
        let seed = JobSpec {
            max_states: None,
            ..rerun.clone()
        };
        assert_eq!(run(&seed, false, Some(&dir)), EXIT_PROVED, "{case}: seed run");
        let hits = CKPT_SEED_HITS.get();
        let code = run(&rerun, cancelled, Some(&dir));
        assert!(CKPT_SEED_HITS.get() > hits, "{case}: the rerun explored again");
        assert_eq!(code, EXIT_INCONCLUSIVE, "{case}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
