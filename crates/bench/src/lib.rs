//! Shared workload builders of the `tables` binary, which regenerates
//! every table and figure of the paper.

use bb_lts::{ExploreOptions, Jobs, Lts};
use bb_sim::{explore_system_with, Bound, ObjectAlgorithm};

/// Fault-injection hook for testing the sweep's panic isolation: when the
/// `BB_SABOTAGE` environment variable is a non-empty substring of the case
/// name, the workload builders panic instead of exploring.
fn sabotaged(name: &str) -> bool {
    std::env::var("BB_SABOTAGE").is_ok_and(|pat| !pat.is_empty() && name.contains(&pat))
}

/// Panics when the case `name` is sabotaged (see `BB_SABOTAGE` above).
pub fn sabotage_point(name: &str) {
    if sabotaged(name) {
        panic!("BB_SABOTAGE: injected fault in case `{name}`");
    }
}

/// Explores `alg` at `threads`-`ops` on `jobs` workers under the default
/// caps, panicking on explosion (the tables' workloads are sized to fit).
/// The LTS is bit-identical at any worker count.
pub fn lts_of_jobs<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32, jobs: Jobs) -> Lts {
    sabotage_point(alg.name());
    let opts = ExploreOptions::default().with_jobs(jobs);
    explore_system_with(alg, Bound::new(threads, ops), &opts)
        .unwrap_or_else(|e| panic!("exploration of {} exceeded the default caps: {e}", alg.name()))
}

/// Formats a boolean verdict the way the paper's tables do.
pub fn mark(b: bool) -> &'static str {
    if b {
        "Yes"
    } else {
        "No"
    }
}

/// Formats a check/cross verdict.
pub fn check(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_algorithms::ms_queue::MsQueue;

    #[test]
    fn sabotage_hook_panics_and_is_containable() {
        // Process-global env var: this is the only test in this binary that
        // touches exploration, so there is no cross-test interference.
        std::env::set_var("BB_SABOTAGE", "MS lock-free queue");
        let build = || lts_of_jobs(&MsQueue::new(&[1]), 2, 1, Jobs::serial());
        let outcome = bb_core::run_isolated(build);
        std::env::remove_var("BB_SABOTAGE");
        let msg = outcome.expect_err("sabotaged case must panic");
        assert!(msg.contains("BB_SABOTAGE"), "{msg}");
        // With the hook disarmed the same case builds fine.
        let lts = build();
        assert!(lts.num_states() > 1);
    }
}
