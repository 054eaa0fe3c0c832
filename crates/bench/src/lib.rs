//! Shared workload builders for the benchmark harness.
//!
//! The `tables` binary (every table and figure of the paper) and the
//! Criterion benches both build their systems through these helpers so the
//! measured workloads stay consistent.

use bb_lts::{ExploreError, ExploreLimits, ExploreOptions, Jobs, Lts};
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

/// Explores `alg` at `threads`-`ops` with default limits, returning the
/// structured [`ExploreError`] (with partial statistics) on explosion.
pub fn try_lts_of<A: ObjectAlgorithm>(
    alg: &A,
    threads: u8,
    ops: u32,
) -> Result<Lts, ExploreError> {
    try_lts_of_jobs(alg, threads, ops, Jobs::serial())
}

/// [`try_lts_of`] with `jobs` exploration workers; the resulting LTS is
/// bit-identical at any worker count.
pub fn try_lts_of_jobs<A: ObjectAlgorithm>(
    alg: &A,
    threads: u8,
    ops: u32,
    jobs: Jobs,
) -> Result<Lts, ExploreError> {
    sabotage_point(alg.name());
    let opts = ExploreOptions::limits(ExploreLimits::default()).with_jobs(jobs);
    explore_system_with(alg, Bound::new(threads, ops), &opts).map_err(ExploreError::from)
}

/// Explores `alg` at `threads`-`ops` with default limits, panicking on
/// explosion (bench workloads are sized to fit).
pub fn lts_of<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Lts {
    lts_of_jobs(alg, threads, ops, Jobs::serial())
}

/// [`lts_of`] with `jobs` exploration workers.
pub fn lts_of_jobs<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32, jobs: Jobs) -> Lts {
    try_lts_of_jobs(alg, threads, ops, jobs)
        .unwrap_or_else(|e| panic!("exploration of {} exceeded limits: {e}", alg.name()))
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

/// Minimal self-contained micro-benchmark runner (the `criterion` crate is
/// unavailable in the build environment). Runs `f` once to warm up, then
/// `samples` times, and prints min/mean/max wall-clock per iteration.
pub fn bench_loop<T>(name: &str, samples: u32, mut f: impl FnMut() -> T) {
    let _warmup = f();
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = std::time::Instant::now();
        let out = f();
        times.push(t0.elapsed());
        std::hint::black_box(out);
    }
    let min = times.iter().min().copied().unwrap_or_default();
    let max = times.iter().max().copied().unwrap_or_default();
    let mean = times.iter().sum::<std::time::Duration>() / samples.max(1);
    println!("{name:<52} min {min:>9.2?}  mean {mean:>9.2?}  max {max:>9.2?}");
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
        let outcome = bb_core::run_isolated(|| lts_of(&MsQueue::new(&[1]), 2, 1));
        std::env::remove_var("BB_SABOTAGE");
        let msg = outcome.expect_err("sabotaged case must panic");
        assert!(msg.contains("BB_SABOTAGE"), "{msg}");
        // With the hook disarmed the same case builds fine.
        let lts = lts_of(&MsQueue::new(&[1]), 2, 1);
        assert!(lts.num_states() > 1);
    }
}
