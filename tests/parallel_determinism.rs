//! The parallel engine is an optimization, not a semantics change: at any
//! worker count the explorer must intern the same states in the same order
//! and the refiner must produce the same partition. These tests pin that
//! down bit-for-bit — `.aut` exports and partition block structures are
//! compared as values, and a cancellation mid-fan-out must surface as the
//! same structured `Exhausted` error the sequential engine reports.

use bbverify::algorithms::{ms_queue::MsQueue, specs::SeqStack, treiber::Treiber};
use bbverify::bisim::{partition, partition_opts, Equivalence, PartitionOptions};
use bbverify::lts::{
    random_lts, to_aut, Budget, CancelToken, ExhaustReason, ExploreLimits, ExploreOptions, Jobs,
    RandomLtsConfig, Watchdog,
};
use bbverify::sim::{
    explore_system, explore_system_with, AtomicSpec, Bound,
};

/// Sweep sizes: the full sweep takes ~45 s optimized, which debug builds
/// would stretch into many minutes, so debug runs a scaled-down version of
/// the same properties.
#[cfg(debug_assertions)]
const SEEDS: u64 = 6;
#[cfg(not(debug_assertions))]
const SEEDS: u64 = 24;
#[cfg(debug_assertions)]
const SIZE_CAP: u64 = 160;
#[cfg(not(debug_assertions))]
const SIZE_CAP: u64 = 600;

/// SplitMix64 — derives independent generator parameters from a case index.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Seeded sweep: every refinement flavour over random LTSs of varying
/// shape must yield byte-identical partition blocks at 1, 2 and 4 workers.
#[test]
fn partition_is_identical_at_any_worker_count_on_random_systems() {
    for seed in 0..SEEDS {
        let bits = splitmix(seed);
        let config = RandomLtsConfig {
            num_states: 40 + (bits % SIZE_CAP) as usize,
            num_transitions: 120 + (splitmix(bits) % (4 * SIZE_CAP)) as usize,
            num_visible_letters: 1 + (bits % 4) as usize,
            tau_percent: (bits % 90) as u8,
        };
        let lts = random_lts(seed, config);
        for eq in [
            Equivalence::Strong,
            Equivalence::Branching,
            Equivalence::BranchingDiv,
            Equivalence::Weak,
        ] {
            let reference = partition(&lts, eq);
            for jobs in [1, 2, 4] {
                let opts = PartitionOptions::default().with_jobs(Jobs::new(jobs));
                let p = partition_opts(&lts, eq, opts);
                assert_eq!(
                    reference.assignment(),
                    p.assignment(),
                    "seed {seed}, {eq:?}, {jobs} jobs: block assignment diverged"
                );
                assert_eq!(reference.num_blocks(), p.num_blocks());
            }
        }
    }
}

/// The two real algorithms of the sweep: exploration must produce the same
/// `.aut` bytes (states, transitions, order) at any worker count, and the
/// downstream partition must match too.
#[test]
fn real_algorithms_explore_bit_identically_at_any_worker_count() {
    let bound = Bound::new(2, 2);
    let limits = ExploreLimits::default();

    let treiber = Treiber::new(&[1, 2]);
    let ms = MsQueue::new(&[1]);
    let spec = AtomicSpec::new(SeqStack::new(&[1, 2]));

    let seq_treiber = explore_system(&treiber, bound, limits).unwrap();
    let seq_ms = explore_system(&ms, bound, limits).unwrap();
    let seq_spec = explore_system(&spec, bound, limits).unwrap();

    for jobs in [1, 2, 4] {
        let j = Jobs::new(jobs);
        let opts = ExploreOptions::limits(limits).with_jobs(j);
        let par_treiber = explore_system_with(&treiber, bound, &opts).unwrap();
        let par_ms = explore_system_with(&ms, bound, &opts).unwrap();
        let par_spec = explore_system_with(&spec, bound, &opts).unwrap();
        assert_eq!(to_aut(&seq_treiber), to_aut(&par_treiber), "{jobs} jobs");
        assert_eq!(to_aut(&seq_ms), to_aut(&par_ms), "{jobs} jobs");
        assert_eq!(to_aut(&seq_spec), to_aut(&par_spec), "{jobs} jobs");

        let p_seq = partition(&seq_treiber, Equivalence::Branching);
        let popts = PartitionOptions::default().with_jobs(j);
        let p_par = partition_opts(&par_treiber, Equivalence::Branching, popts);
        assert_eq!(p_seq.assignment(), p_par.assignment(), "{jobs} jobs");
    }
}

/// A transition cap tripping mid-fan-out must report the exact same partial
/// statistics as the sequential engine: the deterministic merge performs
/// the same accounting in the same order.
#[test]
fn cap_trip_reports_identical_partial_stats_at_any_worker_count() {
    let ms = MsQueue::new(&[1]);
    let bound = Bound::new(2, 2);
    let budget = Budget::unlimited().with_max_transitions(300);

    let wd_seq = Watchdog::new(budget.clone());
    let seq = explore_system_with(&ms, bound, &ExploreOptions::governed(&wd_seq).with_jobs(Jobs::new(1)))
        .expect_err("a 300-transition cap must trip on the 2-2 MS queue");
    assert_eq!(seq.reason, ExhaustReason::TransitionCap);

    for jobs in [2, 4] {
        let wd_par = Watchdog::new(budget.clone());
        let par =
            explore_system_with(&ms, bound, &ExploreOptions::governed(&wd_par).with_jobs(Jobs::new(jobs)))
                .expect_err("the same cap must trip at any worker count");
        assert_eq!(par.reason, seq.reason, "{jobs} jobs");
        assert_eq!(par.stage, seq.stage, "{jobs} jobs");
        assert_eq!(
            par.partial.transitions, seq.partial.transitions,
            "{jobs} jobs"
        );
        assert_eq!(par.partial.states, seq.partial.states, "{jobs} jobs");
    }
}

/// Cancelling before the fan-out starts: the parallel explorer must abort
/// promptly with `Cancelled` and sane (small, consistent) partial stats
/// rather than running the exploration to completion.
#[test]
fn cancellation_mid_parallel_exploration_is_prompt_and_structured() {
    let ms = MsQueue::new(&[1]);
    let bound = Bound::new(2, 2);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel_token(token);
    let wd = Watchdog::new(budget);
    let err = explore_system_with(&ms, bound, &ExploreOptions::governed(&wd).with_jobs(Jobs::new(4)))
        .expect_err("a pre-cancelled token must abort the exploration");
    assert_eq!(err.reason, ExhaustReason::Cancelled);
    let full = explore_system(&ms, bound, ExploreLimits::default()).unwrap();
    assert!(
        err.partial.states < full.num_states(),
        "cancellation must abort before the full state space is built \
         ({} seen of {})",
        err.partial.states,
        full.num_states()
    );
}
