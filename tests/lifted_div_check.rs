//! Differential harness for the seeded `≈div` check of Theorem 5.9.
//!
//! The lock-freedom check refines Δ ⊎ Δ/≈ for `≈div` starting from the `≈`
//! partition lifted to the union, `{B ∪ {[B]}}`, instead of the universal
//! partition. Its verdict must equal the unseeded
//! `bisimilar_opts(Δ, Δ/≈, BranchingDiv)` on the roster (including the
//! objects that diverge or are not linearizable) and on seeded random LTSs
//! with τ-cycles, for both refinement engines at 1 and 4 workers. When Δ has
//! no τ-cycle the lifted partition is already stable: exactly one round.

use bbverify::algorithms::{
    ccas::Ccas, hm_list::HmList, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    treiber::Treiber, treiber_hp_fu::TreiberHpFu,
};
use bbverify::bisim::{
    bisimilar_opts, div_bisimilar_to_quotient, has_tau_cycle, partition_opts, quotient,
    Equivalence, PartitionOptions, RefineMode,
};
use bbverify::lts::{random_lts, ExploreLimits, Jobs, Lts, RandomLtsConfig, Watchdog};
use bbverify::sim::{explore_system, Bound, ObjectAlgorithm};

/// Checks the seeded verdict against the unseeded one under every engine
/// and worker count, and the one-round bound on τ-cycle-free input.
/// Returns the (common) verdict.
fn assert_seeded_matches_unseeded(lts: &Lts, what: &str) -> bool {
    let wd = Watchdog::unlimited();
    let acyclic = !has_tau_cycle(lts);
    let mut verdicts = Vec::new();
    for mode in [RefineMode::Full, RefineMode::Incremental] {
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let opts = PartitionOptions::default().with_jobs(jobs).with_mode(mode);
            let p = partition_opts(lts, Equivalence::Branching, opts);
            let q = quotient(lts, &p);
            let unseeded = bisimilar_opts(lts, &q.lts, Equivalence::BranchingDiv, &wd, opts)
                .expect("an unlimited watchdog never trips");
            let (seeded, stats) = div_bisimilar_to_quotient(lts, &p, &q, &wd, opts)
                .expect("an unlimited watchdog never trips");
            assert_eq!(
                seeded, unseeded,
                "{what}: verdict differs at {mode} × {jobs:?}"
            );
            if acyclic {
                assert_eq!(
                    stats.rounds, 1,
                    "{what}: τ-cycle-free input must confirm in one round at {mode} × {jobs:?}"
                );
            }
            verdicts.push(seeded);
        }
    }
    // Without a τ-cycle Δ ≈div Δ/≈ always holds (Theorem 5.9).
    assert!(
        !acyclic || verdicts[0],
        "{what}: τ-cycle-free input must be ≈div its quotient"
    );
    verdicts[0]
}

fn lts_of<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Lts {
    explore_system(alg, Bound::new(threads, ops), ExploreLimits::default())
        .unwrap_or_else(|e| panic!("exploration of {} exceeded limits: {e}", alg.name()))
}

#[test]
fn seeded_check_matches_unseeded_on_the_roster() {
    // (object, system, lock-freedom per Table II; Table II does not check
    // the lock-based lazy list)
    let cases: [(&str, Lts, Option<bool>); 7] = [
        ("treiber", lts_of(&Treiber::new(&[1]), 2, 2), Some(true)),
        ("ms-queue", lts_of(&MsQueue::new(&[1]), 2, 2), Some(true)),
        ("lazy-list", lts_of(&LazyList::new(&[1]), 2, 2), None),
        ("ccas", lts_of(&Ccas::new(2), 2, 2), Some(true)),
        (
            "hw-queue",
            lts_of(&HwQueue::for_bound(&[1], 3, 1), 3, 1),
            Some(false),
        ),
        (
            "treiber-hp-fu",
            lts_of(&TreiberHpFu::new(&[1], 2), 2, 2),
            Some(false),
        ),
        (
            "hm-list-buggy",
            lts_of(&HmList::buggy(&[1]), 2, 2),
            Some(true),
        ),
    ];
    for (what, lts, lock_free) in &cases {
        let verdict = assert_seeded_matches_unseeded(lts, what);
        if let Some(expected) = lock_free {
            assert_eq!(verdict, *expected, "{what}: lock-freedom verdict");
        }
    }
}

#[test]
fn seeded_check_matches_unseeded_on_random_ltss() {
    let mut cyclic = 0;
    let mut acyclic = 0;
    for tau_percent in [20, 50, 80] {
        for seed in 0..16 {
            let config = RandomLtsConfig {
                tau_percent,
                ..RandomLtsConfig::default()
            };
            let lts = random_lts(seed, config);
            if has_tau_cycle(&lts) {
                cyclic += 1;
            } else {
                acyclic += 1;
            }
            assert_seeded_matches_unseeded(&lts, &format!("random seed {seed} τ{tau_percent}%"));
        }
    }
    // The sweep must exercise both sides of the divergence check.
    assert!(cyclic >= 8, "only {cyclic} inputs with a τ-cycle");
    assert!(acyclic >= 4, "only {acyclic} τ-cycle-free inputs");
}
