//! Differential harness for the incremental partition-refinement engine.
//!
//! The incremental engine (dirty-state worklists, signature interning,
//! condensation reuse) must be **bit-identical** to the full engine: same
//! partition — block ids included — same round-by-round history, same
//! quotients and `.aut` exports, same verification verdicts, under every
//! equivalence and any worker count. These tests check exactly that on
//! the full algorithm roster (including the known-buggy variants), on a
//! seeded random-LTS sweep, and under a budget that trips mid-refinement.

use bbverify::algorithms::{
    ccas::Ccas, hm_list::HmList, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    specs::*, treiber::Treiber, treiber_hp_fu::TreiberHpFu,
};
use bbverify::bisim::{
    partition_governed_opts, partition_opts, partition_with_history_opts, quotient, Equivalence,
    PartitionOptions, RefineMode,
};
use bbverify::core::{verify_case_lts, VerifyConfig};
use bbverify::lts::{
    random_lts, to_aut, Action, Budget, ExhaustReason, ExploreLimits, Jobs, Lts, LtsBuilder,
    RandomLtsConfig, Stage, ThreadId, Watchdog,
};
use bbverify::sim::{explore_system, AtomicSpec, Bound, ObjectAlgorithm};

const EQUIVALENCES: [Equivalence; 4] = [
    Equivalence::Strong,
    Equivalence::Branching,
    Equivalence::BranchingDiv,
    Equivalence::Weak,
];

fn opts(mode: RefineMode, jobs: Jobs) -> PartitionOptions {
    PartitionOptions::default().with_jobs(jobs).with_mode(mode)
}

/// Asserts full and incremental refinement agree on `lts` — the final
/// partition (assignments *and* block ids) and the whole round history —
/// for every equivalence at both worker counts.
fn assert_engines_agree(lts: &Lts, what: &str) {
    for eq in EQUIVALENCES {
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let (p_full, h_full) =
                partition_with_history_opts(lts, eq, opts(RefineMode::Full, jobs));
            let (p_inc, h_inc) =
                partition_with_history_opts(lts, eq, opts(RefineMode::Incremental, jobs));
            assert_eq!(
                p_full, p_inc,
                "{what}: final partition differs under {eq:?} at {jobs:?}"
            );
            assert_eq!(
                h_full.rounds.len(),
                h_inc.rounds.len(),
                "{what}: round count differs under {eq:?} at {jobs:?}"
            );
            for (i, (a, b)) in h_full.rounds.iter().zip(&h_inc.rounds).enumerate() {
                assert_eq!(a, b, "{what}: history round {i} differs under {eq:?} at {jobs:?}");
            }
        }
    }
}

fn lts_of<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Lts {
    explore_system(alg, Bound::new(threads, ops), ExploreLimits::default())
        .unwrap_or_else(|e| panic!("exploration of {} exceeded limits: {e}", alg.name()))
}

macro_rules! roster_case {
    ($test:ident, $alg:expr, $t:expr, $o:expr) => {
        #[test]
        fn $test() {
            let lts = lts_of(&$alg, $t, $o);
            assert_engines_agree(&lts, stringify!($test));
        }
    };
}

// Correct algorithms, a lock-based one, and both known-buggy variants: the
// engines must agree on failures exactly as they agree on successes.
roster_case!(roster_treiber, Treiber::new(&[1]), 2, 2);
roster_case!(roster_ms_queue, MsQueue::new(&[1]), 2, 2);
roster_case!(roster_lazy_list, LazyList::new(&[1]), 2, 2);
roster_case!(roster_ccas, Ccas::new(2), 2, 2);
roster_case!(roster_hw_queue, HwQueue::for_bound(&[1], 3, 1), 3, 1);
roster_case!(roster_treiber_hp_fu, TreiberHpFu::new(&[1], 2), 2, 2);
roster_case!(roster_hm_list_buggy, HmList::buggy(&[1]), 2, 2);

#[test]
fn engines_agree_on_specification_ltss() {
    let spec = lts_of(&AtomicSpec::new(SeqQueue::new(&[1, 2])), 2, 2);
    assert_engines_agree(&spec, "queue spec");
    let spec = lts_of(&AtomicSpec::new(SeqSet::new(&[1])), 2, 2);
    assert_engines_agree(&spec, "set spec");
}

#[test]
fn engines_agree_on_seeded_random_ltss() {
    for seed in 0..24 {
        let lts = random_lts(seed, RandomLtsConfig::default());
        assert_engines_agree(&lts, &format!("random seed {seed}"));
    }
}

/// The quotients — and therefore their `.aut` exports — are byte-identical,
/// because the partitions agree block id by block id.
#[test]
fn aut_exports_of_quotients_are_byte_identical() {
    let lts = lts_of(&MsQueue::new(&[1]), 2, 2);
    for eq in EQUIVALENCES {
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let q_full = quotient(&lts, &partition_opts(&lts, eq, opts(RefineMode::Full, jobs)));
            let q_inc =
                quotient(&lts, &partition_opts(&lts, eq, opts(RefineMode::Incremental, jobs)));
            assert_eq!(
                to_aut(&q_full.lts),
                to_aut(&q_inc.lts),
                ".aut export differs under {eq:?} at {jobs:?}"
            );
        }
    }
}

/// End-to-end: the verification verdict lines are identical for both
/// engines, on a passing case and on the known linearizability bug.
#[test]
fn verdicts_are_identical_across_engines() {
    let cases: [(&'static str, Lts, Lts); 2] = [
        (
            "ms-queue",
            lts_of(&MsQueue::new(&[1]), 2, 2),
            lts_of(&AtomicSpec::new(SeqQueue::new(&[1])), 2, 2),
        ),
        (
            "hm-list-buggy",
            lts_of(&HmList::buggy(&[1]), 2, 2),
            lts_of(&AtomicSpec::new(SeqSet::new(&[1])), 2, 2),
        ),
    ];
    for (name, imp, spec) in &cases {
        let run = |mode: RefineMode| {
            let cfg = VerifyConfig::new(Bound::new(2, 2)).with_refine(mode);
            let r = verify_case_lts(name, cfg, imp, spec);
            (r.linearizable(), r.lock_free(), r.summary())
        };
        assert_eq!(run(RefineMode::Full), run(RefineMode::Incremental), "{name}");
    }
}

/// The full jobs × engine sweep: partitions, round-by-round histories and
/// quotient `.aut` bytes must be identical across `jobs ∈ {1, 2, 4}` ×
/// `refine ∈ {full, incremental}` — twelve cells per LTS, all equal to the
/// serial full-engine baseline. Runs on a roster slice that includes a
/// lock-based algorithm and a known-buggy variant (failures must replicate
/// exactly as successes do).
#[test]
fn jobs_refine_sweep_is_bit_identical() {
    let cases: [(&str, Lts); 3] = [
        ("ms-queue", lts_of(&MsQueue::new(&[1]), 2, 2)),
        ("lazy-list", lts_of(&LazyList::new(&[1]), 2, 2)),
        ("hm-list-buggy", lts_of(&HmList::buggy(&[1]), 2, 2)),
    ];
    for (name, lts) in &cases {
        for eq in [Equivalence::Strong, Equivalence::Branching] {
            let (p0, h0) =
                partition_with_history_opts(lts, eq, opts(RefineMode::Full, Jobs::serial()));
            let aut0 = to_aut(&quotient(lts, &p0).lts);
            for jobs in [Jobs::serial(), Jobs::new(2), Jobs::new(4)] {
                for mode in [RefineMode::Full, RefineMode::Incremental] {
                    let tag = format!("{name} {eq:?} {jobs:?} {mode}");
                    let (p, h) = partition_with_history_opts(lts, eq, opts(mode, jobs));
                    assert_eq!(p0, p, "{tag}: partition differs");
                    assert_eq!(h0.rounds, h.rounds, "{tag}: history differs");
                    assert_eq!(aut0, to_aut(&quotient(lts, &p).lts), "{tag}: .aut bytes differ");
                }
            }
        }
    }
}

/// End-to-end sweep over the verification pipeline: `verify_case_lts` must
/// produce the same verdict summary as the serial default, for every
/// jobs × engine cell.
#[test]
fn verdicts_match_across_jobs_and_engines() {
    let cases: [(&'static str, Lts, Lts); 2] = [
        (
            "ms-queue",
            lts_of(&MsQueue::new(&[1]), 2, 2),
            lts_of(&AtomicSpec::new(SeqQueue::new(&[1])), 2, 2),
        ),
        (
            "hm-list-buggy",
            lts_of(&HmList::buggy(&[1]), 2, 2),
            lts_of(&AtomicSpec::new(SeqSet::new(&[1])), 2, 2),
        ),
    ];
    for (name, imp, spec) in &cases {
        let serial = {
            let cfg = VerifyConfig::new(Bound::new(2, 2));
            let r = verify_case_lts(name, cfg, imp, spec);
            (r.linearizable(), r.lock_free(), r.summary())
        };
        for jobs in [Jobs::serial(), Jobs::new(2), Jobs::new(4)] {
            for mode in [RefineMode::Full, RefineMode::Incremental] {
                let cfg = VerifyConfig::new(Bound::new(2, 2))
                    .with_jobs(jobs)
                    .with_refine(mode);
                let r = verify_case_lts(name, cfg, imp, spec);
                assert_eq!(
                    serial,
                    (r.linearizable(), r.lock_free(), r.summary()),
                    "{name} at {jobs:?} {mode}: verdict differs from the serial default"
                );
            }
        }
    }
}

/// The `PartialStats.refinement` boundary semantics: a budget that trips
/// before the first round completes reports *no* refinement progress (not
/// a phantom round 0), and a trip exactly on a round boundary reports the
/// just-completed round with its block count — consistent with the
/// unbudgeted run's history — in both engines.
#[test]
fn partial_stats_refinement_round_boundaries_are_exact() {
    let k = 40u32;
    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..k).map(|_| b.add_state()).collect();
    let a = b.intern_action(Action::call(ThreadId(1), "step", None));
    for w in states.windows(2) {
        b.add_transition(w[0], a, w[1]);
    }
    let lts = b.build(states[0]);
    let scan = lts.num_transitions(); // per-round charge of the full engine

    for mode in [RefineMode::Full, RefineMode::Incremental] {
        // Reference history of the uninterrupted run: rounds[r] is the
        // partition after round r (rounds[0] is the universal start).
        let (_, h) = partition_with_history_opts(&lts, Equivalence::Strong, opts(mode, Jobs::serial()));

        // Trip before round 1 can complete: no round was finished, so the
        // partial stats must carry no refinement note at all.
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(scan - 1));
        let err =
            partition_governed_opts(&lts, Equivalence::Strong, &wd, opts(mode, Jobs::serial()))
                .expect_err("budget under one scan must trip in round 1");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}");
        assert_eq!(
            err.partial.refinement, None,
            "{mode}: a trip before round 1 completes must not report a round"
        );

        // Trip exactly on a round boundary: the just-completed round must
        // be reported, and its block count must match the history.
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(2 * scan - 1));
        let err =
            partition_governed_opts(&lts, Equivalence::Strong, &wd, opts(mode, Jobs::serial()))
                .expect_err("the chain needs ~k rounds; two scans of budget must trip");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}");
        let (rounds, blocks) = err.partial.refinement.unwrap_or_else(|| {
            panic!("{mode}: a boundary trip after a completed round must report it")
        });
        assert!(rounds >= 1, "{mode}: at least round 1 completed");
        assert_eq!(
            blocks,
            h.rounds[rounds as usize].num_blocks() as u64,
            "{mode}: reported blocks must be the just-completed round's"
        );
    }
}

/// A visible chain long enough that refinement needs many rounds; a
/// transition budget of one round plus a little trips *mid-refinement* in
/// both engines, with the same structured error.
#[test]
fn budget_trips_mid_refinement_in_both_engines() {
    let k = 40u32;
    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..k).map(|_| b.add_state()).collect();
    let a = b.intern_action(Action::call(ThreadId(1), "step", None));
    for w in states.windows(2) {
        b.add_transition(w[0], a, w[1]);
    }
    let lts = b.build(states[0]);

    for mode in [RefineMode::Full, RefineMode::Incremental] {
        let wd = Watchdog::new(Budget::unlimited().with_max_transitions(k as usize - 1 + 2));
        let err = partition_governed_opts(
            &lts,
            Equivalence::Strong,
            &wd,
            opts(mode, Jobs::serial()),
        )
        .expect_err("the chain needs ~k rounds; one round of budget must trip");
        assert_eq!(err.stage, Stage::Bisim, "{mode}: wrong stage");
        assert_eq!(err.reason, ExhaustReason::TransitionCap, "{mode}: wrong reason");
    }
}
