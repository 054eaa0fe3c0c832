//! The partition-refinement engine against an independent reference.
//!
//! [`reference_history`] is the textbook signature refinement: every round
//! recomputes every state's signature from scratch and splits by
//! (old block, signature), numbering blocks by first occurrence. It shares
//! no code with the engine — it reads the LTS through the public `Lts`
//! accessors and builds its signatures from `Observation`s, `TauClosure`
//! and `tarjan_scc` — so the engine's dirty worklists, interned signatures
//! and reused condensations are checked by something that has none of them.
//!
//! The engine must reproduce the reference exactly — the partition, block
//! ids included, round by round — under every equivalence at any worker
//! count, on the algorithm roster (including the known-buggy variants),
//! specification LTSs, seeded random LTSs and hand-made shapes; quotients,
//! `.aut` exports and verdicts follow. A budget that trips mid-refinement
//! must surface as a structured exhaustion.

use bbverify::algorithms::{
    ccas::Ccas, hm_list::HmList, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    specs::*, treiber::Treiber, treiber_hp_fu::TreiberHpFu,
};
use bbverify::bisim::{
    has_tau_cycle, partition_governed_opts, partition_opts, partition_with_history_opts, quotient,
    BlockId, Equivalence, Partition, PartitionOptions,
};
use bbverify::core::{verify_case_lts, VerifyConfig};
use bbverify::lts::{
    random_lts, tarjan_scc, to_aut, Action, Budget, ExhaustReason, ExploreLimits, Jobs, Lts,
    LtsBuilder, Observation, RandomLtsConfig, Stage, StateId, TauClosure, ThreadId, Transition,
    Watchdog,
};
use bbverify::refine::trace_refines;
use bbverify::sim::{explore_system, AtomicSpec, Bound, ObjectAlgorithm};
use std::collections::{BTreeSet, HashMap, HashSet};

const EQUIVALENCES: [Equivalence; 4] = [
    Equivalence::Strong,
    Equivalence::Branching,
    Equivalence::BranchingDiv,
    Equivalence::Weak,
];

fn opts(jobs: Jobs) -> PartitionOptions {
    PartitionOptions::default().with_jobs(jobs)
}

/// A reference signature: the `(observation, target block)` moves — `None`
/// for τ — plus the divergence flag of `≈div`.
type Signature = (BTreeSet<(Option<Observation>, u32)>, bool);

/// Every round of the reference refinement of `lts` under `eq`, the
/// universal partition first and the (repeated) fixpoint last.
fn reference_history(lts: &Lts, eq: Equivalence) -> Vec<Partition> {
    let closure = (eq == Equivalence::Weak).then(|| TauClosure::compute(lts));
    let mut rounds = vec![Partition::universal(lts.num_states())];
    loop {
        let p = rounds.last().expect("the universal round");
        let on_cycle = (eq == Equivalence::BranchingDiv).then(|| on_inert_cycle(lts, p));
        let sigs: Vec<Signature> = lts
            .states()
            .map(|s| reference_signature(lts, eq, p, closure.as_ref(), on_cycle.as_deref(), s))
            .collect();
        let mut ids: HashMap<(BlockId, &Signature), u32> = HashMap::new();
        let assignment: Vec<BlockId> = lts
            .states()
            .map(|s| {
                let next = ids.len() as u32;
                BlockId(*ids.entry((p.block_of(s), &sigs[s.index()])).or_insert(next))
            })
            .collect();
        let next = Partition::new(assignment, ids.len());
        let stable = next.num_blocks() == p.num_blocks();
        rounds.push(next);
        if stable {
            return rounds;
        }
    }
}

/// A τ-step that stays inside its source's block.
fn inert(lts: &Lts, p: &Partition, from: StateId, t: &Transition) -> bool {
    !lts.is_visible(t.action) && p.same_block(from, t.target)
}

/// Whether each state lies on a cycle of inert τ-steps: in a cyclic SCC of
/// the inert-τ graph.
fn on_inert_cycle(lts: &Lts, p: &Partition) -> Vec<bool> {
    let cond = tarjan_scc(lts.num_states(), |w, out| {
        out.extend(
            lts.successors(w)
                .iter()
                .filter(|t| inert(lts, p, w, t))
                .map(|t| t.target),
        )
    });
    cond.scc_of.iter().map(|k| cond.cyclic[k.index()]).collect()
}

fn reference_signature(
    lts: &Lts,
    eq: Equivalence,
    p: &Partition,
    closure: Option<&TauClosure>,
    on_cycle: Option<&[bool]>,
    s: StateId,
) -> Signature {
    let obs = |t: &Transition| lts.action(t.action).observation();
    let block = |s: StateId| p.block_of(s).0;
    let mut moves = BTreeSet::new();
    let mut diverges = false;
    match eq {
        Equivalence::Strong => {
            for t in lts.successors(s) {
                moves.insert((obs(t), block(t.target)));
            }
        }
        Equivalence::Weak => {
            // s ⇒ w: every τ-reachable state in another block, and every
            // visible step w →a t with everything t reaches by τ.
            let closure = closure.expect("weak signatures need the τ-closure");
            for &w in closure.of(s) {
                if block(w) != block(s) {
                    moves.insert((None, block(w)));
                }
                for t in lts.successors(w) {
                    if let Some(o) = obs(t) {
                        for &v in closure.of(t.target) {
                            moves.insert((Some(o.clone()), block(v)));
                        }
                    }
                }
            }
        }
        Equivalence::Branching | Equivalence::BranchingDiv => {
            // The region s reaches by inert τ-steps, and the moves leaving
            // it; under ≈div, whether the region holds an inert τ-cycle.
            let mut region = HashSet::from([s]);
            let mut stack = vec![s];
            while let Some(w) = stack.pop() {
                for t in lts.successors(w) {
                    if !inert(lts, p, w, t) {
                        moves.insert((obs(t), block(t.target)));
                    } else if region.insert(t.target) {
                        stack.push(t.target);
                    }
                }
            }
            if let Some(on_cycle) = on_cycle {
                diverges = region.iter().any(|w| on_cycle[w.index()]);
            }
        }
    }
    (moves, diverges)
}

/// Asserts the engine reproduces the reference on `lts` — every round of
/// the history, block ids included, and the final partition — for every
/// equivalence at 1, 2 and 4 workers.
fn assert_engines_agree(lts: &Lts, what: &str) {
    for eq in EQUIVALENCES {
        let reference = reference_history(lts, eq);
        for jobs in [Jobs::serial(), Jobs::new(2), Jobs::new(4)] {
            let (p, h) = partition_with_history_opts(lts, eq, opts(jobs));
            assert_eq!(
                h.rounds.len(),
                reference.len(),
                "{what}: round count differs under {eq:?} at {jobs:?}"
            );
            for (i, (a, b)) in reference.iter().zip(&h.rounds).enumerate() {
                assert_eq!(a, b, "{what}: round {i} differs under {eq:?} at {jobs:?}");
            }
            assert_eq!(&p, reference.last().unwrap(), "{what}: {eq:?} at {jobs:?}");
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
// engine must match the reference on failures exactly as on successes.
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
    // Sizes, alphabets and τ-shares swept from tiny to τ-dominated.
    for case in 0..24u64 {
        let lts = random_lts(
            1000 + case,
            RandomLtsConfig {
                num_states: 3 + (case % 17) as usize,
                num_transitions: 2 + (case * 7 % 43) as usize,
                num_visible_letters: 1 + (case % 3) as usize,
                tau_percent: (case * 13 % 95) as u8,
            },
        );
        assert_engines_agree(&lts, &format!("random case {case}"));
    }
}

/// Inert τ, τ-cycles, effectful τ, divergence and a visible chain with
/// back-edges.
#[test]
fn engines_agree_on_handcrafted_shapes() {
    let mut b = LtsBuilder::new();
    let s0 = b.add_state();
    let s1 = b.add_state();
    let s2 = b.add_state();
    let t = b.intern_action(Action::tau(ThreadId(1)));
    let a = b.intern_action(Action::call(ThreadId(1), "a", None));
    b.add_transition(s0, t, s1);
    b.add_transition(s1, a, s2);
    b.add_transition(s1, t, s0);
    b.add_transition(s2, t, s2);
    assert_engines_agree(&b.build(s0), "tau-cycle-with-divergence");

    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..8).map(|_| b.add_state()).collect();
    let t = b.intern_action(Action::tau(ThreadId(1)));
    let a = b.intern_action(Action::call(ThreadId(1), "a", None));
    let c = b.intern_action(Action::call(ThreadId(1), "c", None));
    for w in states.windows(2) {
        b.add_transition(w[0], a, w[1]);
    }
    b.add_transition(states[3], t, states[1]);
    b.add_transition(states[5], c, states[0]);
    b.add_transition(states[7], t, states[7]);
    assert_engines_agree(&b.build(states[0]), "chain-with-backedges");
}

/// The quotients — and therefore their `.aut` exports — are byte-identical
/// to the reference partition's, because the partitions agree block id by
/// block id.
#[test]
fn aut_exports_of_quotients_are_byte_identical() {
    let lts = lts_of(&MsQueue::new(&[1]), 2, 2);
    for eq in EQUIVALENCES {
        let reference = reference_history(&lts, eq);
        let expected = to_aut(&quotient(&lts, reference.last().unwrap()).lts);
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let q = quotient(&lts, &partition_opts(&lts, eq, opts(jobs)));
            assert_eq!(
                to_aut(&q.lts),
                expected,
                ".aut export differs under {eq:?} at {jobs:?}"
            );
        }
    }
}

/// The verdict cases: a passing lock-free object and the known
/// linearizability bug.
fn verdict_cases() -> [(&'static str, Lts, Lts); 2] {
    [
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
    ]
}

/// End-to-end: `verify_case_lts` reaches the verdicts Fig. 1 gives on the
/// reference partitions — Δ/≈ trace-refines Θsp/≈, and Δ has no τ-cycle —
/// with the reference's |Δ/≈|.
#[test]
fn verdicts_are_identical_across_engines() {
    for (name, imp, spec) in &verdict_cases() {
        let q_imp = quotient(
            imp,
            reference_history(imp, Equivalence::Branching)
                .last()
                .unwrap(),
        );
        let q_spec = quotient(
            spec,
            reference_history(spec, Equivalence::Branching)
                .last()
                .unwrap(),
        );
        let expected = (
            trace_refines(&q_imp.lts, &q_spec.lts).holds,
            !has_tau_cycle(imp),
            q_imp.lts.num_states(),
        );
        let cfg = VerifyConfig::new(Bound::new(2, 2));
        let r = verify_case_lts(name, cfg, imp, spec, &Watchdog::unlimited()).unwrap();
        let got = (
            r.linearizable(),
            r.lock_free(),
            r.linearizability.impl_quotient_states,
        );
        assert_eq!(got, expected, "{name}");
    }
}

/// The jobs sweep: partitions, round-by-round histories and quotient `.aut`
/// bytes at `jobs ∈ {1, 2, 4}` all equal the reference. Runs on a roster
/// slice that includes a lock-based algorithm and a known-buggy variant
/// (failures must replicate exactly as successes do).
#[test]
fn jobs_refine_sweep_is_bit_identical() {
    let cases: [(&str, Lts); 3] = [
        ("ms-queue", lts_of(&MsQueue::new(&[1]), 2, 2)),
        ("lazy-list", lts_of(&LazyList::new(&[1]), 2, 2)),
        ("hm-list-buggy", lts_of(&HmList::buggy(&[1]), 2, 2)),
    ];
    for (name, lts) in &cases {
        for eq in [Equivalence::Strong, Equivalence::Branching] {
            let reference = reference_history(lts, eq);
            let aut0 = to_aut(&quotient(lts, reference.last().unwrap()).lts);
            for jobs in [Jobs::serial(), Jobs::new(2), Jobs::new(4)] {
                let tag = format!("{name} {eq:?} {jobs:?}");
                let (p, h) = partition_with_history_opts(lts, eq, opts(jobs));
                assert_eq!(&p, reference.last().unwrap(), "{tag}: partition differs");
                assert_eq!(h.rounds, reference, "{tag}: history differs");
                assert_eq!(
                    aut0,
                    to_aut(&quotient(lts, &p).lts),
                    "{tag}: .aut bytes differ"
                );
            }
        }
    }
}

/// End-to-end sweep over the verification pipeline: `verify_case_lts` must
/// produce the same verdict summary as the serial default at every worker
/// count.
#[test]
fn verdicts_match_across_jobs() {
    for (name, imp, spec) in &verdict_cases() {
        let run = |jobs| {
            let cfg = VerifyConfig::new(Bound::new(2, 2)).with_jobs(jobs);
            let r = verify_case_lts(name, cfg, imp, spec, &Watchdog::unlimited()).unwrap();
            (r.linearizable(), r.lock_free(), r.summary())
        };
        let serial = run(Jobs::serial());
        for jobs in [Jobs::new(2), Jobs::new(4)] {
            assert_eq!(
                serial,
                run(jobs),
                "{name} at {jobs:?}: verdict differs from serial"
            );
        }
    }
}

/// A visible chain long enough that refinement needs about one round per
/// state.
fn chain(k: u32) -> Lts {
    let mut b = LtsBuilder::new();
    let states: Vec<_> = (0..k).map(|_| b.add_state()).collect();
    let a = b.intern_action(Action::call(ThreadId(1), "step", None));
    for w in states.windows(2) {
        b.add_transition(w[0], a, w[1]);
    }
    b.build(states[0])
}

/// The `PartialStats.refinement` boundary semantics: a budget that trips
/// before the first round completes reports *no* refinement progress (not
/// a phantom round 0), and a trip exactly on a round boundary reports the
/// just-completed round with its block count — consistent with the
/// unbudgeted run's history.
#[test]
fn partial_stats_refinement_round_boundaries_are_exact() {
    let lts = chain(40);
    // Round 0 recomputes every signature: one visit per transition.
    let scan = lts.num_transitions();
    // Reference history of the uninterrupted run: rounds[r] is the
    // partition after round r (rounds[0] is the universal start).
    let (_, h) = partition_with_history_opts(&lts, Equivalence::Strong, opts(Jobs::serial()));

    // Trip before round 1 can complete: no round was finished, so the
    // partial stats must carry no refinement note at all.
    let wd = Watchdog::new(Budget::unlimited().with_max_transitions(scan - 1));
    let err = partition_governed_opts(&lts, Equivalence::Strong, &wd, opts(Jobs::serial()))
        .expect_err("budget under one scan must trip in round 1");
    assert_eq!(err.reason, ExhaustReason::TransitionCap);
    assert_eq!(
        err.partial.refinement, None,
        "a trip before round 1 completes must not report a round"
    );

    // Trip after a few completed rounds: the last completed round must be
    // reported, and its block count must match the history.
    let wd = Watchdog::new(Budget::unlimited().with_max_transitions(2 * scan - 1));
    let err = partition_governed_opts(&lts, Equivalence::Strong, &wd, opts(Jobs::serial()))
        .expect_err("the chain needs ~k rounds; two scans of budget must trip");
    assert_eq!(err.reason, ExhaustReason::TransitionCap);
    let (rounds, blocks) = err
        .partial
        .refinement
        .expect("a trip after a completed round must report it");
    assert!(rounds >= 1, "at least round 1 completed");
    assert_eq!(
        blocks,
        h.rounds[rounds as usize].num_blocks() as u64,
        "reported blocks must be the just-completed round's"
    );
}

/// A transition budget of one round plus a little trips *mid-refinement*
/// with a structured error naming the stage and the axis.
#[test]
fn budget_trips_mid_refinement() {
    let k = 40u32;
    let lts = chain(k);
    let wd = Watchdog::new(Budget::unlimited().with_max_transitions(k as usize - 1 + 2));
    let err = partition_governed_opts(&lts, Equivalence::Strong, &wd, opts(Jobs::serial()))
        .expect_err("the chain needs ~k rounds; one round of budget must trip");
    assert_eq!(err.stage, Stage::Bisim);
    assert_eq!(err.reason, ExhaustReason::TransitionCap);
}
