//! Exact work counters of the Branching partition and the compact state
//! store on a fixed roster slice.
//!
//! Every counter here is a deterministic function of the input LTS and the
//! algorithms, independent of the machine and the worker count, so each is
//! pinned exactly: a change to the refinement worklists, the signature
//! arena or the state encoding moves a number, and the new value must be
//! written here on purpose. The figures were first committed as the
//! `incremental` and `compact` columns of the `bb-bench/perf-v2` baselines.

use bbverify::algorithms::{
    lazy_list::LazyList, ms_queue::MsQueue, newcas::NewCas, treiber::Treiber,
};
use bbverify::bisim::{partition_with_stats, Equivalence, PartitionOptions, RefineStats};
use bbverify::lts::ExploreOptions;
use bbverify::sim::{explore_system_report, Bound, ObjectAlgorithm};

/// The pinned figures of one instance.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    states: usize,
    transitions: usize,
    rounds: usize,
    sig_recomputes: u64,
    dirty_states: u64,
    peak_sig_bytes: usize,
    blocks: usize,
    store_bytes_peak: usize,
    raw_bytes: u64,
    stored_bytes: u64,
}

/// Explores `alg` at `threads`-`ops` through the compact store on one
/// worker, then partitions Δ under branching bisimulation.
fn measure<A: ObjectAlgorithm>(alg: &A, threads: u8, ops: u32) -> Counters {
    let (lts, report) =
        explore_system_report(alg, Bound::new(threads, ops), &ExploreOptions::default())
            .expect("the default limits hold for every pinned instance");
    let (p, stats) =
        partition_with_stats(&lts, Equivalence::Branching, PartitionOptions::default());
    let RefineStats {
        rounds,
        sig_recomputes,
        dirty_states,
        peak_sig_bytes,
    } = stats;
    Counters {
        states: lts.num_states(),
        transitions: lts.num_transitions(),
        rounds,
        sig_recomputes,
        dirty_states,
        peak_sig_bytes,
        blocks: p.num_blocks(),
        store_bytes_peak: report.store_bytes_peak,
        raw_bytes: report.store.raw_bytes,
        stored_bytes: report.store.stored_bytes,
    }
}

#[test]
fn treiber_2_2() {
    assert_eq!(
        measure(&Treiber::new(&[1]), 2, 2),
        Counters {
            states: 1029,
            transitions: 2014,
            rounds: 5,
            sig_recomputes: 3626,
            dirty_states: 3310,
            peak_sig_bytes: 13404,
            blocks: 168,
            store_bytes_peak: 38432,
            raw_bytes: 18255,
            stored_bytes: 16577,
        }
    );
}

#[test]
fn lazy_list_2_1() {
    assert_eq!(
        measure(&LazyList::new(&[1]), 2, 1),
        Counters {
            states: 453,
            transitions: 834,
            rounds: 3,
            sig_recomputes: 946,
            dirty_states: 942,
            peak_sig_bytes: 4364,
            blocks: 51,
            store_bytes_peak: 20928,
            raw_bytes: 19801,
            stored_bytes: 11368,
        }
    );
}

#[test]
fn lazy_list_2_2() {
    assert_eq!(
        measure(&LazyList::new(&[1]), 2, 2),
        Counters {
            states: 3797,
            transitions: 7508,
            rounds: 6,
            sig_recomputes: 13967,
            dirty_states: 12349,
            peak_sig_bytes: 43292,
            blocks: 433,
            store_bytes_peak: 190742,
            raw_bytes: 173493,
            stored_bytes: 103735,
        }
    );
}

#[test]
fn ms_queue_2_2() {
    assert_eq!(
        measure(&MsQueue::new(&[1, 2]), 2, 2),
        Counters {
            states: 16347,
            transitions: 31916,
            rounds: 6,
            sig_recomputes: 56054,
            dirty_states: 52507,
            peak_sig_bytes: 87916,
            blocks: 337,
            store_bytes_peak: 658696,
            raw_bytes: 473274,
            stored_bytes: 383854,
        }
    );
}

#[test]
fn treiber_3_2() {
    assert_eq!(
        measure(&Treiber::new(&[1]), 3, 2),
        Counters {
            states: 57909,
            transitions: 168258,
            rounds: 7,
            sig_recomputes: 222622,
            dirty_states: 204724,
            peak_sig_bytes: 488700,
            blocks: 3137,
            store_bytes_peak: 2440397,
            raw_bytes: 1578759,
            stored_bytes: 1338940,
        }
    );
}

#[test]
fn newcas_3_3() {
    assert_eq!(
        measure(&NewCas::new(2), 3, 3),
        Counters {
            states: 72593,
            transitions: 269568,
            rounds: 8,
            sig_recomputes: 429578,
            dirty_states: 398124,
            peak_sig_bytes: 1530288,
            blocks: 12394,
            store_bytes_peak: 1749279,
            raw_bytes: 1015208,
            stored_bytes: 592476,
        }
    );
}

#[test]
fn newcas_3_4() {
    assert_eq!(
        measure(&NewCas::new(2), 3, 4),
        Counters {
            states: 173531,
            transitions: 649464,
            rounds: 11,
            sig_recomputes: 1196343,
            dirty_states: 1090816,
            peak_sig_bytes: 3473576,
            blocks: 29572,
            store_bytes_peak: 3726498,
            raw_bytes: 2444408,
            stored_bytes: 1426344,
        }
    );
}
