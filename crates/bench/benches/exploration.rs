//! State-space generation throughput of the most-general-client semantics
//! (the LNT/CADP generator role), including the canonical-heap overhead.
//!
//! Note on the expansion loop: `explore_with` expands the dequeued
//! state in place (a short immutable borrow of the discovered-state arena)
//! instead of cloning it first. Cloning a canonical-heap state is O(heap),
//! so the clone-free loop is what these throughput numbers measure; if a
//! clone ever creeps back into the hot loop, expect `explore/hm-list/2-2`
//! (the largest heap states) to regress first.

use bb_algorithms::{hm_list::HmList, ms_queue::MsQueue, treiber::Treiber};
use bb_bench::bench_loop;
use bb_lts::{ExploreLimits, Jobs};
use bb_sim::{explore_system, explore_system_with, Bound};

fn main() {
    println!("== explore ==");
    bench_loop("explore/treiber/2-2", 10, || {
        explore_system(&Treiber::new(&[1]), Bound::new(2, 2), ExploreLimits::default()).unwrap()
    });
    bench_loop("explore/ms-queue/2-2", 10, || {
        explore_system(&MsQueue::new(&[1]), Bound::new(2, 2), ExploreLimits::default()).unwrap()
    });
    bench_loop("explore/hm-list/2-2", 10, || {
        explore_system(
            &HmList::revised(&[1]),
            Bound::new(2, 2),
            ExploreLimits::default(),
        )
        .unwrap()
    });

    // Parallel frontier expansion must be a pure speedup: assert the LTS it
    // produces is the same before timing it.
    let seq = explore_system(&MsQueue::new(&[1]), Bound::new(2, 2), ExploreLimits::default())
        .unwrap();
    let par = explore_system_with(
        &MsQueue::new(&[1]),
        Bound::new(2, 2),
        &bb_lts::ExploreOptions::limits(ExploreLimits::default()).with_jobs(Jobs::available()),
    )
    .unwrap();
    assert_eq!(seq.num_states(), par.num_states(), "parallel explore must be deterministic");
    assert_eq!(
        seq.num_transitions(),
        par.num_transitions(),
        "parallel explore must be deterministic"
    );
    println!("== explore, all cores (identical output asserted) ==");
    bench_loop("explore-par/ms-queue/2-2", 10, || {
        explore_system_with(
            &MsQueue::new(&[1]),
            Bound::new(2, 2),
            &bb_lts::ExploreOptions::limits(ExploreLimits::default()).with_jobs(Jobs::available()),
        )
        .unwrap()
    });
}
