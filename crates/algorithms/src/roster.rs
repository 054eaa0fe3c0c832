//! The roster: every named algorithm that `bbv`, the daemon and the
//! `tables` sweeps accept, and the object and specification each name
//! stands for.

use crate::{
    ccas::Ccas, coarse::CoarseLocked, dglm_queue::DglmQueue, fine_list::FineList, hm_list::HmList,
    hsy_stack::HsyStack, hw_queue::HwQueue, lazy_list::LazyList, ms_queue::MsQueue,
    newcas::NewCas, optimistic_list::OptimisticList, rdcss::Rdcss, specs::*, treiber::Treiber,
    treiber_hp::TreiberHp, treiber_hp_fu::TreiberHpFu, two_lock_queue::TwoLockQueue,
};
use bb_sim::{AtomicSpec, ObjectAlgorithm, SequentialSpec};

/// Every roster entry as `(name, description, non_blocking)`, in `bbv list`
/// order. Names are canonical (dashes). `non_blocking` is false for the
/// lock-based objects, which are not lock-free by design, so their
/// lock-freedom check is skipped.
pub const ALGORITHMS: &[(&str, &str, bool)] = &[
    ("treiber", "Treiber lock-free stack", true),
    ("treiber-hp", "Treiber stack + hazard pointers (Michael 2004)", true),
    ("treiber-hp-fu", "Treiber stack + revised HP (Fu et al.; lock-freedom bug)", true),
    ("ms-queue", "Michael-Scott lock-free queue", true),
    ("dglm-queue", "Doherty-Groves-Luchangco-Moir queue", true),
    ("hw-queue", "Herlihy-Wing queue (lock-freedom violation)", true),
    ("ccas", "conditional CAS (Turon et al.)", true),
    ("rdcss", "restricted double-compare single-swap (Harris et al.)", true),
    ("newcas", "NewCompareAndSet register (Figs. 3/4)", true),
    ("hm-list", "Harris-Michael lock-free list (revised)", true),
    ("hm-list-buggy", "Harris-Michael list, first printing (linearizability bug)", true),
    ("hsy-stack", "Hendler-Shavit-Yerushalmi elimination stack", true),
    ("lazy-list", "Heller et al. lazy list (lock-based)", false),
    ("optimistic-list", "optimistic list (lock-based)", false),
    ("fine-list", "fine-grained hand-over-hand list (lock-based)", false),
    ("two-lock-queue", "two-lock MS queue (blocking; extension)", false),
    ("coarse-stack", "coarse-locked stack baseline (extension)", false),
    ("coarse-queue", "coarse-locked queue baseline (extension)", false),
    ("coarse-set", "coarse-locked set baseline (extension)", false),
];

/// A computation generic over a roster object and its specification, run
/// by [`with_case`].
pub trait Case {
    /// What the computation returns.
    type Out;

    /// Runs on the object `alg`, its linearizable specification `seq`, and
    /// the entry's `non_blocking` flag.
    fn run<A: ObjectAlgorithm, S: SequentialSpec>(
        self,
        alg: &A,
        seq: &AtomicSpec<S>,
        non_blocking: bool,
    ) -> Self::Out;
}

/// Builds the object and specification that roster entry `name` stands
/// for, over `domain`, and runs `case` on them. `None` when `name` is not on
/// the roster.
///
/// The hazard-pointer stacks size their hazard slots by `threads`, and the
/// HW queue sizes its array by `threads × ops`. CCAS, RDCSS and NewCAS hold
/// the values `0..domain.len()`.
pub fn with_case<C: Case>(
    name: &str,
    domain: &[i64],
    threads: u8,
    ops: u32,
    case: C,
) -> Option<C::Out> {
    let &(_, _, nb) = ALGORITHMS.iter().find(|(n, ..)| *n == name)?;
    let d = domain;
    let n = d.len() as i64;
    let stack = || AtomicSpec::new(SeqStack::new(d));
    let queue = || AtomicSpec::new(SeqQueue::new(d));
    let set = || AtomicSpec::new(SeqSet::new(d));
    Some(match name {
        "treiber" => case.run(&Treiber::new(d), &stack(), nb),
        "treiber-hp" => case.run(&TreiberHp::new(d, threads), &stack(), nb),
        "treiber-hp-fu" => case.run(&TreiberHpFu::new(d, threads), &stack(), nb),
        "ms-queue" => case.run(&MsQueue::new(d), &queue(), nb),
        "dglm-queue" => case.run(&DglmQueue::new(d), &queue(), nb),
        "hw-queue" => case.run(&HwQueue::for_bound(d, threads, ops), &queue(), nb),
        "ccas" => case.run(&Ccas::new(n), &AtomicSpec::new(SeqCcas::new(n)), nb),
        "rdcss" => case.run(&Rdcss::new(n), &AtomicSpec::new(SeqRdcss::new(n)), nb),
        "newcas" => case.run(&NewCas::new(n), &AtomicSpec::new(SeqRegister::new(n)), nb),
        "hm-list" => case.run(&HmList::revised(d), &set(), nb),
        "hm-list-buggy" => case.run(&HmList::buggy(d), &set(), nb),
        "hsy-stack" => case.run(&HsyStack::new(d), &stack(), nb),
        "lazy-list" => case.run(&LazyList::new(d), &set(), nb),
        "optimistic-list" => case.run(&OptimisticList::new(d), &set(), nb),
        "fine-list" => case.run(&FineList::new(d), &set(), nb),
        "two-lock-queue" => case.run(&TwoLockQueue::new(d), &queue(), nb),
        "coarse-stack" => case.run(&CoarseLocked::new(SeqStack::new(d)), &stack(), nb),
        "coarse-queue" => case.run(&CoarseLocked::new(SeqQueue::new(d)), &queue(), nb),
        "coarse-set" => case.run(&CoarseLocked::new(SeqSet::new(d)), &set(), nb),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reports the `non_blocking` flag [`with_case`] handed over.
    struct NonBlocking;

    impl Case for NonBlocking {
        type Out = bool;

        fn run<A: ObjectAlgorithm, S: SequentialSpec>(
            self,
            _alg: &A,
            _seq: &AtomicSpec<S>,
            non_blocking: bool,
        ) -> bool {
            non_blocking
        }
    }

    #[test]
    fn with_case_runs_every_roster_name() {
        for &(name, _, non_blocking) in ALGORITHMS {
            let nb = with_case(name, &[1, 2], 2, 2, NonBlocking)
                .unwrap_or_else(|| panic!("roster name `{name}` has no case"));
            assert_eq!(nb, non_blocking, "{name}");
        }
        assert!(with_case("no-such-thing", &[1], 2, 2, NonBlocking).is_none());
    }
}
