//! The two-lock Michael–Scott queue — the *blocking* companion algorithm
//! from the same PODC'96 paper as the lock-free MS queue.
//!
//! One lock protects `Head`, another `Tail`, so an enqueuer and a dequeuer
//! never contend with each other; the sentinel node keeps them from
//! touching the same node. Not among the paper's 14 case studies, but a
//! natural extension of the benchmark suite: linearizable, blocking
//! (lock-freedom is not claimed), and small.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// The two-lock queue over a finite enqueue-value domain.
#[derive(Debug, Clone)]
pub struct TwoLockQueue {
    domain: Vec<Value>,
}

impl TwoLockQueue {
    /// Queue whose clients enqueue values from `domain`.
    pub fn new(domain: &[Value]) -> Self {
        TwoLockQueue {
            domain: domain.to_vec(),
        }
    }
}

/// Shared state: heap, `Head`/`Tail` and their locks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Sentinel pointer.
    pub head: Ptr,
    /// Last node.
    pub tail: Ptr,
    /// Holder of the head (dequeue) lock.
    pub head_lock: Option<ThreadId>,
    /// Holder of the tail (enqueue) lock.
    pub tail_lock: Option<ThreadId>,
}

bb_sim::impl_pack!(struct Shared { heap, head, tail, head_lock, tail_lock });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Enq: allocate the node (outside the critical section).
    EnqAlloc {
        /// Value being enqueued.
        v: Value,
    },
    /// Enq: acquire the tail lock (guarded).
    EnqLock {
        /// Private node.
        node: Ptr,
    },
    /// Enq: link `tail.next = node`.
    EnqLink {
        /// Private node.
        node: Ptr,
    },
    /// Enq: swing `Tail` to the node.
    EnqSwing {
        /// Linked node.
        node: Ptr,
    },
    /// Enq: release the tail lock.
    EnqUnlock,
    /// Deq: acquire the head lock (guarded).
    DeqLock,
    /// Deq: read `head.next` and branch.
    DeqRead,
    /// Deq: advance `Head` past the sentinel.
    DeqAdvance {
        /// New head (the dequeued node).
        next: Ptr,
        /// Its value.
        val: Value,
    },
    /// Deq: release the head lock, then return `val`.
    DeqUnlock {
        /// Latched return value.
        val: Value,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => EnqAlloc { v }, 1 => EnqLock { node }, 2 => EnqLink { node }, 3 => EnqSwing { node }, 4 => EnqUnlock, 5 => DeqLock, 6 => DeqRead, 7 => DeqAdvance { next, val }, 8 => DeqUnlock { val }, 9 => Done { val } });

impl ObjectAlgorithm for TwoLockQueue {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "two-lock MS queue"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::with_args("Enq", &self.domain),
            MethodSpec::no_arg("Deq"),
        ]
    }

    fn initial_shared(&self) -> Shared {
        let mut heap = Heap::new();
        let sentinel = heap.alloc(ListNode::new(0, Ptr::NULL));
        Shared {
            heap,
            head: sentinel,
            tail: sentinel,
            head_lock: None,
            tail_lock: None,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        match method {
            0 => Frame::EnqAlloc {
                v: arg.expect("Enq takes a value"),
            },
            1 => Frame::DeqLock,
            _ => unreachable!("queue has two methods"),
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        t: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        match frame {
            Frame::EnqAlloc { v } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*v, Ptr::NULL));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqLock { node },
                    tag: "T1",
                });
            }
            Frame::EnqLock { node } => {
                if shared.tail_lock.is_none() {
                    let mut s = shared.clone();
                    s.tail_lock = Some(t);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::EnqLink { node: *node },
                        tag: "T2",
                    });
                }
            }
            Frame::EnqLink { node } => {
                let mut s = shared.clone();
                let tail = s.tail;
                s.heap.node_mut(tail).next = *node;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqSwing { node: *node },
                    tag: "T3",
                });
            }
            Frame::EnqSwing { node } => {
                let mut s = shared.clone();
                s.tail = *node;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqUnlock,
                    tag: "T4",
                });
            }
            Frame::EnqUnlock => {
                let mut s = shared.clone();
                debug_assert_eq!(s.tail_lock, Some(t));
                s.tail_lock = None;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: None },
                    tag: "T5",
                });
            }
            Frame::DeqLock => {
                if shared.head_lock.is_none() {
                    let mut s = shared.clone();
                    s.head_lock = Some(t);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::DeqRead,
                        tag: "T6",
                    });
                }
            }
            Frame::DeqRead => {
                let next = shared.heap.node(shared.head).next;
                let frame = if next.is_null() {
                    Frame::DeqUnlock { val: EMPTY }
                } else {
                    let val = shared.heap.node(next).val;
                    Frame::DeqAdvance { next, val }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame,
                    tag: "T7",
                });
            }
            Frame::DeqAdvance { next, val } => {
                let mut s = shared.clone();
                s.head = *next;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::DeqUnlock { val: *val },
                    tag: "T8",
                });
            }
            Frame::DeqUnlock { val } => {
                let mut s = shared.clone();
                debug_assert_eq!(s.head_lock, Some(t));
                s.head_lock = None;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: Some(*val) },
                    tag: "T9",
                });
            }
            Frame::Done { val } => out.push(Outcome::Ret {
                shared: shared.clone(),
                val: *val,
                tag: "",
            }),
        }
    }

    fn canonicalize(&self, shared: &mut Shared, frames: &mut [&mut Frame]) {
        let mut roots = vec![shared.head, shared.tail];
        for f in frames.iter() {
            match &**f {
                Frame::EnqLock { node } | Frame::EnqLink { node } | Frame::EnqSwing { node } => {
                    roots.push(*node)
                }
                Frame::DeqAdvance { next, .. } => roots.push(*next),
                _ => {}
            }
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.head = ren.apply(shared.head);
        shared.tail = ren.apply(shared.tail);
        for f in frames.iter_mut() {
            match &mut **f {
                Frame::EnqLock { node } | Frame::EnqLink { node } | Frame::EnqSwing { node } => {
                    *node = ren.apply(*node)
                }
                Frame::DeqAdvance { next, .. } => *next = ren.apply(*next),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn fifo_single_thread() {
        let alg = TwoLockQueue::new(&[1, 2]);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("Deq"))
            .map(|a| a.value)
            .collect();
        assert!(rets.contains(&Some(1)));
        assert!(rets.contains(&Some(EMPTY)));
    }

    #[test]
    fn linearizable_against_queue_spec() {
        use crate::specs::SeqQueue;
        use bb_sim::AtomicSpec;
        let bound = Bound::new(2, 2);
        let imp = explore_system(&TwoLockQueue::new(&[1]), bound).unwrap();
        let sp = explore_system(&AtomicSpec::new(SeqQueue::new(&[1])), bound).unwrap();
        let p_imp = bb_bisim::partition(&imp, bb_bisim::Equivalence::Branching);
        let q_imp = bb_bisim::quotient(&imp, &p_imp);
        let p_sp = bb_bisim::partition(&sp, bb_bisim::Equivalence::Branching);
        let q_sp = bb_bisim::quotient(&sp, &p_sp);
        assert!(bb_refine::trace_refines(&q_imp.lts, &q_sp.lts).holds);
    }

    #[test]
    fn enq_and_deq_do_not_contend() {
        // With one enqueuer and one dequeuer the two locks never block each
        // other: every non-terminal state keeps at least one transition.
        let alg = TwoLockQueue::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
        assert!(lts.num_states() > 100);
    }
}
