//! The Doherty–Groves–Luchangco–Moir queue (case study 5 of Table II).
//!
//! An optimized variant of the MS queue: the dequeuer does not read `Tail`
//! up front — it checks emptiness via `head.next` alone and only fixes a
//! lagging `Tail` after a successful dequeue, so `Head` may transiently
//! overtake `Tail`. Enqueue is identical to the MS queue. The paper reports
//! it has the same specification and abstract object as the MS queue, with
//! a smaller state space.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// The DGLM queue over a finite enqueue-value domain.
#[derive(Debug, Clone)]
pub struct DglmQueue {
    domain: Vec<Value>,
}

impl DglmQueue {
    /// Queue whose clients enqueue values from `domain`.
    pub fn new(domain: &[Value]) -> Self {
        DglmQueue {
            domain: domain.to_vec(),
        }
    }
}

/// Shared state: heap plus `Head` and `Tail` (with a sentinel node).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Points to the sentinel.
    pub head: Ptr,
    /// Points to the last or penultimate node.
    pub tail: Ptr,
}

bb_sim::impl_pack!(struct Shared { heap, head, tail });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Enq: allocate.
    EnqAlloc {
        /// Value being enqueued.
        v: Value,
    },
    /// Enq: read `Tail`.
    EnqReadTail {
        /// Fresh node.
        node: Ptr,
    },
    /// Enq: read `t.next`.
    EnqReadNext {
        /// Fresh node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
    },
    /// Enq: validate and branch.
    EnqCheck {
        /// Fresh node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
        /// Observed `t.next`.
        n: Ptr,
    },
    /// Enq: CAS `t.next` from null (LP on success).
    EnqCasNext {
        /// Fresh node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
    },
    /// Enq: help swing `Tail`, retry.
    EnqSwingHelp {
        /// Fresh node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
        /// Observed `t.next`.
        n: Ptr,
    },
    /// Enq: swing `Tail` to own node, return.
    EnqSwingOwn {
        /// Linked node.
        node: Ptr,
        /// Old tail.
        t: Ptr,
    },
    /// Deq: read `Head`.
    DeqReadHead,
    /// Deq: read `h.next` (LP of the empty case).
    DeqReadNext {
        /// Observed head.
        h: Ptr,
    },
    /// Deq: validate `Head == h` and branch.
    DeqCheck {
        /// Observed head.
        h: Ptr,
        /// Observed `h.next`.
        next: Ptr,
    },
    /// Deq: CAS `Head` (LP on success).
    DeqCas {
        /// Observed head.
        h: Ptr,
        /// Its successor.
        next: Ptr,
    },
    /// Deq: after success, read `Tail` to check for lag.
    DeqFixRead {
        /// Dequeued-from head.
        h: Ptr,
        /// New head.
        next: Ptr,
        /// Value to return.
        val: Value,
    },
    /// Deq: CAS `Tail` forward if it lagged at the dequeued node.
    DeqFixCas {
        /// Dequeued-from head (== lagging tail).
        h: Ptr,
        /// New head.
        next: Ptr,
        /// Value to return.
        val: Value,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => EnqAlloc { v }, 1 => EnqReadTail { node }, 2 => EnqReadNext { node, t }, 3 => EnqCheck { node, t, n }, 4 => EnqCasNext { node, t }, 5 => EnqSwingHelp { node, t, n }, 6 => EnqSwingOwn { node, t }, 7 => DeqReadHead, 8 => DeqReadNext { h }, 9 => DeqCheck { h, next }, 10 => DeqCas { h, next }, 11 => DeqFixRead { h, next, val }, 12 => DeqFixCas { h, next, val }, 13 => Done { val } });

impl ObjectAlgorithm for DglmQueue {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "DGLM queue"
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
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        match method {
            0 => Frame::EnqAlloc {
                v: arg.expect("Enq takes a value"),
            },
            1 => Frame::DeqReadHead,
            _ => unreachable!("queue has two methods"),
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        _t: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        match frame {
            Frame::EnqAlloc { v } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*v, Ptr::NULL));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqReadTail { node },
                    tag: "E1",
                });
            }
            Frame::EnqReadTail { node } => out.push(Outcome::Tau {
                shared: shared.clone(),
                frame: Frame::EnqReadNext {
                    node: *node,
                    t: shared.tail,
                },
                tag: "E2",
            }),
            Frame::EnqReadNext { node, t } => {
                let n = shared.heap.node(*t).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::EnqCheck {
                        node: *node,
                        t: *t,
                        n,
                    },
                    tag: "E3",
                });
            }
            Frame::EnqCheck { node, t, n } => {
                let next = if shared.tail != *t {
                    Frame::EnqReadTail { node: *node }
                } else if n.is_null() {
                    Frame::EnqCasNext { node: *node, t: *t }
                } else {
                    Frame::EnqSwingHelp {
                        node: *node,
                        t: *t,
                        n: *n,
                    }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "E4",
                });
            }
            Frame::EnqCasNext { node, t } => {
                if shared.heap.node(*t).next.is_null() {
                    let mut s = shared.clone();
                    s.heap.node_mut(*t).next = *node;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::EnqSwingOwn { node: *node, t: *t },
                        tag: "E5",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::EnqReadTail { node: *node },
                        tag: "E5",
                    });
                }
            }
            Frame::EnqSwingHelp { node, t, n } => {
                let mut s = shared.clone();
                if s.tail == *t {
                    s.tail = *n;
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqReadTail { node: *node },
                    tag: "E6",
                });
            }
            Frame::EnqSwingOwn { node, t } => {
                let mut s = shared.clone();
                if s.tail == *t {
                    s.tail = *node;
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: None },
                    tag: "E7",
                });
            }
            Frame::DeqReadHead => out.push(Outcome::Tau {
                shared: shared.clone(),
                frame: Frame::DeqReadNext { h: shared.head },
                tag: "D1",
            }),
            Frame::DeqReadNext { h } => {
                let next = shared.heap.node(*h).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::DeqCheck { h: *h, next },
                    tag: "D2",
                });
            }
            Frame::DeqCheck { h, next } => {
                let frame = if shared.head != *h {
                    Frame::DeqReadHead
                } else if next.is_null() {
                    Frame::Done { val: Some(EMPTY) }
                } else {
                    Frame::DeqCas { h: *h, next: *next }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame,
                    tag: "D3",
                });
            }
            Frame::DeqCas { h, next } => {
                if shared.head == *h {
                    let mut s = shared.clone();
                    s.head = *next;
                    let val = s.heap.node(*next).val;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::DeqFixRead {
                            h: *h,
                            next: *next,
                            val,
                        },
                        tag: "D4",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::DeqReadHead,
                        tag: "D4",
                    });
                }
            }
            Frame::DeqFixRead { h, next, val } => {
                // Check whether Tail lags at the node we just dequeued past.
                let frame = if shared.tail == *h {
                    Frame::DeqFixCas {
                        h: *h,
                        next: *next,
                        val: *val,
                    }
                } else {
                    Frame::Done { val: Some(*val) }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame,
                    tag: "D5",
                });
            }
            Frame::DeqFixCas { h, next, val } => {
                let mut s = shared.clone();
                if s.tail == *h {
                    s.tail = *next;
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: Some(*val) },
                    tag: "D6",
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
            visit(f, &mut |p| roots.push(p));
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.head = ren.apply(shared.head);
        shared.tail = ren.apply(shared.tail);
        for f in frames.iter_mut() {
            rewrite(f, &mut |p| *p = ren.apply(*p));
        }
    }
}

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::EnqAlloc { .. } | Frame::DeqReadHead | Frame::Done { .. } => {}
        Frame::EnqReadTail { node } => go(*node),
        Frame::EnqReadNext { node, t } | Frame::EnqCasNext { node, t } => {
            go(*node);
            go(*t);
        }
        Frame::EnqCheck { node, t, n } | Frame::EnqSwingHelp { node, t, n } => {
            go(*node);
            go(*t);
            go(*n);
        }
        Frame::EnqSwingOwn { node, t } => {
            go(*node);
            go(*t);
        }
        Frame::DeqReadNext { h } => go(*h),
        Frame::DeqCheck { h, next } | Frame::DeqCas { h, next } => {
            go(*h);
            go(*next);
        }
        Frame::DeqFixRead { h, next, .. } | Frame::DeqFixCas { h, next, .. } => {
            go(*h);
            go(*next);
        }
    }
}

fn rewrite(f: &mut Frame, go: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::EnqAlloc { .. } | Frame::DeqReadHead | Frame::Done { .. } => {}
        Frame::EnqReadTail { node } => go(node),
        Frame::EnqReadNext { node, t } | Frame::EnqCasNext { node, t } => {
            go(node);
            go(t);
        }
        Frame::EnqCheck { node, t, n } | Frame::EnqSwingHelp { node, t, n } => {
            go(node);
            go(t);
            go(n);
        }
        Frame::EnqSwingOwn { node, t } => {
            go(node);
            go(t);
        }
        Frame::DeqReadNext { h } => go(h),
        Frame::DeqCheck { h, next } | Frame::DeqCas { h, next } => {
            go(h);
            go(next);
        }
        Frame::DeqFixRead { h, next, .. } | Frame::DeqFixCas { h, next, .. } => {
            go(h);
            go(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn fifo_single_thread() {
        let alg = DglmQueue::new(&[1, 2]);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let deq_rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("Deq"))
            .map(|a| a.value)
            .collect();
        assert!(deq_rets.contains(&Some(1)));
        assert!(deq_rets.contains(&Some(EMPTY)));
    }

    #[test]
    fn no_tau_cycles() {
        let alg = DglmQueue::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
    }

    #[test]
    fn smaller_than_ms_queue() {
        // The paper reports DGLM consistently smaller than MS (Table VI).
        use crate::ms_queue::MsQueue;
        let bound = Bound::new(2, 2);
        let dglm = explore_system(&DglmQueue::new(&[1]), bound).unwrap();
        let ms = explore_system(&MsQueue::new(&[1]), bound).unwrap();
        assert!(dglm.num_states() < ms.num_states());
    }
}
