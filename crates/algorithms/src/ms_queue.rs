//! The Michael–Scott lock-free queue (case study 4; Fig. 5 of the paper).
//!
//! Line tags follow Fig. 5: `L8` is the successful enqueue CAS, `L19` the
//! dequeuer's read of `Head`/`Tail`, `L20` the read of `h.next` (the
//! non-fixed linearization point of the empty case), `L21` the validation
//! of `Head`, and `L28` the successful dequeue CAS.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// The MS queue over a finite enqueue-value domain.
#[derive(Debug, Clone)]
pub struct MsQueue {
    domain: Vec<Value>,
}

impl MsQueue {
    /// Queue whose clients enqueue values from `domain`.
    pub fn new(domain: &[Value]) -> Self {
        MsQueue {
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

/// Per-invocation frames (program counters of Fig. 5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Enq L1: allocate the node.
    EnqAlloc {
        /// Value being enqueued.
        v: Value,
    },
    /// Enq L5: read `Tail`.
    EnqReadTail {
        /// The freshly allocated node.
        node: Ptr,
    },
    /// Enq L6: read `t.next`.
    EnqReadNext {
        /// The freshly allocated node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
    },
    /// Enq L7: validate `Tail == t` and branch.
    EnqCheck {
        /// The freshly allocated node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
        /// Observed `t.next`.
        n: Ptr,
    },
    /// Enq L8: CAS `t.next` from null to the node (LP on success).
    EnqCasNext {
        /// The freshly allocated node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
    },
    /// Enq: help swing `Tail` from `t` to `n`, then retry.
    EnqSwingHelp {
        /// The freshly allocated node.
        node: Ptr,
        /// Observed tail.
        t: Ptr,
        /// Observed `t.next`.
        n: Ptr,
    },
    /// Enq L10: swing `Tail` to the freshly linked node, then return.
    EnqSwingOwn {
        /// The freshly linked node.
        node: Ptr,
        /// The old tail.
        t: Ptr,
    },
    /// Deq L19: read `Head` and `Tail`.
    DeqRead,
    /// Deq L20: read `h.next`.
    DeqReadNext {
        /// Observed head.
        h: Ptr,
        /// Observed tail.
        t: Ptr,
    },
    /// Deq L21: validate `Head == h` and branch.
    DeqCheck {
        /// Observed head.
        h: Ptr,
        /// Observed tail.
        t: Ptr,
        /// Observed `h.next`.
        next: Ptr,
    },
    /// Deq: help swing `Tail` from `t` to `next`, then retry.
    DeqSwing {
        /// Observed (lagging) tail.
        t: Ptr,
        /// Its successor.
        next: Ptr,
    },
    /// Deq L28: CAS `Head` from `h` to `next` (LP on success).
    DeqCas {
        /// Observed head.
        h: Ptr,
        /// Its successor, holding the value to return.
        next: Ptr,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => EnqAlloc { v }, 1 => EnqReadTail { node }, 2 => EnqReadNext { node, t }, 3 => EnqCheck { node, t, n }, 4 => EnqCasNext { node, t }, 5 => EnqSwingHelp { node, t, n }, 6 => EnqSwingOwn { node, t }, 7 => DeqRead, 8 => DeqReadNext { h, t }, 9 => DeqCheck { h, t, next }, 10 => DeqSwing { t, next }, 11 => DeqCas { h, next }, 12 => Done { val } });

impl ObjectAlgorithm for MsQueue {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "MS lock-free queue"
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
            1 => Frame::DeqRead,
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
            // ----------------------------------------------------- enqueue
            Frame::EnqAlloc { v } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*v, Ptr::NULL));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqReadTail { node },
                    tag: "L1",
                });
            }
            Frame::EnqReadTail { node } => {
                let t = shared.tail;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::EnqReadNext { node: *node, t },
                    tag: "L5",
                });
            }
            Frame::EnqReadNext { node, t } => {
                let n = shared.heap.node(*t).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::EnqCheck {
                        node: *node,
                        t: *t,
                        n,
                    },
                    tag: "L6",
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
                    tag: "L7",
                });
            }
            Frame::EnqCasNext { node, t } => {
                if shared.heap.node(*t).next.is_null() {
                    let mut s = shared.clone();
                    s.heap.node_mut(*t).next = *node;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::EnqSwingOwn { node: *node, t: *t },
                        tag: "L8",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::EnqReadTail { node: *node },
                        tag: "L8",
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
                    tag: "L9",
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
                    tag: "L10",
                });
            }
            // ----------------------------------------------------- dequeue
            Frame::DeqRead => {
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::DeqReadNext {
                        h: shared.head,
                        t: shared.tail,
                    },
                    tag: "L19",
                });
            }
            Frame::DeqReadNext { h, t } => {
                let next = shared.heap.node(*h).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::DeqCheck {
                        h: *h,
                        t: *t,
                        next,
                    },
                    tag: "L20",
                });
            }
            Frame::DeqCheck { h, t, next } => {
                let frame = if shared.head != *h {
                    Frame::DeqRead
                } else if h == t {
                    if next.is_null() {
                        Frame::Done { val: Some(EMPTY) }
                    } else {
                        Frame::DeqSwing { t: *t, next: *next }
                    }
                } else {
                    Frame::DeqCas { h: *h, next: *next }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame,
                    tag: "L21",
                });
            }
            Frame::DeqSwing { t, next } => {
                let mut s = shared.clone();
                if s.tail == *t {
                    s.tail = *next;
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::DeqRead,
                    tag: "L25",
                });
            }
            Frame::DeqCas { h, next } => {
                if shared.head == *h {
                    let mut s = shared.clone();
                    s.head = *next;
                    let val = s.heap.node(*next).val;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: Some(val) },
                        tag: "L28",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::DeqRead,
                        tag: "L28",
                    });
                }
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
            frame_ptrs(f, &mut |p| roots.push(p));
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.head = ren.apply(shared.head);
        shared.tail = ren.apply(shared.tail);
        for f in frames.iter_mut() {
            frame_ptrs_mut(f, &mut |p| *p = ren.apply(*p));
        }
    }
}

fn frame_ptrs(f: &Frame, visit: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::EnqAlloc { .. } | Frame::DeqRead | Frame::Done { .. } => {}
        Frame::EnqReadTail { node } => visit(*node),
        Frame::EnqReadNext { node, t } | Frame::EnqCasNext { node, t } => {
            visit(*node);
            visit(*t);
        }
        Frame::EnqCheck { node, t, n } | Frame::EnqSwingHelp { node, t, n } => {
            visit(*node);
            visit(*t);
            visit(*n);
        }
        Frame::EnqSwingOwn { node, t } => {
            visit(*node);
            visit(*t);
        }
        Frame::DeqReadNext { h, t } => {
            visit(*h);
            visit(*t);
        }
        Frame::DeqCheck { h, t, next } => {
            visit(*h);
            visit(*t);
            visit(*next);
        }
        Frame::DeqSwing { t, next } => {
            visit(*t);
            visit(*next);
        }
        Frame::DeqCas { h, next } => {
            visit(*h);
            visit(*next);
        }
    }
}

fn frame_ptrs_mut(f: &mut Frame, rewrite: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::EnqAlloc { .. } | Frame::DeqRead | Frame::Done { .. } => {}
        Frame::EnqReadTail { node } => rewrite(node),
        Frame::EnqReadNext { node, t } | Frame::EnqCasNext { node, t } => {
            rewrite(node);
            rewrite(t);
        }
        Frame::EnqCheck { node, t, n } | Frame::EnqSwingHelp { node, t, n } => {
            rewrite(node);
            rewrite(t);
            rewrite(n);
        }
        Frame::EnqSwingOwn { node, t } => {
            rewrite(node);
            rewrite(t);
        }
        Frame::DeqReadNext { h, t } => {
            rewrite(h);
            rewrite(t);
        }
        Frame::DeqCheck { h, t, next } => {
            rewrite(h);
            rewrite(t);
            rewrite(next);
        }
        Frame::DeqSwing { t, next } => {
            rewrite(t);
            rewrite(next);
        }
        Frame::DeqCas { h, next } => {
            rewrite(h);
            rewrite(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::ExploreLimits;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn fifo_single_thread() {
        let alg = MsQueue::new(&[1, 2]);
        let lts = explore_system(&alg, Bound::new(1, 3), ExploreLimits::default()).unwrap();
        let deq_rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("Deq"))
            .map(|a| a.value)
            .collect();
        assert!(deq_rets.contains(&Some(1)));
        assert!(deq_rets.contains(&Some(2)));
        assert!(deq_rets.contains(&Some(EMPTY)));
    }

    #[test]
    fn no_tau_cycles() {
        let alg = MsQueue::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2), ExploreLimits::default()).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts), "MS queue is lock-free");
    }

    #[test]
    fn line_tags_match_fig5() {
        let alg = MsQueue::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 1), ExploreLimits::default()).unwrap();
        let tags: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter_map(|a| a.tag.as_deref())
            .collect();
        for expected in ["L1", "L5", "L8", "L19", "L20", "L21"] {
            assert!(tags.contains(expected), "missing tag {expected}: {tags:?}");
        }
    }
}
