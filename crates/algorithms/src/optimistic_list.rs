//! Optimistic list-based set (case study 13 of Table II; Herlihy & Shavit
//! ch. 9).
//!
//! Traversal runs without locks; the window `(pred, curr)` is then locked
//! and *validated* by re-traversing from the head, checking that `pred` is
//! still reachable and still points to `curr`. On validation failure the
//! locks are dropped and the whole operation retries.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, FALSE, TRUE};

/// Key of the head sentinel.
const HEAD_KEY: Value = i64::MIN;
/// Key of the tail sentinel.
const TAIL_KEY: Value = i64::MAX;

/// Which set operation an invocation performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `add(k)`.
    Add,
    /// `remove(k)`.
    Remove,
    /// `contains(k)`.
    Contains,
}

bb_sim::impl_pack!(enum Op { 0 => Add, 1 => Remove, 2 => Contains });

/// The optimistic list over a finite key domain.
#[derive(Debug, Clone)]
pub struct OptimisticList {
    domain: Vec<Value>,
}

impl OptimisticList {
    /// Empty set over `domain`.
    pub fn new(domain: &[Value]) -> Self {
        OptimisticList {
            domain: domain.to_vec(),
        }
    }
}

/// Shared state: heap plus head sentinel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Head sentinel.
    pub head: Ptr,
}

bb_sim::impl_pack!(struct Shared { heap, head });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Unlocked traversal: read `pred.next` and examine it.
    Traverse {
        /// Operation.
        op: Op,
        /// Key.
        k: Value,
        /// Current predecessor candidate.
        pred: Ptr,
    },
    /// Lock `pred` (guarded).
    LockPred {
        /// Operation.
        op: Op,
        /// Key.
        k: Value,
        /// Window predecessor.
        pred: Ptr,
        /// Window current.
        curr: Ptr,
    },
    /// Lock `curr` (guarded).
    LockCurr {
        /// Operation.
        op: Op,
        /// Key.
        k: Value,
        /// Window predecessor (locked).
        pred: Ptr,
        /// Window current.
        curr: Ptr,
    },
    /// Validation: walk from the head towards `pred`.
    Validate {
        /// Operation.
        op: Op,
        /// Key.
        k: Value,
        /// Window predecessor (locked).
        pred: Ptr,
        /// Window current (locked).
        curr: Ptr,
        /// Validation cursor.
        node: Ptr,
    },
    /// add: allocate.
    AddAlloc {
        /// Key.
        k: Value,
        /// Locked predecessor.
        pred: Ptr,
        /// Locked current.
        curr: Ptr,
    },
    /// add: link.
    AddLink {
        /// New node.
        node: Ptr,
        /// Locked predecessor.
        pred: Ptr,
        /// Locked current.
        curr: Ptr,
    },
    /// remove: unlink `curr`.
    RemoveUnlink {
        /// Locked predecessor.
        pred: Ptr,
        /// Locked victim.
        curr: Ptr,
    },
    /// Release `curr`'s lock on the way out (`retry` = restart instead of
    /// returning).
    UnlockCurr {
        /// Operation (for retries).
        op: Op,
        /// Key.
        k: Value,
        /// Locked predecessor.
        pred: Ptr,
        /// Lock to release.
        curr: Ptr,
        /// Result (ignored when retrying).
        val: Value,
        /// Whether to restart after unlocking.
        retry: bool,
    },
    /// Release `pred`'s lock on the way out.
    UnlockPred {
        /// Operation (for retries).
        op: Op,
        /// Key.
        k: Value,
        /// Lock to release.
        pred: Ptr,
        /// Result (ignored when retrying).
        val: Value,
        /// Whether to restart after unlocking.
        retry: bool,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Value,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => Traverse { op, k, pred }, 1 => LockPred { op, k, pred, curr }, 2 => LockCurr { op, k, pred, curr }, 3 => Validate { op, k, pred, curr, node }, 4 => AddAlloc { k, pred, curr }, 5 => AddLink { node, pred, curr }, 6 => RemoveUnlink { pred, curr }, 7 => UnlockCurr { op, k, pred, curr, val, retry }, 8 => UnlockPred { op, k, pred, val, retry }, 9 => Done { val } });

impl ObjectAlgorithm for OptimisticList {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "optimistic list"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::with_args("add", &self.domain),
            MethodSpec::with_args("remove", &self.domain),
            MethodSpec::with_args("contains", &self.domain),
        ]
    }

    fn initial_shared(&self) -> Shared {
        let mut heap = Heap::new();
        let tail = heap.alloc(ListNode::new(TAIL_KEY, Ptr::NULL));
        let head = heap.alloc(ListNode::new(HEAD_KEY, tail));
        Shared { heap, head }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        let k = arg.expect("set methods take a key");
        let op = match method {
            0 => Op::Add,
            1 => Op::Remove,
            2 => Op::Contains,
            _ => unreachable!("set has three methods"),
        };
        Frame::Traverse {
            op,
            k,
            pred: Ptr::NULL, // NULL = start from head
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        me: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        let heap = &shared.heap;
        match frame {
            Frame::Traverse { op, k, pred } => {
                let pred = if pred.is_null() { shared.head } else { *pred };
                let curr = heap.node(pred).next;
                // Reading curr's key decides whether the window is found.
                let key = heap.node(curr).val;
                let next = if key < *k {
                    Frame::Traverse {
                        op: *op,
                        k: *k,
                        pred: curr,
                    }
                } else {
                    Frame::LockPred {
                        op: *op,
                        k: *k,
                        pred,
                        curr,
                    }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "O1",
                });
            }
            Frame::LockPred { op, k, pred, curr } => {
                if heap.node(*pred).lock.is_none() {
                    let mut s = shared.clone();
                    s.heap.node_mut(*pred).lock = Some(me);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::LockCurr {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                        },
                        tag: "O2",
                    });
                }
            }
            Frame::LockCurr { op, k, pred, curr } => {
                if heap.node(*curr).lock.is_none() {
                    let mut s = shared.clone();
                    s.heap.node_mut(*curr).lock = Some(me);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Validate {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                            node: shared.head,
                        },
                        tag: "O3",
                    });
                }
            }
            Frame::Validate {
                op,
                k,
                pred,
                curr,
                node,
            } => {
                // Walk towards pred; each hop is one step.
                let next = if *node == *pred {
                    // Found pred reachable; check the link.
                    if heap.node(*pred).next == *curr {
                        act(*op, *k, *pred, *curr, heap)
                    } else {
                        Frame::UnlockCurr {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                            val: 0,
                            retry: true,
                        }
                    }
                } else {
                    let n = heap.node(*node);
                    if n.val < heap.node(*pred).val {
                        Frame::Validate {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                            node: n.next,
                        }
                    } else {
                        // Passed pred's key without meeting it: unreachable.
                        Frame::UnlockCurr {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                            val: 0,
                            retry: true,
                        }
                    }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "O4",
                });
            }
            Frame::AddAlloc { k, pred, curr } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*k, *curr));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::AddLink {
                        node,
                        pred: *pred,
                        curr: *curr,
                    },
                    tag: "O5",
                });
            }
            Frame::AddLink { node, pred, curr } => {
                let mut s = shared.clone();
                s.heap.node_mut(*pred).next = *node;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::UnlockCurr {
                        op: Op::Add,
                        k: 0,
                        pred: *pred,
                        curr: *curr,
                        val: TRUE,
                        retry: false,
                    },
                    tag: "O6",
                });
            }
            Frame::RemoveUnlink { pred, curr } => {
                let mut s = shared.clone();
                let succ = s.heap.node(*curr).next;
                s.heap.node_mut(*pred).next = succ;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::UnlockCurr {
                        op: Op::Remove,
                        k: 0,
                        pred: *pred,
                        curr: *curr,
                        val: TRUE,
                        retry: false,
                    },
                    tag: "O7",
                });
            }
            Frame::UnlockCurr {
                op,
                k,
                pred,
                curr,
                val,
                retry,
            } => {
                let mut s = shared.clone();
                debug_assert_eq!(s.heap.node(*curr).lock, Some(me));
                s.heap.node_mut(*curr).lock = None;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::UnlockPred {
                        op: *op,
                        k: *k,
                        pred: *pred,
                        val: *val,
                        retry: *retry,
                    },
                    tag: "O8",
                });
            }
            Frame::UnlockPred {
                op,
                k,
                pred,
                val,
                retry,
            } => {
                let mut s = shared.clone();
                debug_assert_eq!(s.heap.node(*pred).lock, Some(me));
                s.heap.node_mut(*pred).lock = None;
                let frame = if *retry {
                    Frame::Traverse {
                        op: *op,
                        k: *k,
                        pred: Ptr::NULL,
                    }
                } else {
                    Frame::Done { val: *val }
                };
                out.push(Outcome::Tau {
                    shared: s,
                    frame,
                    tag: "O9",
                });
            }
            Frame::Done { val } => out.push(Outcome::Ret {
                shared: shared.clone(),
                val: Some(*val),
                tag: "",
            }),
        }
    }

    fn canonicalize(&self, shared: &mut Shared, frames: &mut [&mut Frame]) {
        let mut roots = vec![shared.head];
        for f in frames.iter() {
            visit(f, &mut |p| roots.push(p));
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.head = ren.apply(shared.head);
        for f in frames.iter_mut() {
            rewrite(f, &mut |p| *p = ren.apply(*p));
        }
    }
}

/// Builds the post-validation action frame while both locks are held.
fn act(op: Op, k: Value, pred: Ptr, curr: Ptr, heap: &Heap<ListNode>) -> Frame {
    let key = heap.node(curr).val;
    match op {
        Op::Add if key == k => Frame::UnlockCurr {
            op,
            k,
            pred,
            curr,
            val: FALSE,
            retry: false,
        },
        Op::Add => Frame::AddAlloc { k, pred, curr },
        Op::Remove if key == k => Frame::RemoveUnlink { pred, curr },
        Op::Remove => Frame::UnlockCurr {
            op,
            k,
            pred,
            curr,
            val: FALSE,
            retry: false,
        },
        Op::Contains => Frame::UnlockCurr {
            op,
            k,
            pred,
            curr,
            val: if key == k { TRUE } else { FALSE },
            retry: false,
        },
    }
}

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::Done { .. } => {}
        Frame::Traverse { pred, .. } => go(*pred),
        Frame::LockPred { pred, curr, .. }
        | Frame::LockCurr { pred, curr, .. }
        | Frame::AddAlloc { pred, curr, .. }
        | Frame::RemoveUnlink { pred, curr }
        | Frame::UnlockCurr { pred, curr, .. } => {
            go(*pred);
            go(*curr);
        }
        Frame::Validate {
            pred, curr, node, ..
        } => {
            go(*pred);
            go(*curr);
            go(*node);
        }
        Frame::AddLink { node, pred, curr } => {
            go(*node);
            go(*pred);
            go(*curr);
        }
        Frame::UnlockPred { pred, .. } => go(*pred),
    }
}

fn rewrite(f: &mut Frame, go: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::Done { .. } => {}
        Frame::Traverse { pred, .. } => go(pred),
        Frame::LockPred { pred, curr, .. }
        | Frame::LockCurr { pred, curr, .. }
        | Frame::AddAlloc { pred, curr, .. }
        | Frame::RemoveUnlink { pred, curr }
        | Frame::UnlockCurr { pred, curr, .. } => {
            go(pred);
            go(curr);
        }
        Frame::Validate {
            pred, curr, node, ..
        } => {
            go(pred);
            go(curr);
            go(node);
        }
        Frame::AddLink { node, pred, curr } => {
            go(node);
            go(pred);
            go(curr);
        }
        Frame::UnlockPred { pred, .. } => go(pred),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn set_semantics_sequential() {
        let alg = OptimisticList::new(&[1]);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret)
            .map(|a| (a.method.clone(), a.value))
            .collect();
        assert!(rets.contains(&(Some("add".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("remove".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("remove".into()), Some(FALSE))));
        assert!(rets.contains(&(Some("contains".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("contains".into()), Some(FALSE))));
    }

    #[test]
    fn two_threads_explore_ok() {
        let alg = OptimisticList::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 1)).unwrap();
        assert!(lts.num_states() > 50);
    }
}
