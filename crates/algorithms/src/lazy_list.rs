//! Heller et al.'s lazy list-based set (case study 12 of Table II).
//!
//! Like the optimistic list, but nodes carry a *marked* bit: removal first
//! marks the victim (the logical deletion — the linearization point) and
//! only then unlinks it, and validation just checks the marks and the link
//! (`!pred.marked && !curr.marked && pred.next == curr`) instead of
//! re-traversing. `contains` is wait-free and never locks — its
//! linearization point is non-fixed, which is why the paper lists the lazy
//! list among the algorithms needing non-fixed-LP treatment.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, FALSE, TRUE};

/// Key of the head sentinel.
const HEAD_KEY: Value = i64::MIN;
/// Key of the tail sentinel.
const TAIL_KEY: Value = i64::MAX;

/// Which locked set operation an invocation performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `add(k)`.
    Add,
    /// `remove(k)`.
    Remove,
}

bb_sim::impl_pack!(enum Op { 0 => Add, 1 => Remove });

/// The lazy list over a finite key domain.
#[derive(Debug, Clone)]
pub struct LazyList {
    domain: Vec<Value>,
}

impl LazyList {
    /// Empty set over `domain`.
    pub fn new(domain: &[Value]) -> Self {
        LazyList {
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
    /// Unlocked traversal towards the window.
    Traverse {
        /// Operation.
        op: Op,
        /// Key.
        k: Value,
        /// Current predecessor candidate (NULL = head).
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
    /// Validate marks and link (single read of the locked window).
    Validate {
        /// Operation.
        op: Op,
        /// Key.
        k: Value,
        /// Window predecessor (locked).
        pred: Ptr,
        /// Window current (locked).
        curr: Ptr,
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
    /// remove: mark `curr` (logical deletion — the LP).
    RemoveMark {
        /// Locked predecessor.
        pred: Ptr,
        /// Locked victim.
        curr: Ptr,
    },
    /// remove: unlink `curr`.
    RemoveUnlink {
        /// Locked predecessor.
        pred: Ptr,
        /// Locked victim (marked).
        curr: Ptr,
    },
    /// Release `curr`'s lock on the way out.
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
    /// contains: wait-free traversal cursor.
    ContainsLoop {
        /// Key searched.
        k: Value,
        /// Cursor (NULL = start at head).
        curr: Ptr,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Value,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => Traverse { op, k, pred }, 1 => LockPred { op, k, pred, curr }, 2 => LockCurr { op, k, pred, curr }, 3 => Validate { op, k, pred, curr }, 4 => AddAlloc { k, pred, curr }, 5 => AddLink { node, pred, curr }, 6 => RemoveMark { pred, curr }, 7 => RemoveUnlink { pred, curr }, 8 => UnlockCurr { op, k, pred, curr, val, retry }, 9 => UnlockPred { op, k, pred, val, retry }, 10 => ContainsLoop { k, curr }, 11 => Done { val } });

impl ObjectAlgorithm for LazyList {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "Heller et al. lazy list"
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
        match method {
            0 => Frame::Traverse {
                op: Op::Add,
                k,
                pred: Ptr::NULL,
            },
            1 => Frame::Traverse {
                op: Op::Remove,
                k,
                pred: Ptr::NULL,
            },
            2 => Frame::ContainsLoop { k, curr: Ptr::NULL },
            _ => unreachable!("set has three methods"),
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
                    tag: "Z1",
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
                        tag: "Z2",
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
                        },
                        tag: "Z3",
                    });
                }
            }
            Frame::Validate { op, k, pred, curr } => {
                let p = heap.node(*pred);
                let c = heap.node(*curr);
                let valid = !p.marked && !c.marked && p.next == *curr;
                let next = if !valid {
                    Frame::UnlockCurr {
                        op: *op,
                        k: *k,
                        pred: *pred,
                        curr: *curr,
                        val: 0,
                        retry: true,
                    }
                } else {
                    match op {
                        Op::Add if c.val == *k => Frame::UnlockCurr {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                            val: FALSE,
                            retry: false,
                        },
                        Op::Add => Frame::AddAlloc {
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                        },
                        Op::Remove if c.val == *k => Frame::RemoveMark {
                            pred: *pred,
                            curr: *curr,
                        },
                        Op::Remove => Frame::UnlockCurr {
                            op: *op,
                            k: *k,
                            pred: *pred,
                            curr: *curr,
                            val: FALSE,
                            retry: false,
                        },
                    }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "Z4",
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
                    tag: "Z5",
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
                    tag: "Z6",
                });
            }
            Frame::RemoveMark { pred, curr } => {
                let mut s = shared.clone();
                s.heap.node_mut(*curr).marked = true;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::RemoveUnlink {
                        pred: *pred,
                        curr: *curr,
                    },
                    tag: "Z7",
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
                    tag: "Z8",
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
                    tag: "Z9",
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
                    tag: "Z10",
                });
            }
            Frame::ContainsLoop { k, curr } => {
                let curr = if curr.is_null() { shared.head } else { *curr };
                let node = heap.node(curr);
                let next = if node.val < *k {
                    Frame::ContainsLoop {
                        k: *k,
                        curr: node.next,
                    }
                } else if node.val == *k {
                    Frame::Done {
                        val: if node.marked { FALSE } else { TRUE },
                    }
                } else {
                    Frame::Done { val: FALSE }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "Z11",
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

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::Done { .. } => {}
        Frame::Traverse { pred, .. } => go(*pred),
        Frame::ContainsLoop { curr, .. } => go(*curr),
        Frame::LockPred { pred, curr, .. }
        | Frame::LockCurr { pred, curr, .. }
        | Frame::Validate { pred, curr, .. }
        | Frame::AddAlloc { pred, curr, .. }
        | Frame::RemoveMark { pred, curr }
        | Frame::RemoveUnlink { pred, curr }
        | Frame::UnlockCurr { pred, curr, .. } => {
            go(*pred);
            go(*curr);
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
        Frame::ContainsLoop { curr, .. } => go(curr),
        Frame::LockPred { pred, curr, .. }
        | Frame::LockCurr { pred, curr, .. }
        | Frame::Validate { pred, curr, .. }
        | Frame::AddAlloc { pred, curr, .. }
        | Frame::RemoveMark { pred, curr }
        | Frame::RemoveUnlink { pred, curr }
        | Frame::UnlockCurr { pred, curr, .. } => {
            go(pred);
            go(curr);
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
        let alg = LazyList::new(&[1]);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret)
            .map(|a| (a.method.clone(), a.value))
            .collect();
        assert!(rets.contains(&(Some("add".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("add".into()), Some(FALSE))));
        assert!(rets.contains(&(Some("remove".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("contains".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("contains".into()), Some(FALSE))));
    }

    #[test]
    fn contains_is_lock_free_alone() {
        // contains never blocks: with one thread doing only contains the
        // state space has no blocked states and no τ-cycles.
        let alg = LazyList::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 1)).unwrap();
        assert!(lts.num_states() > 10);
    }
}
