//! The Harris–Michael lock-free list-based set (case studies 9-1/9-2 of
//! Table II).
//!
//! Nodes carry a logical-deletion mark (the mark bit of their `next`
//! field); `find` physically unlinks marked nodes while traversing. The
//! crate models both variants the paper verified:
//!
//! * [`HmList::revised`] — the corrected algorithm (per the errata of
//!   Herlihy & Shavit): logical deletion is an atomic *test-and-mark* of
//!   the victim's `(next, mark)` pair, so exactly one remover wins.
//! * [`HmList::buggy`] — the first-printing bug: the mark is written
//!   blindly, so two concurrent `remove(k)` calls can both return `true`,
//!   "consecutively removing the same item twice" — the known
//!   linearizability violation the paper's trace-refinement check confirms.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, FALSE, TRUE};

/// Key of the head sentinel (strictly below every client key).
const HEAD_KEY: Value = i64::MIN;

/// Which `remove` implementation to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// First-printing blind mark (linearizability bug).
    Buggy,
    /// Errata version with atomic test-and-mark.
    Revised,
}

/// The HM lock-free list over a finite key domain.
#[derive(Debug, Clone)]
pub struct HmList {
    domain: Vec<Value>,
    variant: Variant,
}

impl HmList {
    /// The corrected algorithm.
    pub fn revised(domain: &[Value]) -> Self {
        HmList {
            domain: domain.to_vec(),
            variant: Variant::Revised,
        }
    }

    /// The first-printing bug.
    pub fn buggy(domain: &[Value]) -> Self {
        HmList {
            domain: domain.to_vec(),
            variant: Variant::Buggy,
        }
    }

    /// Which variant this instance models.
    pub fn variant(&self) -> Variant {
        self.variant
    }
}

/// Shared state: heap plus the head sentinel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Head sentinel (key −∞, never marked, never removed).
    pub head: Ptr,
}

bb_sim::impl_pack!(struct Shared { heap, head });

/// The operation a `find` traversal is working for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `add(k)`.
    Add(Value),
    /// `remove(k)`.
    Remove(Value),
}

bb_sim::impl_pack!(enum Op { 0 => Add(a), 1 => Remove(a) });

impl Op {
    fn key(self) -> Value {
        match self {
            Op::Add(k) | Op::Remove(k) => k,
        }
    }
}

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// find: restart from the head.
    FindStart {
        /// Pending operation.
        op: Op,
    },
    /// find: examine `curr` (read its key/mark/next in one node-read).
    FindLoop {
        /// Pending operation.
        op: Op,
        /// Predecessor (unmarked when last read).
        pred: Ptr,
        /// Node under examination (may be null).
        curr: Ptr,
    },
    /// find: physically unlink the marked `curr`.
    FindSnip {
        /// Pending operation.
        op: Op,
        /// Predecessor.
        pred: Ptr,
        /// Marked node to unlink.
        curr: Ptr,
        /// Its successor.
        succ: Ptr,
    },
    /// add: allocate the new node.
    AddAlloc {
        /// Key being added.
        k: Value,
        /// Window predecessor.
        pred: Ptr,
        /// Window current (insertion point).
        curr: Ptr,
    },
    /// add: CAS `pred.next` from `curr` to the new node.
    AddCas {
        /// Key being added.
        k: Value,
        /// New node.
        node: Ptr,
        /// Window predecessor.
        pred: Ptr,
        /// Window current.
        curr: Ptr,
    },
    /// remove: read the victim's successor.
    RemoveReadSucc {
        /// Window predecessor.
        pred: Ptr,
        /// Victim node (key == k).
        curr: Ptr,
        /// Key being removed.
        k: Value,
    },
    /// remove: logical deletion (mark step; variant-dependent).
    RemoveMark {
        /// Window predecessor.
        pred: Ptr,
        /// Victim node.
        curr: Ptr,
        /// Observed successor.
        succ: Ptr,
        /// Key being removed.
        k: Value,
    },
    /// remove: physical unlink (best effort).
    RemoveSnip {
        /// Window predecessor.
        pred: Ptr,
        /// Victim node.
        curr: Ptr,
        /// Observed successor.
        succ: Ptr,
    },
    /// contains: read `head.next`.
    ContainsStart {
        /// Key searched.
        k: Value,
    },
    /// contains: examine `curr`.
    ContainsLoop {
        /// Key searched.
        k: Value,
        /// Node under examination (may be null).
        curr: Ptr,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Value,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => FindStart { op }, 1 => FindLoop { op, pred, curr }, 2 => FindSnip { op, pred, curr, succ }, 3 => AddAlloc { k, pred, curr }, 4 => AddCas { k, node, pred, curr }, 5 => RemoveReadSucc { pred, curr, k }, 6 => RemoveMark { pred, curr, succ, k }, 7 => RemoveSnip { pred, curr, succ }, 8 => ContainsStart { k }, 9 => ContainsLoop { k, curr }, 10 => Done { val } });

impl ObjectAlgorithm for HmList {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        match self.variant {
            Variant::Buggy => "HM lock-free list (buggy)",
            Variant::Revised => "HM lock-free list (revised)",
        }
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
        let head = heap.alloc(ListNode::new(HEAD_KEY, Ptr::NULL));
        Shared { heap, head }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        let k = arg.expect("set methods take a key");
        match method {
            0 => Frame::FindStart { op: Op::Add(k) },
            1 => Frame::FindStart { op: Op::Remove(k) },
            2 => Frame::ContainsStart { k },
            _ => unreachable!("set has three methods"),
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        _t: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        let heap = &shared.heap;
        match frame {
            Frame::FindStart { op } => {
                let curr = heap.node(shared.head).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::FindLoop {
                        op: *op,
                        pred: shared.head,
                        curr,
                    },
                    tag: "M1",
                });
            }
            Frame::FindLoop { op, pred, curr } => {
                // The window is complete when curr is null or curr.key ≥ k;
                // marked nodes are snipped on the way.
                let k = op.key();
                let next = if curr.is_null() {
                    window_found(*op, *pred, Ptr::NULL, heap)
                } else {
                    let node = heap.node(*curr);
                    if node.marked {
                        Frame::FindSnip {
                            op: *op,
                            pred: *pred,
                            curr: *curr,
                            succ: node.next,
                        }
                    } else if node.val >= k {
                        window_found(*op, *pred, *curr, heap)
                    } else {
                        Frame::FindLoop {
                            op: *op,
                            pred: *curr,
                            curr: node.next,
                        }
                    }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "M2",
                });
            }
            Frame::FindSnip {
                op,
                pred,
                curr,
                succ,
            } => {
                let pred_node = heap.node(*pred);
                if !pred_node.marked && pred_node.next == *curr {
                    let mut s = shared.clone();
                    s.heap.node_mut(*pred).next = *succ;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::FindLoop {
                            op: *op,
                            pred: *pred,
                            curr: *succ,
                        },
                        tag: "M3",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::FindStart { op: *op },
                        tag: "M3",
                    });
                }
            }
            Frame::AddAlloc { k, pred, curr } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*k, *curr));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::AddCas {
                        k: *k,
                        node,
                        pred: *pred,
                        curr: *curr,
                    },
                    tag: "A1",
                });
            }
            Frame::AddCas {
                k,
                node,
                pred,
                curr,
            } => {
                let pred_node = heap.node(*pred);
                if !pred_node.marked && pred_node.next == *curr {
                    let mut s = shared.clone();
                    s.heap.node_mut(*pred).next = *node;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: TRUE },
                        tag: "A2",
                    });
                } else {
                    // Lost the window; drop the node and retry from find.
                    // (The allocation is retried; the old node becomes
                    // garbage and is collected by canonicalization.)
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::FindStart { op: Op::Add(*k) },
                        tag: "A2",
                    });
                }
            }
            Frame::RemoveReadSucc { pred, curr, k } => {
                let succ = heap.node(*curr).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::RemoveMark {
                        pred: *pred,
                        curr: *curr,
                        succ,
                        k: *k,
                    },
                    tag: "R1",
                });
            }
            Frame::RemoveMark {
                pred,
                curr,
                succ,
                k,
            } => match self.variant {
                Variant::Revised => {
                    // attemptMark(succ, true): succeeds only if the (next,
                    // mark) pair is still (succ, false).
                    let node = heap.node(*curr);
                    if !node.marked && node.next == *succ {
                        let mut s = shared.clone();
                        s.heap.node_mut(*curr).marked = true;
                        out.push(Outcome::Tau {
                            shared: s,
                            frame: Frame::RemoveSnip {
                                pred: *pred,
                                curr: *curr,
                                succ: *succ,
                            },
                            tag: "R2",
                        });
                    } else {
                        out.push(Outcome::Tau {
                            shared: shared.clone(),
                            frame: Frame::FindStart { op: Op::Remove(*k) },
                            tag: "R2",
                        });
                    }
                }
                Variant::Buggy => {
                    // First-printing bug: blind mark — a second remover of
                    // the same key also "succeeds".
                    let mut s = shared.clone();
                    s.heap.node_mut(*curr).marked = true;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::RemoveSnip {
                            pred: *pred,
                            curr: *curr,
                            succ: *succ,
                        },
                        tag: "R2b",
                    });
                }
            },
            Frame::RemoveSnip { pred, curr, succ } => {
                // Best-effort physical unlink; failure is ignored (find will
                // snip it later).
                let pred_node = heap.node(*pred);
                let mut s = shared.clone();
                if !pred_node.marked && pred_node.next == *curr {
                    s.heap.node_mut(*pred).next = *succ;
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: TRUE },
                    tag: "R3",
                });
            }
            Frame::ContainsStart { k } => {
                let curr = heap.node(shared.head).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::ContainsLoop { k: *k, curr },
                    tag: "C1",
                });
            }
            Frame::ContainsLoop { k, curr } => {
                let next = if curr.is_null() {
                    Frame::Done { val: FALSE }
                } else {
                    let node = heap.node(*curr);
                    if node.val < *k {
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
                    }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "C2",
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

/// Builds the frame entered when `find` has located the window `(pred,
/// curr)` for `op`.
fn window_found(op: Op, pred: Ptr, curr: Ptr, heap: &Heap<ListNode>) -> Frame {
    let key_matches = curr.is_node() && heap.node(curr).val == op.key();
    match op {
        Op::Add(k) => {
            if key_matches {
                Frame::Done { val: FALSE }
            } else {
                Frame::AddAlloc { k, pred, curr }
            }
        }
        Op::Remove(k) => {
            if key_matches {
                Frame::RemoveReadSucc { pred, curr, k }
            } else {
                Frame::Done { val: FALSE }
            }
        }
    }
}

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::FindStart { .. } | Frame::ContainsStart { .. } | Frame::Done { .. } => {}
        Frame::FindLoop { pred, curr, .. } => {
            go(*pred);
            go(*curr);
        }
        Frame::FindSnip {
            pred, curr, succ, ..
        } => {
            go(*pred);
            go(*curr);
            go(*succ);
        }
        Frame::AddAlloc { pred, curr, .. } => {
            go(*pred);
            go(*curr);
        }
        Frame::AddCas {
            node, pred, curr, ..
        } => {
            go(*node);
            go(*pred);
            go(*curr);
        }
        Frame::RemoveReadSucc { pred, curr, .. } => {
            go(*pred);
            go(*curr);
        }
        Frame::RemoveMark {
            pred, curr, succ, ..
        }
        | Frame::RemoveSnip {
            pred, curr, succ, ..
        } => {
            go(*pred);
            go(*curr);
            go(*succ);
        }
        Frame::ContainsLoop { curr, .. } => go(*curr),
    }
}

fn rewrite(f: &mut Frame, go: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::FindStart { .. } | Frame::ContainsStart { .. } | Frame::Done { .. } => {}
        Frame::FindLoop { pred, curr, .. } => {
            go(pred);
            go(curr);
        }
        Frame::FindSnip {
            pred, curr, succ, ..
        } => {
            go(pred);
            go(curr);
            go(succ);
        }
        Frame::AddAlloc { pred, curr, .. } => {
            go(pred);
            go(curr);
        }
        Frame::AddCas {
            node, pred, curr, ..
        } => {
            go(node);
            go(pred);
            go(curr);
        }
        Frame::RemoveReadSucc { pred, curr, .. } => {
            go(pred);
            go(curr);
        }
        Frame::RemoveMark {
            pred, curr, succ, ..
        }
        | Frame::RemoveSnip {
            pred, curr, succ, ..
        } => {
            go(pred);
            go(curr);
            go(succ);
        }
        Frame::ContainsLoop { curr, .. } => go(curr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn sequential_set_semantics() {
        let alg = HmList::revised(&[1]);
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
        assert!(rets.contains(&(Some("remove".into()), Some(FALSE))));
        assert!(rets.contains(&(Some("contains".into()), Some(TRUE))));
        assert!(rets.contains(&(Some("contains".into()), Some(FALSE))));
    }

    #[test]
    fn revised_is_lock_free_shape() {
        let alg = HmList::revised(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
    }

    #[test]
    fn buggy_allows_double_remove() {
        // Check that the buggy variant has a history where remove(1)
        // returns TRUE twice after a single add(1).
        use bb_algorithms_test_helper::*;
        let alg = HmList::buggy(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(has_double_remove_history(&lts));
        let alg = HmList::revised(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!has_double_remove_history(&lts));
    }

    /// Tiny helper: search the LTS for a history where `remove → TRUE`
    /// returns strictly more often than `add` was even *called*. Every
    /// successful remove consumes a node inserted by an add whose call
    /// precedes the remove's return, so such a history is impossible for a
    /// correct set but reachable with the blind-mark bug.
    mod bb_algorithms_test_helper {
        use bb_lts::{ActionKind, Lts, StateId};

        pub fn has_double_remove_history(lts: &Lts) -> bool {
            // DFS over (state, add_calls, removes_true), bounded counters.
            let mut seen = std::collections::HashSet::new();
            let mut stack: Vec<(StateId, u8, u8)> = vec![(lts.initial(), 0, 0)];
            while let Some((s, adds, rems)) = stack.pop() {
                if rems > adds {
                    return true;
                }
                if !seen.insert((s, adds, rems)) {
                    continue;
                }
                for t in lts.successors(s) {
                    let a = lts.action(t.action);
                    let (mut na, mut nr) = (adds, rems);
                    if a.kind == ActionKind::Call && a.method.as_deref() == Some("add") {
                        na = (na + 1).min(10);
                    }
                    if a.kind == ActionKind::Ret
                        && a.value == Some(bb_sim::TRUE)
                        && a.method.as_deref() == Some("remove")
                    {
                        nr = (nr + 1).min(10);
                    }
                    stack.push((t.target, na, nr));
                }
            }
            false
        }
    }
}
