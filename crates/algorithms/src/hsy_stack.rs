//! The HSY elimination-backoff stack (case study 11 of Table II; Hendler,
//! Shavit & Yerushalmi, SPAA 2004).
//!
//! A Treiber stack extended with an elimination layer: when the central CAS
//! fails under contention, the operation visits a collision slot where a
//! concurrent push/pop pair can *eliminate* each other without touching the
//! stack. The model uses a single collision slot and a bounded (1-round)
//! elimination wait standing for the real algorithm's timeout — as in the
//! paper's verified model, the timeout is what keeps the elimination layer
//! free of genuine waiting (HSY verifies lock-free in Table II).

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// Rounds a waiter re-checks the slot before timing out.
const SPIN: u8 = 1;

/// The operation a waiter has published.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitOp {
    /// A pusher offering `v`.
    Push(Value),
    /// A popper looking for a value.
    Pop,
}

bb_sim::impl_pack!(enum WaitOp { 0 => Push(a), 1 => Pop });

/// The collision slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Nobody waiting.
    Empty,
    /// `t` is waiting with the given operation.
    Waiting(ThreadId, WaitOp),
    /// `t`'s wait has been matched; `val` is the pushed value when `t` was
    /// a popper (0 when `t` was a pusher).
    Matched(ThreadId, Value),
}

bb_sim::impl_pack!(enum Slot { 0 => Empty, 1 => Waiting(a, b), 2 => Matched(a, b) });

/// Shared state: Treiber core plus the collision slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Stack top.
    pub top: Ptr,
    /// The elimination slot.
    pub slot: Slot,
}

bb_sim::impl_pack!(struct Shared { heap, top, slot });

/// The HSY stack over a finite push-value domain.
#[derive(Debug, Clone)]
pub struct HsyStack {
    domain: Vec<Value>,
}

impl HsyStack {
    /// Stack whose clients push values from `domain`.
    pub fn new(domain: &[Value]) -> Self {
        HsyStack {
            domain: domain.to_vec(),
        }
    }
}

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// push: allocate.
    PushAlloc {
        /// Value to push.
        v: Value,
    },
    /// push: read `Top` and link.
    PushRead {
        /// Private node.
        node: Ptr,
        /// Value (for elimination offers).
        v: Value,
    },
    /// push: central CAS; on failure go to the collision layer.
    PushCas {
        /// Private node.
        node: Ptr,
        /// Value.
        v: Value,
        /// Expected top.
        t: Ptr,
    },
    /// push: read the collision slot.
    PushCollide {
        /// Private node.
        node: Ptr,
        /// Value.
        v: Value,
    },
    /// push: try to match a waiting popper.
    PushMatch {
        /// Private node.
        node: Ptr,
        /// Value.
        v: Value,
        /// The waiting entry we observed.
        seen: Slot,
    },
    /// push: try to publish our own offer.
    PushPublish {
        /// Private node.
        node: Ptr,
        /// Value.
        v: Value,
    },
    /// push: wait for a match.
    PushWait {
        /// Private node.
        node: Ptr,
        /// Value.
        v: Value,
        /// Remaining re-checks before timing out.
        count: u8,
    },
    /// push: timed out — withdraw the offer (or discover a late match).
    PushUnpublish {
        /// Private node.
        node: Ptr,
        /// Value.
        v: Value,
    },
    /// pop: read `Top`.
    PopRead,
    /// pop: read `t.next`.
    PopNext {
        /// Observed top.
        t: Ptr,
    },
    /// pop: central CAS; on failure go to the collision layer.
    PopCas {
        /// Observed top.
        t: Ptr,
        /// Its successor.
        n: Ptr,
    },
    /// pop: read the collision slot.
    PopCollide,
    /// pop: try to match a waiting pusher.
    PopMatch {
        /// The waiting entry we observed.
        seen: Slot,
        /// The value it offered.
        v: Value,
    },
    /// pop: try to publish our own request.
    PopPublish,
    /// pop: wait for a match.
    PopWait {
        /// Remaining re-checks before timing out.
        count: u8,
    },
    /// pop: timed out — withdraw (or discover a late match).
    PopUnpublish,
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => PushAlloc { v }, 1 => PushRead { node, v }, 2 => PushCas { node, v, t }, 3 => PushCollide { node, v }, 4 => PushMatch { node, v, seen }, 5 => PushPublish { node, v }, 6 => PushWait { node, v, count }, 7 => PushUnpublish { node, v }, 8 => PopRead, 9 => PopNext { t }, 10 => PopCas { t, n }, 11 => PopCollide, 12 => PopMatch { seen, v }, 13 => PopPublish, 14 => PopWait { count }, 15 => PopUnpublish, 16 => Done { val } });

impl ObjectAlgorithm for HsyStack {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "HSY elimination stack"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::with_args("push", &self.domain),
            MethodSpec::no_arg("pop"),
        ]
    }

    fn initial_shared(&self) -> Shared {
        Shared {
            heap: Heap::new(),
            top: Ptr::NULL,
            slot: Slot::Empty,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        match method {
            0 => Frame::PushAlloc {
                v: arg.expect("push takes a value"),
            },
            1 => Frame::PopRead,
            _ => unreachable!("stack has two methods"),
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        me: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        match frame {
            // ------------------------------------------------------- push
            Frame::PushAlloc { v } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*v, Ptr::NULL));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PushRead { node, v: *v },
                    tag: "S1",
                });
            }
            Frame::PushRead { node, v } => {
                let mut s = shared.clone();
                let t = s.top;
                s.heap.node_mut(*node).next = t;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PushCas {
                        node: *node,
                        v: *v,
                        t,
                    },
                    tag: "S2",
                });
            }
            Frame::PushCas { node, v, t } => {
                if shared.top == *t {
                    let mut s = shared.clone();
                    s.top = *node;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: None },
                        tag: "S3",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PushCollide { node: *node, v: *v },
                        tag: "S3",
                    });
                }
            }
            Frame::PushCollide { node, v } => {
                let next = match shared.slot {
                    Slot::Empty => Frame::PushPublish { node: *node, v: *v },
                    seen @ Slot::Waiting(t, WaitOp::Pop) if t != me => Frame::PushMatch {
                        node: *node,
                        v: *v,
                        seen,
                    },
                    _ => Frame::PushRead { node: *node, v: *v },
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "S4",
                });
            }
            Frame::PushMatch { node, v, seen } => {
                if shared.slot == *seen {
                    let Slot::Waiting(waiter, _) = seen else {
                        unreachable!("PushMatch only targets waiting entries")
                    };
                    let mut s = shared.clone();
                    s.slot = Slot::Matched(*waiter, *v);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: None },
                        tag: "S5",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PushRead { node: *node, v: *v },
                        tag: "S5",
                    });
                }
            }
            Frame::PushPublish { node, v } => {
                if shared.slot == Slot::Empty {
                    let mut s = shared.clone();
                    s.slot = Slot::Waiting(me, WaitOp::Push(*v));
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::PushWait {
                            node: *node,
                            v: *v,
                            count: SPIN,
                        },
                        tag: "S6",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PushRead { node: *node, v: *v },
                        tag: "S6",
                    });
                }
            }
            Frame::PushWait { node, v, count } => match shared.slot {
                Slot::Matched(t, _) if t == me => {
                    let mut s = shared.clone();
                    s.slot = Slot::Empty;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: None },
                        tag: "S7",
                    });
                }
                _ => {
                    let next = if *count > 0 {
                        Frame::PushWait {
                            node: *node,
                            v: *v,
                            count: count - 1,
                        }
                    } else {
                        Frame::PushUnpublish { node: *node, v: *v }
                    };
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: next,
                        tag: "S7",
                    });
                }
            },
            Frame::PushUnpublish { node, v } => {
                if shared.slot == Slot::Waiting(me, WaitOp::Push(*v)) {
                    let mut s = shared.clone();
                    s.slot = Slot::Empty;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::PushRead { node: *node, v: *v },
                        tag: "S8",
                    });
                } else {
                    // A popper matched us between timeout and withdrawal.
                    debug_assert!(matches!(shared.slot, Slot::Matched(t, _) if t == me));
                    let mut s = shared.clone();
                    s.slot = Slot::Empty;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: None },
                        tag: "S8",
                    });
                }
            }
            // -------------------------------------------------------- pop
            Frame::PopRead => {
                let t = shared.top;
                let next = if t.is_null() {
                    Frame::Done { val: Some(EMPTY) }
                } else {
                    Frame::PopNext { t }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "S10",
                });
            }
            Frame::PopNext { t } => {
                let n = shared.heap.node(*t).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::PopCas { t: *t, n },
                    tag: "S11",
                });
            }
            Frame::PopCas { t, n } => {
                if shared.top == *t {
                    let mut s = shared.clone();
                    s.top = *n;
                    let val = s.heap.node(*t).val;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: Some(val) },
                        tag: "S12",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PopCollide,
                        tag: "S12",
                    });
                }
            }
            Frame::PopCollide => {
                let next = match shared.slot {
                    Slot::Empty => Frame::PopPublish,
                    seen @ Slot::Waiting(t, WaitOp::Push(v)) if t != me => {
                        Frame::PopMatch { seen, v }
                    }
                    _ => Frame::PopRead,
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "S13",
                });
            }
            Frame::PopMatch { seen, v } => {
                if shared.slot == *seen {
                    let Slot::Waiting(waiter, _) = seen else {
                        unreachable!("PopMatch only targets waiting entries")
                    };
                    let mut s = shared.clone();
                    s.slot = Slot::Matched(*waiter, 0);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: Some(*v) },
                        tag: "S14",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PopRead,
                        tag: "S14",
                    });
                }
            }
            Frame::PopPublish => {
                if shared.slot == Slot::Empty {
                    let mut s = shared.clone();
                    s.slot = Slot::Waiting(me, WaitOp::Pop);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::PopWait { count: SPIN },
                        tag: "S15",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PopRead,
                        tag: "S15",
                    });
                }
            }
            Frame::PopWait { count } => match shared.slot {
                Slot::Matched(t, v) if t == me => {
                    let mut s = shared.clone();
                    s.slot = Slot::Empty;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: Some(v) },
                        tag: "S16",
                    });
                }
                _ => {
                    let next = if *count > 0 {
                        Frame::PopWait { count: count - 1 }
                    } else {
                        Frame::PopUnpublish
                    };
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: next,
                        tag: "S16",
                    });
                }
            },
            Frame::PopUnpublish => {
                if shared.slot == Slot::Waiting(me, WaitOp::Pop) {
                    let mut s = shared.clone();
                    s.slot = Slot::Empty;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::PopRead,
                        tag: "S17",
                    });
                } else {
                    debug_assert!(matches!(shared.slot, Slot::Matched(t, _) if t == me));
                    let Slot::Matched(_, v) = shared.slot else {
                        unreachable!("checked above")
                    };
                    let mut s = shared.clone();
                    s.slot = Slot::Empty;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: Some(v) },
                        tag: "S17",
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
        let mut roots = vec![shared.top];
        for f in frames.iter() {
            visit(f, &mut |p| roots.push(p));
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.top = ren.apply(shared.top);
        for f in frames.iter_mut() {
            rewrite(f, &mut |p| *p = ren.apply(*p));
        }
    }
}

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::PushRead { node, .. }
        | Frame::PushCollide { node, .. }
        | Frame::PushMatch { node, .. }
        | Frame::PushPublish { node, .. }
        | Frame::PushWait { node, .. }
        | Frame::PushUnpublish { node, .. } => go(*node),
        Frame::PushCas { node, t, .. } => {
            go(*node);
            go(*t);
        }
        Frame::PopNext { t } => go(*t),
        Frame::PopCas { t, n } => {
            go(*t);
            go(*n);
        }
        _ => {}
    }
}

fn rewrite(f: &mut Frame, go: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::PushRead { node, .. }
        | Frame::PushCollide { node, .. }
        | Frame::PushMatch { node, .. }
        | Frame::PushPublish { node, .. }
        | Frame::PushWait { node, .. }
        | Frame::PushUnpublish { node, .. } => go(node),
        Frame::PushCas { node, t, .. } => {
            go(node);
            go(t);
        }
        Frame::PopNext { t } => go(t),
        Frame::PopCas { t, n } => {
            go(t);
            go(n);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn lifo_single_thread() {
        let alg = HsyStack::new(&[1, 2]);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("pop"))
            .map(|a| a.value)
            .collect();
        assert!(rets.contains(&Some(1)));
        assert!(rets.contains(&Some(2)));
        assert!(rets.contains(&Some(EMPTY)));
    }

    #[test]
    fn no_tau_cycles() {
        let alg = HsyStack::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts), "HSY stack is lock-free");
    }

    #[test]
    fn elimination_path_is_reachable() {
        // With three threads contention can push operations into the
        // collision layer; the S5/S14 match steps must appear.
        let alg = HsyStack::new(&[1]);
        let lts = explore_system(&alg, Bound::new(3, 1)).unwrap();
        let tags: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter_map(|a| a.tag.as_deref())
            .collect();
        assert!(
            tags.contains("S4") || tags.contains("S13"),
            "collision layer reachable: {tags:?}"
        );
    }
}
