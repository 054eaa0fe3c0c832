//! Treiber stack with hazard pointers, Michael's original scheme
//! (case study 2 of Table II; [Michael 2004]).
//!
//! Each thread owns one hazard-pointer slot. `pop` publishes the observed
//! top in its slot and re-validates `Top` before dereferencing; after a
//! successful pop the node is *retired* and a wait-free `scan` frees every
//! retired node not covered by any hazard pointer. Unlike the revised
//! version of Fu et al. ([`treiber_hp_fu`](crate::treiber_hp_fu)), no step
//! ever waits on another thread — the algorithm is lock-free (and the scan
//! wait-free).
//!
//! Modeling note: `scan` reads all hazard-pointer slots in one internal
//! step. The real scan is a wait-free loop over the slots; collapsing it
//! keeps the state space small and cannot mask a progress violation because
//! the loop is bounded by the (fixed) number of threads.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// Treiber stack + hazard pointers for a fixed number of threads.
#[derive(Debug, Clone)]
pub struct TreiberHp {
    domain: Vec<Value>,
    threads: u8,
}

impl TreiberHp {
    /// Stack over push-values `domain` for `threads` client threads.
    pub fn new(domain: &[Value], threads: u8) -> Self {
        TreiberHp {
            domain: domain.to_vec(),
            threads,
        }
    }
}

/// Shared state: heap, `Top`, per-thread hazard pointers and retired lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Stack top.
    pub top: Ptr,
    /// Hazard-pointer slot of each thread (`NULL` when clear).
    pub hp: Vec<Ptr>,
    /// Retired-but-not-yet-freed nodes, per thread.
    pub rlist: Vec<Vec<Ptr>>,
}

bb_sim::impl_pack!(struct Shared { heap, top, hp, rlist });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// push: allocate.
    PushAlloc {
        /// Value being pushed.
        v: Value,
    },
    /// push: read `Top` and link.
    PushRead {
        /// Private node.
        node: Ptr,
    },
    /// push: CAS `Top`.
    PushCas {
        /// Private node.
        node: Ptr,
        /// Expected top.
        t: Ptr,
    },
    /// pop: read `Top`.
    PopRead,
    /// pop: publish the hazard pointer.
    PopSetHp {
        /// Observed top.
        t: Ptr,
    },
    /// pop: re-validate `Top == t`.
    PopValidate {
        /// Observed top.
        t: Ptr,
    },
    /// pop: read `t.next` (protected by the hazard pointer).
    PopNext {
        /// Observed top.
        t: Ptr,
    },
    /// pop: CAS `Top` from `t` to `n`.
    PopCas {
        /// Observed top.
        t: Ptr,
        /// Its successor.
        n: Ptr,
    },
    /// pop: clear own hazard pointer after a successful CAS.
    PopClearHp {
        /// Popped node.
        t: Ptr,
        /// Its value.
        val: Value,
    },
    /// pop: retire the popped node.
    PopRetire {
        /// Popped node.
        t: Ptr,
        /// Its value.
        val: Value,
    },
    /// pop: scan — free retired nodes not covered by any hazard pointer.
    PopScan {
        /// Value to return.
        val: Value,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => PushAlloc { v }, 1 => PushRead { node }, 2 => PushCas { node, t }, 3 => PopRead, 4 => PopSetHp { t }, 5 => PopValidate { t }, 6 => PopNext { t }, 7 => PopCas { t, n }, 8 => PopClearHp { t, val }, 9 => PopRetire { t, val }, 10 => PopScan { val }, 11 => Done { val } });

impl ObjectAlgorithm for TreiberHp {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "Treiber stack + HP (Michael)"
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
            hp: vec![Ptr::NULL; self.threads as usize],
            rlist: vec![Vec::new(); self.threads as usize],
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
        t_id: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        let me = (t_id.0 - 1) as usize;
        match frame {
            Frame::PushAlloc { v } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*v, Ptr::NULL));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PushRead { node },
                    tag: "P1",
                });
            }
            Frame::PushRead { node } => {
                let mut s = shared.clone();
                let t = s.top;
                s.heap.node_mut(*node).next = t;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PushCas { node: *node, t },
                    tag: "P2",
                });
            }
            Frame::PushCas { node, t } => {
                if shared.top == *t {
                    let mut s = shared.clone();
                    s.top = *node;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: None },
                        tag: "P3",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PushRead { node: *node },
                        tag: "P3",
                    });
                }
            }
            Frame::PopRead => {
                let t = shared.top;
                let next = if t.is_null() {
                    Frame::Done { val: Some(EMPTY) }
                } else {
                    Frame::PopSetHp { t }
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "H1",
                });
            }
            Frame::PopSetHp { t } => {
                let mut s = shared.clone();
                s.hp[me] = *t;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PopValidate { t: *t },
                    tag: "H2",
                });
            }
            Frame::PopValidate { t } => {
                let next = if shared.top == *t {
                    Frame::PopNext { t: *t }
                } else {
                    Frame::PopRead
                };
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: next,
                    tag: "H3",
                });
            }
            Frame::PopNext { t } => {
                let n = shared.heap.node(*t).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::PopCas { t: *t, n },
                    tag: "H4",
                });
            }
            Frame::PopCas { t, n } => {
                if shared.top == *t {
                    let mut s = shared.clone();
                    s.top = *n;
                    let val = s.heap.node(*t).val;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::PopClearHp { t: *t, val },
                        tag: "H5",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PopRead,
                        tag: "H5",
                    });
                }
            }
            Frame::PopClearHp { t, val } => {
                let mut s = shared.clone();
                s.hp[me] = Ptr::NULL;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PopRetire { t: *t, val: *val },
                    tag: "H6",
                });
            }
            Frame::PopRetire { t, val } => {
                let mut s = shared.clone();
                s.rlist[me].push(*t);
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PopScan { val: *val },
                    tag: "H7",
                });
            }
            Frame::PopScan { val } => {
                // Wait-free scan (single modeled step): free every retired
                // node not covered by a hazard pointer.
                let mut s = shared.clone();
                let retired = std::mem::take(&mut s.rlist[me]);
                for node in retired {
                    if s.hp.contains(&node) {
                        s.rlist[me].push(node);
                    } else if s.heap.is_live(node) {
                        s.heap.free(node);
                    }
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: Some(*val) },
                    tag: "H8",
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
        let mut roots = vec![shared.top];
        roots.extend(shared.hp.iter().copied());
        for r in &shared.rlist {
            roots.extend(r.iter().copied());
        }
        for f in frames.iter() {
            visit(f, &mut |p| roots.push(p));
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.top = ren.apply(shared.top);
        for h in &mut shared.hp {
            *h = ren.apply(*h);
        }
        for r in &mut shared.rlist {
            for p in r.iter_mut() {
                *p = ren.apply(*p);
            }
        }
        for f in frames.iter_mut() {
            rewrite(f, &mut |p| *p = ren.apply(*p));
        }
    }
}

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::PushAlloc { .. } | Frame::PopRead | Frame::PopScan { .. } | Frame::Done { .. } => {}
        Frame::PushRead { node } => go(*node),
        Frame::PushCas { node, t } => {
            go(*node);
            go(*t);
        }
        Frame::PopSetHp { t }
        | Frame::PopValidate { t }
        | Frame::PopNext { t }
        | Frame::PopClearHp { t, .. }
        | Frame::PopRetire { t, .. } => go(*t),
        Frame::PopCas { t, n } => {
            go(*t);
            go(*n);
        }
    }
}

fn rewrite(f: &mut Frame, go: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::PushAlloc { .. } | Frame::PopRead | Frame::PopScan { .. } | Frame::Done { .. } => {}
        Frame::PushRead { node } => go(node),
        Frame::PushCas { node, t } => {
            go(node);
            go(t);
        }
        Frame::PopSetHp { t }
        | Frame::PopValidate { t }
        | Frame::PopNext { t }
        | Frame::PopClearHp { t, .. }
        | Frame::PopRetire { t, .. } => go(t),
        Frame::PopCas { t, n } => {
            go(t);
            go(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn push_pop_roundtrip() {
        let alg = TreiberHp::new(&[1], 1);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        assert!(lts.actions().iter().any(|a| {
            a.kind == bb_lts::ActionKind::Ret
                && a.method.as_deref() == Some("pop")
                && a.value == Some(1)
        }));
    }

    #[test]
    fn no_tau_cycles_lock_free() {
        let alg = TreiberHp::new(&[1], 2);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(
            !bb_bisim::has_tau_cycle(&lts),
            "Michael's HP scheme never waits"
        );
    }

    #[test]
    fn nodes_are_reclaimed() {
        // After a pop completes with no interference, the heap is empty
        // again in some reachable state... indirectly: the state count stays
        // small compared to never-freeing (sanity check only).
        let alg = TreiberHp::new(&[1], 1);
        let lts = explore_system(&alg, Bound::new(1, 4)).unwrap();
        assert!(lts.num_states() > 0);
    }
}
