//! Treiber stack with the *revised* hazard-pointer reclamation of Fu et al.
//! (case study 3 of Table II — the new lock-freedom bug of Section VI-F).
//!
//! The revision prevents the ABA problem but, instead of Michael's
//! wait-free scan, the popping thread **waits** until no other thread's
//! hazard pointer covers the popped node before freeing it and returning:
//!
//! ```text
//! pop():  … CAS(Top, t, n) succeeds …
//!   while (∃ j ≠ me. hp[j] == t) { /* re-read and spin */ }   // ← bug
//!   free(t); return t.val
//! ```
//!
//! If another thread has published `t` in its hazard pointer and is never
//! scheduled again, the popper re-reads the same slot forever: a τ-cycle,
//! i.e. a divergence that violates lock-freedom. The paper found exactly
//! this with divergence-sensitive branching bisimulation and two threads.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// Treiber stack + the waiting hazard-pointer reclamation of Fu et al.
#[derive(Debug, Clone)]
pub struct TreiberHpFu {
    domain: Vec<Value>,
    threads: u8,
}

impl TreiberHpFu {
    /// Stack over push-values `domain` for `threads` client threads.
    pub fn new(domain: &[Value], threads: u8) -> Self {
        TreiberHpFu {
            domain: domain.to_vec(),
            threads,
        }
    }
}

/// Shared state: heap, `Top` and per-thread hazard pointers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// Stack top.
    pub top: Ptr,
    /// Hazard-pointer slot of each thread (`NULL` when clear).
    pub hp: Vec<Ptr>,
}

bb_sim::impl_pack!(struct Shared { heap, top, hp });

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
    /// pop: read `t.next`.
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
    /// pop: clear own hazard pointer.
    PopClearHp {
        /// Popped node.
        t: Ptr,
        /// Its value.
        val: Value,
    },
    /// pop: **wait** until no other hazard pointer covers `t` (the
    /// divergence: this step can loop on itself forever).
    PopWait {
        /// Popped node awaiting reclamation.
        t: Ptr,
        /// Value to return.
        val: Value,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => PushAlloc { v }, 1 => PushRead { node }, 2 => PushCas { node, t }, 3 => PopRead, 4 => PopSetHp { t }, 5 => PopValidate { t }, 6 => PopNext { t }, 7 => PopCas { t, n }, 8 => PopClearHp { t, val }, 9 => PopWait { t, val }, 10 => Done { val } });

impl ObjectAlgorithm for TreiberHpFu {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "Treiber stack + HP (Fu et al., revised)"
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
                    tag: "F1",
                });
            }
            Frame::PopSetHp { t } => {
                let mut s = shared.clone();
                s.hp[me] = *t;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PopValidate { t: *t },
                    tag: "F2",
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
                    tag: "F3",
                });
            }
            Frame::PopNext { t } => {
                let n = shared.heap.node(*t).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::PopCas { t: *t, n },
                    tag: "F4",
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
                        tag: "F5",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PopRead,
                        tag: "F5",
                    });
                }
            }
            Frame::PopClearHp { t, val } => {
                let mut s = shared.clone();
                s.hp[me] = Ptr::NULL;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PopWait { t: *t, val: *val },
                    tag: "F6",
                });
            }
            Frame::PopWait { t, val } => {
                let covered = shared
                    .hp
                    .iter()
                    .enumerate()
                    .any(|(j, p)| j != me && *p == *t);
                if covered {
                    // Re-read the hazard pointer and keep waiting: a τ-step
                    // that changes nothing — the divergence.
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: frame.clone(),
                        tag: "F7",
                    });
                } else {
                    let mut s = shared.clone();
                    if s.heap.is_live(*t) {
                        s.heap.free(*t);
                    }
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: Some(*val) },
                        tag: "F8",
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
        roots.extend(shared.hp.iter().copied());
        for f in frames.iter() {
            visit(f, &mut |p| roots.push(p));
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.top = ren.apply(shared.top);
        for h in &mut shared.hp {
            *h = ren.apply(*h);
        }
        for f in frames.iter_mut() {
            rewrite(f, &mut |p| *p = ren.apply(*p));
        }
    }
}

fn visit(f: &Frame, go: &mut dyn FnMut(Ptr)) {
    match f {
        Frame::PushAlloc { .. } | Frame::PopRead | Frame::Done { .. } => {}
        Frame::PushRead { node } => go(*node),
        Frame::PushCas { node, t } => {
            go(*node);
            go(*t);
        }
        Frame::PopSetHp { t }
        | Frame::PopValidate { t }
        | Frame::PopNext { t }
        | Frame::PopClearHp { t, .. }
        | Frame::PopWait { t, .. } => go(*t),
        Frame::PopCas { t, n } => {
            go(*t);
            go(*n);
        }
    }
}

fn rewrite(f: &mut Frame, go: &mut dyn FnMut(&mut Ptr)) {
    match f {
        Frame::PushAlloc { .. } | Frame::PopRead | Frame::Done { .. } => {}
        Frame::PushRead { node } => go(node),
        Frame::PushCas { node, t } => {
            go(node);
            go(t);
        }
        Frame::PopSetHp { t }
        | Frame::PopValidate { t }
        | Frame::PopNext { t }
        | Frame::PopClearHp { t, .. }
        | Frame::PopWait { t, .. } => go(t),
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
    fn violates_lock_freedom() {
        // T1: push then pop (waits); T2: pop (parks with hp set).
        let alg = TreiberHpFu::new(&[1], 2);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(
            bb_bisim::has_tau_cycle(&lts),
            "the waiting reclamation must diverge"
        );
        let lasso = bb_bisim::divergence_witness(&lts).unwrap();
        // The divergent loop is the re-reading of the hazard pointer (F7).
        assert!(lasso
            .cycle
            .iter()
            .all(|(_, aid, _)| lts.action(*aid).tag.as_deref() == Some("F7")));
    }

    #[test]
    fn still_functionally_correct_sequentially() {
        let alg = TreiberHpFu::new(&[1], 1);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        // Single-threaded: wait never blocks (no other hp), pop returns 1.
        assert!(lts.actions().iter().any(|a| {
            a.kind == bb_lts::ActionKind::Ret
                && a.method.as_deref() == Some("pop")
                && a.value == Some(1)
        }));
        assert!(!bb_bisim::has_tau_cycle(&lts));
    }
}
