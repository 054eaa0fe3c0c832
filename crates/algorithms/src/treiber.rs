//! Treiber's lock-free stack (case study 1 of Table II).
//!
//! ```text
//! push(v):                      pop():
//!  L1: n := new Node(v)          L10: t := Top
//!  L2: t := Top                  L11: if t = null return EMPTY
//!  L3: n.next := t               L12: n := t.next
//!  L4: if CAS(Top,t,n) return    L13: if CAS(Top,t,n) return t.val
//!      else goto L2                   else goto L10
//! ```
//!
//! Fixed linearization points (the successful CASes), hence only `≢₁`
//! τ-edges in Table I.

use crate::list_node::ListNode;
use bb_lts::ThreadId;
use bb_sim::{Heap, MethodId, MethodSpec, ObjectAlgorithm, Outcome, Ptr, Value, EMPTY};

/// The Treiber stack over a finite push-value domain.
#[derive(Debug, Clone)]
pub struct Treiber {
    domain: Vec<Value>,
}

impl Treiber {
    /// Stack whose clients push values from `domain`.
    pub fn new(domain: &[Value]) -> Self {
        Treiber {
            domain: domain.to_vec(),
        }
    }
}

/// Shared state: the node heap and the `Top` pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Node arena.
    pub heap: Heap<ListNode>,
    /// The stack's top pointer.
    pub top: Ptr,
}

bb_sim::impl_pack!(struct Shared { heap, top });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// push: about to allocate (L1).
    PushAlloc {
        /// Value being pushed.
        v: Value,
    },
    /// push: about to read `Top` (L2/L3).
    PushRead {
        /// The thread's freshly allocated node.
        node: Ptr,
    },
    /// push: about to CAS (L4).
    PushCas {
        /// The thread's node.
        node: Ptr,
        /// Expected `Top`.
        t: Ptr,
    },
    /// pop: about to read `Top` (L10/L11).
    PopRead,
    /// pop: about to read `t.next` (L12).
    PopNext {
        /// Observed top node.
        t: Ptr,
    },
    /// pop: about to CAS (L13).
    PopCas {
        /// Observed top node.
        t: Ptr,
        /// Its observed successor.
        n: Ptr,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => PushAlloc { v }, 1 => PushRead { node }, 2 => PushCas { node, t }, 3 => PopRead, 4 => PopNext { t }, 5 => PopCas { t, n }, 6 => Done { val } });

impl ObjectAlgorithm for Treiber {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "Treiber stack"
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
        _t: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        match frame {
            Frame::PushAlloc { v } => {
                let mut s = shared.clone();
                let node = s.heap.alloc(ListNode::new(*v, Ptr::NULL));
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PushRead { node },
                    tag: "L1",
                });
            }
            Frame::PushRead { node } => {
                // L2+L3: read Top and store it into the (private) node.
                let mut s = shared.clone();
                let t = s.top;
                s.heap.node_mut(*node).next = t;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::PushCas { node: *node, t },
                    tag: "L2",
                });
            }
            Frame::PushCas { node, t } => {
                if shared.top == *t {
                    let mut s = shared.clone();
                    s.top = *node;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Done { val: None },
                        tag: "L4",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PushRead { node: *node },
                        tag: "L4",
                    });
                }
            }
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
                    tag: "L10",
                });
            }
            Frame::PopNext { t } => {
                let n = shared.heap.node(*t).next;
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::PopCas { t: *t, n },
                    tag: "L12",
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
                        tag: "L13",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::PopRead,
                        tag: "L13",
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
            match &**f {
                Frame::PushRead { node } => roots.push(*node),
                Frame::PushCas { node, t } => {
                    roots.push(*node);
                    roots.push(*t);
                }
                Frame::PopNext { t } => roots.push(*t),
                Frame::PopCas { t, n } => {
                    roots.push(*t);
                    roots.push(*n);
                }
                _ => {}
            }
        }
        let ren = shared.heap.canonicalize(&roots);
        shared.top = ren.apply(shared.top);
        for f in frames.iter_mut() {
            match &mut **f {
                Frame::PushRead { node } => *node = ren.apply(*node),
                Frame::PushCas { node, t } => {
                    *node = ren.apply(*node);
                    *t = ren.apply(*t);
                }
                Frame::PopNext { t } => *t = ren.apply(*t),
                Frame::PopCas { t, n } => {
                    *t = ren.apply(*t);
                    *n = ren.apply(*n);
                }
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
    fn single_thread_push_pop() {
        let alg = Treiber::new(&[1]);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        // pop after push must be able to return 1.
        assert!(lts.actions().iter().any(|a| {
            a.kind == bb_lts::ActionKind::Ret
                && a.method.as_deref() == Some("pop")
                && a.value == Some(1)
        }));
        // pop on the empty stack must be able to return EMPTY.
        assert!(lts.actions().iter().any(|a| {
            a.kind == bb_lts::ActionKind::Ret
                && a.method.as_deref() == Some("pop")
                && a.value == Some(EMPTY)
        }));
    }

    #[test]
    fn no_tau_cycles() {
        let alg = Treiber::new(&[1, 2]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts), "Treiber stack is lock-free");
    }

    #[test]
    fn state_space_grows_with_bound() {
        let alg = Treiber::new(&[1]);
        let small = explore_system(&alg, Bound::new(1, 1)).unwrap();
        let large = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(large.num_states() > small.num_states());
    }
}
