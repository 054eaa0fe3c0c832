//! Linearizable specifications: sequential objects lifted to atomic-block
//! object programs (Section II-C).

use crate::algorithm::{MethodId, MethodSpec, ObjectAlgorithm, Outcome};
use crate::Value;
use bb_lts::ThreadId;
use std::fmt::Debug;
use std::hash::Hash;

/// A sequential (functional) specification of an object: queue, stack, set,
/// register…
///
/// The specification is deterministic: applying a method to a state yields
/// exactly one successor state and return value.
pub trait SequentialSpec: Clone + Eq + Hash + Debug + Send + Sync + crate::Pack {
    /// Name used in reports.
    fn name(&self) -> &'static str;
    /// The object's methods (must match the concrete implementation's
    /// methods for refinement checking).
    fn methods(&self) -> Vec<MethodSpec>;
    /// Applies `method(arg)` atomically, returning the new state and the
    /// return value.
    fn apply(&self, method: MethodId, arg: Option<Value>) -> (Self, Option<Value>);
}

/// The linearizable specification `Θsp` of a sequential object: every method
/// body is a single atomic block, so each method execution is exactly
/// `(t, call, m(n)) · τ · (t, ret(n'), m)`.
#[derive(Debug, Clone)]
pub struct AtomicSpec<S: SequentialSpec> {
    initial: S,
}

impl<S: SequentialSpec> AtomicSpec<S> {
    /// Wraps a sequential object into its linearizable specification.
    pub fn new(initial: S) -> Self {
        AtomicSpec { initial }
    }
}

/// Frame of an atomic-block method execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpecFrame {
    /// The atomic block has not executed yet.
    Pending {
        /// Invoked method.
        method: MethodId,
        /// Invocation argument.
        arg: Option<Value>,
    },
    /// The atomic block has executed; the return value is latched.
    Done {
        /// Value to return.
        val: Option<Value>,
    },
}

crate::impl_pack!(enum SpecFrame {
    0 => Pending { method, arg },
    1 => Done { val },
});

impl<S: SequentialSpec> ObjectAlgorithm for AtomicSpec<S> {
    type Shared = S;
    type Frame = SpecFrame;

    fn name(&self) -> &'static str {
        self.initial.name()
    }

    fn methods(&self) -> Vec<MethodSpec> {
        self.initial.methods()
    }

    fn initial_shared(&self) -> S {
        self.initial.clone()
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> SpecFrame {
        SpecFrame::Pending { method, arg }
    }

    fn step(&self, shared: &S, frame: &SpecFrame, _t: ThreadId, out: &mut Vec<Outcome<S, SpecFrame>>) {
        match frame {
            SpecFrame::Pending { method, arg } => {
                let (next, val) = shared.apply(*method, *arg);
                out.push(Outcome::Tau {
                    shared: next,
                    frame: SpecFrame::Done { val },
                    tag: "atomic",
                });
            }
            SpecFrame::Done { val } => out.push(Outcome::Ret {
                shared: shared.clone(),
                val: *val,
                tag: "",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{explore_system, Bound};

    /// Bounded sequential queue used as a specification.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct SeqQueue {
        items: Vec<Value>,
    }

    crate::impl_pack!(struct SeqQueue { items });

    impl SequentialSpec for SeqQueue {
        fn name(&self) -> &'static str {
            "queue-spec"
        }
        fn methods(&self) -> Vec<MethodSpec> {
            vec![
                MethodSpec::with_args("Enq", &[1, 2]),
                MethodSpec::no_arg("Deq"),
            ]
        }
        fn apply(&self, method: MethodId, arg: Option<Value>) -> (Self, Option<Value>) {
            let mut next = self.clone();
            match method {
                0 => {
                    next.items.push(arg.expect("Enq takes a value"));
                    (next, None)
                }
                _ => {
                    if next.items.is_empty() {
                        (next, Some(crate::EMPTY))
                    } else {
                        let v = next.items.remove(0);
                        (next, Some(v))
                    }
                }
            }
        }
    }

    #[test]
    fn spec_methods_are_three_step() {
        let spec = AtomicSpec::new(SeqQueue { items: vec![] });
        let lts = explore_system(&spec, Bound::new(1, 1)).unwrap();
        // Single thread, single op: each maximal path is call-τ-ret.
        // Paths: Enq(1), Enq(2), Deq → 3 calls from init.
        let init_succs = lts.successors(lts.initial());
        assert_eq!(init_succs.len(), 3);
        for t in init_succs {
            assert!(lts.action(t.action).kind == bb_lts::ActionKind::Call);
        }
    }

    #[test]
    fn empty_queue_deq_returns_empty() {
        let spec = AtomicSpec::new(SeqQueue { items: vec![] });
        let lts = explore_system(&spec, Bound::new(1, 1)).unwrap();
        assert!(lts.actions().iter().any(|a| {
            a.kind == bb_lts::ActionKind::Ret
                && a.method.as_deref() == Some("Deq")
                && a.value == Some(crate::EMPTY)
        }));
    }

    #[test]
    fn fifo_order_in_spec() {
        let spec = AtomicSpec::new(SeqQueue { items: vec![] });
        let lts = explore_system(&spec, Bound::new(1, 3)).unwrap();
        // Sequential execution can return 1 and 2 from Deq, but never
        // returns 2 before any Enq(2)... sanity: both values appear.
        let ret_vals: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("Deq"))
            .map(|a| a.value)
            .collect();
        assert!(ret_vals.contains(&Some(1)));
        assert!(ret_vals.contains(&Some(2)));
        assert!(ret_vals.contains(&Some(crate::EMPTY)));
    }
}
