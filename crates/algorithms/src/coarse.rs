//! Coarse-grained locking baseline: any sequential specification behind one
//! global lock.
//!
//! Not one of the paper's 14 case studies, but the natural baseline a
//! practitioner compares against: trivially linearizable (every method body
//! is a critical section) and blocking. Because it wraps an arbitrary
//! [`SequentialSpec`], it doubles as a test oracle — `CoarseLocked<S>` must
//! verify linearizable against `AtomicSpec<S>` for every `S`.

use bb_lts::ThreadId;
use bb_sim::{MethodId, MethodSpec, ObjectAlgorithm, Outcome, SequentialSpec, Value};

/// A sequential object protected by a single global lock.
#[derive(Debug, Clone)]
pub struct CoarseLocked<S: SequentialSpec> {
    initial: S,
}

impl<S: SequentialSpec> CoarseLocked<S> {
    /// Wraps `initial` behind a global lock.
    pub fn new(initial: S) -> Self {
        CoarseLocked { initial }
    }
}

/// Shared state: the sequential object plus the lock owner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared<S> {
    /// The protected object.
    pub state: S,
    /// Current lock holder.
    pub lock: Option<ThreadId>,
}

// Hand-written because `impl_pack!` only covers concrete types: the packed
// layout is the wrapped spec's own encoding followed by the lock owner.
impl<S: bb_sim::Pack> bb_sim::Pack for Shared<S> {
    fn pack(&self, w: &mut bb_sim::PackWriter<'_>) {
        self.state.pack(w);
        self.lock.pack(w);
    }

    fn unpack(r: &mut bb_sim::PackReader<'_>) -> Option<Self> {
        Some(Shared {
            state: bb_sim::Pack::unpack(r)?,
            lock: bb_sim::Pack::unpack(r)?,
        })
    }

    fn heap_bytes(&self) -> usize {
        self.state.heap_bytes()
    }
}

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Waiting for the global lock (guarded step).
    Acquire {
        /// Invoked method.
        method: MethodId,
        /// Invocation argument.
        arg: Option<Value>,
    },
    /// Lock held: apply the sequential operation.
    Apply {
        /// Invoked method.
        method: MethodId,
        /// Invocation argument.
        arg: Option<Value>,
    },
    /// Release the lock, then return `val`.
    Release {
        /// Latched return value.
        val: Option<Value>,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => Acquire { method, arg }, 1 => Apply { method, arg }, 2 => Release { val }, 3 => Done { val } });

impl<S: SequentialSpec> ObjectAlgorithm for CoarseLocked<S> {
    type Shared = Shared<S>;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "coarse-locked object"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        self.initial.methods()
    }

    fn initial_shared(&self) -> Shared<S> {
        Shared {
            state: self.initial.clone(),
            lock: None,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        Frame::Acquire { method, arg }
    }

    fn step(
        &self,
        shared: &Shared<S>,
        frame: &Frame,
        t: ThreadId,
        out: &mut Vec<Outcome<Shared<S>, Frame>>,
    ) {
        match frame {
            Frame::Acquire { method, arg } => {
                if shared.lock.is_none() {
                    let mut s = shared.clone();
                    s.lock = Some(t);
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: Frame::Apply {
                            method: *method,
                            arg: *arg,
                        },
                        tag: "lock",
                    });
                }
                // Held by someone else: blocked.
            }
            Frame::Apply { method, arg } => {
                let (next, val) = shared.state.apply(*method, *arg);
                let mut s = shared.clone();
                s.state = next;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Release { val },
                    tag: "apply",
                });
            }
            Frame::Release { val } => {
                let mut s = shared.clone();
                debug_assert_eq!(s.lock, Some(t));
                s.lock = None;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: *val },
                    tag: "unlock",
                });
            }
            Frame::Done { val } => out.push(Outcome::Ret {
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
    use crate::specs::{SeqQueue, SeqSet, SeqStack};
    use bb_lts::ExploreLimits;
    use bb_sim::{explore_system, AtomicSpec, Bound};

    fn linearizable<S: SequentialSpec>(spec: S) -> bool {
        let bound = Bound::new(2, 2);
        let imp = explore_system(&CoarseLocked::new(spec.clone()), bound, ExploreLimits::default())
            .unwrap();
        let sp =
            explore_system(&AtomicSpec::new(spec), bound, ExploreLimits::default()).unwrap();
        let p_imp = bb_bisim::partition(&imp, bb_bisim::Equivalence::Branching);
        let q_imp = bb_bisim::quotient(&imp, &p_imp);
        let p_sp = bb_bisim::partition(&sp, bb_bisim::Equivalence::Branching);
        let q_sp = bb_bisim::quotient(&sp, &p_sp);
        bb_refine::trace_refines(&q_imp.lts, &q_sp.lts).holds
    }

    #[test]
    fn coarse_stack_is_linearizable() {
        assert!(linearizable(SeqStack::new(&[1])));
    }

    #[test]
    fn coarse_queue_is_linearizable() {
        assert!(linearizable(SeqQueue::new(&[1])));
    }

    #[test]
    fn coarse_set_is_linearizable() {
        assert!(linearizable(SeqSet::new(&[1])));
    }

    #[test]
    fn no_divergence_under_bounded_client() {
        let imp = explore_system(
            &CoarseLocked::new(SeqStack::new(&[1])),
            Bound::new(2, 2),
            ExploreLimits::default(),
        )
        .unwrap();
        assert!(!bb_bisim::has_tau_cycle(&imp));
    }

    /// The coarse baseline is in fact branching bisimilar to the atomic
    /// spec: lock-apply-unlock collapses to one effective step.
    #[test]
    fn coarse_object_is_bisimilar_to_spec() {
        let bound = Bound::new(2, 2);
        let imp = explore_system(
            &CoarseLocked::new(SeqStack::new(&[1])),
            bound,
            ExploreLimits::default(),
        )
        .unwrap();
        let sp = explore_system(
            &AtomicSpec::new(SeqStack::new(&[1])),
            bound,
            ExploreLimits::default(),
        )
        .unwrap();
        assert!(bb_bisim::bisimilar(
            &imp,
            &sp,
            bb_bisim::Equivalence::BranchingDiv
        ));
    }
}
