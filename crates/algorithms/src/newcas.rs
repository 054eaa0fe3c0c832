//! The `NewCompareAndSet` register (case study 8; Figs. 3/4 of the paper).
//!
//! The concrete implementation realizes the atomic `NewCAS` of Fig. 3 with
//! a read + CAS retry loop (Fig. 4):
//!
//! ```text
//! Int NewCompareAndSet(Int& r, Int exp, Int new) {
//!   Int prior; Bool b := false;
//!   while (b == false) {
//!     prior := r.get();                 // L1
//!     if (prior != exp) return prior;
//!     else b := CAS(r, exp, new);       // L2
//!   }
//!   return exp;
//! }
//! ```
//!
//! Arguments are [`encode_pair`](crate::specs::encode_pair)-encoded
//! `(exp, new)` pairs, matching [`SeqRegister`].

use crate::specs::{decode_pair, SeqRegister};
use bb_lts::ThreadId;
use bb_sim::{MethodId, MethodSpec, ObjectAlgorithm, Outcome, Value};

/// The CAS-loop register over value domain `0..d`.
#[derive(Debug, Clone)]
pub struct NewCas {
    d: Value,
}

impl NewCas {
    /// Register over values `0..d`, initially 0.
    pub fn new(d: Value) -> Self {
        NewCas { d }
    }
}

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// About to read the register (L1).
    Read {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// About to CAS (L2).
    Cas {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Value,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => Read { exp, new }, 1 => Cas { exp, new }, 2 => Done { val } });

impl ObjectAlgorithm for NewCas {
    type Shared = Value;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "NewCompareAndSet"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec {
            name: "NewCAS",
            args: SeqRegister::arg_domain(self.d).into_iter().map(Some).collect(),
        }]
    }

    fn initial_shared(&self) -> Value {
        0
    }

    fn begin(&self, _method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        let (exp, new) = decode_pair(arg.expect("NewCAS takes (exp,new)"), self.d);
        Frame::Read { exp, new }
    }

    fn step(
        &self,
        shared: &Value,
        frame: &Frame,
        _t: ThreadId,
        out: &mut Vec<Outcome<Value, Frame>>,
    ) {
        match frame {
            Frame::Read { exp, new } => {
                let prior = *shared;
                let next = if prior != *exp {
                    Frame::Done { val: prior }
                } else {
                    Frame::Cas {
                        exp: *exp,
                        new: *new,
                    }
                };
                out.push(Outcome::Tau {
                    shared: *shared,
                    frame: next,
                    tag: "L1",
                });
            }
            Frame::Cas { exp, new } => {
                if *shared == *exp {
                    out.push(Outcome::Tau {
                        shared: *new,
                        frame: Frame::Done { val: *exp },
                        tag: "L2",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: *shared,
                        frame: Frame::Read {
                            exp: *exp,
                            new: *new,
                        },
                        tag: "L2",
                    });
                }
            }
            Frame::Done { val } => out.push(Outcome::Ret {
                shared: *shared,
                val: Some(*val),
                tag: "",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_sim::{explore_system, Bound};

    #[test]
    fn returns_prior_value() {
        let alg = NewCas::new(2);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        // Initially 0: NewCAS(0,1) returns 0; a second NewCAS(0,1) returns 1.
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret)
            .map(|a| a.value)
            .collect();
        assert!(rets.contains(&Some(0)));
        assert!(rets.contains(&Some(1)));
    }

    #[test]
    fn no_tau_cycles() {
        let alg = NewCas::new(2);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
    }
}
