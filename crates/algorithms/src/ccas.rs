//! Conditional CAS (case study 6 of Table II; Turon et al., POPL 2013).
//!
//! `ccas(exp, new)` behaves like a CAS that additionally requires a global
//! control flag to be clear. The implementation installs a *descriptor* in
//! the cell, then reads the flag and resolves the descriptor to `new` (flag
//! clear) or back to `exp` (flag set). Any thread that encounters a
//! descriptor first *helps* complete it — the classic cooperative pattern
//! that gives the operation its non-fixed linearization point (the flag
//! read, performed by whichever thread resolves the descriptor).

use crate::specs::{decode_pair, SeqRegister};
use bb_lts::ThreadId;
use bb_sim::{MethodId, MethodSpec, ObjectAlgorithm, Outcome, Value};

/// The CCAS cell: either a plain value or an installed descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// A plain value.
    Val(Value),
    /// An installed, unresolved `ccas` descriptor.
    Desc {
        /// Expected (and restore-on-flag) value.
        exp: Value,
        /// Replacement value.
        new: Value,
        /// Installing thread (distinguishes identical descriptors).
        owner: ThreadId,
    },
}

bb_sim::impl_pack!(enum Cell { 0 => Val(a), 1 => Desc { exp, new, owner } });

/// Shared state: the cell and the control flag.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// The conditional-CAS cell.
    pub cell: Cell,
    /// The control flag: when set, `ccas` must not write.
    pub flag: bool,
}

bb_sim::impl_pack!(struct Shared { cell, flag });

/// The CCAS object over value domain `0..d`.
#[derive(Debug, Clone)]
pub struct Ccas {
    d: Value,
}

impl Ccas {
    /// Cell holding 0, flag clear, values over `0..d`.
    pub fn new(d: Value) -> Self {
        Ccas { d }
    }
}

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// ccas: try to install the descriptor (CAS on the cell).
    Install {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// ccas (owner): read the flag.
    ReadFlag {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// ccas (owner): resolve own descriptor according to the flag.
    Resolve {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
        /// Flag value read.
        flag: bool,
    },
    /// helping: read the flag on behalf of `desc`.
    HelpReadFlag {
        /// The encountered descriptor.
        desc: Cell,
        /// What to do after helping.
        cont: Cont,
    },
    /// helping: resolve `desc` according to the flag read.
    HelpResolve {
        /// The encountered descriptor.
        desc: Cell,
        /// Flag value read.
        flag: bool,
        /// What to do after helping.
        cont: Cont,
    },
    /// setflag: write the flag.
    SetFlag {
        /// New flag value.
        b: bool,
    },
    /// read: read the cell.
    Read,
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => Install { exp, new }, 1 => ReadFlag { exp, new }, 2 => Resolve { exp, new, flag }, 3 => HelpReadFlag { desc, cont }, 4 => HelpResolve { desc, flag, cont }, 5 => SetFlag { b }, 6 => Read, 7 => Done { val } });

/// Continuation after a helping episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cont {
    /// Retry `ccas(exp, new)` from installation.
    RetryCcas {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// Retry `read`.
    RetryRead,
}

bb_sim::impl_pack!(enum Cont { 0 => RetryCcas { exp, new }, 1 => RetryRead });

impl ObjectAlgorithm for Ccas {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "CCAS"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec {
                name: "ccas",
                args: SeqRegister::arg_domain(self.d).into_iter().map(Some).collect(),
            },
            MethodSpec::with_args("setflag", &[0, 1]),
            MethodSpec::no_arg("read"),
        ]
    }

    fn initial_shared(&self) -> Shared {
        Shared {
            cell: Cell::Val(0),
            flag: false,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        match method {
            0 => {
                let (exp, new) = decode_pair(arg.expect("ccas takes (exp,new)"), self.d);
                Frame::Install { exp, new }
            }
            1 => Frame::SetFlag {
                b: arg.expect("setflag takes a bool") != 0,
            },
            2 => Frame::Read,
            _ => unreachable!("ccas has three methods"),
        }
    }

    fn step(
        &self,
        shared: &Shared,
        frame: &Frame,
        t: ThreadId,
        out: &mut Vec<Outcome<Shared, Frame>>,
    ) {
        match frame {
            Frame::Install { exp, new } => match shared.cell {
                Cell::Val(v) => {
                    if v == *exp {
                        let mut s = shared.clone();
                        s.cell = Cell::Desc {
                            exp: *exp,
                            new: *new,
                            owner: t,
                        };
                        out.push(Outcome::Tau {
                            shared: s,
                            frame: Frame::ReadFlag {
                                exp: *exp,
                                new: *new,
                            },
                            tag: "C1",
                        });
                    } else {
                        // Value mismatch: no effect; return the value seen.
                        out.push(Outcome::Tau {
                            shared: shared.clone(),
                            frame: Frame::Done { val: Some(v) },
                            tag: "C1",
                        });
                    }
                }
                desc @ Cell::Desc { .. } => {
                    // Help the installed operation, then retry.
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::HelpReadFlag {
                            desc,
                            cont: Cont::RetryCcas {
                                exp: *exp,
                                new: *new,
                            },
                        },
                        tag: "C2",
                    });
                }
            },
            Frame::ReadFlag { exp, new } => {
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::Resolve {
                        exp: *exp,
                        new: *new,
                        flag: shared.flag,
                    },
                    tag: "C3",
                });
            }
            Frame::Resolve { exp, new, flag } => {
                let mine = Cell::Desc {
                    exp: *exp,
                    new: *new,
                    owner: t,
                };
                let mut s = shared.clone();
                if s.cell == mine {
                    s.cell = Cell::Val(if *flag { *exp } else { *new });
                }
                // Whether we resolved it or a helper did, the installation
                // succeeded, so the prior value was `exp`.
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: Some(*exp) },
                    tag: "C4",
                });
            }
            Frame::HelpReadFlag { desc, cont } => {
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::HelpResolve {
                        desc: *desc,
                        flag: shared.flag,
                        cont: *cont,
                    },
                    tag: "C5",
                });
            }
            Frame::HelpResolve { desc, flag, cont } => {
                let mut s = shared.clone();
                if s.cell == *desc {
                    if let Cell::Desc { exp, new, .. } = desc {
                        s.cell = Cell::Val(if *flag { *exp } else { *new });
                    }
                }
                let frame = match cont {
                    Cont::RetryCcas { exp, new } => Frame::Install {
                        exp: *exp,
                        new: *new,
                    },
                    Cont::RetryRead => Frame::Read,
                };
                out.push(Outcome::Tau {
                    shared: s,
                    frame,
                    tag: "C6",
                });
            }
            Frame::SetFlag { b } => {
                let mut s = shared.clone();
                s.flag = *b;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: None },
                    tag: "C7",
                });
            }
            Frame::Read => match shared.cell {
                Cell::Val(v) => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::Done { val: Some(v) },
                    tag: "C8",
                }),
                desc @ Cell::Desc { .. } => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::HelpReadFlag {
                        desc,
                        cont: Cont::RetryRead,
                    },
                    tag: "C8",
                }),
            },
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
    use bb_sim::{explore_system, Bound};

    #[test]
    fn ccas_success_and_failure() {
        let alg = Ccas::new(2);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("ccas"))
            .map(|a| a.value)
            .collect();
        assert!(rets.contains(&Some(0)), "prior value 0");
        assert!(rets.contains(&Some(1)), "prior value 1 after a success");
    }

    #[test]
    fn no_tau_cycles() {
        let alg = Ccas::new(2);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts), "CCAS is lock-free");
    }

    #[test]
    fn flagged_ccas_does_not_write() {
        // Single thread: in any sequential history where the flag is set
        // when a ccas runs, the cell keeps its old value, so a read right
        // after setflag(1); ccas(0,1) cannot return 1.
        let alg = Ccas::new(2);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let traces = bb_refine::enumerate_traces(&lts, 6);
        // Single thread, so traces are sequential. The history
        //   setflag(1); ccas(0,1); read
        // must never end with read returning 1.
        let bad = traces.iter().any(|tr| {
            let strs: Vec<String> = tr.iter().map(|o| o.to_string()).collect();
            strs.len() == 6
                && strs[0] == "t1.call.setflag(1)"
                && strs[2] == "t1.call.ccas(1)" // encode(0,1,2) = 1
                && strs[4] == "t1.call.read"
                && strs[5] == "t1.ret(1).read"
        });
        assert!(!bad, "flagged ccas wrote the cell");
    }
}
