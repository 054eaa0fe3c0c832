//! RDCSS — restricted double-compare single-swap (case study 7 of
//! Table II; Harris, Fraser & Pratt, DISC 2002).
//!
//! `rdcss(o1, o2, n2)` writes `n2` into the data cell `c2` only if the
//! control cell `c1` holds `o1` *and* `c2` holds `o2`, returning `c2`'s
//! prior value. The implementation installs a descriptor into `c2`, reads
//! `c1`, and resolves the descriptor; readers and other `rdcss` operations
//! that encounter a descriptor help complete it first.

use crate::specs::SeqRdcss;
use bb_lts::ThreadId;
use bb_sim::{MethodId, MethodSpec, ObjectAlgorithm, Outcome, Value};

/// The data cell: a plain value or an installed descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// A plain value.
    Val(Value),
    /// An installed, unresolved `rdcss` descriptor.
    Desc {
        /// Expected control value.
        o1: Value,
        /// Expected (and restore-on-mismatch) data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
        /// Installing thread.
        owner: ThreadId,
    },
}

bb_sim::impl_pack!(enum Cell { 0 => Val(a), 1 => Desc { o1, o2, n2, owner } });

/// Shared state: control cell `c1` and data cell `c2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// Control cell (plain atomic register).
    pub c1: Value,
    /// Data cell (value or descriptor).
    pub c2: Cell,
}

bb_sim::impl_pack!(struct Shared { c1, c2 });

/// The RDCSS object over value domain `0..d`.
#[derive(Debug, Clone)]
pub struct Rdcss {
    d: Value,
}

impl Rdcss {
    /// Both cells 0, values over `0..d`.
    pub fn new(d: Value) -> Self {
        Rdcss { d }
    }
}

/// Continuation after a helping episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cont {
    /// Retry `rdcss(o1, o2, n2)`.
    RetryRdcss {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
    },
    /// Retry `read2`.
    RetryRead,
}

bb_sim::impl_pack!(enum Cont { 0 => RetryRdcss { o1, o2, n2 }, 1 => RetryRead });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// rdcss: try to install the descriptor into `c2`.
    Install {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
    },
    /// rdcss (owner): read `c1`.
    ReadC1 {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
    },
    /// rdcss (owner): resolve own descriptor.
    Resolve {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
        /// Control value read.
        r1: Value,
    },
    /// helping: read `c1` on behalf of `desc`.
    HelpReadC1 {
        /// The encountered descriptor.
        desc: Cell,
        /// What to do after helping.
        cont: Cont,
    },
    /// helping: resolve `desc`.
    HelpResolve {
        /// The encountered descriptor.
        desc: Cell,
        /// Control value read.
        r1: Value,
        /// What to do after helping.
        cont: Cont,
    },
    /// write1: store into the control cell.
    Write1 {
        /// Value to write.
        v: Value,
    },
    /// read2: read the data cell.
    Read2,
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => Install { o1, o2, n2 }, 1 => ReadC1 { o1, o2, n2 }, 2 => Resolve { o1, o2, n2, r1 }, 3 => HelpReadC1 { desc, cont }, 4 => HelpResolve { desc, r1, cont }, 5 => Write1 { v }, 6 => Read2, 7 => Done { val } });

impl ObjectAlgorithm for Rdcss {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "RDCSS"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec {
                name: "rdcss",
                args: SeqRdcss::arg_domain(self.d).into_iter().map(Some).collect(),
            },
            MethodSpec {
                name: "write1",
                args: (0..self.d).map(Some).collect(),
            },
            MethodSpec::no_arg("read2"),
        ]
    }

    fn initial_shared(&self) -> Shared {
        Shared {
            c1: 0,
            c2: Cell::Val(0),
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        match method {
            0 => {
                let (o1, o2, n2) = SeqRdcss::decode(arg.expect("rdcss takes (o1,o2,n2)"), self.d);
                Frame::Install { o1, o2, n2 }
            }
            1 => Frame::Write1 {
                v: arg.expect("write1 takes a value"),
            },
            2 => Frame::Read2,
            _ => unreachable!("rdcss has three methods"),
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
            Frame::Install { o1, o2, n2 } => match shared.c2 {
                Cell::Val(v) => {
                    if v == *o2 {
                        let mut s = shared.clone();
                        s.c2 = Cell::Desc {
                            o1: *o1,
                            o2: *o2,
                            n2: *n2,
                            owner: t,
                        };
                        out.push(Outcome::Tau {
                            shared: s,
                            frame: Frame::ReadC1 {
                                o1: *o1,
                                o2: *o2,
                                n2: *n2,
                            },
                            tag: "R1",
                        });
                    } else {
                        out.push(Outcome::Tau {
                            shared: shared.clone(),
                            frame: Frame::Done { val: Some(v) },
                            tag: "R1",
                        });
                    }
                }
                desc @ Cell::Desc { .. } => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::HelpReadC1 {
                        desc,
                        cont: Cont::RetryRdcss {
                            o1: *o1,
                            o2: *o2,
                            n2: *n2,
                        },
                    },
                    tag: "R2",
                }),
            },
            Frame::ReadC1 { o1, o2, n2 } => out.push(Outcome::Tau {
                shared: shared.clone(),
                frame: Frame::Resolve {
                    o1: *o1,
                    o2: *o2,
                    n2: *n2,
                    r1: shared.c1,
                },
                tag: "R3",
            }),
            Frame::Resolve { o1, o2, n2, r1 } => {
                let mine = Cell::Desc {
                    o1: *o1,
                    o2: *o2,
                    n2: *n2,
                    owner: t,
                };
                let mut s = shared.clone();
                if s.c2 == mine {
                    s.c2 = Cell::Val(if *r1 == *o1 { *n2 } else { *o2 });
                }
                // Installation succeeded, so c2's prior value was o2.
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: Some(*o2) },
                    tag: "R4",
                });
            }
            Frame::HelpReadC1 { desc, cont } => out.push(Outcome::Tau {
                shared: shared.clone(),
                frame: Frame::HelpResolve {
                    desc: *desc,
                    r1: shared.c1,
                    cont: *cont,
                },
                tag: "R5",
            }),
            Frame::HelpResolve { desc, r1, cont } => {
                let mut s = shared.clone();
                if s.c2 == *desc {
                    if let Cell::Desc { o1, o2, n2, .. } = desc {
                        s.c2 = Cell::Val(if *r1 == *o1 { *n2 } else { *o2 });
                    }
                }
                let frame = match cont {
                    Cont::RetryRdcss { o1, o2, n2 } => Frame::Install {
                        o1: *o1,
                        o2: *o2,
                        n2: *n2,
                    },
                    Cont::RetryRead => Frame::Read2,
                };
                out.push(Outcome::Tau {
                    shared: s,
                    frame,
                    tag: "R6",
                });
            }
            Frame::Write1 { v } => {
                let mut s = shared.clone();
                s.c1 = *v;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: None },
                    tag: "R7",
                });
            }
            Frame::Read2 => match shared.c2 {
                Cell::Val(v) => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::Done { val: Some(v) },
                    tag: "R8",
                }),
                desc @ Cell::Desc { .. } => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::HelpReadC1 {
                        desc,
                        cont: Cont::RetryRead,
                    },
                    tag: "R8",
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
    fn rdcss_returns_prior_value() {
        let alg = Rdcss::new(2);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("rdcss"))
            .map(|a| a.value)
            .collect();
        assert!(rets.contains(&Some(0)));
        assert!(rets.contains(&Some(1)));
    }

    #[test]
    fn no_tau_cycles() {
        let alg = Rdcss::new(2);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts), "RDCSS is lock-free");
    }

    #[test]
    fn control_mismatch_restores_o2() {
        // Sequential: rdcss(1, 0, 1) with c1 = 0 must leave c2 = 0, so a
        // following read2 returns 0.
        let alg = Rdcss::new(2);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        let traces = bb_refine::enumerate_traces(&lts, 4);
        let bad = traces.iter().any(|tr| {
            let strs: Vec<String> = tr.iter().map(|o| o.to_string()).collect();
            strs.len() == 4
                && strs[0].contains("call.rdcss(5)") // encode(1,0,1,2) = 5
                && strs[2].contains("call.read2")
                && strs[3].contains("ret(1).read2")
        });
        assert!(!bad, "control-mismatched rdcss must not write");
    }
}
