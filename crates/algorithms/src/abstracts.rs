//! Hand-written abstract programs (Section VI-D, Fig. 8).
//!
//! An abstract object is a coarse-grained concurrent implementation whose
//! method bodies consist of one or more *atomic blocks*. For fixed-LP
//! algorithms the abstract program coincides with the specification; for
//! algorithms with non-fixed linearization points it needs more than one
//! block. Theorem 5.8 then transfers lock-freedom from the (small) abstract
//! program to the concrete object once `Δ ≈div ΔAbs` is established.
//!
//! [`AbsQueue`] is the abstract queue of Fig. 8, shared by the MS and DGLM
//! queues: `Enq_abs` is a single block; `Deq_abs` has two blocks — the
//! first (the paper's Line 42) reads `Head` and linearizes the empty case,
//! the second (Line 44) re-checks `Head` and removes the first node,
//! restarting the loop when `Head` changed in between. "`Head` changed" is
//! modeled by a version counter that every successful removal bumps —
//! exactly the observable content of head-pointer identity in the concrete
//! queues.
//!
//! [`AbsCcas`] and [`AbsRdcss`] follow the same two-block pattern around
//! their descriptor-resolution linearization points.

use crate::specs::{decode_pair, SeqRdcss, SeqRegister};
use bb_lts::ThreadId;
use bb_sim::{MethodId, MethodSpec, ObjectAlgorithm, Outcome, Value, EMPTY};

// ===================================================================== queue

/// Shared state of the abstract queue: the queue content plus the
/// head-version counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsQueueShared {
    /// Queue content, front first.
    pub items: Vec<Value>,
    /// Bumped on every successful removal (head-identity proxy).
    pub version: u32,
}

bb_sim::impl_pack!(struct AbsQueueShared { items, version });

/// The abstract queue of Fig. 8 (`Enq_abs`/`Deq_abs`).
#[derive(Debug, Clone)]
pub struct AbsQueue {
    domain: Vec<Value>,
}

impl AbsQueue {
    /// Abstract queue over enqueue-value `domain`.
    pub fn new(domain: &[Value]) -> Self {
        AbsQueue {
            domain: domain.to_vec(),
        }
    }
}

/// Frames of the abstract queue.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbsQueueFrame {
    /// `Enq_abs`: the single atomic block.
    Enq {
        /// Value to enqueue.
        v: Value,
    },
    /// `Deq_abs` block 1 (Line 42): snapshot `Head` and the emptiness
    /// observation. Crucially the EMPTY outcome is *not* committed here —
    /// like the concrete L20 read, it only becomes the linearization point
    /// if the later validation sees `Head` unchanged.
    DeqBlock1,
    /// `Deq_abs` block 2 (Line 44): re-check `Head`; on a match either
    /// return EMPTY (per the block-1 observation, even if enqueues have
    /// happened since — the famous MS-queue behaviour) or remove the first
    /// node; on a mismatch restart the loop.
    DeqBlock2 {
        /// Version observed at block 1.
        ver: u32,
        /// Whether the queue was empty at block 1.
        empty: bool,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum AbsQueueFrame { 0 => Enq { v }, 1 => DeqBlock1, 2 => DeqBlock2 { ver, empty }, 3 => Done { val } });

impl ObjectAlgorithm for AbsQueue {
    type Shared = AbsQueueShared;
    type Frame = AbsQueueFrame;

    fn name(&self) -> &'static str {
        "abstract queue (Fig. 8)"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::with_args("Enq", &self.domain),
            MethodSpec::no_arg("Deq"),
        ]
    }

    fn initial_shared(&self) -> AbsQueueShared {
        AbsQueueShared {
            items: Vec::new(),
            version: 0,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> AbsQueueFrame {
        match method {
            0 => AbsQueueFrame::Enq {
                v: arg.expect("Enq takes a value"),
            },
            1 => AbsQueueFrame::DeqBlock1,
            _ => unreachable!("queue has two methods"),
        }
    }

    fn step(
        &self,
        shared: &AbsQueueShared,
        frame: &AbsQueueFrame,
        _t: ThreadId,
        out: &mut Vec<Outcome<AbsQueueShared, AbsQueueFrame>>,
    ) {
        match frame {
            AbsQueueFrame::Enq { v } => {
                let mut s = shared.clone();
                s.items.push(*v);
                out.push(Outcome::Tau {
                    shared: s,
                    frame: AbsQueueFrame::Done { val: None },
                    tag: "L41",
                });
            }
            AbsQueueFrame::DeqBlock1 => {
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: AbsQueueFrame::DeqBlock2 {
                        ver: shared.version,
                        empty: shared.items.is_empty(),
                    },
                    tag: "L42",
                });
            }
            AbsQueueFrame::DeqBlock2 { ver, empty } => {
                if shared.version != *ver {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: AbsQueueFrame::DeqBlock1,
                        tag: "L44",
                    });
                } else if *empty {
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: AbsQueueFrame::Done { val: Some(EMPTY) },
                        tag: "L44",
                    });
                } else {
                    let mut s = shared.clone();
                    let v = s.items.remove(0);
                    s.version += 1;
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: AbsQueueFrame::Done { val: Some(v) },
                        tag: "L44",
                    });
                }
            }
            AbsQueueFrame::Done { val } => out.push(Outcome::Ret {
                shared: shared.clone(),
                val: *val,
                tag: "",
            }),
        }
    }
}

// ====================================================================== ccas

/// The abstract CCAS cell: a plain value or a pending (installed but
/// unresolved) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsCcasCell {
    /// A plain value.
    Val(Value),
    /// An installed `ccas` whose resolution is pending.
    Pending {
        /// Expected (restore-on-flag) value.
        exp: Value,
        /// Replacement value.
        new: Value,
        /// Installing thread.
        owner: ThreadId,
    },
}

bb_sim::impl_pack!(enum AbsCcasCell { 0 => Val(a), 1 => Pending { exp, new, owner } });

/// Shared state of the abstract CCAS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsCcasShared {
    /// The cell.
    pub cell: AbsCcasCell,
    /// The control flag.
    pub flag: bool,
}

bb_sim::impl_pack!(struct AbsCcasShared { cell, flag });

/// Abstract CCAS: the installation commitment and the owner's two-step
/// resolution (flag read, then write) are kept — they carry the non-fixed
/// linearization point — while the *helping* protocol is collapsed into a
/// single atomic block. The collapse is what makes the program simpler
/// than the concrete object (≈2.5× fewer states); it is `≈div`-equivalent
/// to the concrete CCAS on the instances reported in EXPERIMENTS.md
/// (2-1, 2-2, 3-1) and becomes observable at deeper interleavings, where
/// the fully automatic Theorem 5.9 route applies instead.
#[derive(Debug, Clone)]
pub struct AbsCcas {
    d: Value,
}

impl AbsCcas {
    /// Cell 0, flag clear, values over `0..d`.
    pub fn new(d: Value) -> Self {
        AbsCcas { d }
    }
}

/// Frames of the abstract CCAS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbsCcasFrame {
    /// ccas block 1: atomically check-and-install (or help-resolve an
    /// encountered pending operation in one block, then retry).
    Block1 {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// ccas block 2: read the flag (the non-fixed LP).
    ReadFlag {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
    },
    /// ccas block 3: resolve own pending entry with the recorded flag.
    Resolve {
        /// Expected value.
        exp: Value,
        /// Replacement value.
        new: Value,
        /// Flag recorded at block 2.
        f: bool,
    },
    /// setflag: single block.
    SetFlag {
        /// New flag value.
        b: bool,
    },
    /// read: single block (helps in one block when pending).
    Read,
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum AbsCcasFrame { 0 => Block1 { exp, new }, 1 => ReadFlag { exp, new }, 2 => Resolve { exp, new, f }, 3 => SetFlag { b }, 4 => Read, 5 => Done { val } });

impl ObjectAlgorithm for AbsCcas {
    type Shared = AbsCcasShared;
    type Frame = AbsCcasFrame;

    fn name(&self) -> &'static str {
        "abstract CCAS"
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

    fn initial_shared(&self) -> AbsCcasShared {
        AbsCcasShared {
            cell: AbsCcasCell::Val(0),
            flag: false,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> AbsCcasFrame {
        match method {
            0 => {
                let (exp, new) = decode_pair(arg.expect("ccas takes (exp,new)"), self.d);
                AbsCcasFrame::Block1 { exp, new }
            }
            1 => AbsCcasFrame::SetFlag {
                b: arg.expect("setflag takes a bool") != 0,
            },
            2 => AbsCcasFrame::Read,
            _ => unreachable!("ccas has three methods"),
        }
    }

    fn step(
        &self,
        shared: &AbsCcasShared,
        frame: &AbsCcasFrame,
        t: ThreadId,
        out: &mut Vec<Outcome<AbsCcasShared, AbsCcasFrame>>,
    ) {
        match frame {
            AbsCcasFrame::Block1 { exp, new } => match shared.cell {
                AbsCcasCell::Val(v) => {
                    if v == *exp {
                        let mut s = shared.clone();
                        s.cell = AbsCcasCell::Pending {
                            exp: *exp,
                            new: *new,
                            owner: t,
                        };
                        out.push(Outcome::Tau {
                            shared: s,
                            frame: AbsCcasFrame::ReadFlag {
                                exp: *exp,
                                new: *new,
                            },
                            tag: "B1",
                        });
                    } else {
                        out.push(Outcome::Tau {
                            shared: shared.clone(),
                            frame: AbsCcasFrame::Done { val: Some(v) },
                            tag: "B1",
                        });
                    }
                }
                AbsCcasCell::Pending { exp: e, new: n, .. } => {
                    // Help in one atomic block, then retry.
                    let mut s = shared.clone();
                    s.cell = AbsCcasCell::Val(if shared.flag { e } else { n });
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: frame.clone(),
                        tag: "B1h",
                    });
                }
            },
            AbsCcasFrame::ReadFlag { exp, new } => out.push(Outcome::Tau {
                shared: shared.clone(),
                frame: AbsCcasFrame::Resolve {
                    exp: *exp,
                    new: *new,
                    f: shared.flag,
                },
                tag: "B2",
            }),
            AbsCcasFrame::Resolve { exp, new, f } => {
                let mine = AbsCcasCell::Pending {
                    exp: *exp,
                    new: *new,
                    owner: t,
                };
                let mut s = shared.clone();
                if s.cell == mine {
                    s.cell = AbsCcasCell::Val(if *f { *exp } else { *new });
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: AbsCcasFrame::Done { val: Some(*exp) },
                    tag: "B3",
                });
            }
            AbsCcasFrame::SetFlag { b } => {
                let mut s = shared.clone();
                s.flag = *b;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: AbsCcasFrame::Done { val: None },
                    tag: "B4",
                });
            }
            AbsCcasFrame::Read => match shared.cell {
                AbsCcasCell::Val(v) => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: AbsCcasFrame::Done { val: Some(v) },
                    tag: "B5",
                }),
                AbsCcasCell::Pending { exp, new, .. } => {
                    let mut s = shared.clone();
                    s.cell = AbsCcasCell::Val(if shared.flag { exp } else { new });
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: AbsCcasFrame::Read,
                        tag: "B5h",
                    });
                }
            },
            AbsCcasFrame::Done { val } => out.push(Outcome::Ret {
                shared: shared.clone(),
                val: *val,
                tag: "",
            }),
        }
    }
}

// ===================================================================== rdcss

/// The abstract RDCSS data cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsRdcssCell {
    /// A plain value.
    Val(Value),
    /// An installed `rdcss` whose resolution is pending.
    Pending {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
        /// Installing thread.
        owner: ThreadId,
    },
}

bb_sim::impl_pack!(enum AbsRdcssCell { 0 => Val(a), 1 => Pending { o1, o2, n2, owner } });

/// Shared state of the abstract RDCSS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AbsRdcssShared {
    /// Control cell.
    pub c1: Value,
    /// Data cell.
    pub c2: AbsRdcssCell,
}

bb_sim::impl_pack!(struct AbsRdcssShared { c1, c2 });

/// Abstract RDCSS: like [`AbsCcas`], the installation and the owner's
/// two-step resolution (control-cell read, then write) are kept while the
/// helping protocol is one atomic block.
#[derive(Debug, Clone)]
pub struct AbsRdcss {
    d: Value,
}

impl AbsRdcss {
    /// Both cells 0, values over `0..d`.
    pub fn new(d: Value) -> Self {
        AbsRdcss { d }
    }
}

/// Frames of the abstract RDCSS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbsRdcssFrame {
    /// rdcss block 1: atomically check-and-install (helping in one block).
    Block1 {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
    },
    /// rdcss block 2: read `c1` (the non-fixed LP).
    ReadC1 {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
    },
    /// rdcss block 3: resolve own pending entry.
    Resolve {
        /// Expected control value.
        o1: Value,
        /// Expected data value.
        o2: Value,
        /// Replacement data value.
        n2: Value,
        /// Control value recorded at block 2.
        r1: Value,
    },
    /// write1: single block.
    Write1 {
        /// Value for `c1`.
        v: Value,
    },
    /// read2: single block (helps in one block when pending).
    Read2,
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum AbsRdcssFrame { 0 => Block1 { o1, o2, n2 }, 1 => ReadC1 { o1, o2, n2 }, 2 => Resolve { o1, o2, n2, r1 }, 3 => Write1 { v }, 4 => Read2, 5 => Done { val } });

impl ObjectAlgorithm for AbsRdcss {
    type Shared = AbsRdcssShared;
    type Frame = AbsRdcssFrame;

    fn name(&self) -> &'static str {
        "abstract RDCSS"
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

    fn initial_shared(&self) -> AbsRdcssShared {
        AbsRdcssShared {
            c1: 0,
            c2: AbsRdcssCell::Val(0),
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> AbsRdcssFrame {
        match method {
            0 => {
                let (o1, o2, n2) = SeqRdcss::decode(arg.expect("rdcss takes (o1,o2,n2)"), self.d);
                AbsRdcssFrame::Block1 { o1, o2, n2 }
            }
            1 => AbsRdcssFrame::Write1 {
                v: arg.expect("write1 takes a value"),
            },
            2 => AbsRdcssFrame::Read2,
            _ => unreachable!("rdcss has three methods"),
        }
    }

    fn step(
        &self,
        shared: &AbsRdcssShared,
        frame: &AbsRdcssFrame,
        t: ThreadId,
        out: &mut Vec<Outcome<AbsRdcssShared, AbsRdcssFrame>>,
    ) {
        match frame {
            AbsRdcssFrame::Block1 { o1, o2, n2 } => match shared.c2 {
                AbsRdcssCell::Val(v) => {
                    if v == *o2 {
                        let mut s = shared.clone();
                        s.c2 = AbsRdcssCell::Pending {
                            o1: *o1,
                            o2: *o2,
                            n2: *n2,
                            owner: t,
                        };
                        out.push(Outcome::Tau {
                            shared: s,
                            frame: AbsRdcssFrame::ReadC1 {
                                o1: *o1,
                                o2: *o2,
                                n2: *n2,
                            },
                            tag: "B1",
                        });
                    } else {
                        out.push(Outcome::Tau {
                            shared: shared.clone(),
                            frame: AbsRdcssFrame::Done { val: Some(v) },
                            tag: "B1",
                        });
                    }
                }
                AbsRdcssCell::Pending { o1: p1, o2: p2, n2: pn, .. } => {
                    let mut s = shared.clone();
                    s.c2 = AbsRdcssCell::Val(if shared.c1 == p1 { pn } else { p2 });
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: frame.clone(),
                        tag: "B1h",
                    });
                }
            },
            AbsRdcssFrame::ReadC1 { o1, o2, n2 } => out.push(Outcome::Tau {
                shared: shared.clone(),
                frame: AbsRdcssFrame::Resolve {
                    o1: *o1,
                    o2: *o2,
                    n2: *n2,
                    r1: shared.c1,
                },
                tag: "B2",
            }),
            AbsRdcssFrame::Resolve { o1, o2, n2, r1 } => {
                let mine = AbsRdcssCell::Pending {
                    o1: *o1,
                    o2: *o2,
                    n2: *n2,
                    owner: t,
                };
                let mut s = shared.clone();
                if s.c2 == mine {
                    s.c2 = AbsRdcssCell::Val(if *r1 == *o1 { *n2 } else { *o2 });
                }
                out.push(Outcome::Tau {
                    shared: s,
                    frame: AbsRdcssFrame::Done { val: Some(*o2) },
                    tag: "B3",
                });
            }
            AbsRdcssFrame::Write1 { v } => {
                let mut s = shared.clone();
                s.c1 = *v;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: AbsRdcssFrame::Done { val: None },
                    tag: "B4",
                });
            }
            AbsRdcssFrame::Read2 => match shared.c2 {
                AbsRdcssCell::Val(v) => out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: AbsRdcssFrame::Done { val: Some(v) },
                    tag: "B5",
                }),
                AbsRdcssCell::Pending { o1, o2, n2, .. } => {
                    let mut s = shared.clone();
                    s.c2 = AbsRdcssCell::Val(if shared.c1 == o1 { n2 } else { o2 });
                    out.push(Outcome::Tau {
                        shared: s,
                        frame: AbsRdcssFrame::Read2,
                        tag: "B5h",
                    });
                }
            },
            AbsRdcssFrame::Done { val } => out.push(Outcome::Ret {
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
    fn abs_queue_fifo() {
        let alg = AbsQueue::new(&[1, 2]);
        let lts = explore_system(&alg, Bound::new(1, 3)).unwrap();
        let rets: std::collections::BTreeSet<_> = lts
            .actions()
            .iter()
            .filter(|a| a.kind == bb_lts::ActionKind::Ret && a.method.as_deref() == Some("Deq"))
            .map(|a| a.value)
            .collect();
        assert!(rets.contains(&Some(1)));
        assert!(rets.contains(&Some(EMPTY)));
    }

    #[test]
    fn abs_queue_is_lock_free() {
        let alg = AbsQueue::new(&[1]);
        let lts = explore_system(&alg, Bound::new(2, 2)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
    }

    #[test]
    fn abs_queue_smaller_than_concrete() {
        use crate::ms_queue::MsQueue;
        let bound = Bound::new(2, 2);
        let abs = explore_system(&AbsQueue::new(&[1]), bound).unwrap();
        let ms = explore_system(&MsQueue::new(&[1]), bound).unwrap();
        assert!(abs.num_states() < ms.num_states() / 2);
    }

    #[test]
    fn abs_ccas_and_rdcss_explore() {
        let lts = explore_system(&AbsCcas::new(2), Bound::new(2, 1)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
        let lts = explore_system(&AbsRdcss::new(2), Bound::new(2, 1)).unwrap();
        assert!(!bb_bisim::has_tau_cycle(&lts));
    }
}
