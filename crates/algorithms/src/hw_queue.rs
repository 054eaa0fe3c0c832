//! The Herlihy–Wing queue (case study 10 of Table II).
//!
//! The original queue from the linearizability paper: an array of slots and
//! a `back` counter. `Enq` atomically fetches-and-increments `back`, then
//! (separately) stores its element — the two steps give the queue its
//! famously non-fixed linearization points. `Deq` repeatedly scans the
//! array, swapping out the first non-empty slot; on an empty queue it scans
//! forever. The dequeue loop has no progress guarantee: the paper's
//! Table V reports the lock-freedom violation that this model reproduces
//! (a τ-cycle in `Deq`).

use bb_lts::ThreadId;
use bb_sim::{MethodId, MethodSpec, ObjectAlgorithm, Outcome, Value};

/// The HW queue over a finite enqueue-value domain.
///
/// The slot array is sized `capacity`; the most general client must be
/// bounded so that at most `capacity` enqueues occur (choose
/// `capacity ≥ threads × ops`).
#[derive(Debug, Clone)]
pub struct HwQueue {
    domain: Vec<Value>,
    capacity: usize,
}

impl HwQueue {
    /// Queue with `capacity` slots over `domain`.
    pub fn new(domain: &[Value], capacity: usize) -> Self {
        HwQueue {
            domain: domain.to_vec(),
            capacity,
        }
    }

    /// Capacity sized for a `threads × ops` client.
    pub fn for_bound(domain: &[Value], threads: u8, ops: u32) -> Self {
        Self::new(domain, threads as usize * ops as usize)
    }
}

/// Shared state: the slot array (`None` = null) and the `back` counter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shared {
    /// `items[i]` holds the value stored by the i-th enqueuer until swapped
    /// out by a dequeuer.
    pub items: Vec<Option<Value>>,
    /// Next free slot index.
    pub back: usize,
}

bb_sim::impl_pack!(struct Shared { items, back });

/// Per-invocation frames.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Frame {
    /// Enq L1: `i := FAI(back)`.
    EnqReserve {
        /// Value being enqueued.
        v: Value,
    },
    /// Enq L2: `items[i] := v`.
    EnqStore {
        /// Value being enqueued.
        v: Value,
        /// Reserved slot.
        i: usize,
    },
    /// Deq L3: `range := back`.
    DeqReadBack,
    /// Deq L4: `x := SWAP(items[i], null)`, scanning `i < range`.
    DeqScan {
        /// Scan bound read from `back`.
        range: usize,
        /// Current scan index.
        i: usize,
    },
    /// Method complete; return `val` next.
    Done {
        /// Return value.
        val: Option<Value>,
    },
}

bb_sim::impl_pack!(enum Frame { 0 => EnqReserve { v }, 1 => EnqStore { v, i }, 2 => DeqReadBack, 3 => DeqScan { range, i }, 4 => Done { val } });

impl ObjectAlgorithm for HwQueue {
    type Shared = Shared;
    type Frame = Frame;

    fn name(&self) -> &'static str {
        "HW queue"
    }

    fn methods(&self) -> Vec<MethodSpec> {
        vec![
            MethodSpec::with_args("Enq", &self.domain),
            MethodSpec::no_arg("Deq"),
        ]
    }

    fn initial_shared(&self) -> Shared {
        Shared {
            items: vec![None; self.capacity],
            back: 0,
        }
    }

    fn begin(&self, method: MethodId, arg: Option<Value>, _t: ThreadId) -> Frame {
        match method {
            0 => Frame::EnqReserve {
                v: arg.expect("Enq takes a value"),
            },
            1 => Frame::DeqReadBack,
            _ => unreachable!("queue has two methods"),
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
            Frame::EnqReserve { v } => {
                let mut s = shared.clone();
                let i = s.back;
                assert!(
                    i < self.capacity,
                    "HW queue capacity exceeded; size it to threads × ops"
                );
                s.back += 1;
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::EnqStore { v: *v, i },
                    tag: "L1",
                });
            }
            Frame::EnqStore { v, i } => {
                let mut s = shared.clone();
                s.items[*i] = Some(*v);
                out.push(Outcome::Tau {
                    shared: s,
                    frame: Frame::Done { val: None },
                    tag: "L2",
                });
            }
            Frame::DeqReadBack => {
                out.push(Outcome::Tau {
                    shared: shared.clone(),
                    frame: Frame::DeqScan {
                        range: shared.back,
                        i: 0,
                    },
                    tag: "L3",
                });
            }
            Frame::DeqScan { range, i } => {
                if *i >= *range {
                    // Scan exhausted: restart from L3. On a forever-empty
                    // queue this loops — the lock-freedom violation.
                    out.push(Outcome::Tau {
                        shared: shared.clone(),
                        frame: Frame::DeqReadBack,
                        tag: "L5",
                    });
                } else {
                    // SWAP(items[i], null).
                    let mut s = shared.clone();
                    let x = s.items[*i].take();
                    match x {
                        Some(v) => out.push(Outcome::Tau {
                            shared: s,
                            frame: Frame::Done { val: Some(v) },
                            tag: "L4",
                        }),
                        None => out.push(Outcome::Tau {
                            shared: s,
                            frame: Frame::DeqScan {
                                range: *range,
                                i: i + 1,
                            },
                            tag: "L4",
                        }),
                    }
                }
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
    use bb_sim::{explore_system, Bound};

    #[test]
    fn enq_deq_single_thread() {
        let alg = HwQueue::for_bound(&[1], 1, 2);
        let lts = explore_system(&alg, Bound::new(1, 2)).unwrap();
        assert!(lts.actions().iter().any(|a| {
            a.kind == bb_lts::ActionKind::Ret
                && a.method.as_deref() == Some("Deq")
                && a.value == Some(1)
        }));
    }

    #[test]
    fn dequeue_diverges() {
        // Even 1 thread with 1 op: Deq on the empty queue spins forever.
        let alg = HwQueue::for_bound(&[1], 1, 1);
        let lts = explore_system(&alg, Bound::new(1, 1)).unwrap();
        assert!(
            bb_bisim::has_tau_cycle(&lts),
            "HW Deq must contain the τ-cycle (lock-freedom bug)"
        );
    }

    #[test]
    fn divergence_is_in_deq() {
        let alg = HwQueue::for_bound(&[1], 2, 1);
        let lts = explore_system(&alg, Bound::new(2, 1)).unwrap();
        let lasso = bb_bisim::divergence_witness(&lts).expect("divergence");
        // The cycle's τ steps are tagged with Deq's lines (L3/L4/L5).
        for (_, aid, _) in &lasso.cycle {
            let tag = lts.action(*aid).tag.as_deref().unwrap_or("");
            assert!(matches!(tag, "L3" | "L4" | "L5"), "unexpected tag {tag}");
        }
    }
}
