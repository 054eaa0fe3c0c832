//! Verifying your own algorithm: implement [`ObjectAlgorithm`] for a
//! counter, watch the naive read–then–write increment fail linearizability
//! (the classic lost update), then fix it with a CAS loop and verify.
//!
//! ```sh
//! cargo run --release --example custom_object
//! ```

use bbverify::core::{verify_case, VerifyConfig};
use bbverify::lts::ThreadId;
use bbverify::sim::{
    AtomicSpec, Bound, MethodId, MethodSpec, ObjectAlgorithm, Outcome, SequentialSpec, Value,
};

/// Sequential specification: a counter with `inc` (returns the old value)
/// and `read`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SeqCounter(Value);


// Tuple structs are outside `impl_pack!`'s derive grammar, so pack by hand.
impl bb_sim::Pack for SeqCounter {
    fn pack(&self, w: &mut bb_sim::PackWriter<'_>) {
        self.0.pack(w);
    }
    fn unpack(r: &mut bb_sim::PackReader<'_>) -> Option<Self> {
        bb_sim::Pack::unpack(r).map(SeqCounter)
    }
}

impl SequentialSpec for SeqCounter {
    fn name(&self) -> &'static str {
        "counter-spec"
    }
    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::no_arg("inc"), MethodSpec::no_arg("read")]
    }
    fn apply(&self, method: MethodId, _arg: Option<Value>) -> (Self, Option<Value>) {
        match method {
            0 => (SeqCounter(self.0 + 1), Some(self.0)),
            _ => (self.clone(), Some(self.0)),
        }
    }
}

/// The broken implementation: `inc` reads, then writes `read+1` in a second
/// step — two concurrent increments can both observe the same value.
#[derive(Debug, Clone)]
struct NaiveCounter;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum NaiveFrame {
    IncRead,
    IncWrite(Value),
    Read,
    Done(Value),
}

bb_sim::impl_pack!(enum NaiveFrame { 0 => IncRead, 1 => IncWrite(a), 2 => Read, 3 => Done(a) });

impl ObjectAlgorithm for NaiveCounter {
    type Shared = Value;
    type Frame = NaiveFrame;

    fn name(&self) -> &'static str {
        "naive counter (read; write)"
    }
    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::no_arg("inc"), MethodSpec::no_arg("read")]
    }
    fn initial_shared(&self) -> Value {
        0
    }
    fn begin(&self, method: MethodId, _arg: Option<Value>, _t: ThreadId) -> NaiveFrame {
        if method == 0 {
            NaiveFrame::IncRead
        } else {
            NaiveFrame::Read
        }
    }
    fn step(
        &self,
        shared: &Value,
        frame: &NaiveFrame,
        _t: ThreadId,
        out: &mut Vec<Outcome<Value, NaiveFrame>>,
    ) {
        match frame {
            NaiveFrame::IncRead => out.push(Outcome::Tau {
                shared: *shared,
                frame: NaiveFrame::IncWrite(*shared),
                tag: "read",
            }),
            NaiveFrame::IncWrite(seen) => out.push(Outcome::Tau {
                shared: seen + 1, // blind write: the lost update
                frame: NaiveFrame::Done(*seen),
                tag: "write",
            }),
            NaiveFrame::Read => out.push(Outcome::Tau {
                shared: *shared,
                frame: NaiveFrame::Done(*shared),
                tag: "read",
            }),
            NaiveFrame::Done(v) => out.push(Outcome::Ret {
                shared: *shared,
                val: Some(*v),
                tag: "",
            }),
        }
    }
}

/// The fix: retry with CAS until the increment takes effect atomically.
#[derive(Debug, Clone)]
struct CasCounter;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CasFrame {
    IncRead,
    IncCas(Value),
    Read,
    Done(Value),
}

bb_sim::impl_pack!(enum CasFrame { 0 => IncRead, 1 => IncCas(a), 2 => Read, 3 => Done(a) });

impl ObjectAlgorithm for CasCounter {
    type Shared = Value;
    type Frame = CasFrame;

    fn name(&self) -> &'static str {
        "CAS counter"
    }
    fn methods(&self) -> Vec<MethodSpec> {
        vec![MethodSpec::no_arg("inc"), MethodSpec::no_arg("read")]
    }
    fn initial_shared(&self) -> Value {
        0
    }
    fn begin(&self, method: MethodId, _arg: Option<Value>, _t: ThreadId) -> CasFrame {
        if method == 0 {
            CasFrame::IncRead
        } else {
            CasFrame::Read
        }
    }
    fn step(
        &self,
        shared: &Value,
        frame: &CasFrame,
        _t: ThreadId,
        out: &mut Vec<Outcome<Value, CasFrame>>,
    ) {
        match frame {
            CasFrame::IncRead => out.push(Outcome::Tau {
                shared: *shared,
                frame: CasFrame::IncCas(*shared),
                tag: "read",
            }),
            CasFrame::IncCas(seen) => {
                if shared == seen {
                    out.push(Outcome::Tau {
                        shared: seen + 1,
                        frame: CasFrame::Done(*seen),
                        tag: "cas",
                    });
                } else {
                    out.push(Outcome::Tau {
                        shared: *shared,
                        frame: CasFrame::IncRead,
                        tag: "cas",
                    });
                }
            }
            CasFrame::Read => out.push(Outcome::Tau {
                shared: *shared,
                frame: CasFrame::Done(*shared),
                tag: "read",
            }),
            CasFrame::Done(v) => out.push(Outcome::Ret {
                shared: *shared,
                val: Some(*v),
                tag: "",
            }),
        }
    }
}

fn main() -> Result<(), bbverify::lts::Exhausted> {
    let spec = AtomicSpec::new(SeqCounter(0));
    let config = VerifyConfig::new(Bound::new(2, 2));

    println!("== naive counter (read; write) ==");
    let report = verify_case(&NaiveCounter, &spec, config)?;
    println!("linearizable: {}", report.linearizable());
    if let Some(v) = &report.linearizability.violation {
        println!("counterexample (two incs observe the same value):");
        println!("  {}", v.to_pretty());
    }
    assert!(!report.linearizable());

    println!("\n== CAS counter ==");
    let report = verify_case(&CasCounter, &spec, config)?;
    println!("linearizable: {}", report.linearizable());
    println!("lock-free   : {}", report.lock_free());
    assert!(report.linearizable() && report.lock_free());
    Ok(())
}
