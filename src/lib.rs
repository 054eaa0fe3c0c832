//! **bbverify** — verifying linearizability and lock-freedom of concurrent
//! objects via branching bisimulation.
//!
//! A from-scratch Rust reproduction of *"Branching Bisimulation and
//! Concurrent Object Verification"* (Yang, Liu, Katoen, Lin, Wu — DSN
//! 2018). This umbrella crate re-exports the workspace:
//!
//! * [`lts`] — labeled transition systems, exploration, graph analyses.
//! * [`bisim`] — branching / divergence-sensitive / weak bisimulation,
//!   quotients, divergence witnesses, diagnostics.
//! * [`refine`] — trace refinement (linearizability's semantic core).
//! * [`ktrace`] — the k-trace equivalence hierarchy of Definition 3.1.
//! * [`ltl`] — next-free LTL model checking (progress properties).
//! * [`sim`] — operational semantics + most general client.
//! * [`algorithms`] — the 14 benchmark data structures, their sequential
//!   specifications and abstract programs.
//! * [`core`] — the two verification methods of Fig. 1.
//! * [`serve`] — verification-as-a-service: the shared job runner and the
//!   `bbv serve` daemon (queue, journal, cache-backed admission, live
//!   progress streaming).
//!
//! # Quickstart
//!
//! ```
//! use bbverify::algorithms::{specs::SeqStack, treiber::Treiber};
//! use bbverify::core::{verify_case, VerifyConfig};
//! use bbverify::sim::{AtomicSpec, Bound};
//!
//! let report = verify_case(
//!     &Treiber::new(&[1]),
//!     &AtomicSpec::new(SeqStack::new(&[1])),
//!     VerifyConfig::new(Bound::new(2, 1)),
//! )?;
//! assert!(report.linearizable());
//! assert!(report.lock_free());
//! # Ok::<(), bbverify::lts::Exhausted>(())
//! ```

pub use bb_algorithms as algorithms;
pub use bb_bisim as bisim;
pub use bb_core as core;
pub use bb_ktrace as ktrace;
pub use bb_lts as lts;
pub use bb_ltl as ltl;
pub use bb_refine as refine;
pub use bb_serve as serve;
pub use bb_sim as sim;
