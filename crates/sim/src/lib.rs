//! Operational semantics for concurrent object programs.
//!
//! This crate plays the role of the LNT modeling language and CADP state
//! space generator in the paper: an algorithm is a small-step state machine
//! per thread ([`ObjectAlgorithm`]) over an explicitly modeled shared state,
//! and the *most general client* ([`System`]) drives a bounded number of
//! threads that repeatedly invoke the object's methods with every possible
//! parameter (Section II-B). Unfolding a [`System`] with
//! [`bb_lts::explore`] yields the object LTS of Definition 2.1: call and
//! return actions are visible, every program step is an internal τ tagged
//! with its source line for diagnostics.
//!
//! Linked data structures use the canonical [`Heap`]: node identities are
//! abstract, and after every step the heap is garbage-collected and renamed
//! canonically from the roots. This is a symmetry reduction — action labels
//! never mention node identities, so the reduced system is strongly
//! bisimilar to the unreduced one — and it gives the model perfect-GC
//! semantics, matching the paper's LNT models (no spurious ABA on recycled
//! addresses).
//!
//! Sequential specifications ([`SequentialSpec`]) are lifted to coarse
//! "one atomic block per method" object programs ([`AtomicSpec`]) — the
//! linearizable specifications Θsp of Section II-C.

mod algorithm;
mod client;
mod heap;
mod pack;
mod ptr;
mod spec;

pub use algorithm::{Footprint, MethodId, MethodSpec, ObjectAlgorithm, Outcome, ThreadPerm};
pub use client::{
    explore_system, explore_system_report, explore_system_with, Bound, SysState, System,
    ThreadStatus,
};
pub use heap::{Heap, HeapNode, Renaming};
pub use pack::{Pack, PackReader, PackWriter, STATE_ENCODING_VERSION};
pub use ptr::Ptr;
pub use spec::{AtomicSpec, SequentialSpec};

/// Values exchanged with object methods (arguments and return values).
pub type Value = i64;

/// Conventional return value standing for `EMPTY` (queue/stack empty…).
pub const EMPTY: Value = -1;

/// Conventional return value standing for boolean `true`.
pub const TRUE: Value = 1;

/// Conventional return value standing for boolean `false`.
pub const FALSE: Value = 0;
