//! Trace refinement and trace equivalence of object systems.
//!
//! Linearizability of an object system `Δ` w.r.t. its linearizable
//! specification `Θsp` is exactly trace refinement `Δ ⊑tr Θsp`
//! (Definition 2.2, Theorem 2.3), and it suffices to check refinement
//! between the branching-bisimulation quotients (Theorem 5.3). This crate
//! decides trace inclusion by determinizing the specification on the fly
//! (τ-closed subset construction) and searching the product with the
//! implementation, pruned by an antichain over the subset component. A
//! failure yields a *shortest* non-conforming history, which is the
//! bug-hunting counterexample of Section VI-F.

mod inclusion;
mod traces;

pub use inclusion::{
    trace_equivalent, trace_refines, trace_refines_governed, RefineOptions,
    RefinementResult, Violation,
};
pub use traces::{enumerate_traces, trace_to_string};
