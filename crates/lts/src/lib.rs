//! Labeled transition systems (LTSs) for concurrent object verification.
//!
//! This crate provides the semantic foundation shared by every other crate in
//! the workspace: the [`Lts`] arena representation of a finite labeled
//! transition system (Definition 2.1 of the paper), the [`Action`] alphabet of
//! object systems (`t.call.m(n)`, `t.ret(n').m` and internal `τ` steps), the
//! [`Semantics`] trait plus [`explore`] function that turn an operational
//! semantics into an explicit LTS, and a toolbox of graph analyses (Tarjan
//! SCCs, reachability, τ-closures, DOT export) used by the equivalence
//! checking crates.
//!
//! # Example
//!
//! ```
//! use bb_lts::{Action, LtsBuilder, ThreadId};
//!
//! let mut b = LtsBuilder::new();
//! let s0 = b.add_state();
//! let s1 = b.add_state();
//! let call = b.intern_action(Action::call(ThreadId(1), "push", Some(7)));
//! b.add_transition(s0, call, s1);
//! let lts = b.build(s0);
//! assert_eq!(lts.num_states(), 2);
//! assert_eq!(lts.num_transitions(), 1);
//! ```

mod action;
mod analysis;
mod aut;
pub mod budget;
mod builder;
mod compact;
mod dot;
mod explore;
mod jobs;
mod lts;
mod random;
mod scc;
pub mod snapshot;
mod union;

pub use action::{Action, ActionId, ActionKind, Observation, ThreadId};
pub use analysis::{reachable_states, restrict_to_reachable, tau_closure_from, TauClosure};
pub use aut::{from_aut, to_aut, ParseAutError};
pub use budget::{
    Budget, CancelToken, ExhaustReason, Exhausted, Meter, PartialStats, Stage, Watchdog,
};
pub use builder::LtsBuilder;
pub use compact::{CodecSemantics, SpillBackend, StoreMetrics};
pub use dot::to_dot;
pub use explore::{
    explore, explore_compact, explore_with, ExploreError, ExploreLimits,
    ExploreOptions, ExploreReport, Semantics,
};
pub use jobs::Jobs;
pub use lts::{Lts, PredecessorTable, StateId, Transition};
pub use random::{random_lts, RandomLtsConfig};
pub use scc::{condensation, tarjan_scc, tarjan_scc_region, Condensation, SccId};
pub use union::{disjoint_union, DisjointUnion};
