//! Bisimulation equivalences for concurrent object systems.
//!
//! This crate implements the equivalence-checking machinery at the heart of
//! the paper:
//!
//! * **branching bisimulation** `≈` (Definition 4.1) — the state equivalence
//!   that coincides with max-trace equivalence (Theorem 4.3),
//! * **divergence-sensitive branching bisimulation** `≈div`
//!   (Definitions 5.4/5.5) — used for lock-freedom (Theorems 5.8/5.9),
//! * **weak bisimulation** `~w` (Section VII) — for the comparison showing
//!   why branching, not weak, bisimilarity captures linearization points,
//! * **strong bisimulation** — as a baseline and for testing,
//!
//! together with quotient construction (Definition 5.1), two-system
//! bisimilarity checks, divergence witnesses (lasso counterexamples in the
//! style of Figure 9) and distinguishing-formula diagnostics.
//!
//! All equivalences are computed by signature-based partition refinement
//! (Blom–Orzan style): starting from the universal partition, each state is
//! repeatedly assigned a *signature* — the set of moves it can make up to the
//! current partition — and blocks are split by signature until a fixpoint is
//! reached. The fixpoint is the coarsest bisimulation of the requested kind.
//!
//! # Example
//!
//! ```
//! use bb_lts::{Action, LtsBuilder, ThreadId};
//! use bb_bisim::{partition, quotient, Equivalence};
//!
//! // s0 --τ--> s1 --a--> s2   : s0 ≈ s1 (the τ is inert).
//! let mut b = LtsBuilder::new();
//! let s0 = b.add_state();
//! let s1 = b.add_state();
//! let s2 = b.add_state();
//! let tau = b.intern_action(Action::tau(ThreadId(1)));
//! let a = b.intern_action(Action::call(ThreadId(1), "a", None));
//! b.add_transition(s0, tau, s1);
//! b.add_transition(s1, a, s2);
//! let lts = b.build(s0);
//!
//! let p = partition(&lts, Equivalence::Branching);
//! assert_eq!(p.block_of(s0), p.block_of(s1));
//! assert_ne!(p.block_of(s0), p.block_of(s2));
//!
//! let q = quotient(&lts, &p);
//! assert_eq!(q.lts.num_states(), 2);
//! ```

mod compare;
mod diagnostics;
mod divergence;
mod partition;
mod quotient;
mod signatures;
pub mod snapshot;

pub use compare::{bisimilar, bisimilar_opts, bisimilar_states, BisimCheck};
pub use diagnostics::{distinguishing_formula, Formula};
pub use divergence::{
    divergence_witness, divergence_witness_governed, divergent_states, has_tau_cycle,
    starvation_witness, Lasso,
};
pub use partition::{BlockId, Partition};
pub use quotient::{div_quotient, div_quotient_opts, quotient, Quotient};
pub use signatures::{
    partition, partition_governed_opts, partition_opts, partition_with_history_opts,
    partition_with_stats, Equivalence, PartitionOptions, RefineMode, RefineStats,
    RefinementHistory,
};
