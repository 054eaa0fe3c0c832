//! Verification of linearizability and lock-freedom via branching
//! bisimulation — the two methods of Fig. 1 of the paper.
//!
//! * **Linearizability** (Theorems 5.2/5.3): compute the branching
//!   bisimulation quotients of the object system `Δ` and of its
//!   linearizable specification `Θsp`, then check trace refinement
//!   `Δ/≈ ⊑tr Θsp/≈`. No linearization points are needed, and the check
//!   runs on systems that are orders of magnitude smaller than `Δ`.
//! * **Lock-freedom** (Theorems 5.8/5.9): check divergence-sensitive
//!   branching bisimilarity between `Δ` and its own quotient (fully
//!   automatic), or between `Δ` and a hand-written abstract program, and
//!   conclude lock-freedom from the divergence-free quotient (Lemma 5.7).
//!   Against its own quotient the check is one τ-cycle search over `Δ`
//!   (Lemma 5.6).
//!
//! The entry points take explicit LTSs (produced by
//! [`bb_sim::explore_system`]) so they compose with any front end; the
//! [`verify_case`] convenience runs the full pipeline for an
//! algorithm/specification pair and powers Table II.
//!
//! # Example
//!
//! ```
//! use bb_algorithms::{specs::SeqStack, treiber::Treiber};
//! use bb_core::{verify_case, VerifyConfig};
//! use bb_sim::{AtomicSpec, Bound};
//!
//! let report = verify_case(
//!     &Treiber::new(&[1]),
//!     &AtomicSpec::new(SeqStack::new(&[1])),
//!     VerifyConfig::new(Bound::new(2, 1)),
//! )?;
//! assert!(report.linearizable());
//! assert!(report.lock_free());
//! # Ok::<(), bb_lts::ExploreError>(())
//! ```

mod linearizability;
mod lockfree;
mod progress;
mod report;
mod verdict;

/// Resource governance primitives (re-exported from `bb-lts`): budgets,
/// watchdogs, meters and the structured [`Exhausted`](budget::Exhausted)
/// error every governed stage returns.
pub use bb_lts::budget;

pub use linearizability::{verify_linearizability, verify_linearizability_opts, LinReport};
pub use lockfree::{
    verify_lock_freedom, verify_lock_freedom_opts, verify_lock_freedom_via_abstraction,
    verify_lock_freedom_via_abstraction_opts, AbstractionReport, LockFreeReport,
};
pub use progress::{
    verify_lock_freedom_ltl, verify_wait_freedom, LtlLockFreeReport, WaitFreeReport,
};
pub use report::{format_lasso, verify_case, verify_case_lts, CaseReport, VerifyConfig};
pub use verdict::{
    run_isolated, verify_case_governed, Attempt, GovernedConfig, GovernedReport, Rung, Verdict,
};
