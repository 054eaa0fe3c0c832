//! The paper's 14 benchmark algorithms, their sequential specifications and
//! abstract programs.
//!
//! Every algorithm is modeled as a [`bb_sim::ObjectAlgorithm`]: a per-thread
//! program-counter machine in which each shared-memory access (read, write,
//! CAS, lock acquisition) is one internal step, mirroring the granularity of
//! the paper's LNT models. Internal steps are tagged with source-line labels
//! (`"L8"`, `"L20"`, …) matching the listing in Fig. 5 where the paper
//! refers to specific lines.
//!
//! | # | Case study (Table II)        | Module              |
//! |---|------------------------------|---------------------|
//! | 1 | Treiber stack                | [`treiber`]         |
//! | 2 | Treiber stack + HP (Michael) | [`treiber_hp`]      |
//! | 3 | Treiber stack + HP (Fu et al., lock-freedom bug) | [`treiber_hp_fu`] |
//! | 4 | MS lock-free queue           | [`ms_queue`]        |
//! | 5 | DGLM queue                   | [`dglm_queue`]      |
//! | 6 | CCAS                         | [`ccas`]            |
//! | 7 | RDCSS                        | [`rdcss`]           |
//! | 8 | NewCompareAndSet             | [`newcas`]          |
//! | 9 | HM lock-free list (buggy + revised) | [`hm_list`]  |
//! |10 | HW queue (lock-freedom violation)   | [`hw_queue`]  |
//! |11 | HSY elimination stack        | [`hsy_stack`]       |
//! |12 | Heller et al. lazy list      | [`lazy_list`]       |
//! |13 | Optimistic list              | [`optimistic_list`] |
//! |14 | Fine-grained synchronized list | [`fine_list`]     |
//!
//! [`roster`] names the 19 objects the tools accept and builds each one
//! with its specification.
//!
//! Sequential specifications live in [`specs`]; the hand-written abstract
//! programs of Section VI-D (coarse-grained objects with more than one
//! atomic block, used with Theorem 5.8) live in [`abstracts`].
//!
//! Two blocking baselines extend the suite beyond the paper:
//! [`coarse::CoarseLocked`] (any sequential spec behind one global lock)
//! and [`two_lock_queue::TwoLockQueue`] (the blocking companion algorithm
//! of the PODC'96 MS-queue paper).

pub mod abstracts;
pub mod ccas;
pub mod coarse;
pub mod dglm_queue;
pub mod fine_list;
pub mod hm_list;
pub mod hsy_stack;
pub mod hw_queue;
pub mod lazy_list;
pub mod ms_queue;
pub mod newcas;
pub mod optimistic_list;
pub mod rdcss;
pub mod roster;
pub mod specs;
pub mod treiber;
pub mod treiber_hp;
pub mod treiber_hp_fu;
pub mod two_lock_queue;

mod list_node;
pub use list_node::ListNode;
