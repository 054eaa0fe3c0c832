//! # bb-persist — crash-safe persistence for the verification pipeline
//!
//! The paper's workloads run for hours; before this crate, a budget trip or
//! a kill mid-refinement discarded all of that work. `bb-persist` makes the
//! pipeline restartable and memoizable, leaning on the workspace's
//! determinism guarantee (bit-identical results at any `--jobs`) to keep
//! both features sound:
//!
//! * **Checkpoint/resume** ([`checkpoint`], [`session`]) — completed
//!   exploration sections and the latest partition of every refinement call
//!   are written to a versioned, checksummed document via atomic
//!   temp-file+rename; `bbv resume <dir>` replays the recorded argv and
//!   re-runs the pipeline, which transparently seeds from the checkpoint
//!   and converges to the byte-identical verdict of an uninterrupted run.
//! * **Result cache** ([`cache`]) — a content-addressed store memoizing
//!   whole command outcomes (stdout, exit code, artifacts) keyed by the
//!   result-relevant configuration; hits replay byte-identically.
//! * **Atomic writes** ([`atomic`]) — the temp-file+rename writer shared by
//!   every file output in the workspace.
//!
//! Failure philosophy: persistence is an *optimization*. Every corrupt,
//! truncated, stale, or version-skewed file degrades to "recompute"; no
//! code path in this crate may panic a verification run or change its
//! output. Fault injection (`BB_FAULT`, see `bb_obs::fault`) exercises
//! exactly those degradations deterministically.

pub mod atomic;
pub mod cache;
pub mod checkpoint;
pub mod format;
pub mod session;
pub mod spill;

pub use atomic::{sweep_temp_files, sweep_temp_files_older_than, write_atomic, TEMP_GRACE};
pub use cache::{Cache, CacheEntry, CacheStats};
pub use checkpoint::{Checkpoint, Section, CHECKPOINT_FILE};
pub use format::FORMAT_VERSION;
pub use session::{active, clear, install, recorded_argv, PersistSession};
pub use spill::SpillDir;
