//! bb-serve: verification-as-a-service for the bbverify workspace.
//!
//! Two halves:
//!
//! * [`runner`] — the shared execution core. Every verification mode
//!   (verify / quotient / check, all 19 roster algorithms)
//!   runs through [`runner::execute`] from a declarative [`spec::JobSpec`],
//!   with the bb-persist result cache consulted before computing and
//!   written after. The `bbv` CLI calls the same function the daemon's
//!   workers do, which is what makes the served-equals-direct byte
//!   guarantee hold *by construction* rather than by testing alone.
//!
//! * the daemon — [`daemon::serve`] runs a TCP server speaking
//!   newline-delimited JSON ([`proto`], schema `bb-serve/v1`): bounded
//!   priority [`queue`] with cache-backed admission and
//!   backpressure, a crash-safe submit [`journal`], a worker pool under
//!   per-job cancellation, and live progress streaming to `watch`ing
//!   clients via the [`hub`]. [`client`] is the matching CLI side.
//!
//! Everything is std-only, like the rest of the workspace.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod hub;
pub mod journal;
pub mod proto;
pub mod queue;
pub mod runner;
pub mod spec;
pub mod telemetry;

pub use client::{discover_addr, Client, JobResult};
pub use daemon::{serve, ServeConfig, ADDR_FILE};
pub use telemetry::{FlightRecorder, TeeSink, FLIGHT_SCHEMA, METRICS_ADDR_FILE};
pub use runner::{
    execute, CheckpointCtl, ExecResult, RunCtl, EXIT_INCONCLUSIVE, EXIT_PROVED, EXIT_REFUTED,
    EXIT_USAGE,
};
pub use spec::{known_algorithm, Command, JobSpec};
