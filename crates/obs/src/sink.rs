//! Checkpoint sink indirection.
//!
//! `bb-persist` owns checkpoint files, but the data worth checkpointing is
//! produced deep inside `bb-bisim`'s refinement loops — and `bb-bisim`
//! cannot depend on `bb-persist` (the persistence layer needs `Partition`
//! and would create a cycle). The seam lives here, in the one crate every
//! layer already depends on: the refinement engine talks to an abstract
//! [`PersistSink`] in pre-encoded bytes, and `bb-persist` installs the
//! concrete implementation at session start.
//!
//! The protocol mirrors how refinement actually runs. Each governed
//! refinement call announces itself with [`PersistSink::begin_refine`],
//! keyed by a structural fingerprint of the system being refined; the sink
//! may answer with a previously checkpointed `(round, partition)` payload
//! to seed from. After every completed round the engine calls
//! [`PersistSink::offer_round`] with a *lazy* encoder — the sink decides
//! whether this round is a checkpoint boundary (`--checkpoint-every N`)
//! and only then pays for encoding and the atomic file write.
//!
//! When no sink is installed (`--checkpoint` not given) the cost is one
//! relaxed atomic load per round.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Receiver of checkpointable refinement progress. Implemented by
/// `bb-persist`; called by the refinement engine in `bb-bisim`.
///
/// All payloads are opaque byte strings encoded by `bb-bisim`'s snapshot
/// codec: the sink stores and returns them without interpretation, so the
/// two crates only share this trait and the fingerprint convention.
pub trait PersistSink: Send + Sync {
    /// Announces the start of a governed refinement call over a system with
    /// the given structural `fingerprint`. Returns a previously stored
    /// round payload to seed from, or `None` to start from the universal
    /// partition. The sink must only return a payload recorded under the
    /// same fingerprint **and** call position — seeding from any other
    /// partition would converge to a wrong fixpoint.
    fn begin_refine(&self, fingerprint: u64) -> Option<Vec<u8>>;

    /// Offers the state after one completed refinement round. `round` is
    /// 1-based; `stable` marks the fixpoint round. `encode` produces the
    /// round payload on demand — implementations should only invoke it when
    /// they actually intend to persist this round.
    fn offer_round(&self, fingerprint: u64, round: u64, stable: bool, encode: &mut dyn FnMut() -> Vec<u8>);
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn PersistSink>>> = Mutex::new(None);

/// Installs `sink` as the process-wide checkpoint receiver (replacing any
/// previous one). Called by `bb-persist` when a checkpoint dir is configured.
pub fn set_persist_sink(sink: Arc<dyn PersistSink>) {
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    INSTALLED.store(true, Ordering::Release);
}

/// Removes the installed sink (end of session / tests).
pub fn clear_persist_sink() {
    INSTALLED.store(false, Ordering::Release);
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The installed sink, if any. One relaxed load when none is installed.
pub fn persist_sink() -> Option<Arc<dyn PersistSink>> {
    if !INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    SINK.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct Recorder {
        begins: AtomicU64,
        rounds: AtomicU64,
        seed: Option<Vec<u8>>,
    }

    impl PersistSink for Recorder {
        fn begin_refine(&self, _fingerprint: u64) -> Option<Vec<u8>> {
            self.begins.fetch_add(1, Ordering::Relaxed);
            self.seed.clone()
        }

        fn offer_round(
            &self,
            _fingerprint: u64,
            round: u64,
            _stable: bool,
            encode: &mut dyn FnMut() -> Vec<u8>,
        ) {
            // Persist every other round: the lazy encoder must only run then.
            if round.is_multiple_of(2) {
                let _ = encode();
                self.rounds.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn install_roundtrip_and_lazy_encode() {
        // Serialize against other tests touching the global sink.
        let rec = Arc::new(Recorder {
            begins: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            seed: Some(vec![1, 2, 3]),
        });
        set_persist_sink(rec.clone());
        let sink = persist_sink().expect("sink installed");
        assert_eq!(sink.begin_refine(42), Some(vec![1, 2, 3]));
        let mut encodes = 0;
        for round in 1..=4 {
            sink.offer_round(42, round, round == 4, &mut || {
                encodes += 1;
                Vec::new()
            });
        }
        assert_eq!(encodes, 2, "encoder runs only on persisted rounds");
        assert_eq!(rec.begins.load(Ordering::Relaxed), 1);
        assert_eq!(rec.rounds.load(Ordering::Relaxed), 2);
        clear_persist_sink();
        assert!(persist_sink().is_none());
    }
}
