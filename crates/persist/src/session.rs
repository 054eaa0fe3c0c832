//! The live checkpoint session.
//!
//! A [`PersistSession`] is installed once per `bbv` invocation when
//! `--checkpoint <dir>` (or `resume <dir>`) is given. It owns the in-memory
//! [`Checkpoint`] document, implements the [`bb_obs::PersistSink`] trait the
//! refinement engine talks to, and exposes `seed_lts`/`offer_lts` for the
//! exploration plug points in `bb-core` and `bbv`.
//!
//! Cut policy: the document is written (atomically, whole-file) whenever a
//! refinement round number is a multiple of `--checkpoint-every N`, whenever
//! a refinement call reaches its fixpoint, and whenever a completed LTS
//! section is offered — i.e. at every stage boundary plus every N rounds
//! inside the long stages. Cuts are a pure function of pipeline progress,
//! never of wall-clock, so the checkpoint stream is deterministic and the
//! kill/resume tests can target an exact round.
//!
//! Seeding policy: a section is only consumed when its recorded fingerprint
//! matches the object being recomputed (refinement calls) or when the whole
//! document's config tag matches the current run (exploration sections,
//! whose names encode their pipeline position). Stale or mismatched
//! sections are dropped, not trusted.

use crate::checkpoint::{Checkpoint, Section};
use bb_lts::snapshot::{decode_lts, encode_lts, fingerprint_lts};
use bb_lts::Lts;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

struct Inner {
    doc: Checkpoint,
    /// Index of the next governed refinement call (`begin_refine` order).
    refine_calls: u64,
    /// Index of the call currently running (receives `offer_round`).
    current_call: u64,
}

/// The installed checkpoint session; see the module docs.
pub struct PersistSession {
    dir: PathBuf,
    /// Persist every N-th refinement round (`0` = only at stage boundaries).
    every: u64,
    inner: Mutex<Inner>,
}

impl PersistSession {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn save(inner: &Inner, dir: &Path) {
        let span = bb_obs::span("persist.cut").with("sections", inner.doc.sections.len());
        if let Err(e) = inner.doc.save(dir) {
            // Persistence is an optimization: a failing disk degrades the
            // run to "no checkpoint", it does not fail verification.
            bb_obs::diag!("persist: checkpoint write failed: {e}");
        }
        drop(span);
    }

    /// Returns the completed exploration section `name` from the loaded
    /// checkpoint, if present and intact.
    pub fn seed_lts(&self, name: &str) -> Option<Lts> {
        let key = format!("lts/{name}");
        let mut inner = self.lock();
        let section = inner.doc.sections.get(&key)?;
        match decode_lts(&section.payload)
            .filter(|l| fingerprint_lts(l) == section.fingerprint)
        {
            Some(lts) => {
                bb_obs::hot::CKPT_SEED_HITS.incr();
                Some(lts)
            }
            None => {
                // Corrupt payload: drop it so it is neither trusted again
                // nor re-persisted.
                inner.doc.sections.remove(&key);
                None
            }
        }
    }

    /// Records the completed exploration section `name` and cuts a
    /// checkpoint (stage boundaries are always cut points).
    pub fn offer_lts(&self, name: &str, lts: &Lts) {
        let key = format!("lts/{name}");
        let mut inner = self.lock();
        if inner.doc.sections.contains_key(&key) {
            return;
        }
        inner.doc.sections.insert(
            key,
            Section {
                fingerprint: fingerprint_lts(lts),
                payload: encode_lts(lts),
            },
        );
        Self::save(&inner, &self.dir);
    }

    /// Forces a final cut (end of run).
    pub fn flush(&self) {
        let inner = self.lock();
        Self::save(&inner, &self.dir);
    }
}

impl bb_obs::PersistSink for PersistSession {
    fn begin_refine(&self, fingerprint: u64) -> Option<Vec<u8>> {
        let mut inner = self.lock();
        let idx = inner.refine_calls;
        inner.refine_calls += 1;
        inner.current_call = idx;
        let key = format!("refine/{idx}");
        match inner.doc.sections.get(&key) {
            Some(s) if s.fingerprint == fingerprint => Some(s.payload.clone()),
            Some(_) => {
                // The call sequence diverged from the checkpointed run
                // (e.g. resume with different flags): the stored partition
                // belongs to some other refinement — discard it.
                inner.doc.sections.remove(&key);
                None
            }
            None => None,
        }
    }

    fn offer_round(
        &self,
        fingerprint: u64,
        round: u64,
        stable: bool,
        encode: &mut dyn FnMut() -> Vec<u8>,
    ) {
        let cut = stable || (self.every > 0 && round.is_multiple_of(self.every));
        if !cut {
            return;
        }
        let payload = encode();
        let mut inner = self.lock();
        let key = format!("refine/{}", inner.current_call);
        inner.doc.sections.insert(
            key,
            Section {
                fingerprint,
                payload,
            },
        );
        Self::save(&inner, &self.dir);
    }
}

static ACTIVE: Mutex<Option<Arc<PersistSession>>> = Mutex::new(None);

/// Installs a checkpoint session over `dir`, loading any intact checkpoint
/// with a matching `config_tag` (sections from a different configuration
/// are ignored and overwritten). `argv` and the tag are recorded in every
/// cut so `bbv resume` can replay the invocation.
pub fn install(
    dir: &Path,
    every: u64,
    argv: Vec<String>,
    config_tag: u64,
) -> std::io::Result<Arc<PersistSession>> {
    std::fs::create_dir_all(dir)?;
    let loaded = Checkpoint::load(dir).filter(|c| c.config_tag == config_tag);
    let doc = Checkpoint {
        argv,
        config_tag,
        // Prior sections stay valid for the same config: carrying them over
        // means a second crash after resume still seeds from the furthest
        // point ever reached.
        sections: loaded.map(|c| c.sections).unwrap_or_default(),
    };
    let session = Arc::new(PersistSession {
        dir: dir.to_path_buf(),
        every,
        inner: Mutex::new(Inner {
            doc,
            refine_calls: 0,
            current_call: 0,
        }),
    });
    bb_obs::set_persist_sink(session.clone());
    *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = Some(session.clone());
    Ok(session)
}

/// The installed session, if any.
pub fn active() -> Option<Arc<PersistSession>> {
    ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Tears the session down (final flush included).
pub fn clear() {
    bb_obs::clear_persist_sink();
    let prev = ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(s) = prev {
        s.flush();
    }
}

/// Reads the argv recorded in the checkpoint at `dir` (for `bbv resume`).
pub fn recorded_argv(dir: &Path) -> Option<Vec<String>> {
    Checkpoint::load(dir).map(|c| c.argv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_obs::PersistSink;
    use bb_lts::{Action, LtsBuilder, ThreadId};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bb-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_lts() -> Lts {
        let mut b = LtsBuilder::new();
        let s0 = b.add_state();
        let s1 = b.add_state();
        let a = b.intern_action(Action::call(ThreadId(1), "a", None));
        b.add_transition(s0, a, s1);
        b.build(s0)
    }

    fn fresh(dir: &Path, every: u64, tag: u64) -> Arc<PersistSession> {
        std::fs::create_dir_all(dir).unwrap();
        let loaded = Checkpoint::load(dir).filter(|c| c.config_tag == tag);
        Arc::new(PersistSession {
            dir: dir.to_path_buf(),
            every,
            inner: Mutex::new(Inner {
                doc: Checkpoint {
                    argv: vec!["test".into()],
                    config_tag: tag,
                    sections: loaded.map(|c| c.sections).unwrap_or_default(),
                },
                refine_calls: 0,
                current_call: 0,
            }),
        })
    }

    #[test]
    fn lts_sections_roundtrip_across_sessions() {
        let dir = tmp("lts");
        let lts = tiny_lts();
        let s1 = fresh(&dir, 1, 7);
        assert!(s1.seed_lts("b1/imp").is_none());
        s1.offer_lts("b1/imp", &lts);
        // A second session over the same dir and config sees the section.
        let s2 = fresh(&dir, 1, 7);
        let seeded = s2.seed_lts("b1/imp").expect("section seeds");
        assert_eq!(seeded.num_states(), lts.num_states());
        assert_eq!(bb_lts::snapshot::encode_lts(&seeded), bb_lts::snapshot::encode_lts(&lts));
        // A different config tag must not see it.
        let s3 = fresh(&dir, 1, 8);
        assert!(s3.seed_lts("b1/imp").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refine_rounds_cut_on_schedule_and_seed_by_call_index() {
        let dir = tmp("refine");
        let s1 = fresh(&dir, 2, 1);
        assert!(s1.begin_refine(0xAA).is_none());
        let mut encodes = 0;
        for round in 1..=5u64 {
            s1.offer_round(0xAA, round, round == 5, &mut || {
                encodes += 1;
                format!("round-{round}").into_bytes()
            });
        }
        // Rounds 2, 4 (every=2) and 5 (stable) are cut.
        assert_eq!(encodes, 3);
        // Same call index + fingerprint seeds; wrong fingerprint does not.
        let s2 = fresh(&dir, 2, 1);
        assert_eq!(s2.begin_refine(0xAA), Some(b"round-5".to_vec()));
        let s3 = fresh(&dir, 2, 1);
        assert!(s3.begin_refine(0xBB).is_none(), "fingerprint mismatch");
        // The mismatch dropped the section: a subsequent matching call in
        // the same session sees nothing stale.
        assert!(s3.begin_refine(0xAA).is_none(), "call index moved on");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lts_payload_is_dropped_not_trusted() {
        let dir = tmp("corrupt-lts");
        let s1 = fresh(&dir, 1, 3);
        s1.offer_lts("b1/imp", &tiny_lts());
        // Corrupt the stored payload via a direct document rewrite.
        let mut doc = Checkpoint::load(&dir).unwrap();
        let section = doc.sections.get_mut("lts/b1/imp").unwrap();
        section.payload[10] ^= 0xFF;
        doc.save(&dir).unwrap();
        let s2 = fresh(&dir, 1, 3);
        assert!(s2.seed_lts("b1/imp").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
