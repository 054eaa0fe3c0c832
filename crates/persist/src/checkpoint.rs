//! The checkpoint document: everything a killed run needs to resume.
//!
//! A checkpoint directory holds one file, `checkpoint.bbp`, overwritten
//! atomically at every cut. The document records:
//!
//! * the original **argv** — `bbv resume <dir>` replays it through the
//!   normal option parser (appending any override flags), so resume
//!   inherits every setting without a second source of truth;
//! * a **config tag** — a hash of the semantically relevant configuration
//!   (case, bound, equivalence, format version;
//!   *not* budgets, jobs, or output paths, which cannot change results).
//!   A run only loads sections from a checkpoint whose tag matches its
//!   own, which is what makes `resume --deadline 60` sound while a
//!   checkpoint from a different case is silently ignored;
//! * named **sections**, each an opaque payload with a fingerprint:
//!   completed exploration sections (`lts/...`, keyed by pipeline
//!   position) and the latest partition per refinement call
//!   (`refine/<call index>`).
//!
//! Loading is total: any corruption — bad frame, truncated section,
//! unknown version — makes the whole document unusable and the run starts
//! fresh. There is deliberately no partial salvage; checkpoints are an
//! optimization, correctness never depends on them.

use crate::atomic::write_atomic;
use crate::format::{frame, unframe, Dec, Enc};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// File name of the checkpoint document inside a `--checkpoint` directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bbp";

/// One named, fingerprinted piece of resumable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Structural fingerprint of the object the payload belongs to
    /// (refinement calls) or 0 where the config tag alone decides validity
    /// (exploration sections).
    pub fingerprint: u64,
    /// Opaque payload, encoded by the producing crate's snapshot codec.
    pub payload: Vec<u8>,
}

/// The complete resumable state of one `bbv` invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// The argv of the original run (program name excluded).
    pub argv: Vec<String>,
    /// Hash of the result-relevant configuration; see the module docs.
    pub config_tag: u64,
    /// Sections in name order (BTreeMap keeps encoding deterministic).
    pub sections: BTreeMap<String, Section>,
}

impl Checkpoint {
    /// Serializes to the framed container.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.config_tag);
        e.u32(self.argv.len() as u32);
        for a in &self.argv {
            e.str(a);
        }
        e.u32(self.sections.len() as u32);
        for (name, s) in &self.sections {
            e.str(name);
            e.u64(s.fingerprint);
            e.bytes(&s.payload);
        }
        frame(&e.0)
    }

    /// Decodes a framed checkpoint; `None` on any corruption.
    pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
        let payload = unframe(bytes)?;
        let mut d = Dec::new(payload);
        let config_tag = d.u64()?;
        let argc = d.u32()?;
        let mut argv = Vec::new();
        for _ in 0..argc {
            argv.push(d.str()?);
        }
        let count = d.u32()?;
        let mut sections = BTreeMap::new();
        for _ in 0..count {
            let name = d.str()?;
            let fingerprint = d.u64()?;
            let payload = d.bytes()?.to_vec();
            sections.insert(name, Section { fingerprint, payload });
        }
        d.finish()?;
        Some(Checkpoint {
            argv,
            config_tag,
            sections,
        })
    }

    /// Loads the checkpoint document from `dir`, or `None` if it is
    /// missing or corrupt (stale temp files are swept either way).
    pub fn load(dir: &Path) -> Option<Checkpoint> {
        crate::atomic::sweep_temp_files(dir);
        let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).ok()?;
        let ckpt = Checkpoint::decode(&bytes);
        if ckpt.is_none() {
            bb_obs::diag!("persist: ignoring corrupt checkpoint in {}", dir.display());
        }
        ckpt
    }

    /// Atomically writes the checkpoint document into `dir`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let bytes = self.encode();
        bb_obs::hot::CKPT_BYTES.add(bytes.len() as u64);
        bb_obs::hot::CKPT_SECTIONS.add(self.sections.len() as u64);
        write_atomic(&dir.join(CHECKPOINT_FILE), &bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint {
            argv: vec!["verify".into(), "treiber".into(), "--bound".into(), "2,1".into()],
            config_tag: 0xfeed,
            sections: BTreeMap::new(),
        };
        c.sections.insert(
            "lts/b2-1/imp".into(),
            Section { fingerprint: 0, payload: vec![1, 2, 3] },
        );
        c.sections.insert(
            "refine/0".into(),
            Section { fingerprint: 42, payload: vec![9; 100] },
        );
        c
    }

    #[test]
    fn document_roundtrip() {
        let c = sample();
        assert_eq!(Checkpoint::decode(&c.encode()), Some(c));
    }

    #[test]
    fn every_corruption_is_detected() {
        let enc = sample().encode();
        for i in 0..enc.len() {
            let mut m = enc.clone();
            m[i] ^= 0x10;
            assert!(Checkpoint::decode(&m).is_none(), "flip at {i}");
        }
    }

    #[test]
    fn save_load_roundtrip_and_corrupt_load_is_none() {
        let dir = std::env::temp_dir().join(format!("bb-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let c = sample();
        c.save(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir), Some(c));
        // Corrupt the file on disk: load degrades to None, never panics.
        let path = dir.join(CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(Checkpoint::load(&dir), None);
        assert_eq!(Checkpoint::load(&dir.join("missing")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
