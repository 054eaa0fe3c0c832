//! Disk tier for cold state-arena segments (`--spill DIR`).
//!
//! [`SpillDir`] implements [`bb_lts::SpillBackend`]: each arena segment
//! becomes one file `seg-NNNNNNNN.bbp`, written through
//! [`write_atomic`](crate::write_atomic) so a kill mid-spill never leaves a
//! truncated segment behind — the store keeps the segment in core on any
//! write failure, so crash-safety composes with graceful degradation.
//!
//! The bytes are the store's own layout: restart groups, each followed by
//! its checksum. A probe reads one group (a seek and an exact read) and the
//! store verifies it, so these files carry no frame of their own.
//!
//! Each read opens the file afresh, so no file position is shared between
//! readers. One `SpillDir` serves every exploration of a governed ladder and
//! segment numbers restart at 0 in each store, so a cached handle could read
//! a file that has since been replaced.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::atomic::write_atomic;

/// A directory of spilled arena segments.
#[derive(Debug, Clone)]
pub struct SpillDir {
    dir: PathBuf,
}

impl SpillDir {
    /// Spills into `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillDir { dir: dir.into() }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, index: u32) -> PathBuf {
        self.dir.join(format!("seg-{index:08}.bbp"))
    }
}

impl bb_lts::SpillBackend for SpillDir {
    fn write_segment(&self, index: u32, bytes: &[u8]) -> io::Result<()> {
        write_atomic(&self.segment_path(index), bytes)
    }

    fn read_at(&self, index: u32, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut file = File::open(self.segment_path(index))?;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_lts::SpillBackend;

    #[test]
    fn segments_round_trip_through_disk() {
        let dir = tempdir("spill-rt");
        let spill = SpillDir::new(&dir);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        spill.write_segment(3, &payload).unwrap();
        for range in [0..10_000, 0..1, 4321..4700, 9_992..10_000] {
            let mut buf = vec![0; range.len()];
            spill.read_at(3, range.start as u64, &mut buf).unwrap();
            assert_eq!(buf, payload[range]);
        }
        // Missing segments surface as errors, not empty data.
        assert!(spill.read_at(4, 0, &mut [0; 1]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_is_rejected() {
        let dir = tempdir("spill-corrupt");
        let spill = SpillDir::new(&dir);
        spill.write_segment(0, b"payload-bytes").unwrap();
        // A read past the end of the file is an error, never a short read.
        assert!(spill.read_at(0, 8, &mut [0; 6]).is_err());
        assert!(spill.read_at(0, 14, &mut [0; 1]).is_err());
        // So is any range of a segment truncated on disk.
        let path = dir.join("seg-00000000.bbp");
        std::fs::write(&path, b"payload").unwrap();
        assert!(spill.read_at(0, 0, &mut [0; 13]).is_err());
        let mut buf = [0; 7];
        spill.read_at(0, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bb-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
