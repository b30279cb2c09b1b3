//! Segment files: the append-only units of the record log.
//!
//! A shard's log is a directory of `seg-NNNNN.cbl` files, each a plain
//! concatenation of [frames](crate::frame). Writers only ever append to the
//! highest-numbered segment and roll to a fresh one once it passes the
//! configured target size; readers replay segments in index order. Only the
//! last segment can legitimately end in a torn tail (a crash mid-append) —
//! a bad frame anywhere else is corruption, which quarantines the shard.
//!
//! All I/O goes through the store's [`Vfs`](crate::vfs::Vfs) so the
//! crash-point sweep can drive it through
//! [`FaultVfs`](crate::vfs::FaultVfs).

use crate::vfs::{Vfs, VfsFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of segment `index` (fixed-width so lexicographic order is
/// numeric order).
pub fn segment_file_name(index: u32) -> String {
    format!("seg-{index:05}.cbl")
}

/// Parse a segment file name back to its index.
pub fn parse_segment_name(name: &str) -> Option<u32> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".cbl")?;
    if stem.len() != 5 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// Segment files under `dir`, sorted by index. Non-segment files are
/// ignored (editors, temp files).
pub fn list_segments(vfs: &dyn Vfs, dir: &Path) -> std::io::Result<Vec<(u32, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.read_dir_names(dir)? {
        if let Some(index) = parse_segment_name(&name) {
            out.push((index, dir.join(name)));
        }
    }
    out.sort_by_key(|(i, _)| *i);
    Ok(out)
}

/// Appender over one segment file, writing through the store's VFS.
#[derive(Debug)]
pub struct SegmentWriter {
    file: Box<dyn VfsFile>,
    index: u32,
    bytes: u64,
}

impl SegmentWriter {
    /// Create segment `index` in `dir` (fails if it already exists — a
    /// writer never silently clobbers a segment).
    pub fn create(vfs: &Arc<dyn Vfs>, dir: &Path, index: u32) -> std::io::Result<SegmentWriter> {
        let file = vfs.create_new(&dir.join(segment_file_name(index)))?;
        Ok(SegmentWriter {
            file,
            index,
            bytes: 0,
        })
    }

    /// Reopen an existing segment for append; `bytes` is its current
    /// (post-recovery) length.
    pub fn open_append(
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        index: u32,
        bytes: u64,
    ) -> std::io::Result<SegmentWriter> {
        let file = vfs.open_append(path)?;
        Ok(SegmentWriter { file, index, bytes })
    }

    /// Append one encoded frame; returns the frame's size in bytes.
    pub fn append(&mut self, frame: &[u8]) -> std::io::Result<u64> {
        self.file.write_all(frame)?;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Flush buffered frames to the OS.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    /// Flush and fsync — the durable-write barrier.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync()
    }

    /// This segment's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Bytes written to this segment so far (including pre-existing bytes
    /// when reopened).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sort() {
        assert_eq!(segment_file_name(0), "seg-00000.cbl");
        assert_eq!(segment_file_name(42), "seg-00042.cbl");
        assert_eq!(parse_segment_name("seg-00042.cbl"), Some(42));
        assert_eq!(parse_segment_name("seg-42.cbl"), None);
        assert_eq!(parse_segment_name("seg-00042.tmp"), None);
        assert_eq!(parse_segment_name("blob-00042.cbl"), None);
        assert!(segment_file_name(9) < segment_file_name(10));
    }
}
