//! Content-addressed blob pack for captured artifacts (raw messages,
//! screenshots).
//!
//! Every blob is addressed by the 128-bit FNV fingerprint of its bytes —
//! the same `fnv128` the pipeline already uses for message content hashes
//! and artifact-decode cache keys, so a record's `content_hash` doubles as
//! its raw message's blob address. Identical bytes are stored once no
//! matter how many records or campaigns reference them.
//!
//! # Layout
//!
//! All blobs of a store live in one append-only **pack** at the store
//! root, next to a small **hint index**; both are created by the store's
//! first blob write:
//!
//! ```text
//! blobs-NNNNN.pack   frame := hash:u128le  len:u32le  crc32:u32le  bytes:[u8; len]
//! blobs-NNNNN.idx    entry := hash:u128le  offset:u64le  len:u32le  crc32:u32le
//! BLOBS              name of the active generation ("blobs-NNNNN");
//!                    absent until the first GC, meaning generation 0
//! ```
//!
//! A pack frame's `crc32` covers its bytes; an index entry's covers the
//! entry's first 28 bytes. Index entries are contiguous: entry *i* points
//! at the frame that starts where entry *i − 1*'s ends. Frames carry no
//! offsets, so a frame copies byte for byte into another pack.
//!
//! # Open
//!
//! [`BlobStore::open`] reads the index, never the blob bytes. An entry
//! counts only if its CRC holds, it starts where the previous one ended
//! and its extent lies inside the pack; the first rejected entry ends the
//! index, which is truncated there. Pack bytes past the last accepted
//! entry — frames a crash left unindexed, or the whole pack when the
//! index is missing — are re-walked frame by frame (the slow path): each
//! complete, CRC- and hash-clean frame is indexed again, and the first
//! torn frame and everything after it is truncated away.
//!
//! # Durability discipline
//!
//! [`BlobStore::put`] appends the frame to the pack and does not fsync;
//! index entries are kept in memory until the next barrier.
//! [`BlobStore::sync`] writes them, then fsyncs the pack and then the
//! index. [`Store::sync`](crate::Store::sync) runs it *before* the
//! segments sync, so a frame never becomes durable ahead of the evidence
//! it references: the worst a crash leaves is an *orphan* blob (no
//! referencing frame), which
//! [`Store::gc_orphan_blobs`](crate::Store::gc_orphan_blobs) collects.
//! The only directory fsyncs are the ones that make a newly created pack
//! durable: the first barrier with data after a store is created, and
//! GC before it switches to a new generation. A failed append truncates
//! the pack back to its last complete frame, so a transient write fault
//! costs only the blob being written.
//!
//! Orphan GC ([`BlobStore::remove_except`]) copies the live frames into a
//! new generation, fsyncs it, and switches `BLOBS` to it with the same
//! temp + fsync + rename + directory-fsync swap shards use for `CURRENT`:
//! a crash at any point leaves either the old blob set or the new one.

use crate::crc::crc32;
use crate::frame::MAX_PAYLOAD_LEN;
use crate::store::corrupt;
use crate::vfs::{Vfs, VfsFile};
use cb_artifacts::fingerprint::fnv128;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes of a pack frame before the blob bytes (`hash` + `len` + `crc32`).
pub const PACK_HEADER_LEN: usize = 24;

/// Bytes of one index entry (`hash` + `offset` + `len` + `crc32`).
pub const INDEX_ENTRY_LEN: usize = 32;

/// The generation pointer's file name.
const POINTER: &str = "BLOBS";

/// The generation pointer's temp file (a swap in progress).
const POINTER_TMP: &str = "BLOBS.tmp";

/// Name of generation `n` (the pointer's content, the files' stem).
fn generation_name(n: u32) -> String {
    format!("blobs-{n:05}")
}

/// Parse a generation name.
fn parse_generation(stem: &str) -> Option<u32> {
    let digits = stem.strip_prefix("blobs-")?;
    if digits.len() != 5 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// File name of generation `n`'s pack.
pub fn pack_file_name(n: u32) -> String {
    format!("{}.pack", generation_name(n))
}

/// File name of generation `n`'s index.
pub fn index_file_name(n: u32) -> String {
    format!("{}.idx", generation_name(n))
}

/// The generation a pack or index file belongs to.
fn parse_pack_file(name: &str) -> Option<u32> {
    let stem = name
        .strip_suffix(".pack")
        .or_else(|| name.strip_suffix(".idx"))?;
    parse_generation(stem)
}

/// Where one blob's frame sits in the pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    /// Byte offset of the frame header.
    offset: u64,
    /// Blob bytes (the frame is [`PACK_HEADER_LEN`] longer).
    len: u32,
}

impl Extent {
    fn end(self) -> u64 {
        self.offset + PACK_HEADER_LEN as u64 + u64::from(self.len)
    }
}

/// Encode one pack frame.
fn encode_pack_frame(hash: u128, bytes: &[u8], len: u32) -> Vec<u8> {
    let mut frame = Vec::with_capacity(PACK_HEADER_LEN + bytes.len());
    frame.extend_from_slice(&hash.to_le_bytes());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(bytes).to_le_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// Decode a pack frame header into `(hash, len, crc)`.
fn decode_pack_header(header: &[u8]) -> (u128, u32, u32) {
    let hash = u128::from_le_bytes(header[0..16].try_into().expect("16 bytes"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes"));
    (hash, len, crc)
}

/// Encode one index entry.
fn encode_entry(hash: u128, extent: Extent) -> [u8; INDEX_ENTRY_LEN] {
    let mut entry = [0u8; INDEX_ENTRY_LEN];
    entry[0..16].copy_from_slice(&hash.to_le_bytes());
    entry[16..24].copy_from_slice(&extent.offset.to_le_bytes());
    entry[24..28].copy_from_slice(&extent.len.to_le_bytes());
    let crc = crc32(&entry[..28]);
    entry[28..32].copy_from_slice(&crc.to_le_bytes());
    entry
}

/// Decode one index entry; `None` when it is short or its CRC fails.
fn decode_entry(entry: &[u8]) -> Option<(u128, Extent)> {
    if entry.len() != INDEX_ENTRY_LEN {
        return None;
    }
    let crc = u32::from_le_bytes(entry[28..32].try_into().expect("4 bytes"));
    if crc32(&entry[..28]) != crc {
        return None;
    }
    let hash = u128::from_le_bytes(entry[0..16].try_into().expect("16 bytes"));
    let offset = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(entry[24..28].try_into().expect("4 bytes"));
    Some((hash, Extent { offset, len }))
}

/// One verification failure found by [`BlobStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobFault {
    /// The address the blob was stored under.
    pub hash: u128,
    /// What went wrong.
    pub reason: String,
}

/// The deduplicating blob pack.
#[derive(Debug)]
pub struct BlobStore {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    generation: u32,
    known: HashMap<u128, Extent>,
    /// Append handles on the active pack and index, opened on the first
    /// write; a new store creates both files then.
    pack: Option<Box<dyn VfsFile>>,
    index: Option<Box<dyn VfsFile>>,
    /// A failed write could not be rolled back: every later write fails
    /// until the store is reopened.
    lost: bool,
    /// Pack bytes through the last complete frame.
    pack_len: u64,
    /// Index bytes written to the file.
    index_len: u64,
    /// Index entries not yet written (the next [`sync`](Self::sync)
    /// writes them).
    index_pending: Vec<u8>,
    /// Pack or index bytes since the last barrier.
    dirty: bool,
    /// A pack or index file was created and its directory entry is not
    /// yet durable: the next barrier fsyncs the directory after the pack.
    pending_dir_sync: bool,
}

impl BlobStore {
    /// Open the blob pack under `root` and load its index; a new store's
    /// pack is created by its first write. Leftovers of an interrupted GC
    /// — other generations' files, a stray `BLOBS.tmp` — are removed. See
    /// the module docs for the open-time checks.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed `BLOBS` pointer, or a pointer naming a
    /// pack that does not exist.
    pub fn open(vfs: Arc<dyn Vfs>, root: &Path) -> io::Result<BlobStore> {
        vfs.create_dir_all(root)?;
        let pointer = root.join(POINTER);
        let pointed = vfs.exists(&pointer);
        let generation = if pointed {
            let text = String::from_utf8_lossy(&vfs.read(&pointer)?)
                .trim()
                .to_string();
            parse_generation(&text)
                .ok_or_else(|| corrupt(&pointer, format!("bad blob generation {text:?}")))?
        } else {
            0
        };
        for name in vfs.read_dir_names(root)? {
            if name == POINTER_TMP || parse_pack_file(&name).is_some_and(|g| g != generation) {
                vfs.remove_file(&root.join(name))?;
            }
        }

        let pack_path = root.join(pack_file_name(generation));
        let index_path = root.join(index_file_name(generation));
        let file_len = if vfs.exists(&pack_path) {
            vfs.len(&pack_path)?
        } else if pointed {
            return Err(corrupt(&pointer, "names a missing blob pack"));
        } else {
            // A new store. An index without its pack indexes nothing.
            if vfs.exists(&index_path) {
                vfs.remove_file(&index_path)?;
            }
            0
        };
        // A missing index is a hint lost: the pack is re-walked below.
        let index_bytes = if vfs.exists(&index_path) {
            vfs.read(&index_path)?
        } else {
            Vec::new()
        };
        let mut known = HashMap::with_capacity(index_bytes.len() / INDEX_ENTRY_LEN);
        let mut pack_len = 0u64;
        let mut index_len = 0u64;
        for chunk in index_bytes.chunks(INDEX_ENTRY_LEN) {
            let Some((hash, extent)) = decode_entry(chunk) else {
                break;
            };
            if extent.offset != pack_len || extent.end() > file_len {
                break;
            }
            known.entry(hash).or_insert(extent);
            pack_len = extent.end();
            index_len += INDEX_ENTRY_LEN as u64;
        }
        if index_bytes.len() as u64 > index_len {
            vfs.truncate(&index_path, index_len)?;
        }

        let mut blobs = BlobStore {
            vfs,
            root: root.to_path_buf(),
            generation,
            known,
            pack: None,
            index: None,
            lost: false,
            pack_len,
            index_len,
            index_pending: Vec::new(),
            dirty: false,
            pending_dir_sync: false,
        };
        if file_len > pack_len {
            blobs.recover_tail(file_len)?;
        }
        Ok(blobs)
    }

    /// Open the pack and index append handles if they are not open yet,
    /// creating whichever file does not exist.
    fn open_writers(&mut self) -> io::Result<()> {
        if self.lost {
            return Err(io::Error::other(
                "blob pack writer lost after a failed write; reopen the store",
            ));
        }
        let paths = [self.pack_path(), self.index_path()];
        for (slot, path) in [&mut self.pack, &mut self.index].into_iter().zip(paths) {
            if slot.is_none() {
                *slot = Some(if self.vfs.exists(&path) {
                    self.vfs.open_append(&path)?
                } else {
                    self.pending_dir_sync = true;
                    self.vfs.create_new(&path)?
                });
            }
        }
        Ok(())
    }

    /// Re-index the pack frames between the last indexed one and
    /// `file_len`, truncating the pack at the first torn frame.
    fn recover_tail(&mut self, file_len: u64) -> io::Result<()> {
        let path = self.pack_path();
        let mut at = self.pack_len;
        while at + PACK_HEADER_LEN as u64 <= file_len {
            let header = self.vfs.read_at(&path, at, PACK_HEADER_LEN)?;
            let (hash, len, crc) = decode_pack_header(&header);
            let extent = Extent { offset: at, len };
            if len > MAX_PAYLOAD_LEN || extent.end() > file_len {
                break;
            }
            let bytes = self
                .vfs
                .read_at(&path, at + PACK_HEADER_LEN as u64, len as usize)?;
            if crc32(&bytes) != crc || fnv128(&bytes) != hash {
                break;
            }
            self.known.entry(hash).or_insert(extent);
            self.index_pending
                .extend_from_slice(&encode_entry(hash, extent));
            at = extent.end();
        }
        if at < file_len {
            self.vfs.truncate(&path, at)?;
        }
        self.pack_len = at;
        self.dirty = !self.index_pending.is_empty();
        Ok(())
    }

    /// Path of the active pack.
    pub(crate) fn pack_path(&self) -> PathBuf {
        self.root.join(pack_file_name(self.generation))
    }

    fn index_path(&self) -> PathBuf {
        self.root.join(index_file_name(self.generation))
    }

    /// The active pack generation (0 until the first orphan GC).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Store `bytes` under `hash`. Returns `true` when bytes were written,
    /// `false` on a dedup hit (the address already exists).
    ///
    /// `hash` must be `fnv128(bytes)`; this is debug-asserted, not
    /// recomputed on the hot path.
    ///
    /// # Errors
    ///
    /// I/O failure appending the frame (the pack is truncated back to its
    /// previous end, so later puts are unaffected), or a blob larger than
    /// a frame can hold.
    pub fn put(&mut self, hash: u128, bytes: &[u8]) -> io::Result<bool> {
        debug_assert_eq!(
            hash,
            fnv128(bytes),
            "blob address must be the fnv128 of its bytes"
        );
        if self.known.contains_key(&hash) {
            return Ok(false);
        }
        let len = u32::try_from(bytes.len())
            .ok()
            .filter(|&n| n <= MAX_PAYLOAD_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("blob of {} bytes is too large for the pack", bytes.len()),
                )
            })?;
        let frame = encode_pack_frame(hash, bytes, len);
        self.open_writers()?;
        let pack = self.pack.as_mut().expect("writers just opened");
        if let Err(e) = pack.write_all(&frame).and_then(|()| pack.flush()) {
            self.roll_back(true);
            return Err(e);
        }
        let extent = Extent {
            offset: self.pack_len,
            len,
        };
        self.pack_len = extent.end();
        self.index_pending
            .extend_from_slice(&encode_entry(hash, extent));
        self.known.insert(hash, extent);
        self.dirty = true;
        Ok(true)
    }

    /// Truncate the pack (or the index) back to its last complete write;
    /// the next write reopens the handle. The handle is dropped first: a
    /// buffered writer flushes what it still holds, and the truncate
    /// removes it. If the truncate fails, writing stops until reopen.
    fn roll_back(&mut self, pack: bool) {
        let (path, len) = if pack {
            self.pack = None;
            (self.pack_path(), self.pack_len)
        } else {
            self.index = None;
            (self.index_path(), self.index_len)
        };
        if self.vfs.truncate(&path, len).is_err() {
            self.lost = true;
        }
    }

    /// The blob half of the durable barrier: write the pending index
    /// entries, fsync the pack, then fsync the index, and — the first time
    /// after creating the pack — the directory holding them. Called by
    /// [`Store::sync`](crate::Store::sync) *before* the segment writers
    /// sync, preserving blob-before-frame ordering on disk. A barrier with
    /// nothing new since the last one issues no fsync.
    ///
    /// # Errors
    ///
    /// I/O failure. Unwritten index entries stay pending for the next
    /// barrier.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.open_writers()?;
        if !self.index_pending.is_empty() {
            let index = self.index.as_mut().expect("writers just opened");
            if let Err(e) = index
                .write_all(&self.index_pending)
                .and_then(|()| index.flush())
            {
                self.roll_back(false);
                return Err(e);
            }
            self.index_len += self.index_pending.len() as u64;
            self.index_pending.clear();
        }
        self.pack.as_mut().expect("writers just opened").sync()?;
        self.index.as_mut().expect("writers just opened").sync()?;
        if self.pending_dir_sync {
            self.vfs.sync_dir(&self.root)?;
            self.pending_dir_sync = false;
        }
        self.dirty = false;
        Ok(())
    }

    /// Read one whole frame and check it against its index entry.
    /// The outer error is I/O; the inner one names a mismatch.
    fn read_frame(&self, hash: u128, extent: Extent) -> io::Result<Result<Vec<u8>, String>> {
        let frame = self.vfs.read_at(
            &self.pack_path(),
            extent.offset,
            PACK_HEADER_LEN + extent.len as usize,
        )?;
        let (got, len, crc) = decode_pack_header(&frame);
        if got != hash || len != extent.len {
            return Ok(Err(format!(
                "pack frame at {} is {got:032x} ({len} bytes), not this blob",
                extent.offset
            )));
        }
        if crc32(&frame[PACK_HEADER_LEN..]) != crc {
            return Ok(Err(format!(
                "crc mismatch in pack frame at {}",
                extent.offset
            )));
        }
        Ok(Ok(frame))
    }

    /// Read the blob at `hash`, if present.
    ///
    /// # Errors
    ///
    /// I/O failure, or a pack frame that does not match its index entry
    /// or fails its CRC.
    pub fn get(&self, hash: u128) -> io::Result<Option<Vec<u8>>> {
        let Some(&extent) = self.known.get(&hash) else {
            return Ok(None);
        };
        match self.read_frame(hash, extent)? {
            Ok(mut frame) => Ok(Some(frame.split_off(PACK_HEADER_LEN))),
            Err(reason) => Err(corrupt(
                &self.pack_path(),
                format!("blob {hash:032x}: {reason}"),
            )),
        }
    }

    /// Whether `hash` is stored.
    pub fn contains(&self, hash: u128) -> bool {
        self.known.contains_key(&hash)
    }

    /// Number of distinct blobs.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// All stored addresses, sorted (deterministic iteration for reports).
    pub fn hashes(&self) -> Vec<u128> {
        let mut v: Vec<u128> = self.known.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Stored blobs in pack order.
    fn in_pack_order(&self) -> Vec<(u128, Extent)> {
        let mut v: Vec<(u128, Extent)> = self.known.iter().map(|(h, e)| (*h, *e)).collect();
        v.sort_unstable_by_key(|(_, e)| e.offset);
        v
    }

    /// Remove every blob whose address is not in `live`. Returns the
    /// removed addresses, sorted. Used by orphan GC after crash recovery.
    ///
    /// The live frames are copied, in pack order, into the next
    /// generation's pack and index; both are fsynced (and the directory
    /// that now holds them), and only then does `BLOBS` switch to the new
    /// generation by temp + fsync + rename + directory fsync. The old
    /// generation's files are removed last. With no orphans this is a
    /// no-op that touches no file.
    ///
    /// # Errors
    ///
    /// I/O failure, or a live frame that fails its check (a damaged pack
    /// is not rewritten; `verify` names the blob).
    pub fn remove_except(&mut self, live: &HashSet<u128>) -> io::Result<Vec<u128>> {
        let orphans: Vec<u128> = self
            .hashes()
            .into_iter()
            .filter(|h| !live.contains(h))
            .collect();
        if orphans.is_empty() {
            return Ok(orphans);
        }
        let generation = self.generation + 1;
        let pack_path = self.root.join(pack_file_name(generation));
        let index_path = self.root.join(index_file_name(generation));
        for path in [&pack_path, &index_path] {
            if self.vfs.exists(path) {
                self.vfs.remove_file(path)?;
            }
        }
        let mut pack = self.vfs.create_new(&pack_path)?;
        let mut index = self.vfs.create_new(&index_path)?;
        let mut known = HashMap::with_capacity(self.known.len() - orphans.len());
        let mut entries = Vec::new();
        let mut pack_len = 0u64;
        for (hash, extent) in self.in_pack_order() {
            if !live.contains(&hash) {
                continue;
            }
            let frame = self
                .read_frame(hash, extent)?
                .map_err(|reason| corrupt(&self.pack_path(), reason))?;
            pack.write_all(&frame)?;
            let moved = Extent {
                offset: pack_len,
                len: extent.len,
            };
            entries.extend_from_slice(&encode_entry(hash, moved));
            known.insert(hash, moved);
            pack_len = moved.end();
        }
        index.write_all(&entries)?;
        pack.sync()?;
        index.sync()?;
        self.vfs.sync_dir(&self.root)?;

        let tmp = self.root.join(POINTER_TMP);
        self.vfs
            .write(&tmp, generation_name(generation).as_bytes())?;
        self.vfs.fsync(&tmp)?;
        self.vfs.rename(&tmp, &self.root.join(POINTER))?;
        self.vfs.sync_dir(&self.root)?;

        // The old generation is unreachable now; if removing it fails, the
        // next open removes it.
        let _ = self.vfs.remove_file(&self.pack_path());
        let _ = self.vfs.remove_file(&self.index_path());
        self.generation = generation;
        self.known = known;
        self.pack = Some(pack);
        self.index = Some(index);
        self.pack_len = pack_len;
        self.index_len = entries.len() as u64;
        self.index_pending.clear();
        self.dirty = false;
        self.pending_dir_sync = false;
        self.lost = false;
        Ok(orphans)
    }

    /// Re-read and re-hash every blob, returning the faults found
    /// (unreadable frames, frames that do not match their index entry or
    /// CRC, bytes that no longer hash to their address).
    ///
    /// # Errors
    ///
    /// None today; integrity problems are returned as faults.
    pub fn verify(&self) -> io::Result<Vec<BlobFault>> {
        let mut faults = Vec::new();
        for (hash, extent) in self.in_pack_order() {
            let reason = match self.read_frame(hash, extent) {
                Err(e) => format!("unreadable: {e}"),
                Ok(Err(reason)) => reason,
                Ok(Ok(frame)) => {
                    let got = fnv128(&frame[PACK_HEADER_LEN..]);
                    if got == hash {
                        continue;
                    }
                    format!("content hash {got:032x} does not match address")
                }
            };
            faults.push(BlobFault { hash, reason });
        }
        faults.sort_unstable_by_key(|f| f.hash);
        Ok(faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cb-blob-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put(blobs: &mut BlobStore, bytes: &[u8]) -> u128 {
        let hash = fnv128(bytes);
        blobs.put(hash, bytes).unwrap();
        hash
    }

    #[test]
    fn put_get_dedup_round_trip() {
        let dir = scratch("roundtrip");
        let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        let bytes = b"screenshot bytes".to_vec();
        let hash = fnv128(&bytes);
        assert!(blobs.put(hash, &bytes).unwrap(), "first write stores");
        assert!(!blobs.put(hash, &bytes).unwrap(), "second write dedups");
        assert_eq!(
            blobs.get(hash).unwrap(),
            Some(bytes.clone()),
            "readable before the barrier"
        );
        blobs.sync().unwrap();
        assert_eq!(blobs.get(hash).unwrap(), Some(bytes.clone()));
        assert_eq!(blobs.get(1).unwrap(), None);
        assert_eq!(blobs.len(), 1);
        drop(blobs);

        // Reopen loads the index.
        let reopened = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        assert!(reopened.contains(hash));
        assert_eq!(reopened.get(hash).unwrap(), Some(bytes));
        assert!(reopened.verify().unwrap().is_empty());
        let names: HashSet<String> = RealVfs.read_dir_names(&dir).unwrap().into_iter().collect();
        let want: HashSet<String> = [pack_file_name(0), index_file_name(0)].into();
        assert_eq!(names, want, "one pack and one index, however many blobs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsynced_entries_are_recovered_from_the_pack_tail() {
        let dir = scratch("tail");
        let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        let first = put(&mut blobs, b"synced");
        blobs.sync().unwrap();
        let second = put(&mut blobs, b"appended, never synced");
        drop(blobs); // the second entry never reached the index file
        assert_eq!(
            std::fs::metadata(dir.join(index_file_name(0)))
                .unwrap()
                .len(),
            INDEX_ENTRY_LEN as u64
        );

        let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        assert!(blobs.contains(first) && blobs.contains(second));
        assert!(blobs.verify().unwrap().is_empty());
        blobs.sync().unwrap();
        assert_eq!(
            std::fs::metadata(dir.join(index_file_name(0)))
                .unwrap()
                .len(),
            2 * INDEX_ENTRY_LEN as u64,
            "the barrier writes the rebuilt entry"
        );

        // A missing index is rebuilt from the whole pack.
        drop(blobs);
        std::fs::remove_file(dir.join(index_file_name(0))).unwrap();
        let blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        assert_eq!(blobs.hashes().len(), 2);
        assert_eq!(
            blobs.get(second).unwrap().as_deref(),
            Some(&b"appended, never synced"[..])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_index_entry_and_torn_frame_are_truncated() {
        let dir = scratch("torn");
        let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        let kept = put(&mut blobs, b"durable blob");
        let lost = put(&mut blobs, b"blob whose frame is torn");
        blobs.sync().unwrap();
        drop(blobs);
        // Cut the pack's last bytes, as a crash that lost the unsynced
        // pack tail but kept the index would: the second entry now points
        // past the pack's end.
        let pack = dir.join(pack_file_name(0));
        let pack_len = std::fs::metadata(&pack).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&pack).unwrap();
        file.set_len(pack_len - 3).unwrap();

        let blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        assert!(blobs.contains(kept));
        assert!(
            !blobs.contains(lost),
            "an entry past the pack's end is dropped"
        );
        let first_end = (PACK_HEADER_LEN + b"durable blob".len()) as u64;
        assert_eq!(std::fs::metadata(&pack).unwrap().len(), first_end);
        assert_eq!(
            std::fs::metadata(dir.join(index_file_name(0)))
                .unwrap()
                .len(),
            INDEX_ENTRY_LEN as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_reports_tampered_blob() {
        let dir = scratch("tamper");
        let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        let bytes = b"original".to_vec();
        let hash = put(&mut blobs, &bytes);
        let other = put(&mut blobs, b"untouched");
        blobs.sync().unwrap();
        let mut pack = std::fs::read(dir.join(pack_file_name(0))).unwrap();
        pack[PACK_HEADER_LEN..PACK_HEADER_LEN + 8].copy_from_slice(b"tampered");
        std::fs::write(dir.join(pack_file_name(0)), &pack).unwrap();
        let faults = blobs.verify().unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].hash, hash);
        assert!(
            blobs.get(hash).is_err(),
            "a damaged frame never reads back as the blob"
        );
        assert!(blobs.get(other).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_except_collects_only_orphans() {
        let dir = scratch("gc");
        let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        let orphan_hash = put(&mut blobs, b"orphaned");
        let live_hash = put(&mut blobs, b"referenced");
        blobs.sync().unwrap();
        let live: HashSet<u128> = [live_hash].into_iter().collect();
        assert_eq!(blobs.remove_except(&live).unwrap(), vec![orphan_hash]);
        assert_eq!(blobs.generation(), 1);
        assert!(blobs.contains(live_hash));
        assert!(!blobs.contains(orphan_hash));
        assert_eq!(
            blobs.get(live_hash).unwrap().as_deref(),
            Some(&b"referenced"[..])
        );
        assert_eq!(
            blobs.remove_except(&live).unwrap(),
            Vec::new(),
            "idempotent"
        );
        assert_eq!(blobs.generation(), 1, "no orphans, no rewrite");

        // The new generation takes appends and survives reopen; the old
        // generation's files are gone.
        let added = put(&mut blobs, b"after gc");
        blobs.sync().unwrap();
        drop(blobs);
        let names: HashSet<String> = RealVfs.read_dir_names(&dir).unwrap().into_iter().collect();
        let want: HashSet<String> =
            [POINTER.to_string(), pack_file_name(1), index_file_name(1)].into();
        assert_eq!(names, want);
        let blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        assert_eq!(blobs.hashes().len(), 2);
        assert!(blobs.contains(added) && blobs.contains(live_hash));
        assert!(blobs.verify().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_clears_stray_gc_leftovers() {
        let dir = scratch("straytmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(POINTER_TMP), b"blobs-00001").unwrap();
        std::fs::write(dir.join(pack_file_name(1)), b"half-written").unwrap();
        std::fs::write(dir.join(index_file_name(1)), b"").unwrap();
        let blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
        assert!(blobs.is_empty());
        assert_eq!(blobs.generation(), 0);
        assert_eq!(
            RealVfs.read_dir_names(&dir).unwrap(),
            Vec::<String>::new(),
            "leftovers removed, and no pack before the first blob"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pointer_to_a_missing_pack_fails_the_open() {
        let dir = scratch("badptr");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(POINTER), b"blobs-00003").unwrap();
        let err = BlobStore::open(RealVfs::arc(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(dir.join(POINTER), b"banana").unwrap();
        let err = BlobStore::open(RealVfs::arc(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn names_and_entries_round_trip() {
        assert_eq!(pack_file_name(0), "blobs-00000.pack");
        assert_eq!(index_file_name(7), "blobs-00007.idx");
        assert_eq!(parse_pack_file("blobs-00007.idx"), Some(7));
        assert_eq!(parse_pack_file("blobs-00012.pack"), Some(12));
        assert_eq!(parse_pack_file("blobs-7.pack"), None);
        assert_eq!(parse_pack_file("BLOBS"), None);
        let extent = Extent {
            offset: 1 << 40,
            len: 77,
        };
        let entry = encode_entry(0xDEAD_BEEF, extent);
        assert_eq!(decode_entry(&entry), Some((0xDEAD_BEEF, extent)));
        let mut torn = entry;
        torn[20] ^= 1;
        assert_eq!(
            decode_entry(&torn),
            None,
            "a flipped bit fails the entry CRC"
        );
        assert_eq!(decode_entry(&entry[..31]), None);
    }
}
