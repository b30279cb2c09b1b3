//! One shard of the partitioned store: an independent segment log with its
//! own `CURRENT` generation pointer, index, health state and repair path.
//!
//! Records are routed to shards by content-hash prefix
//! ([`shard_of`]), so shards recover, compact and repair independently —
//! corruption inside one shard quarantines that shard only, and the store
//! keeps serving queries from the healthy ones.
//!
//! # Replay rules
//!
//! A segment is a concatenation of [pairs](crate::frame): a record with
//! captured artifacts is preceded by a blob-ref frame naming its blob
//! addresses, and the pair never spans a segment boundary. Replay walks
//! every pair with [`next_pair`] and classifies the first bad byte it
//! meets:
//!
//! * **A torn pair in the last segment** (partial header, truncated
//!   payload, CRC mismatch at the tail) is a crash artifact: the tail is
//!   truncated back to the end of the last complete pair and the shard
//!   stays healthy. A complete blob-ref frame with no following record is
//!   part of the torn tail (the crash hit between the pair) and is
//!   truncated too — leaving at worst an orphan blob for
//!   [`Store::gc_orphan_blobs`](crate::Store::gc_orphan_blobs).
//! * **Anything else** — a torn pair in an interior segment, a corrupt
//!   pair (a malformed blob-ref, two blob-refs in a row), a CRC-valid
//!   record whose payload does not decode — is corruption: the shard is
//!   quarantined. Appends to it fail, its records drop out of queries and
//!   `known_hashes`, and [`Shard::repair`] re-adjudicates it from its last
//!   valid pairs by the same rules.
//!
//! A record payload is a record exactly when it decodes as a
//! [`ScanRecord`](crawlerbox::ScanRecord) through the workspace's one JSON
//! reader (`cb_json`), the decode `/records` and `crawl-log` use too. Replay, repair and verify
//! all adjudicate payloads that way (the record decode,
//! [`scan_meta`](crate::metascan::scan_meta)) and keep only the decoded
//! record's [`RecordMeta`](crate::index::RecordMeta): the index never
//! holds the records themselves.

use crate::blob::BlobStore;
use crate::frame::{encode_pair, next_pair, PairStep};
use crate::index::{RecordMeta, StoreIndex};
use crate::metascan::scan_meta;
use crate::segment::{list_segments, segment_file_name, SegmentWriter};
use crate::store::{corrupt, StoreMetrics, StoreOptions};
use crate::vfs::Vfs;
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Route `hash` to one of `shards` by its top byte — a monotone prefix
/// partition, so shard membership is stable under re-sharding to a
/// multiple.
pub fn shard_of(hash: u128, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    ((hash >> 120) as usize * shards) / 256
}

/// Directory name of shard `id`.
pub fn shard_dir_name(id: usize) -> String {
    format!("shard-{id:02}")
}

/// Name of generation `n`'s segment directory.
pub(crate) fn generation_dir_name(n: u32) -> String {
    format!("segments-{n:05}")
}

/// Parse a generation directory name.
pub(crate) fn parse_generation_name(name: &str) -> Option<u32> {
    let stem = name.strip_prefix("segments-")?;
    if stem.len() != 5 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// What a torn tail looked like when recovery truncated it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment file that was truncated.
    pub segment: PathBuf,
    /// Valid bytes kept.
    pub kept_bytes: u64,
    /// Trailing bytes dropped.
    pub dropped_bytes: u64,
    /// Why the tail failed to parse.
    pub reason: String,
}

/// A shard's health: serving, or fenced off pending repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// Replay was clean (or recovered a torn tail); the shard serves
    /// appends and queries.
    Healthy,
    /// Replay hit interior corruption; the shard serves nothing until
    /// [`Shard::repair`].
    Quarantined {
        /// The file the corruption was found in.
        segment: PathBuf,
        /// Byte offset of the first bad frame.
        at: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl ShardHealth {
    /// Whether the shard is serving.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ShardHealth::Healthy)
    }
}

/// What [`Shard::repair`] salvaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairReport {
    /// The repaired shard.
    pub shard: usize,
    /// Records salvaged into the new generation.
    pub salvaged: usize,
    /// Whether the shard was quarantined before the repair.
    pub was_quarantined: bool,
}

/// One segment's replay, classified by the replay rules.
struct SegmentReplay {
    /// Decoded record metas (segment-local seq) with their blob refs and
    /// the byte offset of each pair, in log order.
    records: Vec<(RecordMeta, Vec<u128>, usize)>,
    /// Offset just past the last complete pair.
    valid_end: usize,
    /// First bad byte, its reason, and whether it is *corruption* (true)
    /// or a torn pair a crash could produce (false).
    bad: Option<(usize, String, bool)>,
}

/// Walk every pair of `buf`, decoding each record payload.
fn replay_segment(buf: &[u8]) -> SegmentReplay {
    let mut out = SegmentReplay {
        records: Vec::new(),
        valid_end: 0,
        bad: None,
    };
    let mut at = 0usize;
    loop {
        match next_pair(buf, at) {
            PairStep::Pair {
                refs,
                payload,
                record_at,
                next,
            } => match scan_meta(payload, out.records.len()) {
                Ok(meta) => {
                    out.records.push((meta, refs, at));
                    out.valid_end = next;
                    at = next;
                }
                Err(e) => {
                    out.bad = Some((record_at, format!("undecodable record: {e}"), true));
                    return out;
                }
            },
            PairStep::End => return out,
            PairStep::Torn { at, reason } => {
                out.bad = Some((at, reason, false));
                return out;
            }
            PairStep::Corrupt { at, reason } => {
                out.bad = Some((at, reason, true));
                return out;
            }
        }
    }
}

/// One shard: an independent generation-pointered segment log.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    segment_target_bytes: u64,
    generation: u32,
    writer: Option<SegmentWriter>,
    next_segment: u32,
    index: StoreIndex,
    /// Per-record blob refs, parallel to the index (empty when none).
    blob_refs: Vec<Vec<u128>>,
    /// Per-record frame location as `(segment index, byte offset)`,
    /// parallel to the index — the lazy-paging map for
    /// [`fetch_payloads`](Shard::fetch_payloads). The offset points at the
    /// record's first frame (the blob-ref frame when one is present).
    locations: Vec<(u32, u64)>,
    health: ShardHealth,
    torn: Option<TornTail>,
    log_bytes: u64,
    /// A segment file was created since the last generation-dir fsync.
    pending_dir_sync: bool,
    /// Frame bytes were appended since the last durable barrier — when
    /// clear, [`Shard::sync`] is a no-op (a sync after a read-only window
    /// must cost zero fsyncs).
    dirty: bool,
    /// Records appended to this shard this session (ingest observability).
    session_appends: u64,
}

impl Shard {
    /// Open (creating or recovering) shard `id` under `root`.
    ///
    /// Never fails on corruption — that quarantines the shard instead.
    /// Errors are real I/O failures only.
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        root: &Path,
        id: usize,
        opts: &StoreOptions,
        blobs: &BlobStore,
        m: &StoreMetrics,
    ) -> io::Result<Shard> {
        let dir = root.join(shard_dir_name(id));
        vfs.create_dir_all(&dir)?;

        // Resolve the active generation; first open creates generation 0.
        let current_path = dir.join("CURRENT");
        let generation = if vfs.exists(&current_path) {
            let name = String::from_utf8_lossy(&vfs.read(&current_path)?)
                .trim()
                .to_string();
            match parse_generation_name(&name) {
                Some(g) => g,
                None => {
                    return Ok(Shard::quarantined(
                        vfs,
                        id,
                        dir,
                        opts,
                        current_path,
                        0,
                        format!("bad generation name {name:?} in CURRENT"),
                    ));
                }
            }
        } else {
            vfs.create_dir_all(&dir.join(generation_dir_name(0)))?;
            write_current(&vfs, &dir, 0)?;
            0
        };
        let seg_dir = dir.join(generation_dir_name(generation));
        if !vfs.is_dir(&seg_dir) {
            return Ok(Shard::quarantined(
                vfs,
                id,
                dir,
                opts,
                current_path,
                0,
                "CURRENT names a missing generation".to_string(),
            ));
        }
        // Orphan generations (an interrupted compaction's leftovers) are
        // dead weight: remove them. Stray CURRENT.tmp likewise.
        for name in vfs.read_dir_names(&dir)? {
            if let Some(g) = parse_generation_name(&name) {
                if g != generation {
                    vfs.remove_dir_all(&dir.join(name))?;
                }
            } else if name == "CURRENT.tmp" {
                vfs.remove_file(&dir.join(name))?;
            }
        }

        // Replay the log.
        let segments = list_segments(vfs.as_ref(), &seg_dir)?;
        let mut shard = Shard {
            id,
            vfs,
            dir,
            segment_target_bytes: opts.segment_target_bytes,
            generation,
            writer: None,
            next_segment: 0,
            index: StoreIndex::new(),
            blob_refs: Vec::new(),
            locations: Vec::new(),
            health: ShardHealth::Healthy,
            torn: None,
            log_bytes: 0,
            pending_dir_sync: false,
            dirty: false,
            session_appends: 0,
        };
        for (pos, (seg_index, path)) in segments.iter().enumerate() {
            let last = pos + 1 == segments.len();
            let buf = shard.vfs.read(path)?;
            let SegmentReplay {
                mut records,
                mut valid_end,
                mut bad,
            } = replay_segment(&buf);
            // A durable frame referencing a blob the crash rolled back:
            // the record was never acknowledged (an ack fsyncs the blob
            // directory before the segment), so a trailing run of them in
            // the last segment is a torn tail. Anywhere else the missing
            // evidence is corruption.
            if let Some(i) = records
                .iter()
                .position(|(_, refs, _)| refs.iter().any(|h| !blobs.contains(*h)))
            {
                let (_, refs, start) = &records[i];
                let missing = refs
                    .iter()
                    .copied()
                    .find(|h| !blobs.contains(*h))
                    .expect("just found");
                bad = Some((*start, format!("dangling blob ref {missing:032x}"), false));
                valid_end = *start;
                records.truncate(i);
            }
            let seg_records = records.len();
            for (meta, refs, start) in records {
                shard.index.push_recovered(meta);
                shard.blob_refs.push(refs);
                shard.locations.push((*seg_index, start as u64));
            }
            m.recover_segments.incr();
            m.recover_records.add(seg_records as u64);
            match bad {
                None => shard.log_bytes += buf.len() as u64,
                Some((at, reason, is_corrupt)) if is_corrupt || !last => {
                    // Interior segments must be frame-perfect, and
                    // CRC-valid garbage anywhere is corruption rather than
                    // a crash artifact: quarantine.
                    shard.quarantine(path.clone(), at as u64, reason);
                    break;
                }
                Some((_, reason, _)) => {
                    // Torn tail of the last segment: truncate back to the
                    // last complete pair.
                    let keep = valid_end as u64;
                    shard.vfs.truncate(path, keep)?;
                    let dropped = buf.len() as u64 - keep;
                    m.recover_truncated_bytes.add(dropped);
                    shard.torn = Some(TornTail {
                        segment: path.clone(),
                        kept_bytes: keep,
                        dropped_bytes: dropped,
                        reason,
                    });
                    shard.log_bytes += keep;
                }
            }
        }

        if shard.health.is_healthy() {
            // Continue appending to the last segment unless it is already
            // at its target size.
            if let Some((seg_index, path)) = segments.last() {
                shard.next_segment = seg_index + 1;
                let size = shard.vfs.len(path)?;
                if size < shard.segment_target_bytes {
                    shard.writer = Some(SegmentWriter::open_append(
                        &shard.vfs, path, *seg_index, size,
                    )?);
                }
            }
        } else {
            // A quarantined shard serves nothing: its partial replay is
            // discarded so queries and known_hashes only see healthy data.
            shard.index = StoreIndex::new();
            shard.blob_refs.clear();
            shard.locations.clear();
            shard.log_bytes = 0;
        }
        Ok(shard)
    }

    /// Construct a shard quarantined before replay even started (bad
    /// CURRENT pointer).
    #[allow(clippy::too_many_arguments)]
    fn quarantined(
        vfs: Arc<dyn Vfs>,
        id: usize,
        dir: PathBuf,
        opts: &StoreOptions,
        segment: PathBuf,
        at: u64,
        reason: String,
    ) -> Shard {
        Shard {
            id,
            vfs,
            dir,
            segment_target_bytes: opts.segment_target_bytes,
            generation: 0,
            writer: None,
            next_segment: 0,
            index: StoreIndex::new(),
            blob_refs: Vec::new(),
            locations: Vec::new(),
            health: ShardHealth::Quarantined {
                segment,
                at,
                reason,
            },
            torn: None,
            log_bytes: 0,
            pending_dir_sync: false,
            dirty: false,
            session_appends: 0,
        }
    }

    fn quarantine(&mut self, segment: PathBuf, at: u64, reason: String) {
        self.health = ShardHealth::Quarantined {
            segment,
            at,
            reason,
        };
        self.writer = None;
    }

    /// This shard's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// This shard's health.
    pub fn health(&self) -> &ShardHealth {
        &self.health
    }

    /// The shard's in-memory index (empty while quarantined).
    pub fn index(&self) -> &StoreIndex {
        &self.index
    }

    /// Records served by this shard (0 while quarantined).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard serves no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The torn tail recovery truncated on open, if any.
    pub fn torn(&self) -> Option<&TornTail> {
        self.torn.as_ref()
    }

    /// Log bytes on disk (valid frames only).
    pub fn log_bytes(&self) -> u64 {
        self.log_bytes
    }

    /// Segment files written or recovered so far.
    pub fn segments(&self) -> usize {
        self.next_segment as usize
    }

    /// Every blob address referenced by this shard's records.
    pub(crate) fn live_blob_refs(&self) -> impl Iterator<Item = u128> + '_ {
        self.blob_refs.iter().flatten().copied()
    }

    /// Blob refs of record `seq`.
    pub(crate) fn blob_refs_of(&self, seq: usize) -> &[u128] {
        self.blob_refs.get(seq).map(Vec::as_slice).unwrap_or(&[])
    }

    fn quarantine_error(&self) -> io::Error {
        let reason = match &self.health {
            ShardHealth::Quarantined { reason, .. } => reason.clone(),
            ShardHealth::Healthy => unreachable!("quarantine_error on healthy shard"),
        };
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "shard {} is quarantined ({reason}); run `crawl-log store DIR repair`",
                self.id
            ),
        )
    }

    /// Append one pre-built blob-ref/record frame pair (built and CRC'd
    /// by [`encode_record`](crate::encode_record), usually on a scan
    /// worker). Returns the frame bytes written.
    pub(crate) fn append_frame(&mut self, frame: &[u8]) -> io::Result<u64> {
        if !self.health.is_healthy() {
            return Err(self.quarantine_error());
        }
        if self.writer.is_none() {
            let seg_dir = self.dir.join(generation_dir_name(self.generation));
            self.writer = Some(SegmentWriter::create(
                &self.vfs,
                &seg_dir,
                self.next_segment,
            )?);
            self.next_segment += 1;
            self.pending_dir_sync = true;
        }
        let writer = self.writer.as_mut().expect("writer just ensured");
        let location = (writer.index(), writer.bytes());
        let wrote = writer.append(frame)?;
        self.log_bytes += wrote;
        self.locations.push(location);
        self.dirty = true;
        self.session_appends += 1;
        Ok(wrote)
    }

    /// The quarantine refusal for this shard, if it is fenced off; `None`
    /// while healthy. Batch appends pre-check every target shard with this
    /// so a refused batch has no side effects.
    pub(crate) fn quarantine_refusal(&self) -> Option<io::Error> {
        if self.health.is_healthy() {
            None
        } else {
            Some(self.quarantine_error())
        }
    }

    /// Bytes in the active segment (0 when no writer is open) — the
    /// batch append path's roll predictor.
    pub(crate) fn active_segment_bytes(&self) -> u64 {
        self.writer.as_ref().map(SegmentWriter::bytes).unwrap_or(0)
    }

    /// Whether the active segment has reached its target size and should
    /// be sealed. The seal itself is driven by the store, which fsyncs
    /// the blob pack *first* — a segment must never become durable
    /// ahead of the blobs its frames reference.
    pub(crate) fn segment_full(&self) -> bool {
        self.writer
            .as_ref()
            .map(|w| w.bytes() >= self.segment_target_bytes)
            .unwrap_or(false)
    }

    /// Durably seal the active segment: fsync it, make its directory entry
    /// durable, and retire the writer (the next append rolls to a fresh
    /// segment).
    pub(crate) fn seal_active_segment(&mut self) -> io::Result<()> {
        if let Some(mut w) = self.writer.take() {
            w.sync()?;
        }
        if self.pending_dir_sync {
            self.vfs
                .sync_dir(&self.dir.join(generation_dir_name(self.generation)))?;
            self.pending_dir_sync = false;
        }
        // Only the active segment can hold unsynced appends, and it was
        // just fsynced.
        self.dirty = false;
        Ok(())
    }

    /// Record a worker-derived meta in the in-memory index after a
    /// successful append (the shard-local `seq` is assigned here).
    pub(crate) fn index_encoded(&mut self, meta: RecordMeta, refs: Vec<u128>) -> usize {
        let seq = self.index.push_recovered(meta);
        self.blob_refs.push(refs);
        seq
    }

    /// Flush buffered log writes to the OS (no fsync).
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    /// Durable-write barrier: fsync the active segment if it has unsynced
    /// appends, then fsync the generation directory if any segment file was
    /// created since the last barrier. A clean shard (nothing appended
    /// since its last barrier) issues **zero** fsyncs — a sync after a
    /// read-only window must cost nothing.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            if let Some(w) = self.writer.as_mut() {
                w.sync()?;
            }
            self.dirty = false;
        }
        if self.pending_dir_sync {
            self.vfs
                .sync_dir(&self.dir.join(generation_dir_name(self.generation)))?;
            self.pending_dir_sync = false;
        }
        Ok(())
    }

    /// Records appended to this shard this session (ingest observability
    /// for `crawl-log store stats`).
    pub fn session_appends(&self) -> u64 {
        self.session_appends
    }

    /// Fetch the canonical payloads of the records at `seqs`, in input
    /// order, paging in each needed segment lazily (and only once) instead
    /// of replaying the whole log. The query fan-out path.
    pub(crate) fn fetch_payloads(&mut self, seqs: &[usize]) -> io::Result<Vec<Vec<u8>>> {
        if !self.health.is_healthy() {
            return Err(self.quarantine_error());
        }
        self.flush()?;
        let seg_dir = self.dir.join(generation_dir_name(self.generation));
        // Group the requested records by segment so each segment file is
        // read at most once, remembering each request's output position.
        let mut by_segment: BTreeMap<u32, Vec<(usize, u64)>> = BTreeMap::new();
        for (pos, &seq) in seqs.iter().enumerate() {
            let (seg, offset) = *self.locations.get(seq).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("shard {}: record seq {seq} out of range", self.id),
                )
            })?;
            by_segment.entry(seg).or_default().push((pos, offset));
        }
        let mut out = vec![Vec::new(); seqs.len()];
        for (seg, wants) in by_segment {
            let path = seg_dir.join(segment_file_name(seg));
            let buf = self.vfs.read(&path)?;
            for (pos, offset) in wants {
                match next_pair(&buf, offset as usize) {
                    PairStep::Pair { payload, .. } => out[pos] = payload.to_vec(),
                    _ => return Err(corrupt(&path, format!("no record at offset {offset}"))),
                }
            }
        }
        Ok(out)
    }

    /// Raw canonical record payloads in log order (blob refs are
    /// skipped).
    pub(crate) fn read_payloads(&mut self) -> io::Result<Vec<Vec<u8>>> {
        if !self.health.is_healthy() {
            return Err(self.quarantine_error());
        }
        self.flush()?;
        let seg_dir = self.dir.join(generation_dir_name(self.generation));
        let mut out = Vec::with_capacity(self.index.len());
        for (_, path) in list_segments(self.vfs.as_ref(), &seg_dir)? {
            let buf = self.vfs.read(&path)?;
            let mut at = 0usize;
            loop {
                match next_pair(&buf, at) {
                    PairStep::Pair { payload, next, .. } => {
                        out.push(payload.to_vec());
                        at = next;
                    }
                    PairStep::End => break,
                    PairStep::Torn { at, reason } | PairStep::Corrupt { at, reason } => {
                        return Err(corrupt(&path, format!("bad frame at {at}: {reason}")));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Walk this shard's frames into `faults`/counters for
    /// [`Store::verify`](crate::Store::verify). `blobs` is consulted for
    /// dangling blob refs.
    pub(crate) fn verify_into(
        &mut self,
        blobs: &BlobStore,
        records: &mut usize,
        segments: &mut usize,
        faults: &mut Vec<(PathBuf, String)>,
    ) -> io::Result<()> {
        if let ShardHealth::Quarantined {
            segment,
            at,
            reason,
        } = &self.health
        {
            faults.push((
                segment.clone(),
                format!("shard {} quarantined: bad frame at {at}: {reason}", self.id),
            ));
            return Ok(());
        }
        self.flush()?;
        let seg_dir = self.dir.join(generation_dir_name(self.generation));
        for (_, path) in list_segments(self.vfs.as_ref(), &seg_dir)? {
            *segments += 1;
            let buf = match self.vfs.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    faults.push((path, format!("unreadable: {e}")));
                    continue;
                }
            };
            let replay = replay_segment(&buf);
            *records += replay.records.len();
            if let Some((at, reason, _)) = replay.bad {
                faults.push((path.clone(), format!("bad frame at {at}: {reason}")));
            }
            for (_, refs, _) in &replay.records {
                for &h in refs {
                    if !blobs.contains(h) {
                        faults.push((
                            path.clone(),
                            format!("dangling blob ref {h:032x} (blob missing)"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Write `survivors` (meta, blob refs, payload) into a fresh
    /// generation, atomically and durably swap `CURRENT` to it, and index
    /// the metas as handed in. The old generation is removed. Used by both
    /// compaction and repair.
    fn rewrite_generation(
        &mut self,
        survivors: Vec<(RecordMeta, Vec<u128>, Vec<u8>)>,
    ) -> io::Result<()> {
        let new_generation = self.generation + 1;
        let new_dir = self.dir.join(generation_dir_name(new_generation));
        self.vfs.create_dir_all(&new_dir)?;
        let mut seg_index = 0u32;
        let mut writer: Option<SegmentWriter> = None;
        let mut index = StoreIndex::new();
        let mut blob_refs = Vec::with_capacity(survivors.len());
        let mut locations = Vec::with_capacity(survivors.len());
        let mut log_bytes = 0u64;
        for (meta, refs, payload) in survivors {
            if writer.is_none() {
                writer = Some(SegmentWriter::create(&self.vfs, &new_dir, seg_index)?);
                seg_index += 1;
            }
            let w = writer.as_mut().expect("writer just ensured");
            locations.push((w.index(), w.bytes()));
            log_bytes += w.append(&encode_pair(&refs, &payload))?;
            if w.bytes() >= self.segment_target_bytes {
                w.sync()?;
                writer = None;
            }
            index.push_recovered(meta);
            blob_refs.push(refs);
        }
        if let Some(mut w) = writer {
            w.sync()?;
        }
        // Every new segment is fsynced; make their directory entries
        // durable before the pointer advances, then swap CURRENT durably.
        self.vfs.sync_dir(&new_dir)?;
        write_current(&self.vfs, &self.dir, new_generation)?;
        let old_dir = self.dir.join(generation_dir_name(self.generation));
        let _ = self.vfs.remove_dir_all(&old_dir);

        // Swap in-memory state.
        self.generation = new_generation;
        self.index = index;
        self.blob_refs = blob_refs;
        self.locations = locations;
        self.log_bytes = log_bytes;
        self.writer = None;
        self.next_segment = seg_index;
        self.pending_dir_sync = false;
        // Every rewritten segment was fsynced above.
        self.dirty = false;
        // A partially filled final segment stays open for future appends.
        let segs = list_segments(self.vfs.as_ref(), &new_dir)?;
        if let Some((idx, path)) = segs.last() {
            let size = self.vfs.len(path)?;
            if size < self.segment_target_bytes {
                self.writer = Some(SegmentWriter::open_append(&self.vfs, path, *idx, size)?);
            }
        }
        Ok(())
    }

    /// Compact: keep the newest record per content hash, rewrite into a
    /// fresh generation, swap durably. Returns (kept, dropped,
    /// segments_before, segments_after).
    pub(crate) fn compact(&mut self) -> io::Result<(usize, usize, usize, usize)> {
        if !self.health.is_healthy() {
            return Err(self.quarantine_error());
        }
        let payloads = self.read_payloads()?;
        let segments_before = {
            let seg_dir = self.dir.join(generation_dir_name(self.generation));
            list_segments(self.vfs.as_ref(), &seg_dir)?.len()
        };
        let metas = self.index.metas();
        let mut latest = std::collections::HashMap::new();
        for (seq, meta) in metas.iter().enumerate() {
            latest.insert(meta.content_hash, seq);
        }
        let total = payloads.len();
        let survivors: Vec<(RecordMeta, Vec<u128>, Vec<u8>)> = payloads
            .into_iter()
            .enumerate()
            .filter(|(seq, _)| latest.get(&metas[*seq].content_hash) == Some(seq))
            .map(|(seq, payload)| (metas[seq].clone(), self.blob_refs_of(seq).to_vec(), payload))
            .collect();
        let kept = survivors.len();
        let dropped = total - kept;
        self.rewrite_generation(survivors)?;
        let segments_after = {
            let seg_dir = self.dir.join(generation_dir_name(self.generation));
            list_segments(self.vfs.as_ref(), &seg_dir)?.len()
        };
        Ok((kept, dropped, segments_before, segments_after))
    }

    /// Re-adjudicate this shard from its last valid frames: salvage every
    /// pair recovery would accept up to the first bad byte of each
    /// segment (stopping at records whose blob refs no longer resolve —
    /// salvaging a record without its evidence would poison verify),
    /// rewrite them into a fresh generation, and return the shard to
    /// service.
    pub(crate) fn repair(
        &mut self,
        blobs: &BlobStore,
        m: &StoreMetrics,
    ) -> io::Result<RepairReport> {
        let was_quarantined = !self.health.is_healthy();
        self.writer = None;

        // Re-resolve the generation from disk: quarantine may predate any
        // in-memory state (e.g. a bad CURRENT pointer).
        let current_path = self.dir.join("CURRENT");
        let generation = if self.vfs.exists(&current_path) {
            let name = String::from_utf8_lossy(&self.vfs.read(&current_path)?)
                .trim()
                .to_string();
            parse_generation_name(&name)
        } else {
            None
        };
        let generation = match generation {
            Some(g) if self.vfs.is_dir(&self.dir.join(generation_dir_name(g))) => g,
            // Unrecoverable pointer: restart the shard from an empty
            // generation 0 (all its records are lost to the corruption;
            // a delta re-scan refills them).
            _ => {
                self.vfs
                    .create_dir_all(&self.dir.join(generation_dir_name(0)))?;
                write_current(&self.vfs, &self.dir, 0)?;
                0
            }
        };
        self.generation = generation;

        // Salvage pass: valid prefix of every segment, judged like replay.
        let seg_dir = self.dir.join(generation_dir_name(generation));
        let mut survivors = Vec::new();
        for (_, path) in list_segments(self.vfs.as_ref(), &seg_dir)? {
            let buf = self.vfs.read(&path)?;
            let mut at = 0usize;
            while let PairStep::Pair {
                refs,
                payload,
                next,
                ..
            } = next_pair(&buf, at)
            {
                let Ok(meta) = scan_meta(payload, survivors.len()) else {
                    break;
                };
                if refs.iter().any(|h| !blobs.contains(*h)) {
                    break;
                }
                survivors.push((meta, refs, payload.to_vec()));
                at = next;
            }
        }
        let salvaged = survivors.len();
        self.rewrite_generation(survivors)?;
        if was_quarantined {
            m.shards_quarantined.sub(1);
        }
        self.health = ShardHealth::Healthy;
        self.torn = None;
        m.repair_calls.incr();
        m.repair_records.add(salvaged as u64);
        Ok(RepairReport {
            shard: self.id,
            salvaged,
            was_quarantined,
        })
    }

    /// Every content hash this shard serves.
    pub(crate) fn known_hashes_into(&self, out: &mut HashSet<u128>) {
        for meta in self.index.metas() {
            out.insert(meta.content_hash);
        }
    }
}

/// Durably point `CURRENT` at generation `n`: write temp, fsync it, rename
/// over `CURRENT`, fsync the shard directory (rename alone is not durable).
pub(crate) fn write_current(vfs: &Arc<dyn Vfs>, dir: &Path, n: u32) -> io::Result<()> {
    let tmp = dir.join("CURRENT.tmp");
    vfs.write(&tmp, generation_dir_name(n).as_bytes())?;
    vfs.fsync(&tmp)?;
    vfs.rename(&tmp, &dir.join("CURRENT"))?;
    vfs.sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAME_HEADER_LEN;

    #[test]
    fn shard_routing_is_a_monotone_prefix_partition() {
        for shards in [1usize, 2, 4, 8, 16] {
            let mut last = 0usize;
            for top in 0u128..256 {
                let s = shard_of(top << 120, shards);
                assert!(s < shards);
                assert!(s >= last, "monotone in the hash prefix");
                last = s;
            }
            assert_eq!(shard_of(0, shards), 0);
            assert_eq!(shard_of(u128::MAX, shards), shards - 1);
        }
        // Doubling the shard count splits each shard in two — membership
        // under shards=2 predicts membership under shards=4.
        for top in 0u128..256 {
            let h = top << 120;
            assert_eq!(shard_of(h, 4) / 2, shard_of(h, 2));
        }
    }

    #[test]
    fn replay_pairs_blob_refs_with_records() {
        let refs = vec![7u128, 9u128];
        let buf = encode_pair(&refs, b"{}");
        let replay = replay_segment(&buf);
        // "{}" is not a valid ScanRecord: corruption, flagged at the
        // record frame, just past the blob-ref frame.
        let (at, _, is_corrupt) = replay.bad.expect("undecodable record flagged");
        assert!(is_corrupt);
        assert_eq!(at, FRAME_HEADER_LEN + 16 * refs.len());
    }

    #[test]
    fn trailing_blob_ref_is_torn_not_corrupt() {
        // The pair's blob-ref frame alone: a crash between the two frames.
        let mut buf = encode_pair(&[1u128], b"record");
        buf.truncate(FRAME_HEADER_LEN + 16);
        let replay = replay_segment(&buf);
        let (at, reason, is_corrupt) = replay.bad.expect("trailing blob-ref flagged");
        assert_eq!(at, 0);
        assert!(!is_corrupt, "crash between pair is torn: {reason}");
        assert_eq!(replay.valid_end, 0);
    }

    #[test]
    fn generation_names_round_trip() {
        assert_eq!(generation_dir_name(0), "segments-00000");
        assert_eq!(parse_generation_name("segments-00007"), Some(7));
        assert_eq!(parse_generation_name("segments-7"), None);
        assert_eq!(parse_generation_name("blobs"), None);
        assert_eq!(shard_dir_name(3), "shard-03");
    }
}
