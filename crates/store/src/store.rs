//! The persistent crawl store: a hash-prefix-sharded append-only record
//! log + blob store + crash-safe parallel recovery, quarantine and repair.
//!
//! # Layout (format v3)
//!
//! ```text
//! <root>/
//!   STORE                # manifest: "v3 shards=N" (written once, durably)
//!   blobs-00000.pack     # every blob of every shard, appended as CRC'd frames
//!   blobs-00000.idx      # hint index: hash -> pack extent (open reads only this)
//!   BLOBS                # active pack generation (written by the first orphan GC)
//!   shard-00/
//!     CURRENT            # name of this shard's active generation (atomic pointer)
//!     segments-00000/    # the active generation: seg-NNNNN.cbl frame files
//!   shard-01/ ...
//! ```
//!
//! Records are routed to shards by content-hash prefix
//! ([`shard_of`](crate::shard::shard_of)); each shard is an independent
//! segment log with its own generation pointer, so shards recover, compact
//! and fail independently. The blob pack is shared by all shards (see
//! [`blob`](crate::blob)). Older formats are refused by name, never
//! misread: a v2 store (one file per blob under `blobs/`) fails the open,
//! and so does a v1 store (`CURRENT` at the root).
//!
//! # Recovery contract
//!
//! [`Store::open`] replays every shard — fanned out over the workspace's
//! work-stealing pool, so recovery wall-clock scales with ~1/workers — and
//! never hard-fails on corruption: a torn tail in a shard's last segment
//! is truncated away (a crash artifact); anything worse quarantines that
//! shard only. Queries, campaign clustering and `known_hashes` are served
//! from the healthy shards, appends routed to a quarantined shard fail
//! with an explicit error, and [`Store::repair`] re-adjudicates a
//! quarantined shard from its last valid frames. [`Store::stats`] and the
//! `store.shards.*` telemetry gauges surface the degraded state.
//!
//! # Durability discipline
//!
//! Blob bytes are appended to the pack *before* the record frame that
//! references them; [`Store::sync`] fsyncs the pack, then the pack index,
//! then each dirty shard's active segment, then any generation directory
//! with freshly created segment files. A segment seal syncs the pack
//! first too. `CURRENT` and `BLOBS` swaps write the new
//! pointer to a temp file, fsync it, rename, and fsync the parent
//! directory — rename alone is not durable across a crash. The crash-point
//! sweep in `tests/store_chaos.rs` drives all of this through
//! [`FaultVfs`](crate::vfs::FaultVfs) and fails if any acknowledged record
//! can be lost.

use crate::blob::BlobStore;
use crate::encoded::{encode_record, EncodedRecord};
use crate::index::{RecordMeta, StoreIndex};
use crate::query::{Campaign, CampaignClusterer};
use crate::shard::{shard_dir_name, shard_of, RepairReport, Shard, ShardHealth, TornTail};
use crate::vfs::{create_dirs, CountingVfs, RealVfs, Vfs};
use cb_phishgen::MessageClass;
use cb_telemetry::{CounterHandle, Determinism, GaugeHandle, HistogramHandle, MetricsRegistry};
use crawlerbox::{CapturedArtifact, ScanRecord};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning and behaviour knobs for [`Store::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Roll to a fresh segment once the current one reaches this size.
    pub segment_target_bytes: u64,
    /// Group-commit batch size for a [`StoreSink`](crate::StoreSink):
    /// records per flush, each flush one [`Store::append_batch`] and one
    /// [`Store::sync`], amortizing the pack → index → segment →
    /// generation-dir fsync chain. The store itself never runs a barrier
    /// on its own; a record is **acked** only once a [`Store::sync`]
    /// covering it completes. 1 (the default) syncs after every record.
    pub commit_batch: usize,
    /// Shard count for a store created by this open. An existing store's
    /// manifest always wins — the count is fixed at creation.
    pub shards: usize,
    /// Worker threads for parallel shard recovery, compaction and the
    /// batch-append / query fan-out.
    pub recovery_workers: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            segment_target_bytes: 4 * 1024 * 1024,
            commit_batch: 1,
            shards: 4,
            recovery_workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        }
    }
}

/// What [`Store::open`] found and did, across all shards.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segments replayed (all shards).
    pub segments: usize,
    /// Records recovered into the indexes (healthy shards only).
    pub records: usize,
    /// Blobs indexed from the blob pack.
    pub blobs: usize,
    /// Torn tails truncated (at most one per shard).
    pub torn: Vec<TornTail>,
    /// Shards quarantined on open: `(shard id, reason)`.
    pub quarantined: Vec<(usize, String)>,
}

/// One fault found by [`Store::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyFault {
    /// Which file the fault is in.
    pub path: PathBuf,
    /// What is wrong.
    pub reason: String,
}

/// The result of a full [`Store::verify`] walk.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// CRC-clean records seen on disk.
    pub records: usize,
    /// Segment files walked.
    pub segments: usize,
    /// Blobs re-hashed.
    pub blobs: usize,
    /// Everything that failed.
    pub faults: Vec<VerifyFault>,
}

impl VerifyReport {
    /// Whether the walk found no faults.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// What [`Store::compact`] rewrote, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Records kept (newest per content hash).
    pub kept: usize,
    /// Superseded records dropped.
    pub dropped: usize,
    /// Segment files before.
    pub segments_before: usize,
    /// Segment files after.
    pub segments_after: usize,
}

/// Counter and gauge handles for the store's metric registry.
#[derive(Debug)]
pub(crate) struct StoreMetrics {
    pub(crate) append_records: CounterHandle,
    pub(crate) append_bytes: CounterHandle,
    pub(crate) append_errors: CounterHandle,
    pub(crate) append_pending: GaugeHandle,
    pub(crate) commit_batches: CounterHandle,
    pub(crate) commit_records: HistogramHandle,
    pub(crate) fsync_calls: CounterHandle,
    pub(crate) recover_segments: CounterHandle,
    pub(crate) recover_records: CounterHandle,
    pub(crate) recover_truncated_bytes: CounterHandle,
    pub(crate) blob_writes: CounterHandle,
    pub(crate) blob_bytes: CounterHandle,
    pub(crate) blob_dedup_hits: CounterHandle,
    pub(crate) shards_total: GaugeHandle,
    pub(crate) shards_quarantined: GaugeHandle,
    pub(crate) repair_calls: CounterHandle,
    pub(crate) repair_records: CounterHandle,
    pub(crate) gc_blobs: CounterHandle,
}

impl StoreMetrics {
    fn register(reg: &MetricsRegistry) -> StoreMetrics {
        use Determinism::Deterministic;
        StoreMetrics {
            append_records: reg.counter("store.append.records", Deterministic),
            append_bytes: reg.counter("store.append.bytes", Deterministic),
            append_errors: reg.counter("store.append.errors", Deterministic),
            append_pending: reg.gauge("store.append.pending", Deterministic),
            commit_batches: reg.counter("store.commit.batches", Deterministic),
            commit_records: reg.histogram(
                "store.commit.batch_records",
                Deterministic,
                &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            ),
            fsync_calls: reg.counter("store.fsync.calls", Deterministic),
            recover_segments: reg.counter("store.recover.segments", Deterministic),
            recover_records: reg.counter("store.recover.records", Deterministic),
            recover_truncated_bytes: reg.counter("store.recover.truncated_bytes", Deterministic),
            blob_writes: reg.counter("store.blob.writes", Deterministic),
            blob_bytes: reg.counter("store.blob.bytes", Deterministic),
            blob_dedup_hits: reg.counter("store.blob.dedup_hits", Deterministic),
            shards_total: reg.gauge("store.shards.total", Deterministic),
            shards_quarantined: reg.gauge("store.shards.quarantined", Deterministic),
            repair_calls: reg.counter("store.repair.calls", Deterministic),
            repair_records: reg.counter("store.repair.records", Deterministic),
            gc_blobs: reg.counter("store.gc.blobs", Deterministic),
        }
    }
}

/// Point-in-time store shape, assembled from the live counters (no I/O).
#[derive(Debug, Clone, Copy, PartialEq, Eq, cb_json::Serialize)]
pub struct StoreStats {
    /// Records served (healthy shards).
    pub records: usize,
    /// Segment files across all shards.
    pub segments: usize,
    /// Total log bytes (recovered + appended this session).
    pub log_bytes: u64,
    /// Distinct blobs stored.
    pub blobs: usize,
    /// Shards in the store.
    pub shards: usize,
    /// Shards currently quarantined.
    pub quarantined: usize,
    /// Records appended this session.
    pub appended: u64,
    /// Failed appends this session. A failed [`Store::sync`] is not
    /// counted here: its caller sees the error.
    pub append_errors: u64,
    /// Group-commit barriers that acked at least one record this session.
    pub commit_batches: u64,
    /// Records acked by a durable barrier this session.
    pub acked: u64,
    /// Records appended but not yet covered by a barrier.
    pub pending: u64,
    /// Fsyncs issued this session: every file and directory fsync of the
    /// pack, its index, the segments and the pointers, open included.
    pub fsyncs: u64,
    /// Blob dedup hits this session.
    pub blob_dedup_hits: u64,
}

impl StoreStats {
    /// Whether any shard is quarantined.
    pub fn is_degraded(&self) -> bool {
        self.quarantined > 0
    }
}

/// A cloneable, lock-free window onto one store's live counters (see
/// [`Store::watch`]). Telemetry handles share their instruments, so the
/// watch keeps reading live values however long the store itself stays
/// locked inside a writer.
#[derive(Clone)]
pub struct StoreWatch {
    append_records: CounterHandle,
    append_errors: CounterHandle,
    append_pending: GaugeHandle,
    commit_batches: CounterHandle,
    commit_records: HistogramHandle,
    fsync_calls: CounterHandle,
    shards_quarantined: GaugeHandle,
}

impl StoreWatch {
    /// Records appended this session (acked or not).
    pub fn appended(&self) -> u64 {
        self.append_records.get()
    }

    /// Append errors this session.
    pub fn append_errors(&self) -> u64 {
        self.append_errors.get()
    }

    /// Records in the unacked window right now.
    pub fn pending(&self) -> u64 {
        self.append_pending.level()
    }

    /// Durable barriers that acked at least one record this session.
    pub fn commit_batches(&self) -> u64 {
        self.commit_batches.get()
    }

    /// Records covered by a completed durable barrier this session (the
    /// commit histogram's sum: every barrier observes its batch size).
    pub fn acked(&self) -> u64 {
        self.commit_records.sum() as u64
    }

    /// Fsyncs issued this session (see [`StoreStats::fsyncs`]).
    pub fn fsyncs(&self) -> u64 {
        self.fsync_calls.get()
    }

    /// Whether any shard is quarantined (degraded, not down).
    pub fn is_degraded(&self) -> bool {
        self.shards_quarantined.level() > 0
    }
}

/// An `InvalidData` error naming the file at fault.
pub(crate) fn corrupt(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// The store format this build reads and writes.
const FORMAT: &str = "v3";

/// Parse the `STORE` manifest: `v3 shards=N`. A manifest of an older
/// format is refused by name rather than misread.
fn parse_manifest(path: &Path, text: &str) -> io::Result<usize> {
    let text = text.trim();
    if text.starts_with("v2 ") {
        return Err(corrupt(
            path,
            "format v2 store (one file per blob under blobs/): this build reads only \
             format v3 (one blob pack per store)",
        ));
    }
    text.strip_prefix(FORMAT)
        .and_then(|rest| rest.strip_prefix(" shards="))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|n| (1..=256).contains(n))
        .ok_or_else(|| corrupt(path, format!("bad manifest {text:?}")))
}

/// Durably create the `STORE` manifest.
fn write_manifest(vfs: &Arc<dyn Vfs>, root: &Path, shards: usize) -> io::Result<()> {
    let tmp = root.join("STORE.tmp");
    vfs.write(&tmp, format!("{FORMAT} shards={shards}\n").as_bytes())?;
    vfs.fsync(&tmp)?;
    vfs.rename(&tmp, &root.join("STORE"))?;
    vfs.sync_dir(root)
}

/// The persistent content-addressed crawl store.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    opts: StoreOptions,
    shards: Vec<Shard>,
    blobs: BlobStore,
    recovery: RecoveryReport,
    metrics: MetricsRegistry,
    m: StoreMetrics,
    /// Records appended since the last durable barrier (the unacked
    /// window — a crash may lose exactly these, never an acked record).
    pending_records: u64,
    /// Records acked by a completed barrier this session.
    acked: u64,
    /// Parents of the directories this open created (the root, its
    /// missing ancestors, shard directories): the first barrier fsyncs
    /// them, so the new entries are durable before any record is acked.
    unsynced_dirs: Vec<PathBuf>,
}

impl Store {
    /// Open (creating or recovering) the store at `root` with default
    /// options.
    ///
    /// # Errors
    ///
    /// I/O failure. Corruption never fails the open — it quarantines the
    /// affected shard (see [`Store::recovery`]).
    pub fn open(root: &Path) -> io::Result<Store> {
        Store::open_with(root, StoreOptions::default())
    }

    /// Open with explicit [`StoreOptions`]. See the module docs for the
    /// recovery contract.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unreadable store manifest.
    pub fn open_with(root: &Path, opts: StoreOptions) -> io::Result<Store> {
        Store::open_with_vfs(root, opts, RealVfs::arc())
    }

    /// Open against an explicit [`Vfs`] — the injection point for
    /// [`FaultVfs`](crate::vfs::FaultVfs)-driven crash and fault testing.
    ///
    /// # Errors
    ///
    /// I/O failure, or an unreadable store manifest.
    pub fn open_with_vfs(root: &Path, opts: StoreOptions, vfs: Arc<dyn Vfs>) -> io::Result<Store> {
        assert!(opts.shards >= 1, "a store needs at least one shard");
        let metrics = MetricsRegistry::new();
        let m = StoreMetrics::register(&metrics);
        let vfs = CountingVfs::wrap(vfs, m.fsync_calls.clone());
        let mut unsynced_dirs = create_dirs(vfs.as_ref(), root)?;

        // Resolve the shard count: the manifest, or creation.
        let manifest_path = root.join("STORE");
        let shard_count = if vfs.exists(&manifest_path) {
            let text = String::from_utf8_lossy(&vfs.read(&manifest_path)?).to_string();
            parse_manifest(&manifest_path, &text)?
        } else if vfs.exists(&root.join("CURRENT")) {
            return Err(corrupt(
                root,
                "format v1 store (CURRENT at the root): this build reads only format v3",
            ));
        } else {
            write_manifest(&vfs, root, opts.shards)?;
            opts.shards
        };

        let blobs = BlobStore::open(Arc::clone(&vfs), root)?;
        if (0..shard_count).any(|id| !vfs.is_dir(&root.join(shard_dir_name(id)))) {
            unsynced_dirs.push(root.to_path_buf());
        }

        // Replay every shard over the work-stealing pool.
        let workers = opts.recovery_workers.max(1).min(shard_count);
        let opened = crawlerbox::run_stealing(workers, shard_count, |_, i| {
            Shard::open(Arc::clone(&vfs), root, i, &opts, &blobs, &m)
        });
        let mut shards = Vec::with_capacity(shard_count);
        for (i, slot) in opened.into_iter().enumerate() {
            match slot {
                Some(Ok(shard)) => shards.push(shard),
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(io::Error::other(format!(
                        "recovery worker died opening shard {i}"
                    )))
                }
            }
        }

        let mut recovery = RecoveryReport {
            blobs: blobs.len(),
            ..RecoveryReport::default()
        };
        for shard in &shards {
            recovery.segments += shard.segments();
            recovery.records += shard.len();
            if let Some(torn) = shard.torn() {
                recovery.torn.push(torn.clone());
            }
            if let ShardHealth::Quarantined { reason, .. } = shard.health() {
                recovery.quarantined.push((shard.id(), reason.clone()));
            }
        }
        m.shards_total.add(shard_count as u64);
        m.shards_quarantined.add(recovery.quarantined.len() as u64);

        Ok(Store {
            root: root.to_path_buf(),
            vfs,
            opts,
            shards,
            blobs,
            recovery,
            metrics,
            m,
            pending_records: 0,
            acked: 0,
            unsynced_dirs,
        })
    }

    /// Append one record: a one-record [`Store::append_batch`] of its
    /// [`encode_record`] encoding. Like every append it runs no barrier;
    /// the record is acked by the next [`Store::sync`].
    ///
    /// # Errors
    ///
    /// Like [`Store::append_batch`].
    pub fn append(&mut self, record: &ScanRecord) -> io::Result<()> {
        self.append_batch(vec![encode_record(&mut record.clone())?])
    }

    /// Append a batch of records already encoded on scan workers: blob
    /// puts run serially in batch order, then the pre-built frames fan out
    /// to their shards over the work-stealing pool — each touched shard is
    /// owned by exactly one task, which appends that shard's frames in
    /// batch order, so the per-shard log is bit-identical to feeding the
    /// same records one by one through [`Store::append`], whatever the
    /// worker count or batch size.
    ///
    /// The appended records stay pending: the only barrier that acks them
    /// is the caller's [`Store::sync`]. A segment that fills is still
    /// sealed durably here, after an fsync of the blob pack.
    ///
    /// # Errors
    ///
    /// I/O failure writing blobs or segments, or any record routing to a
    /// quarantined shard, which refuses the whole batch before side
    /// effects (repair the shard first).
    pub fn append_batch(&mut self, batch: Vec<EncodedRecord>) -> io::Result<()> {
        let result = self.append_batch_inner(batch);
        if result.is_err() {
            self.m.append_errors.incr();
        }
        result
    }

    fn append_batch_inner(&mut self, batch: Vec<EncodedRecord>) -> io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let shard_count = self.shards.len();
        // Health pre-check of every target shard: a refused batch has no
        // side effects.
        for rec in &batch {
            if let Some(e) =
                self.shards[shard_of(rec.meta.content_hash, shard_count)].quarantine_refusal()
            {
                return Err(e);
            }
        }

        // Blobs before any frame, in batch order — recovery must never
        // surface a record whose artifacts are missing.
        for artifact in batch.iter().flat_map(|rec| &rec.artifacts) {
            self.put_blob(artifact)?;
        }

        // Group frames by shard, preserving batch order within each shard.
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        let mut incoming = vec![0u64; shard_count];
        for (pos, rec) in batch.iter().enumerate() {
            let sid = shard_of(rec.meta.content_hash, shard_count);
            per_shard[sid].push(pos);
            incoming[sid] += rec.frame.len() as u64;
        }

        // If any shard may seal a segment during this batch, the blob
        // pack must be durable first: a sealed (interior) segment
        // must never reference non-durable blobs, or a crash would turn
        // the batch into wrongful quarantine instead of a torn tail.
        let may_seal = self.shards.iter().enumerate().any(|(i, s)| {
            incoming[i] > 0
                && s.active_segment_bytes() + incoming[i] >= self.opts.segment_target_bytes
        });
        if may_seal {
            self.blobs.sync()?;
        }

        // Fan the appends out: one task per touched shard.
        let touched: Vec<usize> = (0..shard_count)
            .filter(|&i| !per_shard[i].is_empty())
            .collect();
        let workers = self.opts.recovery_workers.max(1).min(touched.len());
        let results = {
            let slots: Vec<Mutex<&mut Shard>> = self.shards.iter_mut().map(Mutex::new).collect();
            crawlerbox::run_stealing(workers, touched.len(), |_, j| {
                let sid = touched[j];
                let mut shard = slots[sid].lock().expect("shard slot");
                let mut wrote_each = Vec::with_capacity(per_shard[sid].len());
                for &pos in &per_shard[sid] {
                    let wrote = shard.append_frame(&batch[pos].frame)?;
                    wrote_each.push((pos, wrote));
                    if shard.segment_full() {
                        shard.seal_active_segment()?;
                    }
                }
                Ok::<_, io::Error>(wrote_each)
            })
        };
        let mut wrote_by_pos = vec![0u64; batch.len()];
        for (j, slot) in results.into_iter().enumerate() {
            let wrote_each = match slot {
                Some(r) => r?,
                None => {
                    return Err(io::Error::other(format!(
                        "append worker died on shard {}",
                        touched[j]
                    )))
                }
            };
            for (pos, wrote) in wrote_each {
                wrote_by_pos[pos] = wrote;
            }
        }

        // Index and account in batch (delivery) order.
        for (pos, EncodedRecord { meta, refs, .. }) in batch.into_iter().enumerate() {
            let sid = shard_of(meta.content_hash, shard_count);
            self.m.append_records.incr();
            self.m.append_bytes.add(wrote_by_pos[pos]);
            self.shards[sid].index_encoded(meta, refs);
            self.pending_records += 1;
            self.m.append_pending.add(1);
        }
        Ok(())
    }

    /// Put one artifact into the blob pack, counting the write or the
    /// dedup hit. The pack is checked before the bytes are asked for, so
    /// an undrawn screenshot is drawn only when its address is missing.
    fn put_blob(&mut self, artifact: &CapturedArtifact) -> io::Result<()> {
        if self.blobs.contains(artifact.hash) {
            self.m.blob_dedup_hits.incr();
            return Ok(());
        }
        let bytes = artifact.bytes();
        self.blobs.put(artifact.hash, &bytes)?;
        self.m.blob_writes.incr();
        self.m.blob_bytes.add(bytes.len() as u64);
        Ok(())
    }

    /// Records appended but not yet acked by a durable barrier.
    pub fn pending_appends(&self) -> u64 {
        self.pending_records
    }

    /// Records acked by a completed barrier this session. A crash loses
    /// at most the pending window, never an acked record.
    pub fn acked_appends(&self) -> u64 {
        self.acked
    }

    /// The configured group-commit batch size
    /// ([`StoreOptions::commit_batch`]).
    pub fn commit_batch(&self) -> usize {
        self.opts.commit_batch.max(1)
    }

    /// Flush buffered log writes to the OS (no fsync).
    ///
    /// # Errors
    ///
    /// I/O failure flushing a segment writer.
    pub fn flush(&mut self) -> io::Result<()> {
        for shard in &mut self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// The durable-write barrier: on the first barrier, fsync the parents
    /// of the directories the open created; then fsync the blob pack and
    /// its index (blobs become durable *before* the frames referencing
    /// them), then every dirty shard's segment and generation directory.
    /// Clean shards and an unchanged pack cost zero fsyncs, so a sync after
    /// a read-only window is free. On success every pending record becomes
    /// **acked** — this is the store's only barrier and ack point; the
    /// caller decides its cadence (a [`StoreSink`](crate::StoreSink)
    /// syncs once per flush).
    ///
    /// # Errors
    ///
    /// I/O failure flushing or syncing. The pending window stays unacked.
    pub fn sync(&mut self) -> io::Result<()> {
        while let Some(dir) = self.unsynced_dirs.last() {
            self.vfs.sync_dir(dir)?;
            self.unsynced_dirs.pop();
        }
        self.blobs.sync()?;
        for shard in &mut self.shards {
            shard.sync()?;
        }
        if self.pending_records > 0 {
            self.m.commit_batches.incr();
            self.m.commit_records.observe(self.pending_records as i64);
            self.m.append_pending.sub(self.pending_records);
            self.acked += self.pending_records;
            self.pending_records = 0;
        }
        Ok(())
    }

    /// Decode every record from disk, shard by shard in shard order (log
    /// order within each shard).
    ///
    /// # Errors
    ///
    /// I/O failure, frames that fail CRC/decoding, or any quarantined
    /// shard (repair first).
    pub fn read_all(&mut self) -> io::Result<Vec<ScanRecord>> {
        let mut out = Vec::new();
        for payload in self.read_payloads()? {
            out.push(
                cb_json::from_slice(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            );
        }
        Ok(out)
    }

    /// Raw canonical payload bytes of every record, shard by shard in
    /// shard order — the byte-identity primitive the determinism tests
    /// compare. Blob-ref frames are not included. Shards are read in
    /// parallel over the work-stealing pool and concatenated in shard
    /// order, so the output is independent of which worker read what.
    ///
    /// # Errors
    ///
    /// I/O failure, non-clean frames, or any quarantined shard.
    pub fn read_payloads(&mut self) -> io::Result<Vec<Vec<u8>>> {
        let workers = self.opts.recovery_workers.max(1).min(self.shards.len());
        let slots: Vec<Mutex<&mut Shard>> = self.shards.iter_mut().map(Mutex::new).collect();
        let results = crawlerbox::run_stealing(workers, slots.len(), |_, i| {
            slots[i].lock().expect("shard slot").read_payloads()
        });
        let mut out = Vec::new();
        for (i, slot) in results.into_iter().enumerate() {
            match slot {
                Some(r) => out.extend(r?),
                None => return Err(io::Error::other(format!("read worker died on shard {i}"))),
            }
        }
        Ok(out)
    }

    /// Fetch the canonical payloads of specific records, addressed as
    /// `(shard id, shard-local seq)` (the addressing [`Store::metas`]
    /// yields). The fetches fan out over the work-stealing pool, each
    /// shard paging in only the segments its requested records live in —
    /// the point-query path, as opposed to the full-log
    /// [`Store::read_payloads`] replay. Results come back in input order.
    ///
    /// # Errors
    ///
    /// I/O failure, an out-of-range address, or a quarantined shard.
    pub fn fetch_payloads(&mut self, keys: &[(usize, usize)]) -> io::Result<Vec<Vec<u8>>> {
        let shard_count = self.shards.len();
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        let mut seqs: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
        for (pos, &(sid, seq)) in keys.iter().enumerate() {
            if sid >= shard_count {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no shard {sid}: store has {shard_count} shard(s)"),
                ));
            }
            positions[sid].push(pos);
            seqs[sid].push(seq);
        }
        let touched: Vec<usize> = (0..shard_count).filter(|&i| !seqs[i].is_empty()).collect();
        let workers = self.opts.recovery_workers.max(1).min(touched.len().max(1));
        let slots: Vec<Mutex<&mut Shard>> = self.shards.iter_mut().map(Mutex::new).collect();
        let results = crawlerbox::run_stealing(workers, touched.len(), |_, j| {
            let sid = touched[j];
            slots[sid]
                .lock()
                .expect("shard slot")
                .fetch_payloads(&seqs[sid])
        });
        let mut out = vec![Vec::new(); keys.len()];
        for (j, slot) in results.into_iter().enumerate() {
            let sid = touched[j];
            let payloads = match slot {
                Some(r) => r?,
                None => {
                    return Err(io::Error::other(format!(
                        "fetch worker died on shard {sid}"
                    )))
                }
            };
            for (k, payload) in payloads.into_iter().enumerate() {
                out[positions[sid][k]] = payload;
            }
        }
        Ok(out)
    }

    /// Walk every shard's frames and every blob, CRC/hash-checking all of
    /// it, including that every blob ref on disk resolves to a stored
    /// blob. A quarantined shard contributes a fault, not an error.
    ///
    /// # Errors
    ///
    /// Only on I/O failure listing directories; integrity problems are
    /// returned as faults in the report.
    pub fn verify(&mut self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let mut faults: Vec<(PathBuf, String)> = Vec::new();
        for shard in &mut self.shards {
            shard.verify_into(
                &self.blobs,
                &mut report.records,
                &mut report.segments,
                &mut faults,
            )?;
        }
        report.faults = faults
            .into_iter()
            .map(|(path, reason)| VerifyFault { path, reason })
            .collect();
        report.blobs = self.blobs.len();
        for fault in self.blobs.verify()? {
            report.faults.push(VerifyFault {
                path: self.blobs.pack_path(),
                reason: format!("blob {:032x}: {}", fault.hash, fault.reason),
            });
        }
        Ok(report)
    }

    /// Compact every healthy shard (newest record per content hash), in
    /// parallel over the recovery pool.
    ///
    /// # Errors
    ///
    /// I/O failure, or any shard quarantined (repair first — compaction
    /// must not silently discard a quarantined shard's salvageable data).
    pub fn compact(&mut self) -> io::Result<CompactReport> {
        if let Some((id, reason)) = self.quarantined().into_iter().next() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot compact: shard {id} is quarantined ({reason})"),
            ));
        }
        // Rewritten generations re-reference existing blobs; any pending
        // blob renames must be durable before a new generation can be.
        self.blobs.sync()?;
        self.flush()?;
        let workers = self.opts.recovery_workers.max(1).min(self.shards.len());
        let slots: Vec<std::sync::Mutex<&mut Shard>> =
            self.shards.iter_mut().map(std::sync::Mutex::new).collect();
        let results = crawlerbox::run_stealing(workers, slots.len(), |_, i| {
            slots[i].lock().expect("shard slot").compact()
        });
        let mut report = CompactReport {
            kept: 0,
            dropped: 0,
            segments_before: 0,
            segments_after: 0,
        };
        for (i, slot) in results.into_iter().enumerate() {
            let (kept, dropped, before, after) = match slot {
                Some(r) => r?,
                None => {
                    return Err(io::Error::other(format!(
                        "compaction worker died on shard {i}"
                    )))
                }
            };
            report.kept += kept;
            report.dropped += dropped;
            report.segments_before += before;
            report.segments_after += after;
        }
        Ok(report)
    }

    /// Repair shard `id`, or every quarantined shard when `None`:
    /// re-adjudicate from the last valid frames, rewrite into a fresh
    /// generation, return the shard(s) to service.
    ///
    /// # Errors
    ///
    /// I/O failure, or an out-of-range shard id.
    pub fn repair(&mut self, id: Option<usize>) -> io::Result<Vec<RepairReport>> {
        let targets: Vec<usize> = match id {
            Some(i) => {
                if i >= self.shards.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("no shard {i}: store has {} shard(s)", self.shards.len()),
                    ));
                }
                vec![i]
            }
            None => self
                .shards
                .iter()
                .filter(|s| !s.health().is_healthy())
                .map(Shard::id)
                .collect(),
        };
        self.blobs.sync()?;
        let mut reports = Vec::with_capacity(targets.len());
        for i in targets {
            reports.push(self.shards[i].repair(&self.blobs, &self.m)?);
        }
        Ok(reports)
    }

    /// Remove blobs referenced by no record of any shard. Refuses while
    /// any shard is quarantined — its references are unknown, and deleting
    /// its evidence would turn a recoverable corruption into data loss.
    ///
    /// # Errors
    ///
    /// I/O failure, or a quarantined shard.
    pub fn gc_orphan_blobs(&mut self) -> io::Result<Vec<u128>> {
        if let Some((id, reason)) = self.quarantined().into_iter().next() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cannot gc blobs: shard {id} is quarantined ({reason})"),
            ));
        }
        let mut live: HashSet<u128> = HashSet::new();
        for shard in &self.shards {
            live.extend(shard.live_blob_refs());
        }
        let removed = self.blobs.remove_except(&live)?;
        self.m.gc_blobs.add(removed.len() as u64);
        Ok(removed)
    }

    /// Cluster the healthy shards' records into campaigns. Each shard's
    /// index clusters into a fragment on the work-stealing pool; the
    /// fragments are absorbed in shard order, which is provably
    /// bit-identical to serial clustering (the output depends only on the
    /// connected components and node numbering, and
    /// [`CampaignClusterer::absorb`] preserves both).
    pub fn campaigns(&self) -> Vec<Campaign> {
        let indexes: Vec<(usize, &StoreIndex)> =
            self.shards.iter().map(|s| (s.id(), s.index())).collect();
        let workers = self.opts.recovery_workers.max(1).min(indexes.len().max(1));
        let mut clusterer = CampaignClusterer::new();
        if workers <= 1 || indexes.len() <= 1 {
            for (id, index) in indexes {
                clusterer.add_index(id, index);
            }
            return clusterer.finish();
        }
        let fragments = crawlerbox::run_stealing(workers, indexes.len(), |_, i| {
            let mut fragment = CampaignClusterer::new();
            fragment.add_index(indexes[i].0, indexes[i].1);
            fragment
        });
        for (i, slot) in fragments.into_iter().enumerate() {
            match slot {
                Some(fragment) => clusterer.absorb(fragment),
                // A dead worker degrades that shard to the serial path.
                None => clusterer.add_index(indexes[i].0, indexes[i].1),
            }
        }
        clusterer.finish()
    }

    /// Every served record's meta, as `(shard id, meta)`, shard by shard
    /// in per-shard log order.
    pub fn metas(&self) -> impl Iterator<Item = (usize, &RecordMeta)> {
        self.shards
            .iter()
            .flat_map(|s| s.index().metas().iter().map(move |m| (s.id(), m)))
    }

    /// Class histogram over all healthy shards.
    pub fn class_counts(&self) -> BTreeMap<MessageClass, usize> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (class, n) in shard.index().class_counts() {
                *out.entry(class).or_insert(0) += n;
            }
        }
        out
    }

    /// Landing-domain counts over all healthy shards.
    pub fn domain_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for shard in &self.shards {
            for (domain, n) in shard.index().domain_counts() {
                *out.entry(domain.to_string()).or_insert(0) += n;
            }
        }
        out
    }

    /// All recorded content hashes across healthy shards (the incremental
    /// re-scan skip set — a quarantined shard's records re-scan as new,
    /// which is how its data gets refilled after repair).
    pub fn known_hashes(&self) -> HashSet<u128> {
        let mut out = HashSet::new();
        for shard in &self.shards {
            shard.known_hashes_into(&mut out);
        }
        out
    }

    /// Whether `hash` is already recorded in a healthy shard.
    pub fn contains_hash(&self, hash: u128) -> bool {
        let shard = shard_of(hash, self.shards.len());
        self.shards[shard].index().contains_hash(hash)
    }

    /// Records served (healthy shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether no records are served.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read a stored blob by content hash.
    ///
    /// # Errors
    ///
    /// I/O failure reading the pack, or a damaged pack frame.
    pub fn blob(&self, hash: u128) -> io::Result<Option<Vec<u8>>> {
        self.blobs.get(hash)
    }

    /// The blob pack.
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// The shards, in id order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Shard `id`, if in range.
    pub fn shard(&self, id: usize) -> Option<&Shard> {
        self.shards.get(id)
    }

    /// Number of shards (fixed at store creation).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Quarantined shards as `(id, reason)`.
    pub fn quarantined(&self) -> Vec<(usize, String)> {
        self.shards
            .iter()
            .filter_map(|s| match s.health() {
                ShardHealth::Quarantined { reason, .. } => Some((s.id(), reason.clone())),
                ShardHealth::Healthy => None,
            })
            .collect()
    }

    /// Whether any shard is quarantined (the store still serves healthy
    /// shards, but writes to the quarantined ones fail).
    pub fn is_degraded(&self) -> bool {
        self.shards.iter().any(|s| !s.health().is_healthy())
    }

    /// What the last open found and recovered.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The store's metric registry (`store.*` counters and gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The commit-batch-size histogram (`store.commit.batch_records`):
    /// how many records each durable barrier acked this session. Handles
    /// share the underlying instrument, so the clone stays live.
    pub fn commit_batch_sizes(&self) -> HistogramHandle {
        self.m.commit_records.clone()
    }

    /// A lock-free watch over this store's live counters.
    ///
    /// The daemon serializes appends through a mutex per partition, but
    /// `/health` and `/metrics` must answer without contending on the
    /// write path — a [`StoreWatch`] taken at open time keeps observing
    /// the live instruments without touching the store again.
    pub fn watch(&self) -> StoreWatch {
        StoreWatch {
            append_records: self.m.append_records.clone(),
            append_errors: self.m.append_errors.clone(),
            append_pending: self.m.append_pending.clone(),
            commit_batches: self.m.commit_batches.clone(),
            commit_records: self.m.commit_records.clone(),
            fsync_calls: self.m.fsync_calls.clone(),
            shards_quarantined: self.m.shards_quarantined.clone(),
        }
    }

    /// This store's campaign-cluster fragment, with shard ids offset by
    /// `shard_base` so fragments from several independent stores (the
    /// daemon's partitions) can be absorbed into one cross-partition
    /// clustering without id collisions. Absorb fragments in partition
    /// order for the same bit-identical-to-serial guarantee
    /// [`campaigns`](Self::campaigns) keeps across shards.
    pub fn campaign_fragment(&self, shard_base: usize) -> CampaignClusterer {
        let mut fragment = CampaignClusterer::new();
        for shard in &self.shards {
            fragment.add_index(shard_base + shard.id(), shard.index());
        }
        fragment
    }

    /// Counter-derived shape summary (no I/O).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.len(),
            segments: self.shards.iter().map(Shard::segments).sum(),
            log_bytes: self.shards.iter().map(Shard::log_bytes).sum(),
            blobs: self.blobs.len(),
            shards: self.shards.len(),
            quarantined: self
                .shards
                .iter()
                .filter(|s| !s.health().is_healthy())
                .count(),
            appended: self.m.append_records.get(),
            append_errors: self.m.append_errors.get(),
            commit_batches: self.m.commit_batches.get(),
            acked: self.acked,
            pending: self.pending_records,
            fsyncs: self.m.fsync_calls.get(),
            blob_dedup_hits: self.m.blob_dedup_hits.get(),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Durably persist an opaque named state blob under `<root>/state/`.
    ///
    /// State blobs live beside the record log (the `state/` directory is
    /// invisible to shard and blob-pack discovery) and follow the same
    /// write-tmp → rename → dir-fsync discipline as the manifest, so a
    /// crash mid-write leaves either the old bytes or the new bytes —
    /// never a torn file. Used by the adaptive crawler to checkpoint its
    /// per-campaign-family bandit policies so a re-opened store resumes
    /// the arms race where it left off.
    ///
    /// `name` must be a single path component (no separators).
    ///
    /// # Errors
    ///
    /// I/O failure, or a `name` containing path separators.
    pub fn put_state(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if name.is_empty() || name.contains('/') || name.contains('\\') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("state name must be a bare file name, got {name:?}"),
            ));
        }
        let dir = self.root.join("state");
        for parent in create_dirs(self.vfs.as_ref(), &dir)? {
            self.vfs.sync_dir(&parent)?;
        }
        let tmp = dir.join(format!("{name}.tmp"));
        self.vfs.write(&tmp, bytes)?;
        self.vfs.fsync(&tmp)?;
        self.vfs.rename(&tmp, &dir.join(name))?;
        self.vfs.sync_dir(&dir)
    }

    /// Read back a state blob written by [`Store::put_state`].
    ///
    /// Returns `None` when the blob was never written (or its directory
    /// does not exist yet) — absence is a normal cold-start condition,
    /// not an error.
    pub fn state(&self, name: &str) -> Option<Vec<u8>> {
        self.vfs.read(&self.root.join("state").join(name)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::pack_file_name;
    use cb_phishgen::{Corpus, CorpusSpec};
    use crawlerbox::{ArtifactKind, CrawlerBox};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cb-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A screenshot artifact captured undrawn: the first one a box warmed
    /// by a capture-off scan of the same message captures.
    fn undrawn_screenshot() -> CapturedArtifact {
        let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.01), 7);
        for message in &corpus.messages {
            let cbx = CrawlerBox::new(&corpus.world);
            cbx.scan(message);
            let cbx = cbx.with_artifact_capture(true);
            let undrawn = cbx
                .scan(message)
                .artifacts
                .into_iter()
                .find(|a| !a.is_drawn());
            if let Some(artifact) = undrawn {
                return artifact;
            }
        }
        panic!("no message of the corpus takes a screenshot");
    }

    /// The store asks an artifact for its bytes only when the pack lacks
    /// its address: an undrawn screenshot whose blob is already stored
    /// counts a dedup hit and appends nothing, and a store without it
    /// draws it into the pack under the same address.
    #[test]
    fn put_blob_draws_an_undrawn_screenshot_only_on_a_miss() {
        let shot = undrawn_screenshot();
        assert_eq!(shot.kind, ArtifactKind::Screenshot);
        let bytes = shot.bytes().into_owned();
        let drawn = CapturedArtifact::new(ArtifactKind::Screenshot, shot.hash, bytes.clone());

        let dir = scratch("put-blob-hit");
        let mut store = Store::open(&dir).unwrap();
        store.put_blob(&drawn).unwrap();
        let pack_len = || {
            std::fs::metadata(dir.join(pack_file_name(0)))
                .unwrap()
                .len()
        };
        let (len, hits) = (pack_len(), store.m.blob_dedup_hits.get());
        store.put_blob(&shot).unwrap();
        assert_eq!(store.m.blob_dedup_hits.get(), hits + 1);
        assert_eq!(store.m.blob_writes.get(), 1);
        assert_eq!(pack_len(), len, "a dedup hit appends nothing");
        drop(store);

        let other = scratch("put-blob-miss");
        let mut store = Store::open(&other).unwrap();
        store.put_blob(&shot).unwrap();
        assert_eq!(store.m.blob_writes.get(), 1);
        assert_eq!(store.m.blob_dedup_hits.get(), 0);
        assert_eq!(store.blob(shot.hash).unwrap(), Some(bytes));
        assert!(store.verify().unwrap().is_clean());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }
}
