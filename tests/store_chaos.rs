//! Crash-consistency sweep for the sharded store, driven by the
//! deterministic [`FaultVfs`] fault injector.
//!
//! The core harness probes a reference run to count every mutating I/O
//! operation, then replays the run crashing at *each* of them in turn:
//! after every simulated power cut the on-disk state is rewritten to what
//! a real crash could have left (unsynced tails torn, un-fsynced renames
//! rolled back), the store is reopened, and the sweep asserts the
//! recovery contract:
//!
//! * no acknowledged record is ever lost (an ack is an append followed
//!   by a completed `Store::sync`),
//! * crash artifacts never quarantine a shard (quarantine is for real
//!   corruption, not power cuts),
//! * a crash between blob write and frame append leaves at worst an
//!   orphan blob (GC-able), never a frame whose evidence is missing,
//! * an incremental re-scan refills exactly the lost records and the
//!   final log is bit-identical to a never-crashed run.
//!
//! `CB_CHAOS_SEED` (default 1) picks the fault-injection seed,
//! `CB_CHAOS_SHARDS` pins a single shard count (default: sweep 1 and 4)
//! and `CB_CHAOS_BATCH` pins a single group-commit batch size (default:
//! sweep 1 and 16); CI runs the sweep across seeds, shard counts and
//! batch sizes. The store never runs a barrier on its own: the drivers
//! here call `Store::sync` after each append, as `StoreSink` does after
//! each flush, and a record is **acked** only once such a sync covers it.
//! The sweep's lost-record assertion tracks exactly that watermark.

use cb_artifacts::fingerprint::fnv128;
use cb_phishgen::MessageClass;
use cb_sim::SimTime;
use cb_store::blob::{index_file_name, pack_file_name, INDEX_ENTRY_LEN, PACK_HEADER_LEN};
use cb_store::vfs::VfsFile;
use cb_store::{
    encode_record, BlobStore, FaultVfs, IoFaultKind, IoFaultPlan, RealVfs, Store, StoreOptions,
    StoreSink, Vfs,
};
use crawlerbox::{ArtifactKind, CapturedArtifact, EncodedSink, ScanRecord};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic sweep options: single-threaded recovery (so the mutating
/// op sequence is identical across probe and crash runs — one worker also
/// inlines the batch-append fan-out), a small segment target (so the
/// sweep crosses segment seals and rolls), and the given group-commit
/// batch size.
fn sweep_opts(shards: usize, batch: usize) -> StoreOptions {
    StoreOptions {
        segment_target_bytes: 256,
        commit_batch: batch,
        shards,
        recovery_workers: 1,
    }
}

/// Drive `records` into `store` through the group-commit ingest path in
/// `batch`-sized chunks, each one `append_batch` and one barrier
/// (`Store::sync`), stopping at the first I/O error. Returns the content
/// hashes that were **acked** — covered by a completed durable barrier —
/// when the run ended. A crash may lose anything beyond these, never one
/// of them.
fn ingest_acked(store: &mut Store, records: &[ScanRecord], batch: usize) -> Vec<u128> {
    let mut acked = Vec::new();
    for chunk in records.chunks(batch.max(1)) {
        let mut encoded = Vec::with_capacity(chunk.len());
        for r in chunk {
            encoded.push(encode_record(&mut r.clone()).expect("canonical encoding"));
        }
        let appended = store.append_batch(encoded);
        if appended.and_then(|()| store.sync()).is_err() {
            break;
        }
        acked.extend(chunk.iter().map(|r| r.content_hash));
    }
    acked
}

/// A small corpus of synthetic records: artifacts on most (blob path),
/// none on one (bare-frame path), and one shared artifact (dedup path).
fn chaos_records() -> Vec<ScanRecord> {
    let shared = b"shared screenshot bitmap".to_vec();
    (0..6usize)
        .map(|id| {
            let body = format!("chaos message body {id}").into_bytes();
            let mut artifacts = Vec::new();
            if id != 2 {
                artifacts.push(CapturedArtifact::new(
                    ArtifactKind::Message,
                    fnv128(&body),
                    body.clone(),
                ));
            }
            if id == 1 || id == 5 {
                artifacts.push(CapturedArtifact::new(
                    ArtifactKind::Screenshot,
                    fnv128(&shared),
                    shared.clone(),
                ));
            }
            ScanRecord {
                message_id: id,
                content_hash: fnv128(&body),
                delivered_at: SimTime::EPOCH,
                auth_pass: id % 2 == 0,
                extracted: Vec::new(),
                visits: Vec::new(),
                body_bytes: body.len(),
                blank_line_run: 0,
                class: MessageClass::NoResource,
                error: None,
                artifacts,
            }
        })
        .collect()
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The tentpole acceptance test: crash at every mutating I/O operation of
/// a full store run; recovery must lose zero acked records, never
/// quarantine, and a delta re-scan must rebuild the exact byte-identical
/// log of a never-crashed run.
#[test]
fn crash_point_sweep_loses_no_acked_records() {
    let seed = env_u64("CB_CHAOS_SEED", 1);
    let shard_counts: Vec<usize> = match std::env::var("CB_CHAOS_SHARDS") {
        Ok(v) => vec![v.parse().expect("CB_CHAOS_SHARDS must be a shard count")],
        Err(_) => vec![1, 4],
    };
    let batches: Vec<usize> = match std::env::var("CB_CHAOS_BATCH") {
        Ok(v) => vec![v.parse().expect("CB_CHAOS_BATCH must be a batch size")],
        Err(_) => vec![1, 16],
    };
    let records = chaos_records();

    for &shards in &shard_counts {
        for &batch in &batches {
            let tag = format!("{shards}-{batch}");
            // Golden run: a never-crashed store on the real file system.
            let golden_dir = scratch(&format!("golden-{tag}"));
            let mut golden_store =
                Store::open_with(&golden_dir, sweep_opts(shards, batch)).unwrap();
            let golden_acked = ingest_acked(&mut golden_store, &records, batch);
            assert_eq!(
                golden_acked.len(),
                records.len(),
                "uncrashed run acks everything"
            );
            let golden = golden_store.read_payloads().unwrap();
            let golden_blobs = golden_store.blobs().hashes();
            drop(golden_store);
            std::fs::remove_dir_all(&golden_dir).unwrap();

            // Probe run: count the mutating ops of the full run.
            let probe_dir = scratch(&format!("probe-{tag}"));
            let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(seed));
            let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
            let mut store =
                Store::open_with_vfs(&probe_dir, sweep_opts(shards, batch), probe_vfs).unwrap();
            ingest_acked(&mut store, &records, batch);
            drop(store);
            std::fs::remove_dir_all(&probe_dir).unwrap();
            let ops = probe.ops();
            assert!(ops > 20, "probe must see a realistic op count, got {ops}");

            let mut orphan_crash_points = 0usize;
            for crash_at in 1..=ops {
                let dir = scratch(&format!("sweep-{tag}-{crash_at}"));
                let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, crash_at));
                let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
                let mut acked: Vec<u128> = Vec::new();
                match Store::open_with_vfs(&dir, sweep_opts(shards, batch), vfs) {
                    Err(_) => {} // crashed while creating the store
                    Ok(mut store) => acked = ingest_acked(&mut store, &records, batch),
                }
                assert!(
                    fault.crashed(),
                    "{tag}: crash point {crash_at}/{ops} was never reached"
                );
                fault.apply_crash().unwrap();

                // Power is back: recover on the real file system.
                let mut store = Store::open_with(&dir, sweep_opts(shards, batch)).unwrap();
                assert!(
                    store.recovery().quarantined.is_empty(),
                    "{tag} crash {crash_at}: crash artifacts must never quarantine: {:?}",
                    store.recovery().quarantined
                );
                for h in &acked {
                    assert!(
                        store.contains_hash(*h),
                        "{tag} crash {crash_at}: acked record {h:032x} lost \
                         ({} of {} acked, {} recovered)",
                        acked.len(),
                        records.len(),
                        store.len()
                    );
                }
                // Every surviving frame's evidence must resolve (a dangling
                // blob ref is the bug class the blob-before-frame ordering
                // exists to prevent); at worst the crash left orphan blobs.
                assert!(
                    store.verify().unwrap().is_clean(),
                    "{tag} crash {crash_at}: recovered store fails verify"
                );
                let orphans = store.gc_orphan_blobs().unwrap();
                if !orphans.is_empty() {
                    orphan_crash_points += 1;
                }

                // Delta re-scan: refill exactly the lost records.
                let known = store.known_hashes();
                let refilled = records.iter().filter(|r| !known.contains(&r.content_hash));
                for r in refilled {
                    store.append(r).unwrap();
                }
                store.sync().unwrap();
                assert_eq!(store.len(), records.len(), "{tag} crash {crash_at}");
                assert_eq!(
                    store.read_payloads().unwrap(),
                    golden,
                    "{tag} crash {crash_at}: refilled log is not bit-identical"
                );
                assert_eq!(
                    store.blobs().hashes(),
                    golden_blobs,
                    "{tag} crash {crash_at}: blob set diverged"
                );
                assert!(store.verify().unwrap().is_clean());
                assert_eq!(
                    store.gc_orphan_blobs().unwrap(),
                    Vec::<u128>::new(),
                    "{tag} crash {crash_at}: refill must re-reference every blob"
                );
                drop(store);
                std::fs::remove_dir_all(&dir).unwrap();
            }
            eprintln!(
                "chaos sweep shards={shards} batch={batch} seed={seed}: {ops} crash \
                 points, {orphan_crash_points} left orphan blobs (GC'd)"
            );
        }
    }
}

/// Every file under `dir`, keyed by its path relative to `dir`, with its
/// length. A crash may have rolled back `dir` itself: then there are none.
fn file_lengths(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut out = BTreeMap::new();
    let mut pending: Vec<PathBuf> = dir
        .is_dir()
        .then(|| dir.to_path_buf())
        .into_iter()
        .collect();
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let len = std::fs::metadata(&path).unwrap().len();
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), len);
            }
        }
    }
    out
}

/// A crash plan replays from its seed alone: the same plan, crashing the
/// same run in two directories with different names, leaves the same
/// files at the same lengths, at every crash point of the sweep.
#[test]
fn crash_state_does_not_depend_on_the_directory_name() {
    let seed = env_u64("CB_CHAOS_SEED", 1);
    let records = chaos_records();
    let (shards, batch) = (4, 1);
    let probe_dir = scratch("names-probe");
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(seed));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let mut store = Store::open_with_vfs(&probe_dir, sweep_opts(shards, batch), probe_vfs).unwrap();
    ingest_acked(&mut store, &records, batch);
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();

    let mut states_with_bytes = 0usize;
    for crash_at in 1..=probe.ops() {
        let states: Vec<BTreeMap<PathBuf, u64>> = ["names-a", "names-other"]
            .iter()
            .map(|name| {
                let dir = scratch(&format!("{name}-{crash_at}"));
                let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, crash_at));
                let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
                if let Ok(mut store) = Store::open_with_vfs(&dir, sweep_opts(shards, batch), vfs) {
                    ingest_acked(&mut store, &records, batch);
                }
                assert!(fault.crashed(), "crash point {crash_at} was never reached");
                fault.apply_crash().unwrap();
                let lengths = file_lengths(&dir);
                let _ = std::fs::remove_dir_all(&dir);
                lengths
            })
            .collect();
        assert_eq!(
            states[0], states[1],
            "crash {crash_at}: the post-crash state depends on the directory name"
        );
        if states[0].values().any(|&len| len > 0) {
            states_with_bytes += 1;
        }
    }
    assert!(
        states_with_bytes > 0,
        "no crash point left any bytes on disk"
    );
}

/// Group-commit ack semantics under crashes, pinned at batch boundaries:
/// with batches of 3, every batch append whose barrier completed is an
/// acked *batch*, and a crash anywhere in the run must
/// recover either the whole batch or (if unacked) any prefix of it —
/// acked batches are all-or-nothing, and the single-shard log recovers as
/// an exact prefix of the append order (frames are never reordered or
/// torn interior).
#[test]
fn group_commit_crash_points_ack_batches_all_or_nothing() {
    let seed = env_u64("CB_CHAOS_SEED", 1);
    let records = chaos_records();
    let batch = 3usize;
    let expected: Vec<Vec<u8>> = records
        .iter()
        .map(|r| cb_json::to_vec(r).unwrap())
        .collect();

    // Probe the op count of the full chunked run.
    let probe_dir = scratch("batchwin-probe");
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(seed));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let mut store = Store::open_with_vfs(&probe_dir, sweep_opts(1, batch), probe_vfs).unwrap();
    assert_eq!(
        ingest_acked(&mut store, &records, batch).len(),
        records.len()
    );
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let ops = probe.ops();

    let mut partial_batch_recoveries = 0usize;
    for crash_at in 1..=ops {
        let dir = scratch(&format!("batchwin-{crash_at}"));
        let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, crash_at));
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
        let mut acked: Vec<u128> = Vec::new();
        match Store::open_with_vfs(&dir, sweep_opts(1, batch), vfs) {
            Err(_) => {}
            Ok(mut store) => acked = ingest_acked(&mut store, &records, batch),
        }
        assert!(
            fault.crashed(),
            "crash point {crash_at}/{ops} was never reached"
        );
        // The helper acks whole batches only: each ack is a completed
        // barrier over one 3-record batch.
        assert_eq!(
            acked.len() % batch,
            0,
            "crash {crash_at}: torn ack watermark"
        );
        fault.apply_crash().unwrap();

        let mut store = Store::open_with(&dir, sweep_opts(1, batch)).unwrap();
        assert!(store.recovery().quarantined.is_empty(), "crash {crash_at}");
        assert!(store.verify().unwrap().is_clean(), "crash {crash_at}");
        let recovered = store.read_payloads().unwrap();
        // One shard ⇒ the recovered log is an exact prefix of the append
        // order: no record survives ahead of a lost one.
        assert!(
            recovered.len() <= expected.len() && recovered == expected[..recovered.len()],
            "crash {crash_at}: recovered log is not a prefix ({} records)",
            recovered.len()
        );
        // Every acked batch is fully present — the all-or-nothing ack.
        assert!(
            recovered.len() >= acked.len(),
            "crash {crash_at}: acked batch lost ({} acked, {} recovered)",
            acked.len(),
            recovered.len()
        );
        if !recovered.len().is_multiple_of(batch) {
            partial_batch_recoveries += 1;
        }
        let _ = store.gc_orphan_blobs().unwrap();
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // The sweep must actually exercise the interesting window: crashes
    // that land mid-batch recover a partial (unacked) batch.
    assert!(
        partial_batch_recoveries > 0,
        "no crash point recovered a partial batch — the barrier window was not swept"
    );
}

/// The blob-write/frame-append crash window, pinned: crash exactly at the
/// segment fsync that follows the blob pack and index fsyncs. The blob is
/// durable, the frame is not — recovery must either keep the whole pair
/// (the tail happened to survive) or drop the frame and leave an orphan
/// blob for GC. It must never surface a record whose blob is gone.
#[test]
fn crash_between_blob_write_and_frame_append_leaves_orphan_not_dangling() {
    let records = chaos_records();
    let record = &records[0];
    assert!(!record.artifacts.is_empty(), "the window needs an artifact");

    // Probe the op count of open + one acked append; the run's last five
    // ops are: pack fsync, pack-index fsync, root sync-dir (the new pack's
    // entry), segment fsync, generation sync-dir.
    let probe_dir = scratch("window-probe");
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(0));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let mut store = Store::open_with_vfs(&probe_dir, sweep_opts(1, 1), probe_vfs).unwrap();
    store.append(record).unwrap();
    store.sync().unwrap();
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let segment_fsync_op = probe.ops() - 1;

    // The surviving-tail length is seed-dependent; across a handful of
    // seeds the frame must get torn at least once, orphaning the blob.
    let mut saw_orphan = false;
    for seed in 0..16u64 {
        let dir = scratch(&format!("window-{seed}"));
        let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, segment_fsync_op));
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
        let mut store = Store::open_with_vfs(&dir, sweep_opts(1, 1), vfs).unwrap();
        store.append(record).unwrap();
        store.sync().unwrap_err();
        drop(store);
        fault.apply_crash().unwrap();

        let mut store = Store::open_with(&dir, sweep_opts(1, 1)).unwrap();
        assert!(store.recovery().quarantined.is_empty(), "seed {seed}");
        assert!(
            store.verify().unwrap().is_clean(),
            "seed {seed}: dangling evidence"
        );
        if store.is_empty() {
            // Frame torn away; the blob write before it must remain as a
            // GC-able orphan (the blob pack was fsynced first).
            let removed = store.gc_orphan_blobs().unwrap();
            assert!(
                !removed.is_empty(),
                "seed {seed}: durable blob should be orphaned"
            );
            assert!(store.blobs().is_empty());
            saw_orphan = true;
        } else {
            // The unsynced tail happened to survive whole: then the record
            // is intact and its evidence resolves.
            assert_eq!(store.len(), 1, "seed {seed}");
            assert!(store.contains_hash(record.content_hash), "seed {seed}");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        if saw_orphan {
            break;
        }
    }
    assert!(
        saw_orphan,
        "no seed in 0..16 tore the frame — the window is not exercised"
    );
}

/// Transient faults (disk-full, fsync failure) surface as append errors
/// without corrupting the log: every acked record survives reopen, the
/// store never quarantines, and verify stays clean.
#[test]
fn transient_io_faults_fail_appends_without_corrupting_the_log() {
    let seed = env_u64("CB_CHAOS_SEED", 1);
    let records = chaos_records();
    let dir = scratch("transient");
    let plan = IoFaultPlan {
        seed,
        rate: 0.25,
        // Short writes are crash territory (they tear the log mid-frame and
        // demand a reopen); the recoverable transients are the ones a
        // caller may see and retry *a different record* after.
        kinds: vec![IoFaultKind::DiskFull, IoFaultKind::FsyncFail],
        crash_at: None,
    };
    let fault = FaultVfs::new(&dir, plan);
    let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
    let mut acked = Vec::new();
    match Store::open_with_vfs(&dir, sweep_opts(2, 1), vfs) {
        Err(_) => {} // creation itself may fault; nothing was acked
        Ok(mut store) => {
            for r in &records {
                if store.append(r).and_then(|()| store.sync()).is_ok() {
                    acked.push(r.content_hash);
                }
            }
        }
    }

    let mut store = Store::open_with(&dir, sweep_opts(2, 1)).unwrap();
    assert!(
        store.recovery().quarantined.is_empty(),
        "transient faults must not quarantine"
    );
    for h in &acked {
        assert!(
            store.contains_hash(*h),
            "acked record {h:032x} lost to a transient fault"
        );
    }
    assert!(store.verify().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable store holding every chaos record plus two orphan blobs (put
/// straight into the pack, as a crash between blob write and frame append
/// would leave them). Returns the orphans' addresses.
fn store_with_orphans(dir: &Path) -> Vec<u128> {
    let mut store = Store::open_with(dir, sweep_opts(2, 1)).unwrap();
    for r in chaos_records() {
        store.append(&r).unwrap();
        store.sync().unwrap();
    }
    drop(store);
    let mut blobs = BlobStore::open(RealVfs::arc(), dir).unwrap();
    let mut orphans = Vec::new();
    for bytes in [&b"orphan one"[..], &b"orphan two, a little longer"[..]] {
        let hash = fnv128(bytes);
        assert!(blobs.put(hash, bytes).unwrap());
        orphans.push(hash);
    }
    blobs.sync().unwrap();
    orphans
}

/// Every artifact the chaos records carry, by address.
fn chaos_blobs() -> BTreeMap<u128, Vec<u8>> {
    chaos_records()
        .into_iter()
        .flat_map(|r| r.artifacts)
        .map(|a| (a.hash, a.bytes().into_owned()))
        .collect()
}

/// Orphan GC rewrites the pack into a new generation and swaps the
/// `BLOBS` pointer. Crash at every mutating op of that rewrite: after each
/// power cut the store reopens with exactly the old blob set or exactly
/// the new one, verifies clean, and every live blob reads back
/// byte-equal; a GC run after recovery then finishes the job.
#[test]
fn crash_point_sweep_through_orphan_gc_keeps_old_or_new_blob_set() {
    let seed = env_u64("CB_CHAOS_SEED", 1);
    let live = chaos_blobs();
    let new_set: Vec<u128> = live.keys().copied().collect();

    let probe_dir = scratch("gc-probe");
    let mut orphans = store_with_orphans(&probe_dir);
    orphans.sort_unstable();
    let mut old_set: Vec<u128> = new_set.iter().chain(&orphans).copied().collect();
    old_set.sort_unstable();
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(seed));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let mut store = Store::open_with_vfs(&probe_dir, sweep_opts(2, 1), probe_vfs).unwrap();
    let before_gc = probe.ops();
    assert_eq!(
        store.gc_orphan_blobs().unwrap(),
        orphans,
        "GC returns the orphans, sorted"
    );
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let ops = probe.ops();
    assert!(
        ops > before_gc + 6,
        "the rewrite must be a multi-op sequence"
    );

    let (mut kept_old, mut got_new) = (0usize, 0usize);
    for crash_at in before_gc + 1..=ops {
        let dir = scratch(&format!("gc-{crash_at}"));
        store_with_orphans(&dir);
        let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, crash_at));
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
        let mut store = Store::open_with_vfs(&dir, sweep_opts(2, 1), vfs).unwrap();
        let _ = store.gc_orphan_blobs();
        drop(store);
        assert!(
            fault.crashed(),
            "crash point {crash_at}/{ops} was never reached"
        );
        fault.apply_crash().unwrap();

        let mut store = Store::open_with(&dir, sweep_opts(2, 1)).unwrap();
        assert!(
            store.recovery().quarantined.is_empty(),
            "gc crash {crash_at}"
        );
        assert_eq!(
            store.len(),
            chaos_records().len(),
            "gc crash {crash_at}: record lost"
        );
        let set = store.blobs().hashes();
        if set == old_set {
            kept_old += 1;
        } else if set == new_set {
            got_new += 1;
        } else {
            panic!("gc crash {crash_at}: blob set is neither the old nor the new one: {set:x?}");
        }
        assert!(store.verify().unwrap().is_clean(), "gc crash {crash_at}");
        for (hash, bytes) in &live {
            assert_eq!(
                store.blob(*hash).unwrap().as_ref(),
                Some(bytes),
                "gc crash {crash_at}: live blob {hash:032x} lost or changed"
            );
        }
        store.gc_orphan_blobs().unwrap();
        assert_eq!(store.blobs().hashes(), new_set, "gc crash {crash_at}");
        drop(store);
        let mut store = Store::open_with(&dir, sweep_opts(2, 1)).unwrap();
        assert_eq!(
            store.blobs().hashes(),
            new_set,
            "gc crash {crash_at}: after reopen"
        );
        assert!(
            store.verify().unwrap().is_clean(),
            "gc crash {crash_at}: after reopen"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        kept_old > 0 && got_new > 0,
        "old {kept_old}, new {got_new}: both outcomes must be swept"
    );
    eprintln!(
        "gc sweep seed={seed}: {} crash points, {kept_old} kept the old pack, {got_new} the new",
        ops - before_gc
    );
}

/// A durable one-shard store whose log holds every chaos record twice:
/// the second round, under new message ids, supersedes the first, and the
/// small segment target spreads the duplicates over several segments.
fn store_with_duplicates(dir: &Path) {
    let mut store = Store::open_with(dir, sweep_opts(1, 1)).unwrap();
    for mut r in chaos_records().into_iter().chain(chaos_records()) {
        if store.contains_hash(r.content_hash) {
            r.message_id += 100;
        }
        store.append(&r).unwrap();
        store.sync().unwrap();
    }
}

/// Compaction rewrites the log into a new generation and swaps the shard's
/// `CURRENT` pointer. Crash at every mutating op of that rewrite: after
/// each power cut the shard reopens healthy, holding exactly the old log
/// or exactly the compacted one, and verifies clean; a compaction after
/// recovery then finishes the job.
#[test]
fn crash_point_sweep_through_compaction_keeps_old_or_new_log() {
    let seed = env_u64("CB_CHAOS_SEED", 1);
    let probe_dir = scratch("compact-probe");
    store_with_duplicates(&probe_dir);
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(seed));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let mut store = Store::open_with_vfs(&probe_dir, sweep_opts(1, 1), probe_vfs).unwrap();
    assert!(
        store.shards()[0].segments() > 2,
        "duplicates span several segments"
    );
    let old_log = store.read_payloads().unwrap();
    let before = probe.ops();
    let report = store.compact().unwrap();
    assert_eq!(
        (report.kept, report.dropped),
        (chaos_records().len(), chaos_records().len())
    );
    let new_log = store.read_payloads().unwrap();
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let ops = probe.ops();
    assert!(ops > before + 6, "the rewrite must be a multi-op sequence");

    let (mut kept_old, mut got_new) = (0usize, 0usize);
    for crash_at in before + 1..=ops {
        let dir = scratch(&format!("compact-{crash_at}"));
        store_with_duplicates(&dir);
        let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, crash_at));
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
        let mut store = Store::open_with_vfs(&dir, sweep_opts(1, 1), vfs).unwrap();
        let _ = store.compact();
        drop(store);
        assert!(
            fault.crashed(),
            "crash point {crash_at}/{ops} was never reached"
        );
        fault.apply_crash().unwrap();

        let mut store = Store::open_with(&dir, sweep_opts(1, 1)).unwrap();
        assert!(
            store.recovery().quarantined.is_empty(),
            "compact crash {crash_at}"
        );
        let log = store.read_payloads().unwrap();
        if log == old_log {
            kept_old += 1;
        } else if log == new_log {
            got_new += 1;
        } else {
            panic!("compact crash {crash_at}: the log is neither the old nor the compacted one");
        }
        assert!(
            store.verify().unwrap().is_clean(),
            "compact crash {crash_at}"
        );
        store.compact().unwrap();
        assert_eq!(
            store.read_payloads().unwrap(),
            new_log,
            "compact crash {crash_at}"
        );
        drop(store);
        let mut store = Store::open_with(&dir, sweep_opts(1, 1)).unwrap();
        assert_eq!(
            store.read_payloads().unwrap(),
            new_log,
            "compact crash {crash_at}: after reopen"
        );
        assert!(
            store.verify().unwrap().is_clean(),
            "compact crash {crash_at}: after reopen"
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(
        kept_old > 0 && got_new > 0,
        "old {kept_old}, new {got_new}: both outcomes must be swept"
    );
    eprintln!(
        "compaction sweep seed={seed}: {} crash points, {kept_old} kept the old log, {got_new} the new",
        ops - before
    );
}

/// A [`Vfs`] that fails exactly the `nth` (1-based) write to a `.pack`
/// file with `kind` and passes everything else through.
#[derive(Debug)]
struct PackWriteFault {
    kind: IoFaultKind,
    nth: usize,
    writes: Arc<AtomicUsize>,
}

#[derive(Debug)]
struct PackWriteFaultFile {
    inner: Box<dyn VfsFile>,
    kind: IoFaultKind,
    nth: usize,
    writes: Arc<AtomicUsize>,
}

impl VfsFile for PackWriteFaultFile {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.writes.fetch_add(1, Ordering::SeqCst) + 1 != self.nth {
            return self.inner.write_all(bytes);
        }
        match self.kind {
            IoFaultKind::ShortWrite => {
                self.inner.write_all(&bytes[..bytes.len() / 2])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected short write",
                ))
            }
            _ => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected disk full",
            )),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl PackWriteFault {
    fn wrap(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        if path.extension().is_some_and(|e| e == "pack") {
            Box::new(PackWriteFaultFile {
                inner,
                kind: self.kind,
                nth: self.nth,
                writes: Arc::clone(&self.writes),
            })
        } else {
            inner
        }
    }
}

impl Vfs for PackWriteFault {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.create_dir_all(path)
    }
    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_dir_all(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealVfs.remove_file(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        RealVfs.read_dir_names(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealVfs.read(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        RealVfs.read_at(path, offset, len)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        RealVfs.write(path, bytes)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, RealVfs.create_new(path)?))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, RealVfs.open_append(path)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        RealVfs.truncate(path, len)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        RealVfs.fsync(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        RealVfs.sync_dir(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        RealVfs.len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        RealVfs.exists(path)
    }
    fn is_dir(&self, path: &Path) -> bool {
        RealVfs.is_dir(path)
    }
}

/// A transient short write or disk-full on one pack append fails only the
/// batch that hit it: the pack is rolled back to its last whole frame, the
/// batches before and after it commit, a retry of the failed batch
/// succeeds, and after reopen every blob reads back byte-equal with a
/// clean verify.
#[test]
fn transient_pack_append_fault_fails_only_that_batch() {
    let records = chaos_records();
    let blobs = chaos_blobs();
    // Pack writes, one per new blob: record 0's message (1), record 1's
    // message (2) and shared screenshot (3), ... Fault the third: record
    // 1 fails after one of its blobs already landed.
    for kind in [IoFaultKind::ShortWrite, IoFaultKind::DiskFull] {
        let dir = scratch(&format!("packfault-{kind:?}"));
        let vfs: Arc<dyn Vfs> = Arc::new(PackWriteFault {
            kind,
            nth: 3,
            writes: Arc::new(AtomicUsize::new(0)),
        });
        let mut store = Store::open_with_vfs(&dir, sweep_opts(2, 1), vfs).unwrap();
        let mut failed = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let encoded = encode_record(&mut r.clone()).unwrap();
            let appended = store.append_batch(vec![encoded]);
            if appended.and_then(|()| store.sync()).is_err() {
                failed.push(i);
            }
        }
        assert_eq!(failed, vec![1], "{kind:?}: only the faulted batch fails");
        assert!(
            store.verify().unwrap().is_clean(),
            "{kind:?}: no torn bytes left in the pack"
        );
        let retry = encode_record(&mut records[1].clone()).unwrap();
        store.append_batch(vec![retry]).unwrap();
        store.sync().unwrap();
        assert_eq!(store.pending_appends(), 0);
        drop(store);

        let mut store = Store::open_with(&dir, sweep_opts(2, 1)).unwrap();
        assert!(store.recovery().torn.is_empty() && store.recovery().quarantined.is_empty());
        assert_eq!(store.len(), records.len(), "{kind:?}");
        assert!(store.verify().unwrap().is_clean(), "{kind:?}");
        assert_eq!(store.blobs().len(), blobs.len(), "{kind:?}");
        for (hash, bytes) in &blobs {
            assert_eq!(store.blob(*hash).unwrap().as_ref(), Some(bytes), "{kind:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A crash at the second barrier's pack fsync, after its index entries
/// were written: the unsynced tails of the pack, the index and the
/// segment are each cut independently, so some seeds leave an index entry
/// pointing past the pack's end. (At the first barrier the pack and index
/// entries are not durable yet, and the crash removes both files.) Open drops that entry (it never reads blob
/// bytes to find out), and the frame that referenced the blob becomes a
/// torn tail of the last segment — never a quarantine.
#[test]
fn index_entry_past_pack_end_is_dropped_and_its_frame_torn() {
    let records = chaos_records();
    let encode = |batch: &[ScanRecord]| -> Vec<_> {
        batch
            .iter()
            .map(|r| encode_record(&mut r.clone()).unwrap())
            .collect()
    };
    // Both batches carry new blobs. The first creates the pack, the index
    // and the segment and makes their entries durable.
    let (first, second) = (&records[..2], &records[3..5]);
    // Open + two batches, with segments large enough that no seal syncs
    // the pack early; the second barrier's last four ops are: index write,
    // pack fsync, index fsync, segment fsync.
    let opts = || StoreOptions {
        segment_target_bytes: 1 << 20,
        ..sweep_opts(1, 2)
    };
    let probe_dir = scratch("pastend-probe");
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(0));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let mut store = Store::open_with_vfs(&probe_dir, opts(), probe_vfs).unwrap();
    store.append_batch(encode(first)).unwrap();
    store.sync().unwrap();
    store.append_batch(encode(second)).unwrap();
    store.sync().unwrap();
    assert_eq!(store.pending_appends(), 0);
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();
    let pack_fsync_op = probe.ops() - 2;

    let mut seen = false;
    for seed in 0..512u64 {
        let dir = scratch(&format!("pastend-{seed}"));
        let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(seed, pack_fsync_op));
        let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
        let mut store = Store::open_with_vfs(&dir, opts(), vfs).unwrap();
        store.append_batch(encode(first)).unwrap();
        store.sync().unwrap();
        store.append_batch(encode(second)).unwrap();
        store.sync().unwrap_err();
        drop(store);
        fault.apply_crash().unwrap();

        // Inspect what the crash left: a whole index entry whose frame
        // extends past the pack's end.
        let pack_len = std::fs::metadata(dir.join(pack_file_name(0)))
            .unwrap()
            .len();
        let index = std::fs::read(dir.join(index_file_name(0))).unwrap();
        let past_end = index.chunks_exact(INDEX_ENTRY_LEN).any(|e| {
            let offset = u64::from_le_bytes(e[16..24].try_into().unwrap());
            let len = u32::from_le_bytes(e[24..28].try_into().unwrap());
            offset + (PACK_HEADER_LEN as u64) + u64::from(len) > pack_len
        });

        let mut store = Store::open_with(&dir, opts()).unwrap();
        assert!(
            store.recovery().quarantined.is_empty(),
            "seed {seed}: crash quarantined"
        );
        assert!(store.verify().unwrap().is_clean(), "seed {seed}");
        assert!(
            std::fs::metadata(dir.join(index_file_name(0)))
                .unwrap()
                .len()
                <= store.blobs().len() as u64 * INDEX_ENTRY_LEN as u64,
            "seed {seed}: rejected index entries are truncated away"
        );
        let torn_on_dangling = store
            .recovery()
            .torn
            .iter()
            .any(|t| t.reason.contains("dangling blob ref"));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
        if past_end && torn_on_dangling {
            seen = true;
            break;
        }
    }
    assert!(
        seen,
        "no seed in 0..512 left an index entry past the pack's end"
    );
}

/// A crash at the second flush's pack fsync poisons a `StoreSink`: the
/// failed barrier surfaces as the sink's error, the batch it carried and
/// every later record are counted dropped, and `finish` fails. The inner
/// sink holds exactly the records the first flush acked. After the power
/// cut the store reopens without quarantine and holds every one of them.
#[test]
fn failed_flush_barrier_poisons_the_sink() {
    let records = chaos_records();
    // Flushes of two records, with segments large enough that no seal
    // syncs the pack early; the second flush's barrier ends with: pack
    // fsync, index fsync, segment fsync.
    let opts = || StoreOptions {
        segment_target_bytes: 1 << 20,
        ..sweep_opts(1, 2)
    };
    let feed = |sink: &mut StoreSink<Vec<ScanRecord>>, record: &ScanRecord| {
        let mut record = record.clone();
        let encoded = encode_record(&mut record);
        sink.accept_encoded(record, encoded);
    };
    let probe_dir = scratch("flushfail-probe");
    let probe = FaultVfs::new(&probe_dir, IoFaultPlan::counting(0));
    let probe_vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&probe));
    let store = Mutex::new(Store::open_with_vfs(&probe_dir, opts(), probe_vfs).unwrap());
    let mut sink = StoreSink::with_inner(&store, Vec::new());
    for r in &records[..4] {
        feed(&mut sink, r);
    }
    assert_eq!(
        store.lock().unwrap().acked_appends(),
        4,
        "two flushes ack four records"
    );
    let pack_fsync_op = probe.ops() - 2;
    drop(sink);
    drop(store);
    std::fs::remove_dir_all(&probe_dir).unwrap();

    let dir = scratch("flushfail");
    let fault = FaultVfs::new(&dir, IoFaultPlan::crash_at(0, pack_fsync_op));
    let vfs: Arc<dyn Vfs> = Arc::new(Arc::clone(&fault));
    let store = Mutex::new(Store::open_with_vfs(&dir, opts(), vfs).unwrap());
    let mut sink = StoreSink::with_inner(&store, Vec::new());
    for r in &records[..2] {
        feed(&mut sink, r);
    }
    assert!(sink.error().is_none() && !fault.crashed());
    assert_eq!(
        store.lock().unwrap().acked_appends(),
        2,
        "the first flush acks"
    );
    for r in &records[2..4] {
        feed(&mut sink, r);
    }
    assert!(
        fault.crashed(),
        "the second flush must reach its pack fsync"
    );
    assert!(sink.error().is_some(), "a failed barrier poisons the sink");
    assert_eq!(
        store.lock().unwrap().acked_appends(),
        2,
        "a failed barrier acks nothing"
    );
    assert_eq!(sink.dropped(), 2, "the failed flush's batch is dropped");
    for r in &records[4..] {
        feed(&mut sink, r);
    }
    assert_eq!(
        sink.dropped(),
        records.len() - 2,
        "later records are dropped"
    );
    assert_eq!(sink.appended(), 2);
    let forwarded: Vec<usize> = sink.inner().iter().map(|r| r.message_id).collect();
    assert_eq!(
        forwarded,
        [records[0].message_id, records[1].message_id],
        "the inner sink holds exactly the records the first flush acked"
    );
    assert_eq!(
        store.lock().unwrap().stats().append_errors,
        0,
        "a failed barrier is the sink's error, not a failed append"
    );
    assert!(sink.finish().is_err(), "finish surfaces the failed barrier");
    drop(store);
    fault.apply_crash().unwrap();

    let mut store = Store::open_with(&dir, opts()).unwrap();
    assert!(
        store.recovery().quarantined.is_empty(),
        "a crash never quarantines"
    );
    for r in &records[..2] {
        assert!(
            store.contains_hash(r.content_hash),
            "record {} acked by the first flush was lost",
            r.message_id
        );
    }
    assert!(store.verify().unwrap().is_clean());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
