//! End-to-end tests for the persistent crawl store: on-disk byte
//! determinism across worker counts, torn-tail crash recovery with
//! incremental re-scan, blob dedup and orphan GC, shard quarantine +
//! repair degradation, refusal of older layouts, compaction, campaign
//! clustering from disk, and the `crawl-log store` /
//! `repro --store` CLI surfaces.

use cb_artifacts::fingerprint;
use cb_phishgen::{Corpus, CorpusSpec, MessageClass, ReportedMessage};
use cb_sim::SimTime;
use cb_store::blob::{index_file_name, pack_file_name};
use cb_store::{
    encode_record, shard_of, BlobStore, RealVfs, Store, StoreEncoder, StoreOptions, StoreSink,
};
use crawlerbox::{ArtifactKind, CapturedArtifact, CrawlerBox, EncodedSink, ScanRecord};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

mod common;

/// Worker counts every determinism check compares.
const WORKERS: [usize; 2] = [1, 4];

/// A per-test scratch directory under the OS temp dir (the workspace has
/// no tempfile dependency); removed eagerly at the start so a crashed
/// earlier run never leaks state into this one.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_subset(seed: u64, n: usize) -> (Corpus, Vec<ReportedMessage>) {
    let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.01), seed);
    let subset = corpus.messages.iter().take(n).cloned().collect();
    (corpus, subset)
}

/// One-shard options: tests that reason about "the last record in the
/// log" or exact segment paths pin the layout to a single shard.
fn one_shard() -> StoreOptions {
    StoreOptions {
        shards: 1,
        ..StoreOptions::default()
    }
}

/// Raw bytes of every segment file across every shard's active
/// generation, in (shard, segment) order — the strongest possible
/// determinism witness for the record log.
fn segment_bytes(root: &Path) -> Vec<Vec<u8>> {
    let mut shards: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("shard-"))
        .collect();
    shards.sort();
    let mut out = Vec::new();
    for shard in shards {
        let shard_dir = root.join(&shard);
        let generation = std::fs::read_to_string(shard_dir.join("CURRENT")).unwrap();
        let seg_dir = shard_dir.join(generation.trim());
        let mut segments: Vec<String> = std::fs::read_dir(&seg_dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .collect();
        segments.sort();
        for seg in segments {
            out.push(std::fs::read(seg_dir.join(seg)).unwrap());
        }
    }
    out
}

/// Raw bytes of the generation-0 blob pack and its index.
fn pack_bytes(root: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(root.join(pack_file_name(0))).unwrap(),
        std::fs::read(root.join(index_file_name(0))).unwrap(),
    )
}

fn synthetic_record(id: usize, hash: u128, class: MessageClass) -> ScanRecord {
    ScanRecord {
        message_id: id,
        content_hash: hash,
        delivered_at: SimTime::EPOCH,
        auth_pass: false,
        extracted: Vec::new(),
        visits: Vec::new(),
        body_bytes: 10,
        blank_line_run: 0,
        class,
        error: None,
        artifacts: Vec::new(),
    }
}

/// A content hash whose top byte routes it to shard `shard` of `n`.
fn hash_in_shard(shard: usize, n: usize, salt: u128) -> u128 {
    for top in 0u128..256 {
        let h = (top << 120) | (salt & ((1u128 << 120) - 1));
        if shard_of(h, n) == shard {
            return h;
        }
    }
    unreachable!("every shard owns at least one top byte");
}

/// The tentpole acceptance check: streaming a corpus through `StoreSink`
/// on `scan_stream_encoded` writes byte-identical segment files at every worker count, and the
/// payloads read back equal to the canonical encoding of the fresh-box
/// reference (grouped by shard, delivery order within each shard).
/// Reopening the store reproduces the same log with a clean verify.
#[test]
fn store_round_trip_is_byte_identical_across_configs() {
    let (corpus, subset) = corpus_subset(11, 24);
    let (reference, _) =
        common::fresh_box_scan(&corpus.world, &subset, |b| b.with_artifact_capture(true));
    assert_eq!(reference.len(), subset.len());
    assert!(
        reference.iter().any(|r| !r.artifacts.is_empty()),
        "capture should attach at least message artifacts"
    );
    let shards = StoreOptions::default().shards;
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for shard in 0..shards {
        for r in &reference {
            if shard_of(r.content_hash, shards) == shard {
                expected.push(cb_json::to_vec(r).unwrap());
            }
        }
    }

    type Witness = (Vec<Vec<u8>>, (Vec<u8>, Vec<u8>));
    let mut golden: Option<Witness> = None;
    for workers in WORKERS {
        let dir = scratch(&format!("rt-{workers}"));
        let mut cbx = CrawlerBox::new(&corpus.world)
            .with_artifact_capture(true)
            .with_stream_capacity(4);
        cbx.parallelism = workers;
        let store = Mutex::new(Store::open(&dir).unwrap());
        let mut sink = StoreSink::new(&store);
        let delivered = cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
        assert_eq!(delivered, subset.len(), "{workers} worker(s)");
        assert_eq!(sink.appended(), subset.len());
        sink.finish().unwrap();
        let mut store = store.into_inner().unwrap();
        assert_eq!(store.shard_count(), shards);
        assert_eq!(
            store.read_payloads().unwrap(),
            expected,
            "payloads diverged ({workers} worker(s))"
        );
        drop(store);

        let mut reopened = Store::open(&dir).unwrap();
        assert!(reopened.recovery().torn.is_empty());
        assert!(reopened.recovery().quarantined.is_empty());
        assert_eq!(reopened.len(), subset.len());
        assert_eq!(
            reopened.read_payloads().unwrap(),
            expected,
            "reopen replay diverged ({workers} worker(s))"
        );
        assert!(reopened.verify().unwrap().is_clean());

        let bytes = (segment_bytes(&dir), pack_bytes(&dir));
        match &golden {
            None => golden = Some(bytes),
            Some(g) => assert_eq!(
                &bytes, g,
                "on-disk segment or blob pack bytes diverged ({workers} worker(s))"
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The group-commit tentpole acceptance: the ingest path (worker-side
/// encoding via `StoreEncoder`, batched appends and barriers via
/// `StoreSink`, parallel per-shard fan-out in `append_batch`) writes
/// segment files byte-identical to an oracle store holding the fresh-box
/// reference, appended one record at a time, for every worker count ×
/// commit batch × shard count, and the same blob pack — and at batch ≥ 16
/// the barrier is
/// amortized: ingest costs less than half the fsyncs of batch 1 and under
/// one fsync per record (every fsync counts: pack, index, segments and
/// directories). Every store then reopens with every record and no
/// quarantine. The whole 1% corpus is ingested: on much smaller inputs
/// the fixed per-shard barrier cost dominates the per-record figure.
#[test]
fn encoded_ingest_is_byte_identical_to_oracle_across_batches() {
    let (corpus, subset) = corpus_subset(13, usize::MAX);
    assert!(
        subset.len() >= 52,
        "the 1% corpus: {} records",
        subset.len()
    );
    let (reference, _) =
        common::fresh_box_scan(&corpus.world, &subset, |b| b.with_artifact_capture(true));
    for shards in [1usize, 4, 8] {
        // Oracle: the fresh-box reference, appended one record at a time.
        let oracle_dir = scratch(&format!("enc-oracle-{shards}"));
        let opts = StoreOptions {
            shards,
            ..StoreOptions::default()
        };
        let mut store = Store::open_with(&oracle_dir, opts).unwrap();
        for r in &reference {
            store.append(r).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        let golden = (segment_bytes(&oracle_dir), pack_bytes(&oracle_dir));

        for workers in WORKERS {
            let mut batch_one_fsyncs = 0u64;
            for batch in [1usize, 16, 256] {
                let dir = scratch(&format!("enc-{shards}-{workers}-{batch}"));
                let opts = StoreOptions {
                    shards,
                    commit_batch: batch,
                    ..StoreOptions::default()
                };
                let mut cbx = CrawlerBox::new(&corpus.world)
                    .with_artifact_capture(true)
                    .with_stream_capacity(4);
                cbx.parallelism = workers;
                let store = Mutex::new(Store::open_with(&dir, opts.clone()).unwrap());
                let opened_fsyncs = store.lock().unwrap().stats().fsyncs;
                let mut sink = StoreSink::new(&store);
                let delivered =
                    cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
                assert_eq!(delivered, subset.len(), "{shards} {workers} {batch}");
                assert_eq!(sink.dropped(), 0);
                sink.finish().unwrap();
                let store = store.into_inner().unwrap();
                let stats = store.stats();
                assert_eq!(stats.appended, subset.len() as u64);
                assert_eq!(stats.acked, subset.len() as u64, "finish acks everything");
                assert_eq!(stats.pending, 0);
                let ingest_fsyncs = stats.fsyncs - opened_fsyncs;
                if batch == 1 {
                    batch_one_fsyncs = ingest_fsyncs;
                } else {
                    assert!(
                        ingest_fsyncs * 2 < batch_one_fsyncs,
                        "group commit must amortize fsyncs: {ingest_fsyncs} fsyncs at batch \
                         {batch} vs {batch_one_fsyncs} at batch 1 ({shards} shards, {} records)",
                        stats.appended,
                    );
                    assert!(
                        ingest_fsyncs < stats.appended,
                        "group commit must cost under one fsync per record: {ingest_fsyncs} \
                         fsyncs for {} records at batch {batch} ({shards} shards)",
                        stats.appended,
                    );
                }
                drop(store);
                let reopened = Store::open_with(&dir, opts).unwrap();
                assert_eq!(
                    reopened.len(),
                    subset.len(),
                    "recovery lost records ({shards} shards, {workers} worker(s), batch {batch})"
                );
                assert!(
                    reopened.recovery().quarantined.is_empty(),
                    "a clean log must recover without quarantine ({shards} shards, batch {batch})"
                );
                drop(reopened);
                assert_eq!(
                    (segment_bytes(&dir), pack_bytes(&dir)),
                    golden,
                    "encoded log diverged from oracle \
                     ({shards} shards, {workers} worker(s), batch {batch})"
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        std::fs::remove_dir_all(&oracle_dir).unwrap();
    }
}

/// A box warmed by a capture-off scan knows every page key of the
/// subset, so with capture on it hands the store every screenshot
/// undrawn, and a fresh store lacks every address: the store draws each
/// one. Its pack, index and segment bytes must equal a store built from
/// the fresh-box reference, which holds the drawn bytes, at every worker
/// count; the store verifies clean and every blob ref resolves to the
/// reference bytes.
#[test]
fn store_draws_undrawn_screenshots_byte_identically() {
    let (corpus, subset) = corpus_subset(17, 24);
    let (reference, _) =
        common::fresh_box_scan(&corpus.world, &subset, |b| b.with_artifact_capture(true));
    let ref_dir = scratch("draw-ref");
    let mut store = Store::open(&ref_dir).unwrap();
    for r in &reference {
        store.append(r).unwrap();
    }
    store.sync().unwrap();
    drop(store);
    let golden = (segment_bytes(&ref_dir), pack_bytes(&ref_dir));

    for workers in WORKERS {
        let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(4);
        cbx.parallelism = workers;
        let _ = cbx.scan_all(&subset);
        let cbx = cbx.with_artifact_capture(true);
        let warm = cbx.stats();
        let dir = scratch(&format!("draw-{workers}"));
        let store = Mutex::new(Store::open(&dir).unwrap());
        let mut sink = StoreSink::new(&store);
        let delivered = cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
        assert_eq!(delivered, subset.len(), "{workers} worker(s)");
        assert_eq!(sink.dropped(), 0);
        sink.finish().unwrap();
        let mut store = store.into_inner().unwrap();
        let stats = cbx.stats();
        assert_eq!(stats.page_misses, warm.page_misses, "{stats}");
        assert!(
            stats.page_hits > warm.page_hits,
            "the subset must take screenshots"
        );

        let report = store.verify().unwrap();
        assert!(
            report.is_clean(),
            "{workers} worker(s): {:?}",
            report.faults
        );
        for artifact in reference.iter().flat_map(|r| &r.artifacts) {
            assert_eq!(
                store.blob(artifact.hash).unwrap().as_deref(),
                Some(&*artifact.bytes()),
                "{workers} worker(s): blob {:032x}",
                artifact.hash
            );
        }
        drop(store);
        assert!(
            (segment_bytes(&dir), pack_bytes(&dir)) == golden,
            "{workers} worker(s): drawn store bytes diverged from the reference store"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&ref_dir).unwrap();
}

/// Soak: one long-lived box and one durable store ingest round after
/// round of content-unique messages (a unique header per round and
/// message, so nothing dedups). After every round the store holds every
/// message sent, and rounds after the first add no page, screenshot or
/// artifact cache misses: the same pages and artifacts hit the box's
/// lifetime caches instead of growing them.
#[test]
fn soak_rounds_through_one_box_and_store_keep_every_message_and_caches_flat() {
    let (corpus, subset) = corpus_subset(2024, usize::MAX);
    let dir = scratch("soak");
    let opts = StoreOptions {
        shards: 4,
        commit_batch: 256,
        ..StoreOptions::default()
    };
    let store = Mutex::new(Store::open_with(&dir, opts).unwrap());
    let mut cbx = CrawlerBox::new(&corpus.world)
        .with_artifact_capture(true)
        .with_stream_capacity(32);
    cbx.parallelism = 1;
    let mut sent = 0usize;
    let mut first_round_misses = None;
    for round in 0..3 {
        let wave: Vec<ReportedMessage> = subset
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.raw = format!("X-Soak: r{round} m{}\r\n{}", m.id, m.raw);
                m.id = sent;
                sent += 1;
                m
            })
            .collect();
        let mut sink = StoreSink::new(&store);
        cbx.scan_stream_encoded(wave, &StoreEncoder, &mut sink);
        sink.finish().unwrap();
        let held = store.lock().unwrap();
        assert_eq!(
            held.len(),
            sent,
            "round {round}: every message durable, none deduped"
        );
        assert_eq!(
            held.stats().pending,
            0,
            "round {round}: finish acks everything"
        );
        drop(held);
        let stats = cbx.stats();
        let misses = (
            stats.page_misses,
            stats.screenshot_misses,
            stats.artifact_misses,
        );
        match first_round_misses {
            None => {
                assert!(
                    misses.0 > 0 && misses.1 > 0,
                    "round 0 fills the caches: {misses:?}"
                );
                first_round_misses = Some(misses);
            }
            Some(first) => assert_eq!(
                misses, first,
                "round {round}: (page, screenshot, artifact) cache misses grew past round 0"
            ),
        }
    }
    drop(store);
    let reopened = Store::open(&dir).unwrap();
    assert_eq!(reopened.len(), sent);
    assert!(reopened.recovery().quarantined.is_empty());
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Group-commit ack semantics: the caller owns the barrier. Through
/// `StoreSink` at `commit_batch` = 4, records stay unacked until the 4th
/// flushes the batch (one append, one sync) and acks all four; `finish`
/// acks a partial tail. Directly on the store, appends that seal no
/// segment issue no fsync and only grow the pending window; only `sync`
/// acks it.
#[test]
fn group_commit_acks_records_only_at_batch_barriers() {
    let dir = scratch("ack");
    let opts = StoreOptions {
        shards: 1,
        commit_batch: 4,
        ..StoreOptions::default()
    };
    let feed = |sink: &mut StoreSink, id: usize, class: MessageClass| {
        let mut r = synthetic_record(id, id as u128 + 1, class);
        let encoded = encode_record(&mut r);
        sink.accept_encoded(r, encoded);
    };
    let store = Mutex::new(Store::open_with(&dir, opts).unwrap());
    let mut sink = StoreSink::new(&store);
    for id in 0..3usize {
        feed(&mut sink, id, MessageClass::NoResource);
    }
    assert_eq!(
        store.lock().unwrap().acked_appends(),
        0,
        "below the batch size nothing commits"
    );
    assert_eq!(
        store.lock().unwrap().pending_appends(),
        0,
        "nothing is appended before the flush"
    );

    feed(&mut sink, 3, MessageClass::ErrorPage);
    assert_eq!(
        store.lock().unwrap().acked_appends(),
        4,
        "the 4th record flushes the batch"
    );
    assert_eq!(store.lock().unwrap().pending_appends(), 0);
    assert_eq!(store.lock().unwrap().stats().commit_batches, 1);
    assert_eq!(sink.appended(), 4);

    // `finish` flushes and acks a partial tail.
    feed(&mut sink, 4, MessageClass::Download);
    assert_eq!(store.lock().unwrap().acked_appends(), 4);
    sink.finish().unwrap();
    let mut store = store.into_inner().unwrap();
    assert_eq!((store.pending_appends(), store.acked_appends()), (0, 5));
    assert_eq!(store.stats().commit_batches, 2);

    // The store itself never syncs: appends that seal no segment leave
    // the fsync count flat and the pending window growing.
    let fsyncs = store.stats().fsyncs;
    for id in 5..8usize {
        let mut r = synthetic_record(id, id as u128 + 1, MessageClass::NoResource);
        store
            .append_batch(vec![encode_record(&mut r).unwrap()])
            .unwrap();
        assert_eq!(store.pending_appends(), (id - 4) as u64);
    }
    assert_eq!(store.stats().fsyncs, fsyncs, "append_batch runs no barrier");
    assert_eq!(store.acked_appends(), 5);
    store.sync().unwrap();
    assert_eq!((store.pending_appends(), store.acked_appends()), (0, 8));
    assert_eq!(store.stats().commit_batches, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Property: batch size never changes the bytes — appending the same
/// records (duplicates included) one-by-one or as one big batch yields
/// bit-identical logs, before *and after* compaction, and the rewritten
/// generation still serves point payload fetches from the right offsets.
#[test]
fn batch_one_and_batch_256_logs_identical_after_compaction() {
    let shards = 4usize;
    let records: Vec<ScanRecord> = (0..20usize)
        .map(|id| {
            // `id % 8` fixes both the shard (8 ≡ 0 mod 4) and the salt,
            // so ids 8.. reuse earlier content hashes and compaction
            // actually drops duplicates: 8 distinct hashes in 20 records.
            let hash = hash_in_shard(id % shards, shards, (id % 8) as u128 + 1);
            synthetic_record(id, hash, MessageClass::ActivePhish)
        })
        .collect();

    let mut dirs = Vec::new();
    for batch in [1usize, 256] {
        let dir = scratch(&format!("cbatch-{batch}"));
        let opts = StoreOptions {
            shards,
            ..StoreOptions::default()
        };
        let mut store = Store::open_with(&dir, opts).unwrap();
        let encoded: Vec<_> = records
            .iter()
            .map(|r| encode_record(&mut r.clone()).unwrap())
            .collect();
        if batch == 1 {
            for enc in encoded {
                store.append_batch(vec![enc]).unwrap();
                store.sync().unwrap();
            }
        } else {
            store.append_batch(encoded).unwrap();
        }
        store.sync().unwrap();

        // Point fetches agree with the bulk read, in caller key order.
        let mut keys = Vec::new();
        for sid in 0..store.shard_count() {
            for seq in 0..store.shard(sid).unwrap().len() {
                keys.push((sid, seq));
            }
        }
        let bulk = store.read_payloads().unwrap();
        assert_eq!(store.fetch_payloads(&keys).unwrap(), bulk);
        keys.reverse();
        let mut reversed = store.fetch_payloads(&keys).unwrap();
        reversed.reverse();
        assert_eq!(reversed, bulk, "fetch scatters results back to key order");

        let report = store.compact().unwrap();
        assert_eq!(report.dropped, 12, "duplicate hashes compact away");
        // Fetches keep working against the rewritten generation.
        let mut keys = Vec::new();
        for sid in 0..store.shard_count() {
            for seq in 0..store.shard(sid).unwrap().len() {
                keys.push((sid, seq));
            }
        }
        assert_eq!(
            store.fetch_payloads(&keys).unwrap(),
            store.read_payloads().unwrap()
        );
        assert!(store.verify().unwrap().is_clean());
        drop(store);
        dirs.push(dir);
    }
    assert_eq!(
        segment_bytes(&dirs[0]),
        segment_bytes(&dirs[1]),
        "batch=1 and batch=256 logs must be bit-identical after compaction"
    );
    for dir in dirs {
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Dirty-shard tracking satellite: a sync after a read-only window is
/// free — clean shards are skipped, so `store.fsync.calls` stays flat.
#[test]
fn sync_after_read_only_window_performs_zero_fsyncs() {
    let dir = scratch("cleansync");
    let mut store = Store::open_with(&dir, one_shard()).unwrap();
    for id in 0..4usize {
        store
            .append(&synthetic_record(
                id,
                id as u128 + 1,
                MessageClass::NoResource,
            ))
            .unwrap();
    }
    store.sync().unwrap();
    let after_write = store.stats().fsyncs;
    assert!(after_write > 0, "the dirty shard must fsync at least once");

    // A read-only window: queries touch no writer state.
    let _ = store.read_payloads().unwrap();
    let _ = store.campaigns();
    assert!(store.contains_hash(1));
    store.sync().unwrap();
    store.sync().unwrap();
    assert_eq!(
        store.stats().fsyncs,
        after_write,
        "clean shards cost zero fsyncs"
    );

    // The next append re-dirties the shard; sync fsyncs again.
    store
        .append(&synthetic_record(9, 99, MessageClass::Download))
        .unwrap();
    store.sync().unwrap();
    assert!(store.stats().fsyncs > after_write);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Poison-surfacing satellite: a failed append poisons the sink, later
/// records are dropped (and counted), and the store's `append_errors`
/// counter surfaces the failed append in `stats()`.
#[test]
fn poisoned_sink_surfaces_drop_count_and_error_counter() {
    let dir = scratch("poison");
    let shards = 4usize;
    let opts = StoreOptions {
        segment_target_bytes: 1,
        shards,
        ..StoreOptions::default()
    };
    let mut store = Store::open_with(&dir, opts).unwrap();
    for id in 0..2usize {
        let h = hash_in_shard(1, shards, id as u128 + 10);
        store
            .append(&synthetic_record(id, h, MessageClass::NoResource))
            .unwrap();
    }
    store.sync().unwrap();
    drop(store);
    // Corrupt an interior segment of shard 1 so it reopens quarantined.
    let seg0 = dir
        .join("shard-01")
        .join("segments-00000")
        .join("seg-00000.cbl");
    let mut bytes = std::fs::read(&seg0).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0xFF;
    std::fs::write(&seg0, &bytes).unwrap();

    let store = Mutex::new(Store::open(&dir).unwrap());
    assert!(store.lock().unwrap().is_degraded());
    let mut sink = StoreSink::new(&store);
    // First record routes to the quarantined shard: append fails, the
    // sink poisons. The next two are dropped without touching the store.
    for id in 0..3usize {
        let mut r = synthetic_record(
            20 + id,
            hash_in_shard(1, shards, 500 + id as u128),
            MessageClass::Download,
        );
        let encoded = encode_record(&mut r);
        sink.accept_encoded(r, encoded);
    }
    assert_eq!(sink.appended(), 0);
    assert_eq!(sink.dropped(), 3);
    assert!(sink.error().is_some());
    assert_eq!(
        store.lock().unwrap().stats().append_errors,
        1,
        "one failed append, not three"
    );
    assert!(
        sink.finish().is_err(),
        "finish surfaces the poisoning error"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The crash-recovery satellite: chop bytes off the tail of the last
/// segment (a torn mid-append write), reopen, and the store truncates the
/// torn frame, verifies clean, and an incremental re-scan with the
/// recovered skip set re-processes exactly the lost message.
#[test]
fn torn_tail_is_truncated_and_incremental_rescan_fills_the_gap() {
    let (corpus, subset) = corpus_subset(5, 10);
    let dir = scratch("torn");
    let cbx = CrawlerBox::new(&corpus.world)
        .with_artifact_capture(true)
        .with_stream_capacity(4);
    let store = Mutex::new(Store::open_with(&dir, one_shard()).unwrap());
    let mut sink = StoreSink::new(&store);
    cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
    sink.finish().unwrap();
    let store = store.into_inner().unwrap();
    let total = store.len();
    assert_eq!(total, subset.len());
    drop(store);

    // Tear the tail: the crash happened mid-append of the last frame.
    let seg_dir = dir.join("shard-00").join("segments-00000");
    let mut names: Vec<String> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .collect();
    names.sort();
    let last_segment = seg_dir.join(names.last().unwrap());
    let len = std::fs::metadata(&last_segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&last_segment)
        .unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);

    let mut store = Store::open(&dir).unwrap();
    assert_eq!(
        store.shard_count(),
        1,
        "manifest shard count survives reopen"
    );
    let torn = store
        .recovery()
        .torn
        .first()
        .cloned()
        .expect("torn tail must be reported");
    assert_eq!(torn.segment, last_segment);
    assert!(torn.dropped_bytes > 0);
    assert_eq!(
        store.len(),
        total - 1,
        "exactly the mid-append record is lost"
    );
    assert!(
        store.verify().unwrap().is_clean(),
        "truncation leaves a CRC-clean log"
    );

    // Incremental re-scan: only the torn-away message is re-processed.
    let known = store.known_hashes();
    assert_eq!(known.len(), total - 1);
    let cbx = CrawlerBox::new(&corpus.world)
        .with_artifact_capture(true)
        .with_known_hashes(known)
        .with_stream_capacity(4);
    let store = Mutex::new(store);
    let mut sink = StoreSink::new(&store);
    let delivered = cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
    assert_eq!(delivered, 1, "only the lost record is rescanned");
    assert_eq!(cbx.stats().skipped_known, (total - 1) as u64);
    sink.finish().unwrap();
    let mut store = store.into_inner().unwrap();
    assert_eq!(store.len(), total);
    let mut ids: Vec<usize> = store
        .read_all()
        .unwrap()
        .iter()
        .map(|r| r.message_id)
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..subset.len()).collect::<Vec<_>>(),
        "log is complete again"
    );
    assert!(store.verify().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Blob-store contract: artifacts are content-addressed, deduplicated
/// across records, read back byte-identical, and orphans (referenced by
/// no record) are GC-able without touching live blobs.
#[test]
fn blob_store_dedups_reads_back_and_gcs_orphans() {
    let dir = scratch("blob");
    let mut store = Store::open(&dir).unwrap();
    let shared = b"the same screenshot bitmap".to_vec();
    let shared_hash = fingerprint::fnv128(&shared);
    for id in 0..3usize {
        let unique = format!("message body {id}").into_bytes();
        let mut record = synthetic_record(id, id as u128 + 1, MessageClass::ActivePhish);
        record.artifacts = vec![
            CapturedArtifact::new(ArtifactKind::Message, fingerprint::fnv128(&unique), unique),
            CapturedArtifact::new(ArtifactKind::Screenshot, shared_hash, shared.clone()),
        ];
        store.append(&record).unwrap();
    }
    // 3 unique message blobs + 1 shared screenshot blob.
    assert_eq!(store.blobs().len(), 4);
    assert_eq!(store.stats().blob_dedup_hits, 2);
    assert_eq!(
        store.blob(shared_hash).unwrap().as_deref(),
        Some(shared.as_slice())
    );
    assert_eq!(store.blob(0xdead_beef).unwrap(), None);
    assert!(store.verify().unwrap().is_clean());
    store.sync().unwrap();
    drop(store);

    // An orphan blob (e.g. left by a crash between blob write and frame
    // append) reopens fine and is collected by GC; live blobs survive.
    let orphan = b"orphaned by a crash".to_vec();
    let orphan_hash = fingerprint::fnv128(&orphan);
    let mut blobs = BlobStore::open(RealVfs::arc(), &dir).unwrap();
    assert!(blobs.put(orphan_hash, &orphan).unwrap());
    blobs.sync().unwrap();
    drop(blobs);

    let mut store = Store::open(&dir).unwrap();
    assert_eq!(store.recovery().blobs, 5);
    assert!(store.blobs().contains(shared_hash));
    assert_eq!(store.blobs().generation(), 0);
    let removed = store.gc_orphan_blobs().unwrap();
    assert_eq!(removed, vec![orphan_hash]);
    assert_eq!(store.blobs().len(), 4);
    assert_eq!(store.blobs().generation(), 1, "GC rewrote the pack");
    assert!(
        store.blob(shared_hash).unwrap().is_some(),
        "live blob survives GC"
    );
    assert_eq!(store.blob(orphan_hash).unwrap(), None);
    assert!(store.verify().unwrap().is_clean());
    assert_eq!(
        store.gc_orphan_blobs().unwrap(),
        Vec::<u128>::new(),
        "GC is idempotent"
    );
    assert_eq!(
        store.blobs().generation(),
        1,
        "nothing to collect, nothing rewritten"
    );
    drop(store);

    // The rewritten generation is what the next open serves; the old
    // generation's files are gone.
    let mut store = Store::open(&dir).unwrap();
    assert_eq!(store.blobs().len(), 4);
    assert_eq!(
        store.blob(shared_hash).unwrap().as_deref(),
        Some(shared.as_slice())
    );
    assert!(store.verify().unwrap().is_clean());
    assert!(!dir.join(pack_file_name(0)).exists());
    assert!(!dir.join(index_file_name(0)).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Compaction keeps the newest record per content hash, swaps generations
/// atomically, and the compacted store survives reopen and further
/// appends.
#[test]
fn compaction_keeps_newest_record_per_content_hash() {
    let dir = scratch("compact");
    let mut store = Store::open_with(&dir, one_shard()).unwrap();
    store
        .append(&synthetic_record(0, 1, MessageClass::NoResource))
        .unwrap();
    store
        .append(&synthetic_record(1, 2, MessageClass::ErrorPage))
        .unwrap();
    // Same content hash as seq 0: a re-record that supersedes it.
    store
        .append(&synthetic_record(2, 1, MessageClass::ActivePhish))
        .unwrap();

    let report = store.compact().unwrap();
    assert_eq!((report.kept, report.dropped), (2, 1));
    let records = store.read_all().unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].message_id, 1, "survivors keep log order");
    assert_eq!(records[1].message_id, 2, "the newer duplicate wins");
    assert_eq!(records[1].class, MessageClass::ActivePhish);

    // The generation swap is visible on disk and survives reopen.
    let shard = dir.join("shard-00");
    assert!(
        !shard.join("segments-00000").exists(),
        "old generation removed"
    );
    assert!(shard.join("segments-00001").is_dir());
    drop(store);
    let mut store = Store::open(&dir).unwrap();
    assert_eq!(store.len(), 2);
    assert!(store.contains_hash(1) && store.contains_hash(2));
    store
        .append(&synthetic_record(3, 9, MessageClass::Download))
        .unwrap();
    store.flush().unwrap();
    assert_eq!(store.len(), 3);
    assert!(store.verify().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Graceful degradation tentpole: interior corruption in one shard
/// quarantines that shard only. The store opens, serves the healthy
/// shards' records and campaigns, fails appends routed to the quarantined
/// shard with a repair hint, refuses GC, and `repair` salvages the valid
/// prefix and returns the shard to service.
#[test]
fn interior_corruption_quarantines_one_shard_and_repair_restores_it() {
    let dir = scratch("quarantine");
    let shards = 4usize;
    // A 1-byte segment target seals one record per segment file, so the
    // flipped byte lands in an *interior* segment of shard 1.
    let opts = StoreOptions {
        segment_target_bytes: 1,
        shards,
        ..StoreOptions::default()
    };
    let mut store = Store::open_with(&dir, opts).unwrap();
    for id in 0..3usize {
        let h = hash_in_shard(1, shards, id as u128 + 10);
        store
            .append(&synthetic_record(id, h, MessageClass::NoResource))
            .unwrap();
    }
    let healthy_hash = hash_in_shard(3, shards, 77);
    store
        .append(&synthetic_record(
            9,
            healthy_hash,
            MessageClass::ActivePhish,
        ))
        .unwrap();
    store.sync().unwrap();
    drop(store);

    let seg0 = dir
        .join("shard-01")
        .join("segments-00000")
        .join("seg-00000.cbl");
    let mut bytes = std::fs::read(&seg0).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0xFF;
    std::fs::write(&seg0, &bytes).unwrap();

    // Open succeeds degraded; only shard 1 is fenced off.
    let mut store = Store::open(&dir).unwrap();
    assert!(store.is_degraded());
    assert_eq!(store.quarantined().len(), 1);
    assert_eq!(store.recovery().quarantined[0].0, 1);
    assert_eq!(store.len(), 1, "healthy shards keep serving");
    assert!(store.contains_hash(healthy_hash));
    assert_eq!(
        store.campaigns().len(),
        1,
        "clustering runs on healthy shards"
    );
    let stats = store.stats();
    assert!(stats.is_degraded());
    assert_eq!((stats.shards, stats.quarantined), (shards, 1));

    // Appends routed to the quarantined shard fail loudly with the repair
    // hint; appends to healthy shards still work.
    let err = store
        .append(&synthetic_record(
            20,
            hash_in_shard(1, shards, 500),
            MessageClass::Download,
        ))
        .unwrap_err();
    assert!(err.to_string().contains("repair"), "{err}");
    store
        .append(&synthetic_record(
            21,
            hash_in_shard(0, shards, 501),
            MessageClass::Download,
        ))
        .unwrap();
    assert!(
        store.gc_orphan_blobs().is_err(),
        "GC must refuse while degraded"
    );
    assert!(
        store.compact().is_err(),
        "compaction must refuse while degraded"
    );

    // Verify reports the corruption as a fault rather than an error.
    let report = store.verify().unwrap();
    assert!(!report.is_clean());
    assert!(
        report
            .faults
            .iter()
            .any(|f| f.reason.contains("quarantined")),
        "{report:?}"
    );

    // Repair salvages the two clean records of shard 1 (the third is in
    // the corrupted segment's suffix... each segment holds one record, so
    // the two untouched segments survive) and clears the degradation.
    let reports = store.repair(None).unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].shard, 1);
    assert!(reports[0].was_quarantined);
    assert_eq!(reports[0].salvaged, 2, "valid frames are re-adjudicated");
    assert!(!store.is_degraded());
    assert_eq!(store.len(), 4, "2 salvaged + healthy shards");
    assert!(store.verify().unwrap().is_clean());
    store.gc_orphan_blobs().unwrap();

    // The repaired store reopens healthy.
    drop(store);
    let store = Store::open(&dir).unwrap();
    assert!(!store.is_degraded());
    assert_eq!(store.len(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Repair judges pairs as recovery does. A segment laid out as
/// `[pair A][blob-ref][blob-ref][record][pair B]`, every ref resolving,
/// is corrupt to recovery (a blob-ref must be followed by its record), so
/// the shard is quarantined on open; repair keeps exactly A, and the
/// repaired shard reopens healthy and verifies clean.
#[test]
fn repair_keeps_only_the_pairs_before_a_doubled_blob_ref() {
    use cb_store::frame::{encode_frame, encode_pair, KIND_BLOB_REF};
    let dir = scratch("repair-double-ref");
    let with_blob = |id: usize, body: &[u8]| {
        let mut r = synthetic_record(id, fingerprint::fnv128(body), MessageClass::NoResource);
        r.artifacts.push(CapturedArtifact::new(
            ArtifactKind::Message,
            r.content_hash,
            body.to_vec(),
        ));
        r
    };
    let [a, c, b] = [
        with_blob(0, b"pair a"),
        with_blob(1, b"pair c"),
        with_blob(2, b"pair b"),
    ];
    let mut store = Store::open_with(&dir, one_shard()).unwrap();
    for r in [&a, &c, &b] {
        store.append(r).unwrap();
    }
    store.sync().unwrap();
    drop(store);

    let pair = |r: &ScanRecord| encode_pair(&[r.content_hash], &cb_json::to_vec(r).unwrap());
    let seg = dir
        .join("shard-00")
        .join("segments-00000")
        .join("seg-00000.cbl");
    assert_eq!(
        std::fs::read(&seg).unwrap(),
        [pair(&a), pair(&c), pair(&b)].concat()
    );
    let stray = encode_frame(KIND_BLOB_REF, &a.content_hash.to_le_bytes());
    std::fs::write(&seg, [pair(&a), stray, pair(&c), pair(&b)].concat()).unwrap();

    let mut store = Store::open(&dir).unwrap();
    assert_eq!(
        store.quarantined().len(),
        1,
        "recovery reads a doubled blob-ref as corrupt"
    );
    let reports = store.repair(None).unwrap();
    assert_eq!(
        reports[0].salvaged, 1,
        "repair keeps exactly the pair before the fault"
    );
    assert_eq!(
        store.read_payloads().unwrap(),
        vec![cb_json::to_vec(&a).unwrap()]
    );
    assert!(store.verify().unwrap().is_clean());
    drop(store);
    let mut store = Store::open(&dir).unwrap();
    assert!(!store.is_degraded());
    assert_eq!(store.len(), 1);
    assert!(store.contains_hash(a.content_hash));
    assert!(store.verify().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery judges a CRC-valid payload by the record decode alone. A
/// mistyped field the index never reads, or a number written with a
/// leading zero, is corruption and quarantines the shard on open. A visit
/// that leaves out an `Option` field is a record: the store reopens
/// healthy and the field reads back as `None`.
#[test]
fn recovery_adjudicates_crafted_payloads_as_the_record_decode_does() {
    use cb_store::frame::encode_pair;
    let (corpus, subset) = corpus_subset(2024, 10);
    let record = CrawlerBox::new(&corpus.world)
        .scan_all(&subset)
        .into_iter()
        .find(|r| r.visits.iter().any(|v| v.spear.is_none()))
        .expect("a record with an unmatched visit");
    let canonical = String::from_utf8(cb_json::to_vec(&record).unwrap()).unwrap();
    let size = format!("\"body_bytes\":{}", record.body_bytes);
    let edit = |from: &str, to: &str| {
        assert!(canonical.contains(from), "edit {from:?} applies");
        canonical.replacen(from, to, 1)
    };
    for (tag, payload, is_record) in [
        ("mistyped", edit(&size, "\"body_bytes\":\"x\""), false),
        (
            "leading-zero",
            edit(&size, &format!("\"body_bytes\":0{}", record.body_bytes)),
            false,
        ),
        ("no-spear", edit("\"spear\":null,", ""), true),
    ] {
        let dir = scratch(&format!("crafted-{tag}"));
        let first = synthetic_record(0, 1, MessageClass::NoResource);
        let mut store = Store::open_with(&dir, one_shard()).unwrap();
        store.append(&first).unwrap();
        store.sync().unwrap();
        drop(store);
        let seg = dir
            .join("shard-00")
            .join("segments-00000")
            .join("seg-00000.cbl");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend(encode_pair(&[], payload.as_bytes()));
        std::fs::write(&seg, bytes).unwrap();

        let mut store = Store::open(&dir).unwrap();
        if is_record {
            assert!(!store.is_degraded(), "{tag}: {:?}", store.quarantined());
            let read = store.read_all().unwrap();
            assert_eq!(read.len(), 2);
            assert!(read[1].visits.iter().any(|v| v.spear.is_none()));
            assert_eq!(cb_json::to_vec(&read[1]).unwrap(), canonical.as_bytes());
        } else {
            let quarantined = store.quarantined();
            assert_eq!(quarantined.len(), 1, "{tag} quarantines the shard");
            assert!(
                quarantined[0].1.contains("undecodable record"),
                "{quarantined:?}"
            );
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A v1 store (CURRENT + segments-* at the root) is refused by name: the
/// open fails with `InvalidData` and touches nothing, rather than reading
/// as an empty store.
#[test]
fn v1_layout_is_refused_by_name() {
    use cb_store::frame::{encode_frame, KIND_RECORD};
    let dir = scratch("refuse-v1");
    let seg_dir = dir.join("segments-00000");
    std::fs::create_dir_all(&seg_dir).unwrap();
    let record = synthetic_record(0, 40, MessageClass::ErrorPage);
    let frame = encode_frame(KIND_RECORD, &cb_json::to_vec(&record).unwrap());
    std::fs::write(seg_dir.join("seg-00000.cbl"), &frame).unwrap();
    std::fs::write(dir.join("CURRENT"), b"segments-00000").unwrap();

    let err = Store::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("format v1"), "{err}");
    assert!(
        !dir.join("STORE").exists(),
        "a refused store is left as it was"
    );
    assert!(!dir.join(pack_file_name(0)).exists());
    assert!(dir.join("CURRENT").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A v2 store (one file per blob under `blobs/`) is refused by name: its
/// records would otherwise replay against an empty blob pack.
#[test]
fn v2_layout_is_refused_by_name() {
    let dir = scratch("refuse-v2");
    std::fs::create_dir_all(dir.join("blobs")).unwrap();
    let body = b"raw message".to_vec();
    let hash = fingerprint::fnv128(&body);
    std::fs::write(dir.join("blobs").join(format!("{hash:032x}.blob")), &body).unwrap();
    std::fs::write(dir.join("STORE"), b"v2 shards=4\n").unwrap();

    let err = Store::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("format v2"), "{err}");
    assert!(
        !dir.join(pack_file_name(0)).exists(),
        "a refused store is left as it was"
    );
    assert!(!dir.join("shard-00").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The forensics layer runs against a store reopened from disk alone:
/// campaign clustering partitions every record across shards and is a
/// pure function of the rebuilt indexes.
#[test]
fn campaign_clustering_runs_from_a_reopened_store() {
    let (corpus, subset) = corpus_subset(3, 30);
    let dir = scratch("campaigns");
    let cbx = CrawlerBox::new(&corpus.world)
        .with_artifact_capture(true)
        .with_stream_capacity(8);
    let store = Mutex::new(Store::open(&dir).unwrap());
    let mut sink = StoreSink::new(&store);
    cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
    sink.finish().unwrap();
    drop(store);

    let store = Store::open(&dir).unwrap();
    let campaigns = store.campaigns();
    let clustered: usize = campaigns.iter().map(|c| c.len()).sum();
    assert_eq!(
        clustered,
        store.len(),
        "every record is in exactly one campaign"
    );
    for (i, c) in campaigns.iter().enumerate() {
        assert_eq!(c.id, i, "campaign ids are dense and ordered");
        assert!(!c.is_empty());
        for &(shard, seq) in &c.members {
            assert!(shard < store.shard_count());
            assert!(seq < store.shard(shard).unwrap().len());
        }
    }
    let again = store.campaigns();
    let members: Vec<_> = campaigns.iter().map(|c| c.members.clone()).collect();
    let members_again: Vec<_> = again.iter().map(|c| c.members.clone()).collect();
    assert_eq!(members, members_again, "clustering is deterministic");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// CLI satellite: unknown subcommands, unknown flags, missing store
/// directories and out-of-range shard ids all exit 2 with a usage message
/// on stderr.
#[test]
fn crawl_log_cli_rejects_unknown_input() {
    let bin = env!("CARGO_BIN_EXE_crawl-log");
    for args in [
        vec!["store", "/nonexistent", "frobnicate"],
        vec!["store"],
        vec!["store", "/nonexistent", "stats"],
        vec!["store", "/nonexistent", "repair"],
        vec!["store", "/nonexistent", "query", "--wat"],
        vec!["--bogus"],
    ] {
        let out = Command::new(bin).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("error:"), "{args:?} stderr: {stderr}");
    }
}

/// CLI satellite: the store query surface runs clean against a real store
/// written by the library; shard ids are validated; `repro` refuses
/// `--store` without `--stream`.
#[test]
fn crawl_log_cli_store_queries_run_clean() {
    let (corpus, subset) = corpus_subset(7, 8);
    let dir = scratch("cli");
    let cbx = CrawlerBox::new(&corpus.world)
        .with_artifact_capture(true)
        .with_stream_capacity(4);
    let store = Mutex::new(Store::open(&dir).unwrap());
    let mut sink = StoreSink::new(&store);
    cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
    sink.finish().unwrap();
    drop(store);

    let bin = env!("CARGO_BIN_EXE_crawl-log");
    let dir_arg = dir.to_str().unwrap();

    let out = Command::new(bin)
        .args(["store", dir_arg, "stats"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("8 records"), "{stdout}");
    assert!(stdout.contains("status: healthy"), "{stdout}");
    assert!(stdout.contains("shard  0"), "{stdout}");
    assert!(stdout.contains("class mix:"), "{stdout}");
    assert!(stdout.contains("ingest (this session):"), "{stdout}");
    // A freshly opened CLI store has appended nothing, so the
    // session-scoped commit histogram is honest about being empty.
    assert!(
        stdout.contains("commit batches: none this session"),
        "{stdout}"
    );

    let out = Command::new(bin)
        .args(["store", dir_arg, "verify"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("store is clean"));

    let out = Command::new(bin)
        .args(["store", dir_arg, "campaigns", "--min-size", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "campaigns failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("campaign(s)"));

    let out = Command::new(bin)
        .args(["store", dir_arg, "query", "--limit", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("matching record(s)"));

    // Out-of-range shard ids are a usage error, not an empty result.
    let out = Command::new(bin)
        .args(["store", dir_arg, "query", "--shard", "99"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown shard id must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no shard 99"));
    let out = Command::new(bin)
        .args(["store", dir_arg, "repair", "--shard", "99"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "repair of unknown shard must exit 2"
    );

    // Repairing a healthy store is a clean no-op.
    let out = Command::new(bin)
        .args(["store", dir_arg, "repair"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "repair failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("nothing to repair"));

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["classmix", "--store", dir_arg])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "--store without --stream must be rejected"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--stream"));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// CLI golden satellite: every `crawl-log store` subcommand rejects
/// unknown flags with exit 2 + usage, and a missing, unreadable
/// (file-shadowed) or corrupt store directory is a usage error for all of
/// them — never a panic, never a zero exit.
#[test]
fn crawl_log_cli_store_subcommand_goldens() {
    let bin = env!("CARGO_BIN_EXE_crawl-log");
    let subcommands = ["stats", "verify", "query", "campaigns", "repair"];

    // A real (tiny but valid) store, so unknown-flag rejection is tested
    // against a directory that would otherwise succeed.
    let (corpus, subset) = corpus_subset(11, 2);
    let dir = scratch("cli-goldens");
    let cbx = CrawlerBox::new(&corpus.world);
    let store = Mutex::new(Store::open(&dir).unwrap());
    let mut sink = StoreSink::new(&store);
    cbx.scan_stream_encoded(subset.iter().cloned(), &StoreEncoder, &mut sink);
    sink.finish().unwrap();
    drop(store);
    let dir_arg = dir.to_str().unwrap().to_string();

    let assert_usage = |args: &[&str], what: &str| {
        let out = Command::new(bin).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{what}: {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "{what}: {args:?} stderr: {stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "{what}: {args:?} stderr: {stderr}"
        );
    };

    for sub in subcommands {
        // Unknown flag after a valid store + subcommand.
        assert_usage(&["store", &dir_arg, sub, "--wat"], "unknown flag");
        // Missing store directory.
        assert_usage(&["store", "/nonexistent-cb-store", sub], "missing dir");
    }

    // The store path exists but is a file, not a directory.
    let shadow = std::env::temp_dir().join(format!("cb-store-shadow-{}", std::process::id()));
    std::fs::write(&shadow, b"not a store").unwrap();
    let shadow_arg = shadow.to_str().unwrap().to_string();
    for sub in subcommands {
        assert_usage(&["store", &shadow_arg, sub], "file-shadowed dir");
    }
    std::fs::remove_file(&shadow).unwrap();

    // A corrupt manifest fails the open for every subcommand.
    std::fs::write(dir.join("STORE"), b"v9 shards=banana\n").unwrap();
    for sub in subcommands {
        assert_usage(&["store", &dir_arg, sub], "corrupt manifest");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
