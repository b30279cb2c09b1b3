#![warn(missing_docs)]

//! # cb-store
//!
//! The persistent, content-addressed crawl store (DESIGN.md §11): the
//! durable record layer that turns CrawlerBox's per-run scan output into
//! the longitudinal evidence base the paper's campaign analysis mines.
//!
//! Three pieces:
//!
//! * **Record log** — an append-only sequence of segment files holding
//!   length-prefixed, CRC32-checked [frames](frame), grouped into pairs:
//!   each record frame, preceded by the blob-ref frame of its artifacts,
//!   carries one [`ScanRecord`](crawlerbox::ScanRecord) in its fixed
//!   canonical encoding (the same `cb_json` byte encoding the determinism
//!   tests compare), appended in message order via [`StoreSink`] on
//!   `scan_stream_encoded`'s delivery path — so the on-disk bytes are
//!   identical across worker counts.
//! * **Blob pack** — content-addressed artifact bytes (raw messages,
//!   screenshots) keyed on the pipeline's existing fnv128 hashes,
//!   deduplicating identical bytes across messages and campaigns, appended
//!   to one [pack](blob) per store behind a small hint index.
//! * **Shards, recovery & queries** — the log is partitioned by
//!   content-hash prefix into independent [shards](shard), each with its
//!   own generation pointer. [`Store::open`] replays every shard in
//!   parallel over the workspace's work-stealing pool, truncates torn
//!   tails after a crash, quarantines (rather than fails on) corrupted
//!   shards, and rebuilds the per-shard [`StoreIndex`] (by domain,
//!   certificate fingerprint, screenshot phash, class and content hash);
//!   [`Store::campaigns`] reproduces the paper's campaign clustering
//!   across shards via [`CampaignClusterer`]; [`Store::known_hashes`] +
//!   [`CrawlerBox::with_known_hashes`](crawlerbox::CrawlerBox::with_known_hashes)
//!   turn a repeated scan into a cheap delta scan, and [`Store::repair`]
//!   returns a quarantined shard to service from its last valid frames.
//!
//! The ingest side has one path (DESIGN.md §14): [`StoreEncoder`]
//! encodes records on the scan workers, [`StoreSink`] batches them, and
//! [`Store::append_batch`] fans the pre-built frames out to their shards
//! in parallel ([`Store::append`] is a one-record batch). The store never
//! runs a barrier on its own: [`Store::sync`] is its only barrier and ack
//! point, and the caller owns the cadence — the sink, the one group commit
//! for `repro` and crawlboxd alike, group-commits every
//! [`StoreOptions::commit_batch`] records, and a record is acked only once
//! a sync covers it.
//!
//! Everything is plain `std` file I/O behind the [`vfs::Vfs`] seam —
//! [`vfs::FaultVfs`] injects deterministic short writes, fsync failures
//! and crash points for the crash-consistency sweep in
//! `tests/store_chaos.rs` — over the workspace's existing crates: no new
//! dependencies.
//!
//! # Example
//!
//! ```no_run
//! use cb_store::{Store, StoreEncoder, StoreSink};
//! use cb_phishgen::{Corpus, CorpusSpec};
//! use crawlerbox::CrawlerBox;
//!
//! let spec = CorpusSpec::paper().with_scale(0.01);
//! let (corpus, stream) = Corpus::stream(&spec, 2024);
//! let store = Store::open(std::path::Path::new("crawl-store")).unwrap();
//! let cbx = CrawlerBox::new(&corpus.world)
//!     .with_known_hashes(store.known_hashes()) // delta scan on reopen
//!     .with_artifact_capture(true);            // feed the blob store
//! let store = std::sync::Mutex::new(store);    // readable between flushes
//! let mut sink = StoreSink::new(&store);
//! cbx.scan_stream_encoded(stream, &StoreEncoder, &mut sink);
//! sink.finish().unwrap();
//! println!("{} records durable", store.lock().unwrap().len());
//! ```

pub mod blob;
pub mod crc;
pub mod encoded;
pub mod frame;
pub mod index;
pub(crate) mod metascan;
pub mod query;
pub mod segment;
pub mod shard;
pub mod sink;
pub mod store;
pub mod vfs;

pub use blob::{BlobFault, BlobStore};
pub use encoded::{encode_record, EncodedRecord, StoreEncoder};
pub use index::{url_token_scheme, RecordMeta, StoreIndex};
pub use query::{cluster_campaigns, Campaign, CampaignClusterer};
pub use shard::{shard_of, RepairReport, Shard, ShardHealth, TornTail};
pub use sink::StoreSink;
pub use store::{
    CompactReport, RecoveryReport, Store, StoreOptions, StoreStats, StoreWatch, VerifyFault,
    VerifyReport,
};
pub use vfs::{FaultVfs, IoFaultKind, IoFaultPlan, RealVfs, Vfs};
