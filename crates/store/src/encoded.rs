//! Producer-side record encoding: the worker half of the group-commit
//! ingest pipeline.
//!
//! [`StoreEncoder`] runs canonical JSON serialization, meta derivation and
//! CRC framing on the scan workers via
//! [`scan_stream_encoded`](crawlerbox::CrawlerBox::scan_stream_encoded),
//! outside in-order delivery — the serial tail of the pipeline. Each
//! worker emits an [`EncodedRecord`] carrying the pre-built (CRC'd)
//! blob-ref + record frames, the derived [`RecordMeta`] and the captured
//! artifacts, so delivery only routes bytes to shards and the store only
//! writes them. A screenshot captured on a page-key hit stays
//! undrawn here; the store draws it only if its blob pack lacks the
//! address. [`encode_record`] is the only encoder: [`Store::append`]
//! runs it too, on the calling thread.
//!
//! Artifacts are taken off the record *before* serialization, which
//! changes nothing because `ScanRecord.artifacts` is `#[serde(skip)]` —
//! the canonical encoding never contains them. `tests/store.rs` checks the
//! stored payloads against `cb_json::to_vec` of a fresh-box reference.
//!
//! [`Store::append`]: crate::Store::append

use crate::frame::encode_pair;
use crate::index::RecordMeta;
use crawlerbox::{CapturedArtifact, RecordEncoder, ScanRecord};
use std::io;

/// One record, fully encoded on a scan worker and ready to route: the
/// store's delivery-thread work is reduced to blob writes and a frame
/// append on the owning shard.
#[derive(Debug, Clone)]
pub struct EncodedRecord {
    /// Derived index meta. `seq` is a placeholder (0) until the store
    /// assigns the shard-local log position at insert.
    pub meta: RecordMeta,
    /// The bytes to append: the blob-ref frame (when artifacts are
    /// present) followed by the record frame, CRCs included.
    pub frame: Vec<u8>,
    /// Blob addresses referenced by the frame, in artifact order.
    pub refs: Vec<u128>,
    /// The artifacts to put into the blob store *before* the frame, in
    /// `refs` order; an undrawn screenshot is drawn only on a blob miss.
    pub artifacts: Vec<CapturedArtifact>,
}

/// Encode `record` for the store on the calling (worker) thread, taking
/// its artifacts (the downstream sink sees the record with artifacts
/// already shed).
///
/// # Errors
///
/// Canonical serialization failure (never expected for well-formed
/// records).
pub fn encode_record(record: &mut ScanRecord) -> io::Result<EncodedRecord> {
    let artifacts = std::mem::take(&mut record.artifacts);
    let refs: Vec<u128> = artifacts.iter().map(|a| a.hash).collect();
    // Artifacts are #[serde(skip)], so taking them first leaves the
    // canonical payload bytes unchanged.
    let payload =
        cb_json::to_vec(record).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(EncodedRecord {
        meta: RecordMeta::of(0, record),
        frame: encode_pair(&refs, &payload),
        refs,
        artifacts,
    })
}

/// The [`RecordEncoder`] that runs [`encode_record`] on every scan worker.
/// Pair with [`StoreSink`](crate::sink::StoreSink) via
/// [`scan_stream_encoded`](crawlerbox::CrawlerBox::scan_stream_encoded).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreEncoder;

impl RecordEncoder for StoreEncoder {
    type Encoded = io::Result<EncodedRecord>;

    fn encode(&self, record: &mut ScanRecord) -> io::Result<EncodedRecord> {
        encode_record(record)
    }
}
