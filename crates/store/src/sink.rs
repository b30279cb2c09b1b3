//! [`StoreSink`] and [`EncodedStoreSink`]: the sinks that plug the store
//! into `scan_stream`'s order-preserving delivery path.
//!
//! `scan_stream` delivers records in message order on the calling thread,
//! so the sinks append to the log in a deterministic sequence — which is
//! exactly why the on-disk byte encoding is identical across worker counts.
//! `accept` cannot return errors, so the first I/O failure poisons the
//! sink (later records are dropped, not half-written) and surfaces from
//! `finish`. The drop count is reported via `dropped()` so runs can
//! surface it in their [`ScanStats`](crawlerbox::ScanStats).
//!
//! [`StoreSink`] is the owned-record **reference oracle**: it serializes
//! and frames each record on the delivery thread via
//! [`Store::append`]. [`EncodedStoreSink`] is the group-commit fast path:
//! paired with [`StoreEncoder`](crate::encoded::StoreEncoder) on
//! `scan_stream_encoded`, records arrive already encoded by the scan
//! workers, and the sink batches them into
//! [`Store::append_batch`] calls sized by the store's commit knobs —
//! bit-identical logs, a fraction of the fsyncs and none of the
//! delivery-thread serialization.

use crate::encoded::EncodedRecord;
use crate::store::{Store, COMMIT_MAX_BYTES};
use crawlerbox::{EncodedSink, RecordSink, ScanRecord};
use std::io;

/// Streams scan records into a [`Store`], forwarding each (with its
/// artifact bytes dropped — they now live in the blob store) to an inner
/// sink for in-memory aggregation.
#[derive(Debug)]
pub struct StoreSink<S = ()> {
    store: Store,
    inner: S,
    error: Option<io::Error>,
    appended: usize,
    dropped: usize,
}

impl StoreSink<()> {
    /// A sink that only persists (no inner aggregation).
    pub fn new(store: Store) -> StoreSink<()> {
        StoreSink::with_inner(store, ())
    }
}

impl<S: RecordSink> StoreSink<S> {
    /// A sink that persists every record and forwards it to `inner`.
    pub fn with_inner(store: Store, inner: S) -> StoreSink<S> {
        StoreSink {
            store,
            inner,
            error: None,
            appended: 0,
            dropped: 0,
        }
    }

    /// Records appended so far (excludes records dropped after poisoning).
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Records dropped because the sink was poisoned (includes the record
    /// whose append failed).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// The first append error, if the sink is poisoned.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Borrow the underlying store (e.g. for mid-stream stats).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Borrow the inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Sync the log durably and hand back the store and inner sink.
    ///
    /// # Errors
    ///
    /// The first append error when the sink was poisoned, or the final
    /// flush/fsync failure.
    pub fn finish(mut self) -> io::Result<(Store, S)> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.store.sync()?;
        Ok((self.store, self.inner))
    }
}

impl<S: RecordSink> RecordSink for StoreSink<S> {
    fn accept(&mut self, mut record: ScanRecord) {
        if self.error.is_none() {
            match self.store.append(&record) {
                Ok(()) => self.appended += 1,
                Err(e) => {
                    self.error = Some(e);
                    self.dropped += 1;
                }
            }
        } else {
            self.dropped += 1;
        }
        // The artifact bytes are persisted (or the sink is poisoned);
        // either way the inner sink must not retain them.
        record.artifacts = Vec::new();
        self.inner.accept(record);
    }
}

/// The group-commit ingest sink: buffers worker-encoded records and
/// appends them in batches sized like the store's group commits
/// ([`commit_batch`](crate::StoreOptions::commit_batch) records, or
/// 4 MiB of frame bytes). Records are forwarded to the inner sink
/// immediately in delivery order; the on-disk log is bit-identical to the
/// [`StoreSink`] oracle at any batch size.
#[derive(Debug)]
pub struct EncodedStoreSink<S = ()> {
    store: Store,
    inner: S,
    error: Option<io::Error>,
    appended: usize,
    dropped: usize,
    buf: Vec<EncodedRecord>,
    buf_bytes: u64,
}

impl EncodedStoreSink<()> {
    /// A sink that only persists (no inner aggregation).
    pub fn new(store: Store) -> EncodedStoreSink<()> {
        EncodedStoreSink::with_inner(store, ())
    }
}

impl<S: RecordSink> EncodedStoreSink<S> {
    /// A sink that persists every record and forwards it to `inner`.
    pub fn with_inner(store: Store, inner: S) -> EncodedStoreSink<S> {
        EncodedStoreSink {
            store,
            inner,
            error: None,
            appended: 0,
            dropped: 0,
            buf: Vec::new(),
            buf_bytes: 0,
        }
    }

    /// Records appended so far (flushed batches only).
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Records dropped because the sink was poisoned (includes the batch
    /// whose append failed).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// The first append/encode error, if the sink is poisoned.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Borrow the underlying store (e.g. for mid-stream stats).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Borrow the inner sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether the buffered records must flush now — mirrors the store's
    /// own commit caps so batches arrive commit-sized.
    fn flush_due(&self) -> bool {
        self.buf.len() >= self.store.commit_batch() || self.buf_bytes >= COMMIT_MAX_BYTES
    }

    fn flush_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.buf);
        self.buf_bytes = 0;
        let n = batch.len();
        if self.error.is_some() {
            self.dropped += n;
            return;
        }
        match self.store.append_batch(batch) {
            Ok(()) => self.appended += n,
            Err(e) => {
                self.error = Some(e);
                self.dropped += n;
            }
        }
    }

    /// Flush any buffered batch, sync the log durably and hand back the
    /// store and inner sink.
    ///
    /// # Errors
    ///
    /// The first append/encode error when the sink was poisoned, or the
    /// final flush/fsync failure.
    pub fn finish(mut self) -> io::Result<(Store, S)> {
        self.flush_buf();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.store.sync()?;
        Ok((self.store, self.inner))
    }
}

impl<S: RecordSink> EncodedSink<io::Result<EncodedRecord>> for EncodedStoreSink<S> {
    fn accept_encoded(&mut self, record: ScanRecord, encoded: io::Result<EncodedRecord>) {
        if self.error.is_some() {
            self.dropped += 1;
        } else {
            match encoded {
                Ok(enc) => {
                    self.buf_bytes += enc.frame.len() as u64;
                    self.buf.push(enc);
                    if self.flush_due() {
                        self.flush_buf();
                    }
                }
                Err(e) => {
                    self.error = Some(e);
                    self.dropped += 1;
                }
            }
        }
        // The encoder already took the artifact bytes off the record on
        // the worker; the inner sink sees it artifact-free either way.
        self.inner.accept(record);
    }
}
