//! [`StoreSink`]: the one sink that plugs the store into `scan_stream_encoded`'s
//! order-preserving delivery path, and the owner of group commit.
//!
//! Paired with [`StoreEncoder`](crate::encoded::StoreEncoder), records
//! arrive already encoded by the scan workers, in message order on the
//! calling thread, so the sink appends to the log in a deterministic
//! sequence — which is exactly why the on-disk byte encoding is identical
//! across worker counts. The sink buffers them and flushes every
//! [`commit_batch`](crate::StoreOptions::commit_batch) records or 4 MiB
//! of frame bytes; each flush is one
//! [`Store::append_batch`] followed by one [`Store::sync`], the store's only
//! barrier, so a record is acked once the flush carrying it returns. The
//! cadence never changes the stored bytes.
//!
//! `accept_encoded` cannot return errors, so the first failure — an
//! encode, an append or a barrier — poisons the sink: later records are
//! dropped, not half-written, and the error surfaces from `finish`. The
//! drop count is reported via `dropped()` so runs can surface it in their
//! [`ScanStats`](crawlerbox::ScanStats).

use crate::encoded::EncodedRecord;
use crate::store::Store;
use crawlerbox::{EncodedSink, RecordSink, ScanRecord};
use std::io;

/// Byte cap on a group commit: a [`StoreSink`] also flushes once this many
/// frame bytes are buffered, whatever the batch count says.
const COMMIT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// The group-commit ingest sink: buffers worker-encoded records, appends
/// and syncs them in commit-sized batches, and forwards each record (its
/// artifact bytes already taken by the encoder — they now live in the
/// blob store) to an inner sink for in-memory aggregation, immediately and
/// in delivery order.
#[derive(Debug)]
pub struct StoreSink<S = ()> {
    store: Store,
    inner: S,
    error: Option<io::Error>,
    appended: usize,
    dropped: usize,
    buf: Vec<EncodedRecord>,
    buf_bytes: u64,
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
            buf: Vec::new(),
            buf_bytes: 0,
        }
    }

    /// Records appended and acked so far (completed flushes only).
    pub fn appended(&self) -> usize {
        self.appended
    }

    /// Records dropped because the sink was poisoned (includes the batch
    /// whose append or barrier failed).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// The first encode, append or barrier error, if the sink is poisoned.
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

    /// Append and sync the buffered batch; a failure at either step
    /// poisons the sink.
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
        let appended = self.store.append_batch(batch);
        match appended.and_then(|()| self.store.sync()) {
            Ok(()) => self.appended += n,
            Err(e) => {
                self.error = Some(e);
                self.dropped += n;
            }
        }
    }

    /// Flush (and so ack) any buffered tail, sync the store durably and
    /// hand back the store and inner sink.
    ///
    /// # Errors
    ///
    /// The first encode, append or barrier error when the sink was
    /// poisoned, including one from this final flush, or the final sync's.
    pub fn finish(mut self) -> io::Result<(Store, S)> {
        self.flush_buf();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // Free after a flush; for a sink that saw no record, it makes the
        // directories a fresh open created durable.
        self.store.sync()?;
        Ok((self.store, self.inner))
    }
}

impl<S: RecordSink> EncodedSink<io::Result<EncodedRecord>> for StoreSink<S> {
    fn accept_encoded(&mut self, record: ScanRecord, encoded: io::Result<EncodedRecord>) {
        if self.error.is_some() {
            self.dropped += 1;
        } else {
            match encoded {
                Ok(enc) => {
                    self.buf_bytes += enc.frame.len() as u64;
                    self.buf.push(enc);
                    if self.buf.len() >= self.store.commit_batch()
                        || self.buf_bytes >= COMMIT_MAX_BYTES
                    {
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
