//! [`StoreSink`]: the one sink that plugs the store into `scan_stream_encoded`'s
//! order-preserving delivery path, and the one owner of group commit —
//! `repro --store` and every crawlboxd shard worker commit through it.
//!
//! Paired with [`StoreEncoder`](crate::encoded::StoreEncoder), records
//! arrive already encoded by the scan workers, in message order on the
//! calling thread, so the sink appends to the log in a deterministic
//! sequence — which is exactly why the on-disk byte encoding is identical
//! across worker counts. The sink buffers them and flushes every
//! [`commit_batch`](crate::StoreOptions::commit_batch) records or 4 MiB
//! of frame bytes; each flush locks the store once for one
//! [`Store::append_batch`] and one [`Store::sync`], the store's only
//! barrier, so a record is acked once the flush carrying it returns. The
//! cadence never changes the stored bytes. The store sits behind a
//! `Mutex` that the sink only borrows, so other threads (crawlboxd's HTTP
//! handlers) read it between flushes.
//!
//! The inner sink receives each record only when the barrier covering it
//! has returned: it sees exactly the acked records, in delivery order.
//!
//! `accept_encoded` cannot return errors, so the first failure — an
//! encode, an append or a barrier — poisons the sink: later records are
//! dropped, not half-written, and a dropped record never reaches the
//! inner sink; the error surfaces from `finish`. The drop count is
//! reported via `dropped()` so runs can surface it in their
//! [`ScanStats`](crawlerbox::ScanStats).

use crate::encoded::EncodedRecord;
use crate::store::Store;
use crawlerbox::{EncodedSink, RecordSink, ScanRecord};
use std::io;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Byte cap on a group commit: a [`StoreSink`] also flushes once this many
/// frame bytes are buffered, whatever the batch count says.
const COMMIT_MAX_BYTES: u64 = 4 * 1024 * 1024;

/// The group-commit ingest sink: buffers worker-encoded records, appends
/// and syncs them in commit-sized batches, and forwards each acked record
/// (its artifact bytes already taken by the encoder — they now live in the
/// blob store) to an inner sink, in delivery order.
#[derive(Debug)]
pub struct StoreSink<'a, S = ()> {
    store: &'a Mutex<Store>,
    inner: S,
    commit_batch: usize,
    error: Option<io::Error>,
    appended: usize,
    dropped: usize,
    buf: Vec<(ScanRecord, EncodedRecord)>,
    buf_bytes: u64,
}

impl<'a> StoreSink<'a, ()> {
    /// A sink that only persists (no inner aggregation).
    pub fn new(store: &'a Mutex<Store>) -> StoreSink<'a, ()> {
        StoreSink::with_inner(store, ())
    }
}

impl<'a, S: RecordSink> StoreSink<'a, S> {
    /// A sink that persists every record and forwards it to `inner` once
    /// acked.
    pub fn with_inner(store: &'a Mutex<Store>, inner: S) -> StoreSink<'a, S> {
        // Reading a setting is safe even behind a poisoned lock; the first
        // flush reports the poisoning.
        let commit_batch = store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .commit_batch();
        StoreSink {
            store,
            inner,
            commit_batch,
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

    /// Borrow the inner sink: it holds what the acked records made of it.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn lock(&self) -> io::Result<MutexGuard<'a, Store>> {
        self.store
            .lock()
            .map_err(|_| io::Error::other("store lock poisoned"))
    }

    /// Append and sync the buffered batch under one lock, then hand its
    /// records to the inner sink; a failure at any step poisons the sink.
    fn flush_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let (records, batch): (Vec<ScanRecord>, Vec<EncodedRecord>) =
            std::mem::take(&mut self.buf).into_iter().unzip();
        self.buf_bytes = 0;
        if self.error.is_some() {
            self.dropped += records.len();
            return;
        }
        let committed = self.lock().and_then(|mut store| {
            store.append_batch(batch)?;
            store.sync()
        });
        match committed {
            Ok(()) => {
                self.appended += records.len();
                for record in records {
                    self.inner.accept(record);
                }
            }
            Err(e) => {
                self.error = Some(e);
                self.dropped += records.len();
            }
        }
    }

    /// Flush (and so ack) any buffered tail, sync the store durably and
    /// hand back the inner sink.
    ///
    /// # Errors
    ///
    /// The first encode, append or barrier error when the sink was
    /// poisoned, including one from this final flush, or the final sync's.
    pub fn finish(mut self) -> io::Result<S> {
        self.flush_buf();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        // Free after a flush; for a sink that saw no record, it makes the
        // directories a fresh open created durable.
        self.lock()?.sync()?;
        Ok(self.inner)
    }
}

impl<S: RecordSink> EncodedSink<io::Result<EncodedRecord>> for StoreSink<'_, S> {
    fn accept_encoded(&mut self, record: ScanRecord, encoded: io::Result<EncodedRecord>) {
        if self.error.is_some() {
            self.dropped += 1;
            return;
        }
        match encoded {
            Ok(enc) => {
                self.buf_bytes += enc.frame.len() as u64;
                self.buf.push((record, enc));
                if self.buf.len() >= self.commit_batch || self.buf_bytes >= COMMIT_MAX_BYTES {
                    self.flush_buf();
                }
            }
            Err(e) => {
                self.error = Some(e);
                self.dropped += 1;
            }
        }
    }
}
