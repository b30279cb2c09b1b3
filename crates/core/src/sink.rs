//! Record sinks for the streaming scan pipeline.
//!
//! [`CrawlerBox::scan_stream`](crate::pipeline::CrawlerBox::scan_stream)
//! delivers each [`ScanRecord`] to a [`RecordSink`] in message order
//! instead of collecting a `Vec`, so aggregations that only need counters
//! (the §V class mix, the agreement-rate check, streaming moments) run in
//! O(1) memory regardless of corpus scale. A `Vec<ScanRecord>` is itself a
//! sink, so batch-style collection remains a one-liner where retention is
//! actually wanted.

use crate::analysis::tables::ClassMix;
use crate::logging::ScanRecord;
use cb_phishgen::MessageClass;
use std::sync::{Arc, Mutex, PoisonError};

/// Consumer of streaming scan records.
///
/// [`accept`](RecordSink::accept) is called exactly once per scanned
/// message, in message order (the pipeline's reorder buffer restores order
/// before delivery), on the thread that called `scan_stream` — sinks never
/// need to be `Send` or `Sync`.
pub trait RecordSink {
    /// Accept the next record, in message order.
    fn accept(&mut self, record: ScanRecord);
}

/// Producer-side record encoding for
/// [`scan_stream_encoded`](crate::pipeline::CrawlerBox::scan_stream_encoded):
/// runs on the scan workers, right after the record is produced, so
/// CPU-heavy sink preparation (canonical serialization, checksumming,
/// framing) rides the worker pool instead of serializing on the delivery
/// thread.
///
/// The encoder is shared by every worker (`Sync`) and its output travels
/// through the stream channels (`Encoded: Send`). It may mutate the record
/// — e.g. take its artifact bytes — as long as the mutation is one the
/// downstream sink expects; the record itself is still delivered to the
/// sink in message order.
pub trait RecordEncoder: Sync {
    /// The worker-produced encoding shipped alongside each record.
    type Encoded: Send;

    /// Encode `record` on the worker that scanned it.
    fn encode(&self, record: &mut ScanRecord) -> Self::Encoded;
}

/// The identity encoder: no producer-side work. The plain
/// [`RecordSink`] path of `scan_stream` is `scan_stream_encoded` with this
/// encoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopEncoder;

impl RecordEncoder for NoopEncoder {
    type Encoded = ();

    fn encode(&self, _record: &mut ScanRecord) {}
}

/// Consumer of streaming records plus their producer-side encoding.
///
/// Like [`RecordSink`], `accept_encoded` is called exactly once per
/// scanned message, in message order, on the calling thread.
pub trait EncodedSink<E> {
    /// Accept the next record and its worker-produced encoding.
    fn accept_encoded(&mut self, record: ScanRecord, encoded: E);
}

/// Every plain record sink is an encoded sink for the unit encoding, so
/// `scan_stream` can delegate to the encoded pipeline unchanged.
impl<S: RecordSink> EncodedSink<()> for S {
    fn accept_encoded(&mut self, record: ScanRecord, _encoded: ()) {
        self.accept(record);
    }
}

/// Collecting into a vector reproduces batch behaviour (and batch memory).
impl RecordSink for Vec<ScanRecord> {
    fn accept(&mut self, record: ScanRecord) {
        self.push(record);
    }
}

/// The unit sink discards every record — the no-op inner sink for
/// composing wrappers (e.g. a store sink that only persists).
impl RecordSink for () {
    fn accept(&mut self, _record: ScanRecord) {}
}

/// Counts records without retaining any of them — the O(1)-memory floor a
/// streaming scan can run against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Records delivered.
    pub records: usize,
    /// Records carrying error provenance (degraded scans: isolated panics,
    /// exhausted retries surfaced at record level).
    pub degraded: usize,
}

impl CountingSink {
    /// A fresh counter.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }
}

impl RecordSink for CountingSink {
    fn accept(&mut self, record: ScanRecord) {
        self.records += 1;
        if record.error.is_some() {
            self.degraded += 1;
        }
    }
}

/// Shared ground-truth ledger for streaming agreement checks.
///
/// The corpus stream yields messages in id order; tapping it with
/// [`note`](TruthLedger::note) (e.g. via `Iterator::inspect`) records each
/// message's ground-truth class at index = message id. The scan side of the
/// pipeline may run on other threads, so the ledger is cheaply cloneable
/// and internally synchronized. A message is always noted before its
/// record can be delivered, so lookups by delivered records never miss.
#[derive(Debug, Clone, Default)]
pub struct TruthLedger {
    classes: Arc<Mutex<Vec<MessageClass>>>,
}

impl TruthLedger {
    /// An empty ledger.
    pub fn new() -> TruthLedger {
        TruthLedger::default()
    }

    /// Record the ground-truth class of the next message (messages arrive
    /// in id order, so position doubles as message id).
    pub fn note(&self, class: MessageClass) {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(class);
    }

    /// Ground truth of message `id`, if noted.
    pub fn truth_of(&self, id: usize) -> Option<MessageClass> {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)
            .copied()
    }

    /// Number of messages noted so far.
    pub fn len(&self) -> usize {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been noted yet.
    pub fn is_empty(&self) -> bool {
        self.classes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

/// Incremental §V class-mix counters with an optional streaming
/// agreement-rate check against a [`TruthLedger`].
///
/// Equivalent to `ClassMix::of(&records)` plus the ground-truth agreement
/// loop, without ever materializing `records`.
#[derive(Debug, Clone, Default)]
pub struct ClassMixSink {
    truth: Option<TruthLedger>,
    total: usize,
    no_resource: usize,
    error_pages: usize,
    interaction_required: usize,
    downloads: usize,
    active_phish: usize,
    agreed: usize,
    compared: usize,
}

impl ClassMixSink {
    /// A class-mix sink without an agreement check.
    pub fn new() -> ClassMixSink {
        ClassMixSink::default()
    }

    /// A class-mix sink that also compares every record's derived class
    /// against the ground truth noted in `ledger`.
    pub fn with_truth(ledger: TruthLedger) -> ClassMixSink {
        ClassMixSink {
            truth: Some(ledger),
            ..ClassMixSink::default()
        }
    }

    /// The class mix accumulated so far.
    pub fn mix(&self) -> ClassMix {
        ClassMix {
            total: self.total,
            no_resource: self.no_resource,
            error_pages: self.error_pages,
            interaction_required: self.interaction_required,
            downloads: self.downloads,
            active_phish: self.active_phish,
        }
    }

    /// Share of records whose derived class matched ground truth, or `None`
    /// when no comparison happened (no ledger, or nothing delivered).
    pub fn agreement_rate(&self) -> Option<f64> {
        (self.compared > 0).then(|| self.agreed as f64 / self.compared as f64)
    }

    /// Records delivered so far.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl RecordSink for ClassMixSink {
    fn accept(&mut self, record: ScanRecord) {
        self.total += 1;
        match record.class {
            MessageClass::NoResource => self.no_resource += 1,
            MessageClass::ErrorPage => self.error_pages += 1,
            MessageClass::InteractionRequired => self.interaction_required += 1,
            MessageClass::Download => self.downloads += 1,
            MessageClass::ActivePhish => self.active_phish += 1,
        }
        if let Some(ledger) = &self.truth {
            if let Some(t) = ledger.truth_of(record.message_id) {
                self.compared += 1;
                if t == record.class {
                    self.agreed += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_sim::SimTime;

    fn record(id: usize, class: MessageClass, error: Option<&str>) -> ScanRecord {
        ScanRecord {
            message_id: id,
            content_hash: 0,
            delivered_at: SimTime::EPOCH,
            auth_pass: false,
            extracted: Vec::new(),
            visits: Vec::new(),
            body_bytes: 10,
            blank_line_run: 0,
            class,
            error: error.map(str::to_string),
            artifacts: Vec::new(),
        }
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink: Vec<ScanRecord> = Vec::new();
        sink.accept(record(0, MessageClass::NoResource, None));
        sink.accept(record(1, MessageClass::ActivePhish, None));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink[1].message_id, 1);
    }

    #[test]
    fn counting_sink_counts_degraded() {
        let mut sink = CountingSink::new();
        sink.accept(record(0, MessageClass::NoResource, None));
        sink.accept(record(
            1,
            MessageClass::NoResource,
            Some("scan panicked: boom"),
        ));
        assert_eq!(sink.records, 2);
        assert_eq!(sink.degraded, 1);
    }

    #[test]
    fn class_mix_sink_matches_batch_class_mix() {
        let records = vec![
            record(0, MessageClass::NoResource, None),
            record(1, MessageClass::ActivePhish, None),
            record(2, MessageClass::ErrorPage, None),
            record(3, MessageClass::ActivePhish, None),
            record(4, MessageClass::Download, None),
            record(5, MessageClass::InteractionRequired, None),
        ];
        let batch = ClassMix::of(&records);
        let mut sink = ClassMixSink::new();
        for r in records {
            sink.accept(r);
        }
        assert_eq!(sink.mix(), batch);
        assert_eq!(sink.total(), 6);
        assert!(sink.agreement_rate().is_none(), "no ledger, no comparison");
    }

    #[test]
    fn agreement_rate_compares_against_ledger() {
        let ledger = TruthLedger::new();
        assert!(ledger.is_empty());
        ledger.note(MessageClass::NoResource);
        ledger.note(MessageClass::ActivePhish);
        ledger.note(MessageClass::ErrorPage);
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.truth_of(1), Some(MessageClass::ActivePhish));
        assert_eq!(ledger.truth_of(9), None);

        let mut sink = ClassMixSink::with_truth(ledger);
        sink.accept(record(0, MessageClass::NoResource, None));
        sink.accept(record(1, MessageClass::ActivePhish, None));
        sink.accept(record(2, MessageClass::NoResource, None)); // disagrees
        let rate = sink.agreement_rate().expect("compared records");
        assert!((rate - 2.0 / 3.0).abs() < 1e-12, "{rate}");
    }

    #[test]
    fn default_sinks_match_new() {
        assert_eq!(CountingSink::default(), CountingSink::new());
        let d = ClassMixSink::default();
        assert_eq!(d.mix(), ClassMixSink::new().mix());
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn agreement_rate_is_none_on_empty_sink() {
        // Nothing delivered yet: no comparisons even with a ledger attached.
        let ledger = TruthLedger::new();
        ledger.note(MessageClass::ActivePhish);
        let sink = ClassMixSink::with_truth(ledger);
        assert!(sink.agreement_rate().is_none());
    }

    #[test]
    fn agreement_rate_is_none_without_ledger() {
        // Records delivered but no truth ledger: still no comparisons.
        let mut sink = ClassMixSink::new();
        sink.accept(record(0, MessageClass::Download, None));
        sink.accept(record(1, MessageClass::ErrorPage, None));
        assert!(sink.agreement_rate().is_none());
        assert_eq!(sink.total(), 2);
    }

    #[test]
    fn agreement_rate_skips_records_beyond_ledger() {
        // A record whose id was never noted is counted in the mix but not
        // in the agreement comparison.
        let ledger = TruthLedger::new();
        ledger.note(MessageClass::NoResource);
        let mut sink = ClassMixSink::with_truth(ledger);
        sink.accept(record(0, MessageClass::NoResource, None));
        sink.accept(record(7, MessageClass::ActivePhish, None)); // never noted
        let rate = sink.agreement_rate().expect("one compared record");
        assert!((rate - 1.0).abs() < 1e-12, "{rate}");
        assert_eq!(sink.total(), 2);
    }
}
