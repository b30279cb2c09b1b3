//! End-to-end tests for the bounded-memory streaming pipeline: lazy corpus
//! synthesis feeding `scan_stream`, bit-identity with the batch path,
//! residency bounds asserted via the `ScanStats` gauges, panic
//! degradation in streaming mode, and the world-only corpus
//! (`Corpus::world`) scanning exactly like the generated one.
//!
//! Environment knob (used by the CI seed matrix):
//! * `CB_SEED` — corpus seed of the world-only equivalence check (default:
//!   both 2024 and 7)

use cb_email::MessageBuilder;
use cb_netsim::{HttpRequest, HttpResponse, Internet, NetContext};
use cb_phishgen::messages::Carrier;
use cb_phishgen::{Corpus, CorpusSpec, GroundTruth, MessageClass, ReportedMessage};
use cb_sim::SimTime;
use crawlerbox::analysis::tables::ClassMix;
use crawlerbox::{ClassMixSink, CountingSink, CrawlerBox, ScanRecord, TruthLedger};

mod common;

/// Worker counts every determinism check compares.
const WORKERS: [usize; 2] = [1, 4];

fn message_from(id: usize, raw: String) -> ReportedMessage {
    ReportedMessage {
        id,
        raw,
        delivered_at: SimTime::from_ymd(2024, 3, 1),
        victim: "v@corp.example".to_string(),
        truth: GroundTruth {
            class: MessageClass::NoResource,
            campaign: None,
            carrier: Carrier::None,
            spear: false,
            noise_padded: false,
            url: None,
        },
    }
}

/// The tentpole acceptance check: a lazily generated corpus streamed
/// through the pipeline reproduces the batch run's class mix and
/// ground-truth agreement rate, while the residency gauges stay within
/// `stream_capacity + workers`.
#[test]
fn streamed_class_mix_and_agreement_match_batch() {
    let spec = CorpusSpec::paper().with_scale(0.02);
    let corpus = Corpus::generate(&spec, 2024);
    let batch = CrawlerBox::new(&corpus.world).scan_all(&corpus.messages);
    let batch_mix = ClassMix::of(&batch);
    let agreed = batch
        .iter()
        .filter(|r| r.class == corpus.messages[r.message_id].truth.class)
        .count();
    let batch_agreement = agreed as f64 / batch.len() as f64;
    let max_raw = corpus
        .messages
        .iter()
        .map(|m| m.raw.len() as u64)
        .max()
        .unwrap();

    let (stream_corpus, stream) = Corpus::stream(&spec, 2024);
    let ledger = TruthLedger::new();
    let tap = ledger.clone();
    let mut sink = ClassMixSink::with_truth(ledger);
    let cbx = CrawlerBox::new(&stream_corpus.world).with_stream_capacity(8);
    let delivered = cbx.scan_stream(stream.inspect(move |m| tap.note(m.truth.class)), &mut sink);

    assert_eq!(delivered, batch.len());
    assert_eq!(sink.total(), batch.len());
    assert_eq!(sink.mix(), batch_mix, "streamed class mix diverged");
    let streamed_agreement = sink.agreement_rate().expect("truth ledger was tapped");
    assert!(
        (streamed_agreement - batch_agreement).abs() < 1e-12,
        "agreement {streamed_agreement} != batch {batch_agreement}"
    );

    // The residency bound of the ISSUE: at most capacity + workers messages
    // (and their bytes) resident at any instant, and everything drains.
    let stats = cbx.stats();
    let bound = (cbx.stream_capacity() + cbx.parallelism) as u64;
    assert!(
        (1..=bound).contains(&stats.peak_in_flight),
        "peak in-flight {} outside (0, {bound}]",
        stats.peak_in_flight
    );
    assert!(stats.peak_reorder <= bound);
    assert!(
        stats.peak_bytes_retained >= 1 && stats.peak_bytes_retained <= bound * max_raw,
        "peak bytes {} outside (0, {}]",
        stats.peak_bytes_retained,
        bound * max_raw
    );
}

/// Streaming must be bit-identical to the fresh-box reference at every
/// worker count, including under transient network faults.
#[test]
fn scan_stream_is_bit_identical_to_scan_all_under_faults() {
    let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.01), 7);
    corpus
        .world
        .set_fault_plan(cb_netsim::FaultPlan::uniform(99, 0.2));
    let subset: Vec<ReportedMessage> = corpus.messages.iter().take(20).cloned().collect();

    let (reference, _) = common::fresh_box_scan(&corpus.world, &subset, |b| b);
    let reference_json = cb_json::to_string(&reference).unwrap();

    for workers in WORKERS {
        let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(3);
        cbx.parallelism = workers;
        let mut records: Vec<ScanRecord> = Vec::new();
        let delivered = cbx.scan_stream(subset.iter().cloned(), &mut records);
        assert_eq!(delivered, subset.len());
        assert_eq!(
            cb_json::to_string(&records).unwrap(),
            reference_json,
            "stream diverged from the fresh-box reference ({workers} worker(s))"
        );
    }
}

/// Regression: a message whose site handler panics must yield exactly one
/// degraded record in streaming mode — at every worker count — without
/// aborting the stream or disturbing its neighbours.
#[test]
fn streaming_panic_degrades_exactly_one_record() {
    for workers in WORKERS {
        let net = Internet::new(SimTime::from_ymd(2024, 3, 1));
        net.register_domain("fine.example", "REG");
        net.host("fine.example", |_: &HttpRequest, _: &NetContext<'_>| {
            HttpResponse::html("<p>all good</p>")
        });
        net.register_domain("boom.example", "REG");
        net.host("boom.example", |_: &HttpRequest, _: &NetContext<'_>| {
            panic!("handler exploded")
        });

        let batch: Vec<ReportedMessage> = [
            "see https://fine.example/a",
            "see https://boom.example/kaboom",
            "see https://fine.example/b",
            "see https://fine.example/c",
        ]
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let mut b = MessageBuilder::new();
            b.subject("streamed batch").text_body(body);
            message_from(i, b.build())
        })
        .collect();

        let mut cbx = CrawlerBox::new(&net).with_stream_capacity(2);
        cbx.parallelism = workers;
        let mut records: Vec<ScanRecord> = Vec::new();
        let delivered = cbx.scan_stream(batch.clone(), &mut records);

        assert_eq!(
            delivered,
            batch.len(),
            "{workers} worker(s): stream truncated"
        );
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.message_id, i, "{workers} worker(s): order broken");
        }
        let degraded: Vec<&ScanRecord> = records.iter().filter(|r| r.error.is_some()).collect();
        assert_eq!(
            degraded.len(),
            1,
            "{workers} worker(s): exactly one degraded record expected"
        );
        assert_eq!(degraded[0].message_id, 1);
        assert!(
            degraded[0].error.as_deref().unwrap().contains("panic"),
            "{workers} worker(s): provenance missing"
        );

        // A counting sink sees the same shape without retaining records.
        let mut counts = CountingSink::new();
        let mut cbx2 = CrawlerBox::new(&net).with_stream_capacity(2);
        cbx2.parallelism = workers;
        cbx2.scan_stream(batch.clone(), &mut counts);
        assert_eq!(counts.records, batch.len());
        assert_eq!(counts.degraded, 1);
    }
}

/// Every admitted message is counted and the peaks register activity, for
/// every worker count, when records are not retained at all.
#[test]
fn streaming_counts_every_message_without_retaining_records() {
    let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.01), 3);
    let subset: Vec<ReportedMessage> = corpus.messages.iter().take(12).cloned().collect();
    for workers in WORKERS {
        let mut cbx = CrawlerBox::new(&corpus.world).with_stream_capacity(4);
        cbx.parallelism = workers;
        let mut sink = CountingSink::new();
        cbx.scan_stream(subset.iter().cloned(), &mut sink);
        let stats = cbx.stats();
        assert_eq!(stats.messages, subset.len() as u64, "{workers} worker(s)");
        let bound = (cbx.stream_capacity() + cbx.parallelism) as u64;
        assert!(
            (1..=bound).contains(&stats.peak_in_flight),
            "{workers} worker(s): peak in-flight {} outside 1..={bound}",
            stats.peak_in_flight
        );
    }
}

/// Serialized records of a fresh scan of `messages` against `world`.
fn scan_json(world: &Internet, messages: &[ReportedMessage]) -> Vec<String> {
    CrawlerBox::new(world)
        .scan_all(messages)
        .iter()
        .map(|r| cb_json::to_string(r).unwrap())
        .collect()
}

/// The daemon boots from `Corpus::world`, which drafts every message but
/// renders none. Scanning the generated corpus's messages against that
/// world must give byte-identical records to scanning them against the
/// generated world. The control — a stream that was never drained, so no
/// victim is registered with a victim-check C2 — must differ, which shows
/// the comparison would catch a registration the world-only path missed.
#[test]
fn world_only_corpus_scans_byte_identically_to_generate() {
    let seeds = match std::env::var("CB_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => vec![2024, 7],
    };
    let spec = CorpusSpec::paper().with_scale(0.05);
    for seed in seeds {
        let full = Corpus::generate(&spec, seed);
        let reference = scan_json(&full.world, &full.messages);

        let world = Corpus::world(&spec, seed);
        assert!(
            world.messages.is_empty(),
            "seed {seed}: the world renders no messages"
        );
        let records = scan_json(&world.world, &full.messages);
        let differing: Vec<usize> = (0..reference.len())
            .filter(|&i| records[i] != reference[i])
            .collect();
        assert!(
            differing.is_empty(),
            "seed {seed}: {} of {} records differ, first {:?}",
            differing.len(),
            reference.len(),
            differing.first()
        );

        let (undrafted, _stream) = Corpus::stream(&spec, seed);
        let control = scan_json(&undrafted.world, &full.messages);
        let differing = control
            .iter()
            .zip(&reference)
            .filter(|(c, r)| c != r)
            .count();
        assert!(
            differing > 0,
            "seed {seed}: an undrafted world scanned identically"
        );
    }
}
