//! The golden-trace harness for the telemetry subsystem (DESIGN.md §10):
//! canonical exports must be byte-identical across worker counts and fault
//! rates, and to the fresh-box reference (the determinism contract,
//! tier-1); a committed golden trace pins the canonical byte layout;
//! faulted runs must leave retry/backoff provenance in their traces; and
//! the `repro` CLI must reject malformed invocations and wire
//! `--trace`/`--metrics` end to end.
//!
//! Environment knobs (used by the CI seed matrix):
//! * `CB_SEED` — corpus seed for the determinism property (default 2024)
//! * `CB_BLESS=1` — regenerate the golden files instead of comparing
//!
//! Every run generates a *fresh* corpus from its seed: scanning mutates
//! world state (IP allocation, serve counters), so a `Corpus` value must
//! never be rescanned.

use cb_phishgen::{Corpus, CorpusSpec};
use cb_telemetry::{MetricsRegistry, TraceEvent};
use crawlerbox::{CrawlerBox, ExportMode};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

mod common;

/// Corpus scale for the determinism property (~100 messages).
const PROPERTY_SCALE: f64 = 0.02;
/// Corpus scale for the golden trace (~50 messages, 8 scanned).
const GOLDEN_SCALE: f64 = 0.01;
/// Messages scanned for the golden files: enough to cover parse, extract,
/// visits, enrichment and class derivation without bloating the diff.
const GOLDEN_MESSAGES: usize = 8;
/// The fault sweep's rate: 20% of URLs flaky.
const FAULT_RATE: f64 = 0.2;

fn seed_from_env() -> u64 {
    std::env::var("CB_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024)
}

fn fresh_corpus(seed: u64, fault_rate: f64) -> Corpus {
    let mut spec = CorpusSpec::paper().with_scale(PROPERTY_SCALE);
    if fault_rate > 0.0 {
        spec = spec.with_fault_rate(fault_rate);
    }
    Corpus::generate(&spec, seed)
}

/// Scan a fresh corpus with one box at `workers` and return `(canonical
/// trace JSONL, canonical metrics JSON)`.
fn canonical_run(seed: u64, fault_rate: f64, workers: usize) -> (String, String) {
    let corpus = fresh_corpus(seed, fault_rate);
    let mut cbx = CrawlerBox::new(&corpus.world).with_tracing(true);
    cbx.parallelism = workers;
    let _ = cbx.scan_all(&corpus.messages);
    (
        cbx.take_trace().to_jsonl(ExportMode::Canonical),
        cbx.export_metrics(ExportMode::Canonical),
    )
}

/// The same exports from the fresh-box reference: every message gets its
/// own box, all of them recording into one metrics registry.
fn canonical_fresh_box_run(seed: u64, fault_rate: f64) -> (String, String) {
    let corpus = fresh_corpus(seed, fault_rate);
    let registry = Arc::new(MetricsRegistry::new());
    let (_, trace) = common::fresh_box_scan(&corpus.world, &corpus.messages, |b| {
        b.with_tracing(true).with_metrics(registry.clone())
    });
    (
        trace.to_jsonl(ExportMode::Canonical),
        registry.export_json(ExportMode::Canonical),
    )
}

/// The tier-1 determinism contract: for one seed and config, the canonical
/// trace and metrics exports of a batch scanned by one box, at one worker
/// or four, are byte-identical to the fresh-box reference — at 0% and 20%
/// fault rates.
#[test]
fn canonical_exports_are_byte_identical_across_worker_counts() {
    let seed = seed_from_env();
    for fault_rate in [0.0, FAULT_RATE] {
        let (ref_trace, ref_metrics) = canonical_fresh_box_run(seed, fault_rate);
        assert!(
            !ref_trace.is_empty(),
            "fresh-box reference recorded an empty trace"
        );
        for workers in [1, 4] {
            let (trace, metrics) = canonical_run(seed, fault_rate, workers);
            assert_eq!(
                trace, ref_trace,
                "canonical trace diverged from the fresh-box reference: \
                 {workers} worker(s), fault_rate {fault_rate}, seed {seed}"
            );
            assert_eq!(
                metrics, ref_metrics,
                "canonical metrics diverged from the fresh-box reference: \
                 {workers} worker(s), fault_rate {fault_rate}, seed {seed}"
            );
        }
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `current` against the committed golden file, or regenerate it
/// when `CB_BLESS` is set. A missing golden file fails: a checkout that
/// lacks one would otherwise compare nothing.
fn assert_golden(name: &str, current: &str) {
    let path = golden_path(name);
    if std::env::var_os("CB_BLESS").is_some() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create tests/golden");
        }
        std::fs::write(&path, current)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        eprintln!("blessed golden file {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}; generate it with CB_BLESS=1 and commit it",
            path.display()
        )
    });
    assert_eq!(
        current, golden,
        "{name} drifted from the committed golden bytes; if the change is \
         intentional, regenerate with CB_BLESS=1 and commit the diff"
    );
}

/// The golden trace: a fixed one-worker slice of the seed-2024 corpus must keep
/// producing the exact committed bytes (canonical JSONL + canonical
/// metrics). This pins the export format itself — field order, escaping,
/// number layout — not just the event content.
#[test]
fn golden_trace_and_metrics_are_stable() {
    let spec = CorpusSpec::paper().with_scale(GOLDEN_SCALE);
    let corpus = Corpus::generate(&spec, 2024);
    let mut cbx = CrawlerBox::new(&corpus.world).with_tracing(true);
    cbx.parallelism = 1;
    let slice = &corpus.messages[..GOLDEN_MESSAGES.min(corpus.messages.len())];
    let records = cbx.scan_all(slice);
    assert_eq!(records.len(), slice.len());
    assert_golden(
        "trace_small.jsonl",
        &cbx.take_trace().to_jsonl(ExportMode::Canonical),
    );
    assert_golden(
        "metrics_small.json",
        &cbx.export_metrics(ExportMode::Canonical),
    );
}

/// A faulted supervised run must leave its recovery story in the trace:
/// `net.fault` provenance, a retry attempt, and a backoff span.
#[test]
fn faulted_run_trace_contains_retry_and_backoff_spans() {
    let spec = CorpusSpec::paper()
        .with_scale(0.05)
        .with_fault_rate(FAULT_RATE);
    let corpus = Corpus::generate(&spec, 2024);
    let mut cbx = CrawlerBox::new(&corpus.world).with_tracing(true);
    cbx.parallelism = 1;
    let _ = cbx.scan_all(&corpus.messages);
    let jsonl = cbx.take_trace().to_jsonl(ExportMode::Canonical);
    assert!(
        jsonl.contains(r#""name":"net.fault""#),
        "a 20% fault rate must surface net.fault instants"
    );
    assert!(
        jsonl.contains(r#""name":"attempt","fields":[["n","1"]]"#),
        "at least one visit must have retried (attempt n=1)"
    );
    assert!(
        jsonl.contains(r#""name":"backoff""#),
        "retries must record their backoff spans"
    );
    let metrics = cbx.export_metrics(ExportMode::Canonical);
    let faults_line = metrics
        .lines()
        .find(|l| l.contains("net.faults_observed"))
        .expect("metrics export carries net.faults_observed");
    assert!(
        !faults_line
            .trim_end()
            .trim_end_matches(',')
            .ends_with(": 0"),
        "fault counter should be nonzero: {faults_line}"
    );
}

/// Full-mode exports carry the advisory channel: which worker ran each
/// scan, shared-cache hit/miss, streaming residency. Canonical mode strips
/// it.
#[test]
fn full_export_carries_advisory_worker_and_cache_fields() {
    let spec = CorpusSpec::paper().with_scale(PROPERTY_SCALE);
    let corpus = Corpus::generate(&spec, 2024);
    let cbx = CrawlerBox::new(&corpus.world).with_tracing(true);
    let _ = cbx.scan_all(&corpus.messages);
    let trace = cbx.take_trace();

    let full = trace.to_jsonl(ExportMode::Full);
    assert!(
        full.contains(r#""adv":[["worker","#),
        "full export must tag scans with their worker"
    );
    let canonical = trace.to_jsonl(ExportMode::Canonical);
    assert!(
        !canonical.contains("\"adv\""),
        "canonical export leaked advisory fields"
    );
    assert!(
        !canonical.contains(r#"["worker""#),
        "canonical export leaked worker ids"
    );

    let metrics_full = cbx.export_metrics(ExportMode::Full);
    assert!(metrics_full.contains("\"stream.in_flight\""));
    assert!(metrics_full.contains("\"cache.artifact.hits\""));
    let metrics_canonical = cbx.export_metrics(ExportMode::Canonical);
    assert!(!metrics_canonical.contains("\"stream.in_flight\""));
    assert!(!metrics_canonical.contains("\"cache.artifact.hits\""));
    assert!(!metrics_canonical.contains("\"cache.page.hits\""));
}

/// `ScanStats` now reads from the registry: its values and the metrics
/// export must agree exactly (the counters are literally the same atomics).
#[test]
fn scan_stats_and_registry_agree() {
    let spec = CorpusSpec::paper().with_scale(PROPERTY_SCALE);
    let corpus = Corpus::generate(&spec, 2024);
    let cbx = CrawlerBox::new(&corpus.world);
    let records = cbx.scan_all(&corpus.messages);
    let stats = cbx.stats();
    assert_eq!(stats.messages, records.len() as u64);
    let export = cbx.export_metrics(ExportMode::Full);
    for (name, value) in [
        ("scan.messages", stats.messages),
        ("cache.artifact.hits", stats.artifact_hits),
        ("cache.artifact.misses", stats.artifact_misses),
        ("cache.screenshot.hits", stats.screenshot_hits),
        ("cache.screenshot.misses", stats.screenshot_misses),
        ("cache.page.hits", stats.page_hits),
        ("cache.page.misses", stats.page_misses),
    ] {
        assert!(
            export.contains(&format!("\"{name}\": {value}")),
            "metrics export disagrees with ScanStats for {name} = {value}"
        );
    }
}

/// Streaming delivery leaves a stage-1 `sink.deliver` event per message,
/// in message order, with the in-order delivery index attached.
#[test]
fn streaming_trace_records_in_order_delivery() {
    let spec = CorpusSpec::paper().with_scale(GOLDEN_SCALE);
    let (corpus, stream) = Corpus::stream(&spec, 2024);
    let cbx = CrawlerBox::new(&corpus.world).with_tracing(true);
    let mut sink = crawlerbox::CountingSink::default();
    let delivered = cbx.scan_stream(stream, &mut sink);
    assert!(delivered > 0);

    let trace = cbx.take_trace();
    let deliveries: Vec<_> = trace.messages.iter().filter(|m| m.stage == 1).collect();
    assert_eq!(deliveries.len(), delivered, "one sink.deliver per record");
    for (i, d) in deliveries.iter().enumerate() {
        assert_eq!(d.message_id, i, "delivery events must be message-ordered");
        match &d.events[..] {
            [TraceEvent::Instant { name, fields, .. }] => {
                assert_eq!(*name, "sink.deliver");
                assert_eq!(
                    fields,
                    &vec![("order", i.to_string())],
                    "delivery order index must match message order"
                );
            }
            other => panic!("expected one sink.deliver instant, got {other:?}"),
        }
    }
}

// ---- repro CLI ---------------------------------------------------------

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run(cmd: &mut Command) -> (i32, String, String) {
    let out = cmd.output().expect("spawn repro");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repro_rejects_unknown_flags_with_usage() {
    let (code, _, stderr) = run(repro().arg("--frobnicate"));
    assert_eq!(code, 2);
    assert!(
        stderr.contains("unknown flag --frobnicate"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn repro_rejects_unknown_experiments_at_parse_time() {
    let (code, stdout, stderr) = run(repro().arg("tabel1"));
    assert_eq!(
        code, 2,
        "typoed experiment must not exit 0 (stdout: {stdout})"
    );
    assert!(
        stderr.contains("unknown experiment tabel1"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
}

#[test]
fn repro_rejects_duplicate_experiments() {
    let (code, _, stderr) = run(repro().args(["table1", "table2"]));
    assert_eq!(code, 2);
    assert!(stderr.contains("duplicate experiment"), "stderr: {stderr}");
}

#[test]
fn repro_rejects_flags_missing_their_value() {
    for flag in [
        "--trace",
        "--trace-chrome",
        "--metrics",
        "--log",
        "--workers",
    ] {
        let (code, _, stderr) = run(repro().arg(flag));
        assert_eq!(code, 2, "{flag} without a value must be a usage error");
        assert!(stderr.contains(flag), "stderr: {stderr}");
    }
}

#[test]
fn repro_rejects_telemetry_flags_on_the_fault_sweep() {
    let (code, _, stderr) = run(repro().args(["faults", "--trace", "/tmp/never-written.jsonl"]));
    assert_eq!(code, 2);
    assert!(stderr.contains("fault sweep"), "stderr: {stderr}");
}

/// End-to-end smoke of the exporter wiring: `repro --trace --trace-chrome
/// --metrics` writes all three files in their documented formats, and
/// `crawl-log trace` pretty-prints the JSONL.
#[test]
fn repro_writes_trace_and_metrics_files() {
    let dir = std::env::temp_dir().join(format!("cb-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.jsonl");
    let chrome = dir.join("trace.chrome.json");
    let metrics = dir.join("metrics.json");

    let (code, _, stderr) = run(repro().args([
        "classmix",
        "--scale",
        "0.02",
        "--seed",
        "7",
        "--trace",
        trace.to_str().unwrap(),
        "--trace-chrome",
        chrome.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ]));
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("trace JSONL written"), "stderr: {stderr}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_text.starts_with("{\"msg\":"), "unexpected JSONL head");
    assert!(trace_text.contains(r#""name":"scan""#));
    let chrome_text = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(chrome_text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    let metrics_text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(metrics_text.contains("\"scan.messages\""));

    let out = Command::new(env!("CARGO_BIN_EXE_crawl-log"))
        .args(["trace", trace.to_str().unwrap(), "--limit", "2"])
        .output()
        .expect("spawn crawl-log");
    assert!(out.status.success());
    let pretty = String::from_utf8_lossy(&out.stdout);
    assert!(pretty.contains("message 0"), "pretty output: {pretty}");
    assert!(pretty.contains("> scan"), "pretty output: {pretty}");

    let _ = std::fs::remove_dir_all(&dir);
}

fn crawl_log_trace(path: &std::path::Path) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_crawl-log"))
        .arg("trace")
        .arg(path)
        .output()
        .expect("spawn crawl-log");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `crawl-log trace` stdout is pinned byte for byte: the committed golden
/// trace renders to `trace_small.pretty.txt`, and a hand-written
/// full-mode trace (advisory fields, an instant event, an `E` line with
/// no fields, an unknown key) renders to the text below. A line that is
/// not a trace event exits 2.
#[test]
fn crawl_log_trace_output_is_pinned() {
    let (code, stdout, stderr) = crawl_log_trace(&golden_path("trace_small.jsonl"));
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_golden("trace_small.pretty.txt", &stdout);

    let dir = std::env::temp_dir().join(format!("cb-trace-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.jsonl");
    std::fs::write(
        &full,
        concat!(
            r#"{"msg":3,"seq":0,"t":0,"ph":"B","name":"scan","fields":[],"adv":[["worker","1"]]}"#,
            "\n",
            r#"{"msg":3,"seq":1,"t":2,"ph":"I","name":"screenshot","fields":[["url","https://a.example/?q=\"x\""]],"adv":[["cache","hit"]]}"#,
            "\n",
            r#"{"msg":3,"seq":2,"t":5,"ph":"E","name":"scan"}"#,
            "\n\n",
            r#"{"msg":4,"seq":0,"t":7,"ph":"B","name":"visit","fields":[["url","http://b/"],["n","2"]],"extra":{"k":[1,null]}}"#,
            "\n",
            r#"{"msg":4,"seq":1,"t":7,"ph":"I","name":"note","fields":[],"adv":[["worker","0"],["cache","miss"]]}"#,
            "\n",
            r#"{"msg":4,"seq":2,"t":9,"ph":"E","name":"visit"}"#,
            "\n",
        ),
    )
    .unwrap();
    let (code, stdout, stderr) = crawl_log_trace(&full);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert_eq!(
        stdout,
        concat!(
            "message 3\n",
            "  > scan @0s worker=1\n",
            "    . screenshot @2s url=https://a.example/?q=\"x\" cache=hit\n",
            "  < scan @5s\n",
            "message 4\n",
            "  > visit @7s url=http://b/ n=2\n",
            "    . note @7s worker=0 cache=miss\n",
            "  < visit @9s\n",
        )
    );

    let bad = dir.join("bad.jsonl");
    std::fs::write(
        &bad,
        "{\"msg\":0,\"ph\":\"B\",\"name\":\"scan\",\"t\":0}\nnot json\n",
    )
    .unwrap();
    let (code, _, stderr) = crawl_log_trace(&bad);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("bad.jsonl:2: not a trace line"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
