//! The reproduction harness: regenerate every table, figure and headline
//! statistic of the paper.
//!
//! ```text
//! repro [EXPERIMENT] [--scale F] [--seed N] [--json] [--log FILE.jsonl]
//!       [--workers N] [--stream] [--stream-capacity N] [--store DIR]
//!       [--store-shards N] [--commit-batch N] [--budget N] [--fault-rate F]
//!       [--trace FILE.jsonl] [--trace-chrome FILE.json] [--metrics FILE.json]
//!
//! EXPERIMENT: all (default) | table1 | ablation | table2 | figure2 |
//!             figure3 | classmix | spear | volumes | lexical | cloaking |
//!             ttest | funnel | faults | adaptive
//! --scale F:      corpus scale, default 1.0 (the paper's 5,181 messages)
//! --seed N:       corpus seed, default 2024
//! --json:         dump the full AnalysisReport as JSON to stdout
//! --workers N:    scanning threads, the calling thread included, 1..=256
//!                 (default: the available parallelism); records are
//!                 identical at every worker count — only throughput changes
//! --stream:       bounded-memory mode: generate messages lazily and scan
//!                 them through the streaming pipeline, holding at most
//!                 stream-capacity + workers messages in memory. Reports
//!                 the §V class mix, the ground-truth agreement rate and
//!                 streaming body-size statistics (incompatible with
//!                 experiment sections other than all/classmix).
//! --stream-capacity N: streaming admission-window bound (default 32)
//! --store DIR:    persist the scan into the content-addressed crawl store
//!                 at DIR (created or crash-recovered on open). Records are
//!                 appended to the CRC-framed segment log, message and
//!                 screenshot bytes go to the deduplicating blob store, and
//!                 messages whose content hash is already stored are
//!                 skipped — rerunning against the same DIR is a delta
//!                 scan. Requires --stream. Inspect with `crawl-log store`.
//!                 A store with quarantined (corrupted) shards is refused:
//!                 run `crawl-log store DIR repair` first.
//! --store-shards N: shard count when DIR is created (default 4; an
//!                 existing store's shard count is fixed at creation)
//! --commit-batch N: group-commit batch size: the store sink appends and
//!                 fsyncs every N records, and a record is acked only once
//!                 a barrier covers it (default 256, crawlboxd's burst
//!                 cap). The stored bytes are the same at every N.
//!                 Requires --store.
//! --trace FILE:        write the sim-time span trace as JSONL (full mode:
//!                      advisory worker/cache fields included)
//! --trace-chrome FILE: write the trace in Chrome `trace_event` format —
//!                      load it at chrome://tracing or https://ui.perfetto.dev
//! --metrics FILE:      write the metrics registry (counters, gauges,
//!                      histograms) as JSON
//!
//! `faults` runs the three-arm transient-fault sweep (baseline /
//! supervised / retry-less) at a 20% fault rate instead of the normal
//! analysis flow.
//!
//! `adaptive` races the cb-adaptive bandit against fixed NotABot over the
//! cloaking-family grid instead of scanning a corpus. `--budget N` (1..=64)
//! pins the sweep to one visit budget, `--fault-rate F` injects transient
//! faults into every campaign world, and `--store DIR` loads/persists the
//! bandit's policy memory so a rerun resumes the race. The table is
//! byte-identical at every worker count for a fixed seed.
//! ```

use cb_phishgen::{Corpus, CorpusSpec};
use cb_stats::{Moments, P2Quantile};
use cb_store::{Store, StoreEncoder, StoreSink, StoreStats};
use crawlerbox::analysis::{analyze, fault_sweep, AnalysisReport};
use crawlerbox::{
    ClassMixSink, CrawlerBox, ExportMode, RecordSink, ScanRecord, ScanStats, TruthLedger,
};
use crawlerbox_suite::daemon::BURST_CAP;
use std::sync::Mutex;

/// Every experiment `section` knows how to render. Validated at parse time
/// so a typo fails with a usage message instead of an exit-0 shrug.
const EXPERIMENTS: &[&str] = &[
    "all", "table1", "ablation", "table2", "figure2", "figure3", "classmix", "spear", "volumes",
    "lexical", "cloaking", "ttest", "funnel", "faults", "adaptive",
];

struct Args {
    experiment: String,
    scale: f64,
    seed: u64,
    json: bool,
    log: Option<String>,
    workers: usize,
    stream: bool,
    stream_capacity: usize,
    store: Option<String>,
    store_shards: usize,
    commit_batch: Option<usize>,
    budget: Option<u32>,
    fault_rate: Option<f64>,
    trace: Option<String>,
    trace_chrome: Option<String>,
    metrics: Option<String>,
}

impl Args {
    fn wants_telemetry(&self) -> bool {
        self.trace.is_some() || self.trace_chrome.is_some() || self.metrics.is_some()
    }
}

fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: repro [EXPERIMENT] [--scale F] [--seed N] [--json] [--log FILE.jsonl] [--workers N] [--stream] [--stream-capacity N] [--store DIR] [--store-shards N] [--commit-batch N] [--budget N] [--fault-rate F] [--trace FILE.jsonl] [--trace-chrome FILE.json] [--metrics FILE.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        scale: 1.0,
        seed: 2024,
        json: false,
        log: None,
        workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        stream: false,
        stream_capacity: 32,
        store: None,
        store_shards: cb_store::StoreOptions::default().shards,
        commit_batch: None,
        budget: None,
        fault_rate: None,
        trace: None,
        trace_chrome: None,
        metrics: None,
    };
    let mut experiment_set = false;
    let mut scale_set = false;
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(s) if s > 0.0 && s <= 1.0 => s,
                    _ => usage_exit("--scale needs a number in (0, 1]"),
                };
                scale_set = true;
            }
            "--seed" => {
                args.seed = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => usage_exit("--seed needs an integer"),
                };
            }
            "--json" => args.json = true,
            "--workers" => {
                args.workers = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) if (1..=256).contains(&n) => n,
                    _ => usage_exit("--workers needs an integer in 1..=256"),
                };
            }
            "--stream" => args.stream = true,
            "--stream-capacity" => {
                args.stream_capacity = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage_exit("--stream-capacity needs an integer >= 1"),
                };
            }
            "--log" => {
                args.log = match iter.next() {
                    Some(p) => Some(p),
                    None => usage_exit("--log needs a file path"),
                };
            }
            "--store" => {
                args.store = match iter.next() {
                    Some(p) => Some(p),
                    None => usage_exit("--store needs a directory path"),
                };
            }
            "--store-shards" => {
                args.store_shards = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) if (1..=256).contains(&n) => n,
                    _ => usage_exit("--store-shards needs an integer in 1..=256"),
                };
            }
            "--commit-batch" => {
                args.commit_batch = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => Some(n),
                    _ => usage_exit("--commit-batch needs an integer >= 1"),
                };
            }
            "--budget" => {
                args.budget = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) if (1..=64).contains(&n) => Some(n),
                    _ => usage_exit("--budget needs an integer in 1..=64"),
                };
            }
            "--fault-rate" => {
                args.fault_rate = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(r) if (0.0..=1.0).contains(&r) => Some(r),
                    _ => usage_exit("--fault-rate needs a number in [0, 1]"),
                };
            }
            "--trace" => {
                args.trace = match iter.next() {
                    Some(p) => Some(p),
                    None => usage_exit("--trace needs a file path"),
                };
            }
            "--trace-chrome" => {
                args.trace_chrome = match iter.next() {
                    Some(p) => Some(p),
                    None => usage_exit("--trace-chrome needs a file path"),
                };
            }
            "--metrics" => {
                args.metrics = match iter.next() {
                    Some(p) => Some(p),
                    None => usage_exit("--metrics needs a file path"),
                };
            }
            other if !other.starts_with('-') => {
                if experiment_set {
                    usage_exit(&format!(
                        "duplicate experiment {other:?} (already asked for {:?})",
                        args.experiment
                    ));
                }
                if !EXPERIMENTS.contains(&other) {
                    usage_exit(&format!(
                        "unknown experiment {other}; try: {}",
                        EXPERIMENTS.join(" ")
                    ));
                }
                args.experiment = other.to_string();
                experiment_set = true;
            }
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    if args.experiment == "faults" && args.wants_telemetry() {
        usage_exit("--trace/--trace-chrome/--metrics don't apply to the fault sweep (it runs its own three pipelines)");
    }
    if args.experiment == "adaptive" {
        // The arms race generates its own campaign worlds: every
        // corpus/stream knob is meaningless here, and --store means
        // "persist the bandit's policy memory", not "ingest records".
        if scale_set || args.stream || args.log.is_some() || args.commit_batch.is_some() {
            usage_exit("adaptive races synthetic campaigns; it takes only --seed, --budget, --fault-rate, --workers, --json, --store (policy memory) and the telemetry flags");
        }
    } else {
        if args.budget.is_some() {
            usage_exit(
                "--budget sizes the adaptive visit budget; combine it with the adaptive experiment",
            );
        }
        if args.fault_rate.is_some() {
            usage_exit("--fault-rate sets the adaptive fault injection; combine it with the adaptive experiment");
        }
        if args.store.is_some() && !args.stream {
            usage_exit("--store persists through the streaming sink; combine it with --stream");
        }
        if args.commit_batch.is_some() && args.store.is_none() {
            usage_exit("--commit-batch sizes the store's group commit; combine it with --store");
        }
    }
    args
}

/// Write one telemetry export, or die with a usage error.
fn write_export(path: &str, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        usage_exit(&format!("cannot write {what} {path}: {e}"));
    }
    eprintln!("{what} written to {path}");
}

/// Drain the box's trace and write whichever exports were requested.
/// Exports use full mode: the interleaving-dependent advisory data (worker
/// ids, shared-cache hit/miss) is exactly what a human reading a trace
/// wants; canonical mode is for golden files and determinism tests.
fn write_telemetry(args: &Args, cbx: &CrawlerBox<'_>) {
    if !args.wants_telemetry() {
        return;
    }
    let trace = cbx.take_trace();
    if let Some(path) = &args.trace {
        write_export(path, "trace JSONL", &trace.to_jsonl(ExportMode::Full));
    }
    if let Some(path) = &args.trace_chrome {
        write_export(path, "Chrome trace", &trace.to_chrome(ExportMode::Full));
    }
    if let Some(path) = &args.metrics {
        write_export(path, "metrics JSON", &cbx.export_metrics(ExportMode::Full));
    }
}

fn section(report: &AnalysisReport, which: &str) -> String {
    match which {
        "table1" => format!("== Table I ==\n{}", report.table1),
        "ablation" => format!("== A1 ablation ==\n{}", report.ablation),
        "table2" => format!("== Table II ==\n{}", report.table2),
        "figure2" => format!("== Figure 2 ==\n{}", report.figure2),
        "figure3" => format!("== Figure 3 ==\n{}", report.figure3),
        "classmix" => format!("== Class mix ==\n{}", report.class_mix),
        "spear" => format!(
            "== Spear ==\nactive {} spear {} ({:.1}%) hotlinking {} ({:.1}% of spear)\nlanding URLs {} domains {}\n",
            report.spear.active,
            report.spear.spear,
            report.spear.spear as f64 * 100.0 / report.spear.active.max(1) as f64,
            report.spear.hotlinking,
            report.spear.hotlinking as f64 * 100.0 / report.spear.spear.max(1) as f64,
            report.landing_urls,
            report.table2.total_domains,
        ),
        "volumes" => format!(
            "== Volumes ==\nmean {:.2} median {:.1} max {}\nsingles: max/day {:.1} total {:.1}\nmulti:   max/day {:.1} total {:.1}\ntop: {:?}\n",
            report.volumes.mean_messages,
            report.volumes.median_messages,
            report.volumes.max_messages,
            report.volumes.single_median_max_per_day,
            report.volumes.single_median_total,
            report.volumes.multi_median_max_per_day,
            report.volumes.multi_median_total,
            report.volumes.top_by_queries,
        ),
        "lexical" => format!(
            "== Lexical ==\ndeceptive {}/{} punycode {}\n",
            report.lexical.deceptive, report.lexical.total, report.lexical.punycode
        ),
        "cloaking" => format!(
            "== Cloaking ==\n{}challenge-gated {}/{}\n",
            report.cloaking, report.challenge_gating.0, report.challenge_gating.1
        ),
        "ttest" => match &report.t_test {
            Some(t) => format!("== t-test ==\n{t}\n"),
            None => "== t-test ==\n(not computable: need 10 months)\n".to_string(),
        },
        "funnel" => format!(
            "== Funnel ==\ninbound {} filtered {} delivered {} reported {} malicious {} spam {} legit {}\n",
            report.funnel.inbound,
            report.funnel.filtered,
            report.funnel.delivered,
            report.funnel.reported,
            report.funnel.confirmed_malicious,
            report.funnel.confirmed_spam,
            report.funnel.confirmed_legitimate,
        ),
        "all" => report.render(),
        other => format!("unknown experiment {other}; try: all table1 ablation table2 figure2 figure3 classmix spear volumes lexical cloaking ttest funnel faults adaptive\n"),
    }
}

/// Default transient-fault rate for `repro faults` (the ISSUE's sweep
/// point: 20% of URLs flaky).
const FAULT_SWEEP_RATE: f64 = 0.2;

/// Incremental sink for `--stream`: class-mix + agreement counters plus
/// online body-size statistics, with optional per-record JSONL logging.
/// Nothing here retains records, so residency stays bounded by the
/// pipeline window.
struct StreamSummary<W: std::io::Write> {
    mix: ClassMixSink,
    body_bytes: Moments,
    body_median: P2Quantile,
    log: Option<W>,
}

impl<W: std::io::Write> RecordSink for StreamSummary<W> {
    fn accept(&mut self, record: ScanRecord) {
        if let Some(w) = &mut self.log {
            let written = cb_json::to_writer(&mut *w, &record)
                .map_err(std::io::Error::from)
                .and_then(|()| w.write_all(b"\n"));
            if let Err(e) = written {
                eprintln!("error: writing crawl log: {e}");
                std::process::exit(2);
            }
        }
        let bytes = record.body_bytes as f64;
        self.body_bytes.push(bytes);
        self.body_median.push(bytes);
        self.mix.accept(record);
    }
}

/// The `--stream` flow: lazy corpus synthesis fed straight into the
/// bounded streaming pipeline; every headline number is computed
/// incrementally so peak memory stays O(stream_capacity + workers)
/// messages regardless of `--scale`.
fn run_stream(args: &Args, spec: &CorpusSpec) {
    if args.experiment != "all" && args.experiment != "classmix" {
        usage_exit("--stream reproduces the class-mix/agreement headline; combine it only with `all` or `classmix`");
    }
    let log = args
        .log
        .as_ref()
        .map(|path| match std::fs::File::create(path) {
            Ok(file) => std::io::BufWriter::new(file),
            Err(e) => usage_exit(&format!("cannot create crawl log {path}: {e}")),
        });
    eprintln!(
        "streaming corpus (scale {}, seed {}, capacity {}) ...",
        args.scale, args.seed, args.stream_capacity
    );
    let (corpus, stream) = Corpus::stream(spec, args.seed);
    let total = stream.len();
    let mut cbx = CrawlerBox::new(&corpus.world)
        .with_stream_capacity(args.stream_capacity)
        .with_tracing(args.trace.is_some() || args.trace_chrome.is_some());
    cbx.parallelism = args.workers;
    let store = args.store.as_ref().map(|dir| {
        // The sink group-commits: every batch of --commit-batch records
        // ends with the pack → index → segment barrier and is acked at
        // once. The default is crawlboxd's burst cap.
        let opts = cb_store::StoreOptions {
            shards: args.store_shards,
            commit_batch: args.commit_batch.unwrap_or(BURST_CAP),
            ..Default::default()
        };
        match Store::open_with(std::path::Path::new(dir), opts) {
            Ok(s) => s,
            Err(e) => usage_exit(&format!("cannot open store {dir}: {e}")),
        }
    });
    if let Some(store) = &store {
        let recovery = store.recovery();
        for torn in &recovery.torn {
            eprintln!(
                "store: recovered torn tail in {} (dropped {} bytes: {})",
                torn.segment.display(),
                torn.dropped_bytes,
                torn.reason
            );
        }
        if store.is_degraded() {
            for (id, reason) in store.quarantined() {
                eprintln!("store: shard {id} QUARANTINED: {reason}");
            }
            usage_exit(&format!(
                "store at {} is degraded; run `crawl-log store {} repair` before writing",
                store.root().display(),
                store.root().display()
            ));
        }
        eprintln!(
            "store: {} record(s), {} blob(s) already on disk — re-recorded messages will be skipped",
            recovery.records, recovery.blobs
        );
        cbx = cbx
            .with_known_hashes(store.known_hashes())
            .with_artifact_capture(true);
    }
    let ledger = TruthLedger::new();
    let tap = ledger.clone();
    let mut sink = StreamSummary {
        mix: ClassMixSink::with_truth(ledger),
        body_bytes: Moments::new(),
        body_median: P2Quantile::median(),
        log,
    };
    eprintln!("scanning {total} reported messages through the streaming pipeline ...");
    let stream = stream.inspect(move |m| tap.note(m.truth.class));
    let (delivered, store_stats, store_dropped) = match store {
        None => (cbx.scan_stream(stream, &mut sink), None, 0),
        Some(store) => {
            // Records are serialized and framed on the scan workers,
            // batched by the sink, and fanned out to their shards in
            // parallel by `append_batch`.
            let store = Mutex::new(store);
            let mut persisting = StoreSink::with_inner(&store, sink);
            let delivered = cbx.scan_stream_encoded(stream, &StoreEncoder, &mut persisting);
            let dropped = persisting.dropped() as u64;
            sink = match persisting.finish() {
                Ok(inner) => inner,
                Err(e) => usage_exit(&format!(
                    "store write failed ({dropped} record(s) dropped after poisoning): {e}"
                )),
            };
            let stats = store.into_inner().expect("store lock").stats();
            eprintln!(
                "store: {} record(s) in {} segment(s) across {} shard(s) ({} log bytes), {} blob(s), {} dedup hit(s)",
                stats.records, stats.segments, stats.shards, stats.log_bytes, stats.blobs,
                stats.blob_dedup_hits
            );
            eprintln!(
                "store ingest: {} batch(es), {} acked, {} fsync(s) ({:.3}/record)",
                stats.commit_batches,
                stats.acked,
                stats.fsyncs,
                stats.fsyncs as f64 / stats.appended.max(1) as f64,
            );
            (delivered, Some(stats), dropped)
        }
    };
    write_telemetry(args, &cbx);
    let mut stats = cbx.stats();
    stats.store_dropped = store_dropped;
    eprintln!("scan stats: {stats}");
    eprintln!(
        "scan summary: {} worker(s) | cache hit rate {:.1}% | peak in-flight {}",
        args.workers,
        stats.cache_hit_rate() * 100.0,
        stats.peak_in_flight
    );
    if let Some(w) = sink.log.as_mut() {
        if let Err(e) = std::io::Write::flush(w) {
            usage_exit(&format!("writing crawl log: {e}"));
        }
    }
    if let Some(path) = &args.log {
        eprintln!("crawl log written to {path}");
    }
    let mix = sink.mix.mix();
    let agreement = sink.mix.agreement_rate();
    if args.json {
        let summary = StreamJson {
            agreement_rate: agreement,
            body_bytes: BodyBytes {
                mean: sink.body_bytes.mean(),
                median: sink.body_median.estimate(),
                stddev: sink.body_bytes.stddev(),
            },
            class_mix: SortedClassMix {
                active_phish: mix.active_phish,
                downloads: mix.downloads,
                error_pages: mix.error_pages,
                interaction_required: mix.interaction_required,
                no_resource: mix.no_resource,
                total: mix.total,
            },
            delivered,
            stats,
            store: store_stats,
        };
        println!(
            "{}",
            cb_json::to_string_pretty(&summary).expect("summary serializes")
        );
    } else {
        print!("== Class mix (streamed) ==\n{mix}");
        match agreement {
            Some(rate) => println!("ground-truth agreement: {:.2}%", rate * 100.0),
            None => println!("ground-truth agreement: n/a (no records compared)"),
        }
        match sink.body_median.estimate() {
            Some(median) => println!(
                "body bytes: mean {:.1} stddev {:.1} median ~{median:.0} (n = {})",
                sink.body_bytes.mean(),
                sink.body_bytes.stddev(),
                sink.body_bytes.count(),
            ),
            None => println!("body bytes: n/a (no records)"),
        }
    }
}

/// The `--stream --json` summary. Its own keys, and those of
/// `body_bytes` and `class_mix`, are in sorted order; `stats` and `store`
/// keep their types' field order.
#[derive(cb_json::Serialize)]
struct StreamJson {
    agreement_rate: Option<f64>,
    body_bytes: BodyBytes,
    class_mix: SortedClassMix,
    delivered: usize,
    stats: ScanStats,
    store: Option<StoreStats>,
}

#[derive(cb_json::Serialize)]
struct BodyBytes {
    mean: f64,
    median: Option<f64>,
    stddev: f64,
}

/// [`crawlerbox::analysis::tables::ClassMix`] with its fields in sorted
/// order.
#[derive(cb_json::Serialize)]
struct SortedClassMix {
    active_phish: usize,
    downloads: usize,
    error_pages: usize,
    interaction_required: usize,
    no_resource: usize,
    total: usize,
}

/// The `adaptive` experiment: race the bandit against fixed NotABot over
/// the cloaking-family grid. With `--store DIR` the learned policy memory
/// is loaded before the run and persisted after it, so rerunning against
/// the same DIR resumes the arms race.
fn run_adaptive(args: &Args) {
    let mut cfg = cb_adaptive::AdaptiveConfig::new(args.seed);
    if let Some(budget) = args.budget {
        cfg = cfg.with_budget(budget);
    }
    if let Some(rate) = args.fault_rate {
        cfg.fault_rate = rate;
    }
    cfg.parallelism = args.workers;
    cfg.tracing = args.trace.is_some() || args.trace_chrome.is_some();
    let store = args
        .store
        .as_ref()
        .map(|dir| match Store::open(std::path::Path::new(dir)) {
            Ok(s) => s,
            Err(e) => usage_exit(&format!("cannot open store {dir}: {e}")),
        });
    let resume = store
        .as_ref()
        .map(cb_adaptive::PolicyMemory::load)
        .unwrap_or_default();
    if !resume.cells.is_empty() {
        eprintln!(
            "adaptive: resuming the race from {} persisted cell polic{}",
            resume.cells.len(),
            if resume.cells.len() == 1 { "y" } else { "ies" },
        );
    }
    eprintln!(
        "racing adaptive vs fixed NotABot (seed {}, budgets {:?}, fault rate {}) ...",
        cfg.seed, cfg.budgets, cfg.fault_rate
    );
    let out = cb_adaptive::experiment::run(&cfg, &resume);
    if let Some(path) = &args.trace {
        write_export(path, "trace JSONL", &out.trace.to_jsonl(ExportMode::Full));
    }
    if let Some(path) = &args.trace_chrome {
        write_export(path, "Chrome trace", &out.trace.to_chrome(ExportMode::Full));
    }
    if let Some(path) = &args.metrics {
        write_export(
            path,
            "metrics JSON",
            &out.metrics.export_json(ExportMode::Full),
        );
    }
    if let Some(store) = &store {
        if let Err(e) = out.memory.save(store) {
            usage_exit(&format!("cannot persist adaptive policy memory: {e}"));
        }
        eprintln!(
            "adaptive: policy memory ({} cells) persisted to {}",
            out.memory.cells.len(),
            store.root().display()
        );
    }
    if args.json {
        println!(
            "{}",
            cb_json::to_string_pretty(&out.report).expect("report serializes")
        );
    } else {
        print!("== Adaptive vs fixed NotABot ==\n{}", out.report);
    }
}

fn main() {
    let args = parse_args();
    if args.experiment == "adaptive" {
        run_adaptive(&args);
        return;
    }
    let spec = CorpusSpec::paper().with_scale(args.scale);
    if args.experiment == "faults" {
        // The sweep generates its own three corpora (baseline, supervised,
        // retry-less) — it replaces the single-corpus flow below.
        eprintln!(
            "running fault sweep (scale {}, seed {}, rate {FAULT_SWEEP_RATE}) ...",
            args.scale, args.seed
        );
        let report = fault_sweep(&spec, args.seed, FAULT_SWEEP_RATE);
        if args.json {
            println!(
                "{}",
                cb_json::to_string_pretty(&report).expect("report serializes")
            );
        } else {
            print!("== Fault sweep ==\n{report}");
        }
        return;
    }
    if args.stream {
        run_stream(&args, &spec);
        return;
    }
    eprintln!(
        "generating corpus (scale {}, seed {}) ...",
        args.scale, args.seed
    );
    let corpus = Corpus::generate(&spec, args.seed);
    eprintln!(
        "scanning {} reported messages with CrawlerBox/NotABot ...",
        corpus.messages.len()
    );
    let mut cbx = CrawlerBox::new(&corpus.world)
        .with_tracing(args.trace.is_some() || args.trace_chrome.is_some());
    cbx.parallelism = args.workers;
    let records = cbx.scan_all(&corpus.messages);
    write_telemetry(&args, &cbx);
    let stats = cbx.stats();
    eprintln!("scan stats: {stats}");
    eprintln!(
        "scan summary: {} worker(s) | cache hit rate {:.1}% | peak in-flight {}",
        args.workers,
        stats.cache_hit_rate() * 100.0,
        stats.peak_in_flight
    );
    if let Some(path) = &args.log {
        match std::fs::File::create(path) {
            Ok(file) => {
                crawlerbox::logging::write_jsonl(std::io::BufWriter::new(file), &records)
                    .unwrap_or_else(|e| usage_exit(&format!("writing crawl log: {e}")));
                eprintln!("crawl log written to {path}");
            }
            Err(e) => usage_exit(&format!("cannot create crawl log {path}: {e}")),
        }
    }
    eprintln!("analyzing {} scan records ...", records.len());
    let report = analyze(&corpus.world, &spec, &records);

    if args.json {
        println!(
            "{}",
            cb_json::to_string_pretty(&report).expect("report serializes")
        );
    } else {
        print!("{}", section(&report, &args.experiment));
    }
}
