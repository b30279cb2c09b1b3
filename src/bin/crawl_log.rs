//! Inspect a CrawlerBox JSONL crawl log (as written by `repro --log`),
//! pretty-print a telemetry trace (as written by `repro --trace`), or
//! query a persistent crawl store (as written by `repro --store`).
//!
//! ```text
//! crawl-log FILE.jsonl [--class CLASS] [--domain SUBSTR] [--limit N]
//! crawl-log trace TRACE.jsonl [--msg ID] [--limit N]
//! crawl-log store DIR stats
//! crawl-log store DIR verify
//! crawl-log store DIR repair [--shard N]
//! crawl-log store DIR query [--class CLASS] [--domain D] [--cert HEX]
//!                           [--phash HEX] [--shard N] [--limit N]
//! crawl-log store DIR campaigns [--min-size N] [--limit N]
//! ```
//!
//! The first form prints a per-class summary, the busiest landing domains,
//! and (when filters are given) the matching records. The `trace`
//! subcommand renders a span trace as an indented per-message tree. The
//! `store` family queries the durable record log: `stats` summarizes the
//! store (including a per-shard health table — a DEGRADED store keeps
//! serving its healthy shards — and the session-scoped ingest counters:
//! fsyncs per record, the commit-batch-size histogram and per-shard
//! append depth), `verify` CRC-checks every frame and
//! re-hashes every blob (nonzero exit on faults), `repair`
//! re-adjudicates quarantined shards from their last valid frames,
//! `query` looks records up by index axes, and `campaigns` reproduces
//! the paper-style campaign clustering (shared screenshot phash /
//! certificate fingerprint / URL token scheme) across shards from disk.

use cb_phishgen::MessageClass;
use cb_store::{ShardHealth, Store};
use crawlerbox::logging::{read_jsonl, ScanRecord};
use std::collections::BTreeMap;

fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: crawl-log FILE.jsonl [--class noresource|error|interaction|download|active] [--domain SUBSTR] [--limit N]");
    eprintln!("       crawl-log trace TRACE.jsonl [--msg ID] [--limit N]");
    eprintln!("       crawl-log store DIR stats|verify");
    eprintln!("       crawl-log store DIR repair [--shard N]");
    eprintln!("       crawl-log store DIR query [--class CLASS] [--domain D] [--cert HEX] [--phash HEX] [--shard N] [--limit N]");
    eprintln!("       crawl-log store DIR campaigns [--min-size N] [--limit N]");
    std::process::exit(2);
}

/// One line of a trace JSONL file (`repro --trace`). End events carry no
/// `fields`; only full-mode exports carry `adv`. Other keys are skipped.
#[derive(cb_json::Deserialize)]
struct TraceLine {
    msg: u64,
    ph: String,
    name: String,
    t: i64,
    #[serde(default)]
    fields: Vec<(String, String)>,
    #[serde(default)]
    adv: Vec<(String, String)>,
}

/// Render a field list as ` k=v ...` (empty when there are none).
fn render_fields(fields: &[(String, String)]) -> String {
    fields.iter().map(|(k, v)| format!(" {k}={v}")).collect()
}

/// The `trace` subcommand: pretty-print a telemetry trace JSONL file as an
/// indented per-message span tree.
fn trace_main(mut iter: impl Iterator<Item = String>) {
    let mut file: Option<String> = None;
    let mut want_msg: Option<u64> = None;
    let mut limit: Option<usize> = None;
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--msg" => {
                want_msg = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(m) => Some(m),
                    None => usage_exit("--msg needs a message id"),
                };
            }
            "--limit" => {
                limit = match iter.next().and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => usage_exit("--limit needs an integer"),
                };
            }
            other if !other.starts_with('-') => {
                if file.is_some() {
                    usage_exit(&format!("unexpected extra argument {other}"));
                }
                file = Some(other.to_string());
            }
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let Some(path) = file else {
        usage_exit("a trace file is required");
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => usage_exit(&format!("cannot open {path}: {e}")),
    };

    let mut messages_shown = 0usize;
    let mut current: Option<u64> = None;
    let mut depth = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line: TraceLine = match cb_json::from_str(line) {
            Ok(line) => line,
            Err(e) => usage_exit(&format!("{path}:{}: not a trace line: {e}", lineno + 1)),
        };
        let msg = line.msg;
        if want_msg.map(|want| want != msg).unwrap_or(false) {
            continue;
        }
        if current != Some(msg) {
            if let Some(cap) = limit {
                if messages_shown >= cap {
                    break;
                }
            }
            println!("message {msg}");
            current = Some(msg);
            depth = 0;
            messages_shown += 1;
        }
        let (name, t) = (&line.name, line.t);
        let fields = render_fields(&line.fields);
        let adv = render_fields(&line.adv);
        match line.ph.as_str() {
            "B" => {
                println!("{}> {name} @{t}s{fields}{adv}", "  ".repeat(depth + 1));
                depth += 1;
            }
            "E" => {
                depth = depth.saturating_sub(1);
                println!("{}< {name} @{t}s", "  ".repeat(depth + 1));
            }
            _ => println!("{}. {name} @{t}s{fields}{adv}", "  ".repeat(depth + 1)),
        }
    }
    if messages_shown == 0 {
        println!("no matching trace lines in {path}");
    }
}

/// Open the store at `dir` for a CLI query, reporting (on stderr) whatever
/// recovery did. Never creates a store: querying a missing path is a usage
/// error, not an empty result.
fn open_store_or_exit(dir: &str) -> Store {
    if !std::path::Path::new(dir).is_dir() {
        usage_exit(&format!("no store directory at {dir}"));
    }
    let store = match Store::open(std::path::Path::new(dir)) {
        Ok(s) => s,
        Err(e) => usage_exit(&format!("cannot open store {dir}: {e}")),
    };
    let recovery = store.recovery();
    for torn in &recovery.torn {
        eprintln!(
            "recovered torn tail in {}: dropped {} trailing bytes ({})",
            torn.segment.display(),
            torn.dropped_bytes,
            torn.reason
        );
    }
    for (id, reason) in &recovery.quarantined {
        eprintln!("shard {id} QUARANTINED: {reason}");
    }
    store
}

/// Validate a `--shard N` argument against the opened store or die with
/// usage (nonzero exit) — an out-of-range shard is an operator typo, not
/// an empty result.
fn check_shard_or_exit(store: &Store, shard: Option<usize>) {
    if let Some(s) = shard {
        if s >= store.shard_count() {
            usage_exit(&format!(
                "no shard {s}: store has {} shard(s) (0..={})",
                store.shard_count(),
                store.shard_count() - 1
            ));
        }
    }
}

/// Parse a hex argument (with or without `0x`) or die with usage.
fn parse_hex_u64(flag: &str, value: Option<String>) -> u64 {
    let Some(v) = value else {
        usage_exit(&format!("{flag} needs a hex value"));
    };
    let digits = v.strip_prefix("0x").unwrap_or(&v);
    match u64::from_str_radix(digits, 16) {
        Ok(n) => n,
        Err(_) => usage_exit(&format!("{flag}: {v} is not hex")),
    }
}

/// The `store` subcommand family: stats | verify | query | campaigns.
fn store_main(mut iter: impl Iterator<Item = String>) {
    let Some(dir) = iter.next() else {
        usage_exit("store needs a store directory");
    };
    if dir.starts_with('-') {
        usage_exit(&format!("store needs a directory before flags, got {dir}"));
    }
    let Some(cmd) = iter.next() else {
        usage_exit("store needs a subcommand: stats|verify|repair|query|campaigns");
    };
    match cmd.as_str() {
        "stats" => {
            if let Some(extra) = iter.next() {
                usage_exit(&format!(
                    "store stats takes no further arguments, got {extra}"
                ));
            }
            let store = open_store_or_exit(&dir);
            let stats = store.stats();
            println!(
                "{} records in {} segment(s) across {} shard(s), {} log bytes, {} blob(s)",
                stats.records, stats.segments, stats.shards, stats.log_bytes, stats.blobs
            );
            if stats.is_degraded() {
                println!(
                    "status: DEGRADED ({} of {} shard(s) quarantined; run `crawl-log store {dir} repair`)",
                    stats.quarantined, stats.shards
                );
            } else {
                println!("status: healthy");
            }
            // Ingest observability is session-scoped: for a store opened
            // by this CLI it reflects recovery plus whatever this process
            // appended (nothing), which is still the honest answer.
            println!(
                "ingest (this session): {} appended, {} acked, {} pending, {} append error(s), {} fsync(s) ({:.3}/record)",
                stats.appended,
                stats.acked,
                stats.pending,
                stats.append_errors,
                stats.fsyncs,
                stats.fsyncs as f64 / stats.appended.max(1) as f64,
            );
            let batch_sizes = store.commit_batch_sizes();
            if batch_sizes.count() == 0 {
                println!("commit batches: none this session");
            } else {
                println!(
                    "commit batches: {} barrier(s), {} record(s) acked, sizes:",
                    batch_sizes.count(),
                    batch_sizes.sum()
                );
                let bounds = batch_sizes.bounds();
                for (i, n) in batch_sizes.bucket_counts().iter().enumerate() {
                    if *n == 0 {
                        continue;
                    }
                    match bounds.get(i) {
                        Some(hi) => println!("  <= {hi:>5}  {n}"),
                        None => println!("   > {:>5}  {n}", bounds.last().copied().unwrap_or(0)),
                    }
                }
            }
            println!("shards:");
            for shard in store.shards() {
                match shard.health() {
                    ShardHealth::Healthy => println!(
                        "  shard {:>2}  {:>6} record(s)  {:>9} log bytes  {:>5} appended this session  healthy",
                        shard.id(),
                        shard.len(),
                        shard.log_bytes(),
                        shard.session_appends()
                    ),
                    ShardHealth::Quarantined { segment, at, reason } => println!(
                        "  shard {:>2}  QUARANTINED at {}+{at}: {reason}",
                        shard.id(),
                        segment.display()
                    ),
                }
            }
            println!("class mix:");
            for (class, n) in store.class_counts() {
                println!("  {:<22} {n}", format!("{class:?}"));
            }
            let mut domains: Vec<(String, usize)> = store.domain_counts().into_iter().collect();
            domains.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            println!("top landing domains:");
            for (d, n) in domains.into_iter().take(10) {
                println!("  {n:>5}  {d}");
            }
        }
        "verify" => {
            if let Some(extra) = iter.next() {
                usage_exit(&format!(
                    "store verify takes no further arguments, got {extra}"
                ));
            }
            let mut store = open_store_or_exit(&dir);
            let report = match store.verify() {
                Ok(r) => r,
                Err(e) => usage_exit(&format!("verify failed: {e}")),
            };
            println!(
                "verified {} record frame(s) in {} segment(s), {} blob(s)",
                report.records, report.segments, report.blobs
            );
            if report.is_clean() {
                println!("store is clean");
            } else {
                for fault in &report.faults {
                    eprintln!("FAULT {}: {}", fault.path.display(), fault.reason);
                }
                eprintln!("{} fault(s) found", report.faults.len());
                std::process::exit(1);
            }
        }
        "repair" => {
            let mut shard: Option<usize> = None;
            while let Some(a) = iter.next() {
                match a.as_str() {
                    "--shard" => {
                        shard = match iter.next().and_then(|v| v.parse().ok()) {
                            Some(s) => Some(s),
                            None => usage_exit("--shard needs a shard id"),
                        }
                    }
                    other => usage_exit(&format!("unknown store repair flag {other}")),
                }
            }
            let mut store = open_store_or_exit(&dir);
            check_shard_or_exit(&store, shard);
            let reports = match store.repair(shard) {
                Ok(r) => r,
                Err(e) => usage_exit(&format!("repair failed: {e}")),
            };
            if reports.is_empty() {
                println!("nothing to repair: no shard is quarantined");
            }
            for r in &reports {
                println!(
                    "shard {}: salvaged {} record(s){}",
                    r.shard,
                    r.salvaged,
                    if r.was_quarantined {
                        ", returned to service"
                    } else {
                        ""
                    }
                );
            }
            if store.is_degraded() {
                eprintln!("store is still degraded after repair");
                std::process::exit(1);
            }
        }
        "query" => {
            let mut class: Option<MessageClass> = None;
            let mut domain: Option<String> = None;
            let mut cert: Option<u64> = None;
            let mut phash: Option<u64> = None;
            let mut shard: Option<usize> = None;
            let mut limit = 20usize;
            while let Some(a) = iter.next() {
                match a.as_str() {
                    "--class" => {
                        class = Some(parse_class(
                            &iter
                                .next()
                                .unwrap_or_else(|| usage_exit("--class needs a value")),
                        ))
                    }
                    "--domain" => {
                        domain = match iter.next() {
                            Some(d) => Some(d),
                            None => usage_exit("--domain needs a value"),
                        }
                    }
                    "--cert" => cert = Some(parse_hex_u64("--cert", iter.next())),
                    "--phash" => phash = Some(parse_hex_u64("--phash", iter.next())),
                    "--shard" => {
                        shard = match iter.next().and_then(|v| v.parse().ok()) {
                            Some(s) => Some(s),
                            None => usage_exit("--shard needs a shard id"),
                        }
                    }
                    "--limit" => {
                        limit = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage_exit("--limit needs an integer"))
                    }
                    other => usage_exit(&format!("unknown store query flag {other}")),
                }
            }
            let store = open_store_or_exit(&dir);
            check_shard_or_exit(&store, shard);
            let matches: Vec<_> = store
                .metas()
                .filter(|(s, _)| shard.map(|want| *s == want).unwrap_or(true))
                .filter(|(_, m)| class.map(|c| m.class == c).unwrap_or(true))
                .filter(|(_, m)| {
                    domain
                        .as_ref()
                        .map(|d| m.domains.iter().any(|have| have.contains(d.as_str())))
                        .unwrap_or(true)
                })
                .filter(|(_, m)| {
                    cert.map(|fp| m.cert_fingerprints.contains(&fp))
                        .unwrap_or(true)
                })
                .filter(|(_, m)| phash.map(|p| m.phashes.contains(&p)).unwrap_or(true))
                .collect();
            println!("{} matching record(s):", matches.len());
            for (s, m) in matches.into_iter().take(limit) {
                println!(
                    "  shard {s:>2} seq {:>5}  msg {:>5}  {:?}  hash {:032x}  domains [{}]  certs [{}]",
                    m.seq,
                    m.message_id,
                    m.class,
                    m.content_hash,
                    m.domains.join(", "),
                    m.cert_fingerprints
                        .iter()
                        .map(|fp| format!("{fp:016x}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
        }
        "campaigns" => {
            let mut min_size = 2usize;
            let mut limit = 20usize;
            while let Some(a) = iter.next() {
                match a.as_str() {
                    "--min-size" => {
                        min_size = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage_exit("--min-size needs an integer"))
                    }
                    "--limit" => {
                        limit = iter
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage_exit("--limit needs an integer"))
                    }
                    other => usage_exit(&format!("unknown store campaigns flag {other}")),
                }
            }
            let store = open_store_or_exit(&dir);
            let campaigns = store.campaigns();
            let mut real: Vec<_> = campaigns.iter().filter(|c| c.len() >= min_size).collect();
            real.sort_by(|a, b| b.len().cmp(&a.len()).then(a.id.cmp(&b.id)));
            let clustered: usize = real.iter().map(|c| c.len()).sum();
            println!(
                "{} campaign(s) of >= {min_size} record(s) ({clustered} of {} records clustered)",
                real.len(),
                store.len(),
            );
            for c in real.into_iter().take(limit) {
                let mut evidence = Vec::new();
                if !c.phashes.is_empty() {
                    evidence.push(format!("{} screenshot hash(es)", c.phashes.len()));
                }
                if !c.cert_fingerprints.is_empty() {
                    evidence.push(format!("{} cert fingerprint(s)", c.cert_fingerprints.len()));
                }
                if !c.url_schemes.is_empty() {
                    evidence.push(format!("{} URL scheme(s)", c.url_schemes.len()));
                }
                println!(
                    "  campaign {:>4}: {} record(s), {} domain(s) [{}]",
                    c.id,
                    c.len(),
                    c.domains.len(),
                    c.domains
                        .iter()
                        .take(4)
                        .cloned()
                        .collect::<Vec<_>>()
                        .join(", "),
                );
                println!("    evidence: {}", evidence.join(", "));
                let classes: Vec<String> = c
                    .classes
                    .iter()
                    .map(|(cl, n)| format!("{cl:?} x{n}"))
                    .collect();
                println!("    classes:  {}", classes.join(", "));
            }
        }
        other => usage_exit(&format!(
            "unknown store subcommand {other}; expected stats|verify|repair|query|campaigns"
        )),
    }
}

fn parse_class(s: &str) -> MessageClass {
    match s.to_ascii_lowercase().as_str() {
        "noresource" | "no-resource" => MessageClass::NoResource,
        "error" | "errorpage" => MessageClass::ErrorPage,
        "interaction" => MessageClass::InteractionRequired,
        "download" => MessageClass::Download,
        "active" | "phish" => MessageClass::ActivePhish,
        other => usage_exit(&format!("unknown class {other}")),
    }
}

fn main() {
    let mut iter = std::env::args().skip(1).peekable();
    if iter.peek().map(String::as_str) == Some("trace") {
        iter.next();
        trace_main(iter);
        return;
    }
    if iter.peek().map(String::as_str) == Some("store") {
        iter.next();
        store_main(iter);
        return;
    }
    let mut file: Option<String> = None;
    let mut class: Option<MessageClass> = None;
    let mut domain: Option<String> = None;
    let mut limit = 10usize;
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--class" => {
                class = Some(parse_class(
                    &iter
                        .next()
                        .unwrap_or_else(|| usage_exit("--class needs a value")),
                ))
            }
            "--domain" => domain = iter.next(),
            "--limit" => {
                limit = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_exit("--limit needs an integer"))
            }
            other if !other.starts_with('-') => file = Some(other.to_string()),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let Some(path) = file else {
        usage_exit("a crawl-log file is required");
    };
    let reader = match std::fs::File::open(&path) {
        Ok(f) => std::io::BufReader::new(f),
        Err(e) => usage_exit(&format!("cannot open {path}: {e}")),
    };
    let records = match read_jsonl(reader) {
        Ok(r) => r,
        Err(e) => usage_exit(&format!("cannot parse {path}: {e}")),
    };

    // Summary.
    let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_domain: BTreeMap<String, usize> = BTreeMap::new();
    for r in &records {
        *by_class.entry(format!("{:?}", r.class)).or_insert(0) += 1;
        for v in &r.visits {
            if let Some(d) = v.landing_domain() {
                *by_domain.entry(d).or_insert(0) += 1;
            }
        }
    }
    println!("{} records in {path}", records.len());
    for (c, n) in &by_class {
        println!("  {c:<22} {n}");
    }
    let mut domains: Vec<(&String, &usize)> = by_domain.iter().collect();
    domains.sort_by(|a, b| b.1.cmp(a.1));
    println!("top landing domains:");
    for (d, n) in domains.into_iter().take(limit) {
        println!("  {n:>5}  {d}");
    }

    // Filtered detail.
    let matches: Vec<&ScanRecord> = records
        .iter()
        .filter(|r| class.map(|c| r.class == c).unwrap_or(true))
        .filter(|r| {
            domain
                .as_ref()
                .map(|d| {
                    r.visits
                        .iter()
                        .any(|v| v.landing_domain().map(|h| h.contains(d)).unwrap_or(false))
                })
                .unwrap_or(true)
        })
        .collect();
    if class.is_some() || domain.is_some() {
        println!("\n{} matching records:", matches.len());
        for r in matches.into_iter().take(limit) {
            let landing = r
                .visits
                .first()
                .map(|v| v.final_url().to_string())
                .unwrap_or_else(|| "(no visits)".to_string());
            println!(
                "  msg {:>5}  {:?}  {}  extracted {}  faulty-qr {}",
                r.message_id,
                r.class,
                landing,
                r.extracted.len(),
                r.has_faulty_qr(),
            );
        }
    }
}
