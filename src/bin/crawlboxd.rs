//! `crawlboxd`: the crawl-as-a-service daemon (DESIGN.md §15).
//!
//! ```text
//! crawlboxd --store DIR [--addr IP] [--port N] [--shards N]
//!           [--commit-batch N] [--seed N] [--scale F] [--workers N]
//!           [--queue N] [--read-timeout-ms N] [--max-body BYTES]
//! ```
//!
//! Prints `crawlboxd listening on IP:PORT` once the socket is bound
//! (`--port 0` picks a free port), serves the wire API described in
//! [`crawlerbox_suite::daemon`], and exits 0 after `POST /shutdown`
//! drains every shard queue and flushes every pending commit batch.
//!
//! `--commit-batch N` (default 256, the burst cap) is the most records a
//! shard worker's group commit covers with one durable barrier, as in
//! `repro --store`: a burst of queued tasks longer than N takes more than
//! one barrier, and a task is `durable` once its barrier returns.
//!
//! `--workers N` (default 2) is the number of threads that scan each burst,
//! the shard worker's own thread included, so crawlboxd scans on at most
//! `shards × N` threads; a one-message burst runs on its shard worker alone.

use crawlerbox_suite::daemon::{run, DaemonConfig};
use std::path::PathBuf;
use std::time::Duration;

fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: crawlboxd --store DIR [--addr IP] [--port N] [--shards N] \
         [--commit-batch N] [--seed N] [--scale F] [--workers N] [--queue N] \
         [--read-timeout-ms N] [--max-body BYTES]\n\
         --workers N: scanning threads per burst, each shard worker's own included"
    );
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => usage_exit(&format!("{flag} needs a valid value")),
    }
}

fn main() {
    let mut config = DaemonConfig::default();
    let mut store: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store = Some(PathBuf::from(parsed::<String>("--store", args.next()))),
            "--addr" => config.addr = parsed("--addr", args.next()),
            "--port" => config.port = parsed("--port", args.next()),
            "--shards" => config.shards = parsed("--shards", args.next()),
            "--commit-batch" => config.commit_batch = parsed("--commit-batch", args.next()),
            "--seed" => config.seed = parsed("--seed", args.next()),
            "--scale" => config.scale = parsed("--scale", args.next()),
            "--workers" => config.workers = parsed("--workers", args.next()),
            "--queue" => config.queue = parsed("--queue", args.next()),
            "--read-timeout-ms" => {
                config.read_timeout =
                    Duration::from_millis(parsed("--read-timeout-ms", args.next()))
            }
            "--max-body" => config.max_body = parsed("--max-body", args.next()),
            other => usage_exit(&format!("unknown flag {other}")),
        }
    }
    let Some(store) = store else {
        usage_exit("--store DIR is required");
    };
    config.store_root = store;
    if config.shards == 0 {
        usage_exit("--shards must be at least 1");
    }
    if !(config.scale > 0.0 && config.scale <= 1.0) {
        usage_exit("--scale must be a fraction in (0, 1]");
    }

    if let Err(e) = run(config) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
