//! The `crawlboxd` daemon: crawl-as-a-service over the workspace's own
//! HTTP stack (DESIGN.md §15).
//!
//! One process owns a simulated world, N store partitions and N shard
//! workers. The world is [`Corpus::world`]: the sites, C2s, DNS history
//! and victim lists the corpus's messages point into, with every message
//! drafted but none rendered — the daemon scans messages that arrive over
//! the wire, never the corpus's own. The wire surface is served by
//! `cb-httpd` (pure `std`, its own parser):
//!
//! | endpoint            | what                                           |
//! |---------------------|------------------------------------------------|
//! | `POST /ingest`      | raw RFC-822 bytes, or `{"messages": [..]}`     |
//! | `GET /health`       | `ok` / `degraded` + per-partition counters     |
//! | `GET /metrics`      | Prometheus text (daemon + per-partition store) |
//! | `GET /tasks/{id}`   | task lifecycle: queued/scanning/durable/failed |
//! | `GET /campaigns`    | live cross-partition campaign clustering       |
//! | `GET /records/{h}`  | whether content hash `h` is durably recorded   |
//! | `POST /shutdown`    | drain queues, flush every pending batch, exit  |
//!
//! **Ack vs durable.** `POST /ingest` answers `202 Accepted` the moment
//! tasks are queued; each task reaches `durable` only after the group
//! commit that carried it passes the store's fsync barrier
//! ([`Store::sync`]): at most `--commit-batch` records per barrier, and
//! never more than one drained burst. The
//! black-box suite SIGKILLs the daemon mid-ingest and asserts exactly
//! this split: every task seen `durable` is present after recovery, and
//! nothing stronger is promised for `202`.
//!
//! **Sharding.** [`route_shard`] maps a message's content hash to a
//! partition; each partition is an independent [`Store`] directory
//! (`part-00`, `part-01`, …) owned by one worker thread, so appends never
//! contend across shards and a quarantined partition degrades `/health`
//! instead of taking the daemon down. Workers scan bursts through
//! [`CrawlerBox::scan_stream_encoded`] with worker-side frame encoding
//! into a [`StoreSink`], the one group commit — the same ingest pipeline
//! `repro --stream --store` runs, behind a socket. The sink's first
//! encode or store error fails the rest of its burst.

use cb_httpd::{serve, Handler, Limits, Response, ServerConfig};
use cb_phishgen::messages::Carrier;
use cb_phishgen::{Corpus, CorpusSpec, GroundTruth, MessageClass, ReportedMessage};
use cb_sim::SimTime;
use cb_store::{Store, StoreEncoder, StoreOptions, StoreSink, StoreWatch};
use cb_telemetry::{Determinism, ExportMode, MetricsRegistry, MetricsSnapshot};
use crawlerbox::tasks::{route_shard, TaskRegistry, TaskState};
use crawlerbox::{message_content_hash, CrawlerBox, RecordSink, ScanRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Everything `crawlboxd` needs to run; the binary builds this from
/// flags.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (the listening port is printed on stdout, so `0` is
    /// fine for tests).
    pub addr: String,
    /// Bind port; 0 picks a free one.
    pub port: u16,
    /// Store partitions / shard workers.
    pub shards: usize,
    /// Root directory; partitions live at `<root>/part-NN`.
    pub store_root: PathBuf,
    /// At most this many records per durable barrier: each shard worker
    /// commits through a [`StoreSink`], which appends and syncs every
    /// `commit_batch` records and once more at the end of each drained
    /// burst. The default, [`BURST_CAP`], is one barrier per burst.
    pub commit_batch: usize,
    /// World seed (must match the corpus the messages came from for the
    /// crawls to resolve).
    pub seed: u64,
    /// World scale (fraction of the paper's corpus).
    pub scale: f64,
    /// Scanning threads per burst within each shard worker, the shard
    /// worker's own thread included: a burst spawns at most `workers − 1`
    /// helpers, and a one-message burst none. At peak the daemon scans on
    /// `shards × workers` threads.
    pub workers: usize,
    /// Bound of each shard's ingest queue; a full queue fails the task
    /// (`shard queue full`) instead of blocking the wire.
    pub queue: usize,
    /// Per-connection read timeout (slowloris defence).
    pub read_timeout: Duration,
    /// Request body cap in bytes.
    pub max_body: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1".into(),
            port: 0,
            shards: 2,
            store_root: PathBuf::from("crawlboxd-store"),
            commit_batch: BURST_CAP,
            seed: 2024,
            scale: 0.01,
            workers: 2,
            queue: 1024,
            read_timeout: Duration::from_secs(5),
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// One queued unit of ingest work.
struct IngestItem {
    task: u64,
    message: ReportedMessage,
}

/// Daemon-level instruments. Request counters are advisory (how often a
/// client polls is not part of the determinism contract); ingest-volume
/// counters are deterministic, so `/metrics?mode=canonical` is
/// byte-identical across worker counts for the same request sequence.
struct DaemonInstruments {
    http_requests: cb_telemetry::CounterHandle,
    http_errors: cb_telemetry::CounterHandle,
    ingest_messages: cb_telemetry::CounterHandle,
    ingest_deduped: cb_telemetry::CounterHandle,
    ingest_rejected: cb_telemetry::CounterHandle,
    queue_depth: cb_telemetry::GaugeHandle,
}

impl DaemonInstruments {
    fn register(reg: &MetricsRegistry) -> DaemonInstruments {
        DaemonInstruments {
            http_requests: reg.counter("daemon.http.requests", Determinism::Advisory),
            http_errors: reg.counter("daemon.http.errors", Determinism::Advisory),
            ingest_messages: reg.counter("daemon.ingest.messages", Determinism::Deterministic),
            ingest_deduped: reg.counter("daemon.ingest.deduped", Determinism::Deterministic),
            ingest_rejected: reg.counter("daemon.ingest.rejected", Determinism::Advisory),
            queue_depth: reg.gauge("daemon.queue.depth", Determinism::Advisory),
        }
    }
}

/// Shared state behind the HTTP handler.
struct DaemonState {
    tasks: TaskRegistry,
    registry: Arc<MetricsRegistry>,
    dm: DaemonInstruments,
    stores: Vec<Arc<Mutex<Store>>>,
    watches: Vec<StoreWatch>,
    /// `None` once shutdown began: dropping the senders is what
    /// disconnects the workers after they drain their queues.
    senders: Mutex<Option<Vec<SyncSender<IngestItem>>>>,
    shutdown: Mutex<Option<Sender<()>>>,
    shutting_down: AtomicBool,
}

/// Run the daemon until `POST /shutdown`.
///
/// Prints `crawlboxd listening on IP:PORT` once the socket is bound, then
/// serves until asked to stop; shutdown drains every shard queue, flushes
/// every pending commit batch through a final barrier, and joins all
/// workers before returning.
///
/// # Errors
///
/// Socket bind/accept setup or store-open failure. Ingest-time I/O
/// errors never kill the daemon — they fail the affected tasks.
pub fn run(config: DaemonConfig) -> io::Result<()> {
    let shards = config.shards.max(1);
    let corpus = Corpus::world(&CorpusSpec::paper().with_scale(config.scale), config.seed);

    let mut stores = Vec::with_capacity(shards);
    let mut watches = Vec::with_capacity(shards);
    for w in 0..shards {
        let store = Store::open_with(
            &config.store_root.join(format!("part-{w:02}")),
            StoreOptions {
                shards: 1,
                commit_batch: config.commit_batch.max(1),
                recovery_workers: 1,
                ..StoreOptions::default()
            },
        )?;
        watches.push(store.watch());
        stores.push(Arc::new(Mutex::new(store)));
    }

    let mut senders = Vec::with_capacity(shards);
    let mut receivers = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::sync_channel::<IngestItem>(config.queue.max(1));
        senders.push(tx);
        receivers.push(rx);
    }
    let (shutdown_tx, shutdown_rx) = mpsc::channel::<()>();

    let registry = Arc::new(MetricsRegistry::new());
    let dm = DaemonInstruments::register(&registry);
    let state = Arc::new(DaemonState {
        tasks: TaskRegistry::new(65_536),
        registry,
        dm,
        stores: stores.clone(),
        watches,
        senders: Mutex::new(Some(senders)),
        shutdown: Mutex::new(Some(shutdown_tx)),
        shutting_down: AtomicBool::new(false),
    });

    let listener = TcpListener::bind((config.addr.as_str(), config.port))?;
    let handler: Handler = {
        let state = state.clone();
        Arc::new(move |req| handle(&state, req))
    };
    let server = serve(
        listener,
        ServerConfig {
            limits: Limits {
                max_body: config.max_body,
                ..Limits::default()
            },
            read_timeout: config.read_timeout,
            ..ServerConfig::default()
        },
        handler,
    )?;
    println!("crawlboxd listening on {}", server.addr());
    use std::io::Write as _;
    let _ = io::stdout().flush();

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(shards);
        for (w, rx) in receivers.into_iter().enumerate() {
            let store = stores[w].clone();
            let state = &state;
            let corpus = &corpus;
            let config = &config;
            workers.push(scope.spawn(move || {
                worker_loop(rx, store, corpus, config, state);
            }));
        }

        // Serve until POST /shutdown (or every sender handle is gone).
        let _ = shutdown_rx.recv();
        state.shutting_down.store(true, Ordering::SeqCst);
        // Disconnect the workers: they drain whatever is queued, flush
        // the final commit batch through a barrier, and exit.
        drop(state.senders.lock().expect("senders lock").take());
        for worker in workers {
            let _ = worker.join();
        }
    });
    server.shutdown();
    Ok(())
}

/// The most queued tasks a shard worker drains into one burst, and the
/// default records per durable barrier: at the default, one barrier
/// covers a whole burst.
pub const BURST_CAP: usize = 256;

/// One shard worker: burst-drain the queue, scan with worker-side frame
/// encoding, and group-commit into this worker's partition through a
/// [`StoreSink`], which acks each task durable as its barrier returns.
fn worker_loop(
    rx: Receiver<IngestItem>,
    store: Arc<Mutex<Store>>,
    corpus: &Corpus,
    config: &DaemonConfig,
    state: &DaemonState,
) {
    let mut cbx = CrawlerBox::new(&corpus.world)
        .with_metrics(state.registry.clone())
        .with_artifact_capture(true);
    cbx.parallelism = config.workers.max(1);

    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while batch.len() < BURST_CAP {
            match rx.try_recv() {
                Ok(item) => batch.push(item),
                Err(_) => break,
            }
        }
        state.dm.queue_depth.sub(batch.len() as u64);
        let mut burst = Vec::with_capacity(batch.len());
        let mut messages = Vec::with_capacity(batch.len());
        for item in batch {
            state.tasks.set_state(item.task, TaskState::Scanning);
            burst.push(item.task);
            messages.push(item.message);
        }
        let mut sink = StoreSink::with_inner(&store, MarkDurable(&state.tasks));
        // A panicking encoder loses its record; the engine still delivers
        // the rest of the burst, then re-raises the panic here.
        let scanned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cbx.scan_stream_encoded(messages, &StoreEncoder, &mut sink)
        }));
        // `finish` commits the tail. A task the sink never acked is still
        // scanning: fail it rather than leave it pending forever.
        let reason = match (sink.finish(), scanned) {
            (Err(e), _) => e.to_string(),
            (Ok(_), Err(_)) => "encode: panicked".to_string(),
            (Ok(_), Ok(_)) => continue,
        };
        for task in burst {
            if state
                .tasks
                .get(task)
                .is_some_and(|t| t.state == TaskState::Scanning)
            {
                state.tasks.fail(task, reason.clone());
            }
        }
    }
}

/// The inner sink of a shard worker's [`StoreSink`]: it sees a record only
/// once the barrier covering it has returned, so it marks that record's
/// task `durable`. Message ids are task ids.
struct MarkDurable<'a>(&'a TaskRegistry);

impl RecordSink for MarkDurable<'_> {
    fn accept(&mut self, record: ScanRecord) {
        self.0
            .set_state(record.message_id as u64, TaskState::Durable);
    }
}

/// Route one parsed request. Never panics: every error path is a status
/// code, and the server already mapped malformed wire input to 4xx.
fn handle(state: &DaemonState, req: &cb_httpd::Request) -> Response {
    state.dm.http_requests.incr();
    let response = match (req.method.as_str(), req.path()) {
        ("GET", "/health") => health(state),
        ("GET", "/metrics") => metrics(state, req),
        ("GET", "/campaigns") => campaigns(state),
        ("POST", "/ingest") => ingest(state, req),
        ("POST", "/shutdown") => shutdown(state),
        (_, path) if path.starts_with("/tasks/") => task_status(state, req),
        (_, path) if path.starts_with("/records/") => record_status(state, req),
        (_, "/health" | "/metrics" | "/campaigns" | "/ingest" | "/shutdown") => {
            error(405, "method not allowed")
        }
        _ => error(404, "no such endpoint"),
    };
    if response.status >= 400 {
        state.dm.http_errors.incr();
    }
    response
}

// The response bodies. Each view declares its fields in sorted order, so
// every body keeps its keys sorted.

/// `{"error": ..}`, the body of every 4xx/5xx JSON response.
#[derive(cb_json::Serialize)]
struct ErrorView {
    error: String,
}

fn error(status: u16, error: impl Into<String>) -> Response {
    json(
        status,
        &ErrorView {
            error: error.into(),
        },
    )
}

fn json(status: u16, view: &impl cb_json::Serialize) -> Response {
    Response::json(status, cb_json::to_string(view).expect("view serializes"))
}

/// `GET /health`.
#[derive(cb_json::Serialize)]
struct HealthView {
    partitions: Vec<PartitionView>,
    queued: u64,
    shards: usize,
    status: &'static str,
}

#[derive(cb_json::Serialize)]
struct PartitionView {
    acked: u64,
    append_errors: u64,
    appended: u64,
    commit_batches: u64,
    degraded: bool,
    id: usize,
    pending: u64,
}

fn health(state: &DaemonState) -> Response {
    let partitions: Vec<PartitionView> = state
        .watches
        .iter()
        .enumerate()
        .map(|(w, watch)| PartitionView {
            acked: watch.acked(),
            append_errors: watch.append_errors(),
            appended: watch.appended(),
            commit_batches: watch.commit_batches(),
            degraded: watch.is_degraded(),
            id: w,
            pending: watch.pending(),
        })
        .collect();
    let degraded = partitions.iter().any(|p| p.degraded);
    json(
        200,
        &HealthView {
            partitions,
            queued: state.dm.queue_depth.level(),
            shards: state.watches.len(),
            status: if degraded { "degraded" } else { "ok" },
        },
    )
}

fn metrics(state: &DaemonState, req: &cb_httpd::Request) -> Response {
    let mode = match req.query_param("mode") {
        None | Some("full") => ExportMode::Full,
        Some("canonical") => ExportMode::Canonical,
        Some(other) => return error(400, format!("unknown mode {other}")),
    };
    let mut sections: Vec<(Vec<(String, String)>, MetricsSnapshot)> =
        vec![(Vec::new(), state.registry.snapshot(mode))];
    for (w, store) in state.stores.iter().enumerate() {
        let snapshot = store.lock().expect("store lock").metrics().snapshot(mode);
        sections.push((vec![("partition".into(), w.to_string())], snapshot));
    }
    Response::new(200)
        .with_header("Content-Type", "text/plain; version=0.0.4")
        .with_body(cb_telemetry::render_prometheus(&sections).into_bytes())
}

fn campaigns(state: &DaemonState) -> Response {
    // Fragments absorb in partition order with disjoint shard-id bases:
    // the same bit-identical-to-serial merge the store runs internally.
    let mut clusterer = cb_store::CampaignClusterer::new();
    for (w, store) in state.stores.iter().enumerate() {
        clusterer.absorb(store.lock().expect("store lock").campaign_fragment(w * 256));
    }
    let campaigns = clusterer
        .finish()
        .into_iter()
        .map(|c| CampaignView {
            classes: c
                .classes
                .iter()
                .map(|(k, v)| (format!("{k:?}"), *v))
                .collect(),
            domains: c.domains,
            id: c.id,
            messages: c.message_ids.len(),
            url_schemes: c.url_schemes,
        })
        .collect();
    json(200, &CampaignsView { campaigns })
}

/// `GET /campaigns`.
#[derive(cb_json::Serialize)]
struct CampaignsView {
    campaigns: Vec<CampaignView>,
}

#[derive(cb_json::Serialize)]
struct CampaignView {
    /// Members per class, keyed by the class's `Debug` name.
    classes: BTreeMap<String, usize>,
    domains: BTreeSet<String>,
    id: usize,
    messages: usize,
    url_schemes: BTreeSet<String>,
}

fn ingest(state: &DaemonState, req: &cb_httpd::Request) -> Response {
    if state.shutting_down.load(Ordering::SeqCst) {
        return error(503, "shutting down");
    }
    let raws = match parse_ingest_body(req) {
        Ok(raws) => raws,
        Err(reason) => return error(400, reason),
    };

    let shards = state.stores.len();
    let mut out = Vec::with_capacity(raws.len());
    let senders = state.senders.lock().expect("senders lock");
    let Some(senders) = senders.as_ref() else {
        return error(503, "shutting down");
    };
    for raw in raws {
        let hash = message_content_hash(&raw);
        let shard = route_shard(hash, shards);
        let task = state.tasks.create(shard, hash);
        state.dm.ingest_messages.incr();

        // Already durable from an earlier run or a duplicate submission:
        // ack immediately, no rescan.
        if state.stores[shard]
            .lock()
            .expect("store lock")
            .contains_hash(hash)
        {
            state.tasks.set_state(task.id, TaskState::Durable);
            state.dm.ingest_deduped.incr();
        } else {
            let message = ReportedMessage {
                id: task.id as usize,
                raw,
                delivered_at: SimTime::from_unix(1_700_000_000 + task.id as i64),
                victim: "wire".into(),
                truth: GroundTruth {
                    class: MessageClass::NoResource,
                    campaign: None,
                    carrier: Carrier::BodyLink,
                    spear: false,
                    noise_padded: false,
                    url: None,
                },
            };
            match senders[shard].try_send(IngestItem {
                task: task.id,
                message,
            }) {
                Ok(()) => {
                    state.dm.queue_depth.add(1);
                }
                Err(TrySendError::Full(_)) => {
                    state.tasks.fail(task.id, "shard queue full");
                    state.dm.ingest_rejected.incr();
                }
                Err(TrySendError::Disconnected(_)) => {
                    state.tasks.fail(task.id, "shutting down");
                }
            }
        }
        let snap = state.tasks.get(task.id).unwrap_or(task);
        out.push(AckView {
            content_hash: format!("{:032x}", snap.content_hash),
            id: snap.id,
            shard: snap.shard,
            state: snap.state.as_str(),
        });
    }
    json(202, &IngestView { tasks: out })
}

/// The `POST /ingest` ack.
#[derive(cb_json::Serialize)]
struct IngestView {
    tasks: Vec<AckView>,
}

#[derive(cb_json::Serialize)]
struct AckView {
    content_hash: String,
    id: u64,
    shard: usize,
    state: &'static str,
}

/// A JSON ingest batch: `{"messages": ["raw", ..]}`.
#[derive(cb_json::Deserialize)]
struct IngestBatch {
    messages: Vec<String>,
}

/// Decode the ingest payload: a JSON [`IngestBatch`] when the media type
/// (the Content-Type before any `;` parameter, case-insensitive) is
/// `application/json`, one raw RFC-822 message otherwise.
fn parse_ingest_body(req: &cb_httpd::Request) -> Result<Vec<String>, &'static str> {
    let is_json = req.header("content-type").is_some_and(|ct| {
        let media_type = ct.split(';').next().unwrap_or_default();
        media_type.trim().eq_ignore_ascii_case("application/json")
    });
    if is_json {
        let batch: IngestBatch = cb_json::from_slice(&req.body)
            .map_err(|_| "expected {\"messages\": [\"raw\", ...]}")?;
        if batch.messages.is_empty() {
            return Err("empty message batch");
        }
        Ok(batch.messages)
    } else {
        let raw = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
        if raw.trim().is_empty() {
            return Err("empty message body");
        }
        Ok(vec![raw.to_string()])
    }
}

fn task_status(state: &DaemonState, req: &cb_httpd::Request) -> Response {
    if req.method != "GET" {
        return error(405, "method not allowed");
    }
    let Some(id) = req
        .path()
        .strip_prefix("/tasks/")
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return error(400, "task ids are integers");
    };
    match state.tasks.get(id) {
        Some(task) => json(
            200,
            &TaskView {
                content_hash: format!("{:032x}", task.content_hash),
                error: task.error,
                id: task.id,
                shard: task.shard,
                state: task.state.as_str(),
            },
        ),
        None => error(404, "unknown task"),
    }
}

/// `GET /tasks/{id}`.
#[derive(cb_json::Serialize)]
struct TaskView {
    content_hash: String,
    /// The failure reason; `null` unless the task failed.
    error: Option<String>,
    id: u64,
    shard: usize,
    state: &'static str,
}

fn record_status(state: &DaemonState, req: &cb_httpd::Request) -> Response {
    if req.method != "GET" {
        return error(405, "method not allowed");
    }
    let Some(hash) = req
        .path()
        .strip_prefix("/records/")
        .and_then(|s| u128::from_str_radix(s, 16).ok())
    else {
        return error(400, "record keys are content hashes in hex");
    };
    let shard = route_shard(hash, state.stores.len());
    let present = state.stores[shard]
        .lock()
        .expect("store lock")
        .contains_hash(hash);
    json(
        200,
        &RecordView {
            content_hash: format!("{hash:032x}"),
            present,
            shard,
        },
    )
}

/// `GET /records/{hash}`.
#[derive(cb_json::Serialize)]
struct RecordView {
    content_hash: String,
    present: bool,
    shard: usize,
}

fn shutdown(state: &DaemonState) -> Response {
    state.shutting_down.store(true, Ordering::SeqCst);
    if let Some(tx) = state.shutdown.lock().expect("shutdown lock").take() {
        let _ = tx.send(());
    }
    json(202, &StatusView { status: "stopping" })
}

/// The `POST /shutdown` ack.
#[derive(cb_json::Serialize)]
struct StatusView {
    status: &'static str,
}
