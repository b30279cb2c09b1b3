//! Black-box protocol tests for `crawlboxd`: every test spawns the real
//! binary, talks to it over a loopback TCP socket with a hand-rolled
//! HTTP/1.1 client, and asserts on wire bytes, exit codes and on-disk
//! state — never on internals.
//!
//! The centrepiece is the ack-vs-durable contract: a task reported
//! `durable` by `GET /tasks/{id}` must survive SIGKILL + restart at every
//! commit-batch × shard combination, and a clean `POST /shutdown` must
//! flush every pending commit batch before the process exits 0. Each
//! shard worker group-commits through `cb_store::StoreSink`, so
//! `--commit-batch N` is at most N records per durable barrier, as in
//! `repro --store`: batch 1 acks every record at its own barrier, batch
//! 16 acks up to 16 at once.

use cb_phishgen::{Corpus, CorpusSpec, ReportedMessage};
use crawlerbox::message_content_hash;
use crawlerbox::tasks::route_shard;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-daemon-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus_subset(seed: u64, n: usize) -> (Corpus, Vec<ReportedMessage>) {
    let corpus = Corpus::generate(&CorpusSpec::paper().with_scale(0.01), seed);
    let subset = corpus.messages.iter().take(n).cloned().collect();
    (corpus, subset)
}

/// The fields of an ingest ack task the tests read.
#[derive(cb_json::Deserialize)]
struct AckTask {
    id: u64,
    content_hash: String,
    state: String,
}

#[derive(cb_json::Deserialize)]
struct Ack {
    tasks: Vec<AckTask>,
}

/// The fields of a `/tasks/{id}` body the tests read.
#[derive(cb_json::Deserialize, Debug)]
struct TaskBody {
    content_hash: String,
    state: String,
    error: Option<String>,
}

#[derive(cb_json::Deserialize)]
struct RecordBody {
    present: bool,
}

#[derive(cb_json::Deserialize)]
struct PartitionBody {
    appended: u64,
    acked: u64,
}

#[derive(cb_json::Deserialize)]
struct HealthBody {
    partitions: Vec<PartitionBody>,
}

#[derive(cb_json::Deserialize)]
struct CampaignBody {
    messages: u64,
}

#[derive(cb_json::Deserialize)]
struct CampaignsBody {
    campaigns: Vec<CampaignBody>,
}

/// A JSON ingest batch, as a client sends it.
#[derive(cb_json::Serialize)]
struct IngestPayload {
    messages: Vec<String>,
}

fn batch_payload<'a>(messages: impl IntoIterator<Item = &'a ReportedMessage>) -> String {
    let messages = messages.into_iter().map(|m| m.raw.clone()).collect();
    cb_json::to_string(&IngestPayload { messages }).expect("JSON batch")
}

/// A spawned daemon child plus the address it printed. Killed on drop so
/// a failing test never leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(store: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_crawlboxd"))
            .arg("--store")
            .arg(store)
            .args(["--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn crawlboxd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).expect("read daemon stdout") == 0 {
                panic!("daemon exited before printing its listening line");
            }
            if let Some(rest) = line.trim().strip_prefix("crawlboxd listening on ") {
                break rest.to_string();
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut rest = String::new();
            while matches!(reader.read_line(&mut rest), Ok(n) if n > 0) {
                rest.clear();
            }
        });
        Daemon { child, addr }
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n",
            body.len()
        );
        if let Some(ct) = content_type {
            head.push_str(&format!("Content-Type: {ct}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body).expect("write body");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let text = String::from_utf8_lossy(&raw).to_string();
        let status: u16 = text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response: {text:?}"));
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(&self, path: &str) -> (u16, String) {
        self.request("GET", path, None, b"")
    }

    fn post_raw(&self, path: &str, body: &str) -> (u16, String) {
        self.request("POST", path, Some("message/rfc822"), body.as_bytes())
    }

    fn post_json(&self, path: &str, body: &str) -> (u16, String) {
        self.request("POST", path, Some("application/json"), body.as_bytes())
    }

    /// Await a task state: `durable` panics if the task fails first.
    fn await_durable(&self, id: u64) -> TaskBody {
        let deadline = Instant::now() + Duration::from_secs(180);
        loop {
            let (status, body) = self.get(&format!("/tasks/{id}"));
            assert_eq!(status, 200, "task {id} lookup: {body}");
            let task: TaskBody = cb_json::from_str(&body).expect("task json");
            match task.state.as_str() {
                "durable" => return task,
                "failed" => panic!("task {id} failed: {:?}", task.error),
                _ if Instant::now() > deadline => panic!("task {id} never durable: {body}"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Clean shutdown: `POST /shutdown` must drain, flush and exit 0.
    fn shutdown_and_wait(mut self) {
        let (status, _) = self.post_json("/shutdown", "");
        assert_eq!(status, 202);
        let code = self.child.wait().expect("wait").code();
        assert_eq!(code, Some(0), "clean shutdown must exit 0");
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Write raw bytes on a fresh connection and read until `want` responses
/// arrived (or the peer closed / 5s passed). Returns everything read.
fn raw_exchange(addr: &str, wire: &[u8], want: usize) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    stream.write_all(wire).expect("write");
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = [0u8; 4096];
    while Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                out.extend_from_slice(&buf[..n]);
                let text = String::from_utf8_lossy(&out);
                if text.matches("HTTP/1.1 ").count() >= want && text.ends_with("}") {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if String::from_utf8_lossy(&out).matches("HTTP/1.1 ").count() >= want {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&out).to_string()
}

fn ingested_tasks(body: &str) -> Vec<AckTask> {
    cb_json::from_str::<Ack>(body).expect("ingest json").tasks
}

const EMPTY_PARTITION: &str =
    r#""acked":0,"append_errors":0,"appended":0,"commit_batches":0,"degraded":false"#;

#[test]
fn health_metrics_and_route_errors() {
    let dir = scratch("basics");
    let d = Daemon::spawn(&dir, &["--shards", "2"]);

    let (status, body) = d.get("/health");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            r#"{{"partitions":[{{{EMPTY_PARTITION},"id":0,"pending":0}},{{{EMPTY_PARTITION},"id":1,"pending":0}}],"queued":0,"shards":2,"status":"ok"}}"#
        )
    );
    assert_eq!(d.get("/campaigns"), (200, r#"{"campaigns":[]}"#.into()));

    let (status, text) = d.get("/metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE cb_daemon_http_requests counter"),
        "{text}"
    );
    assert!(
        text.contains("cb_store_append_records{partition=\"0\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("cb_store_append_records{partition=\"1\"} 0"),
        "{text}"
    );

    // Canonical mode exists and excludes advisory instruments.
    let (status, canonical) = d.get("/metrics?mode=canonical");
    assert_eq!(status, 200);
    assert!(
        !canonical.contains("cb_daemon_http_requests"),
        "{canonical}"
    );
    assert!(
        canonical.contains("cb_daemon_ingest_messages"),
        "{canonical}"
    );
    assert_eq!(
        d.get("/metrics?mode=bogus"),
        (400, r#"{"error":"unknown mode bogus"}"#.into())
    );
    assert_eq!(
        d.get("/metrics?mode=%22q%22"),
        (400, r#"{"error":"unknown mode %22q%22"}"#.into())
    );

    let err = |status: u16, msg: &str| (status, format!(r#"{{"error":"{msg}"}}"#));
    assert_eq!(d.get("/nope"), err(404, "no such endpoint"));
    assert_eq!(
        d.request("DELETE", "/health", None, b""),
        err(405, "method not allowed")
    );
    assert_eq!(
        d.request("PUT", "/tasks/1", None, b""),
        err(405, "method not allowed")
    );
    assert_eq!(d.get("/tasks/xyz"), err(400, "task ids are integers"));
    assert_eq!(d.get("/tasks/999999"), err(404, "unknown task"));
    assert_eq!(
        d.get("/records/zz"),
        err(400, "record keys are content hashes in hex")
    );
    assert_eq!(d.post_raw("/ingest", ""), err(400, "empty message body"));
    assert_eq!(
        d.post_raw("/ingest", " \r\n"),
        err(400, "empty message body")
    );
    assert_eq!(
        d.request(
            "POST",
            "/ingest",
            Some("message/rfc822"),
            b"Subject: \xff\r\n"
        ),
        err(400, "body is not UTF-8")
    );
    let not_a_batch = err(400, r#"expected {\"messages\": [\"raw\", ...]}"#);
    assert_eq!(d.post_json("/ingest", "{]"), not_a_batch);
    assert_eq!(
        d.post_json("/ingest", r#"{"messages": []}"#),
        err(400, "empty message batch")
    );
    assert_eq!(d.post_json("/ingest", r#"{"messages": [42]}"#), not_a_batch);
    assert_eq!(d.post_json("/ingest", "{}"), not_a_batch);
    assert_eq!(d.post_json("/ingest", "not json"), not_a_batch);
    assert_eq!(d.post_json("/ingest", r#"{"messages":"x"}"#), not_a_batch);
    let repeated = r#"{"messages":["a"],"messages":["b"]}"#;
    assert_eq!(d.post_json("/ingest", repeated), not_a_batch);

    // Media types are case-insensitive: a JSON batch sent as
    // `Application/JSON` is two messages, not one raw message of JSON text.
    let batch = r#"{"messages":["Subject: one\r\n\r\nfirst","Subject: two\r\n\r\nsecond"]}"#;
    for ct in ["Application/JSON", "Application/JSON; charset=utf-8"] {
        let (status, body) = d.request("POST", "/ingest", Some(ct), batch.as_bytes());
        assert_eq!(status, 202, "{ct}: {body}");
        assert_eq!(ingested_tasks(&body).len(), 2, "{ct}: {body}");
    }
    // Only the media type decides: `json` in a parameter does not make a
    // raw message a batch.
    let ct = Some("text/plain; x=json");
    let (status, body) = d.request("POST", "/ingest", ct, b"Subject: raw\r\n\r\n{json}");
    assert_eq!(status, 202, "{body}");
    assert_eq!(ingested_tasks(&body).len(), 1, "{body}");

    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn raw_ingest_reaches_durable_and_dedups_resubmission() {
    let (_corpus, subset) = corpus_subset(2024, 1);
    let dir = scratch("raw-ingest");
    let d = Daemon::spawn(&dir, &["--shards", "1"]);

    let (status, body) = d.post_raw("/ingest", &subset[0].raw);
    assert_eq!(status, 202, "{body}");
    let tasks = ingested_tasks(&body);
    assert_eq!(tasks.len(), 1);
    let id = tasks[0].id;
    let hash = tasks[0].content_hash.clone();

    let task = d.await_durable(id);
    assert_eq!(task.content_hash, hash);

    let (status, body) = d.get(&format!("/records/{hash}"));
    assert_eq!(status, 200);
    let record: RecordBody = cb_json::from_str(&body).unwrap();
    assert!(record.present, "{body}");

    // Same bytes again: recognized as already durable, no rescan.
    let (status, body) = d.post_raw("/ingest", &subset[0].raw);
    assert_eq!(status, 202);
    assert_eq!(ingested_tasks(&body)[0].state, "durable");

    let (_, body) = d.get("/health");
    let health: HealthBody = cb_json::from_str(&body).unwrap();
    assert_eq!(health.partitions[0].appended, 1, "{body}");
    assert!(health.partitions[0].acked >= 1, "{body}");

    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_batch_ingest_clusters_campaigns() {
    let (corpus, _) = corpus_subset(2024, 0);
    // Pick one phishgen campaign with at least two messages so the
    // clustering has something to link.
    let mut per_campaign: std::collections::BTreeMap<usize, Vec<&ReportedMessage>> =
        std::collections::BTreeMap::new();
    for m in &corpus.messages {
        if let Some(c) = m.truth.campaign {
            per_campaign.entry(c).or_default().push(m);
        }
    }
    let batch: Vec<&ReportedMessage> = match per_campaign.values().find(|v| v.len() >= 2) {
        Some(linked) => linked.iter().take(4).copied().collect(),
        // Tiny corpus with no multi-message campaign: the clustering
        // invariants below hold for singletons too.
        None => corpus.messages.iter().take(4).collect(),
    };

    let dir = scratch("campaigns");
    let d = Daemon::spawn(&dir, &["--shards", "2", "--commit-batch", "4"]);
    let (status, body) = d.post_json("/ingest", &batch_payload(batch.iter().copied()));
    assert_eq!(status, 202, "{body}");
    let tasks = ingested_tasks(&body);
    assert_eq!(tasks.len(), batch.len());
    for task in &tasks {
        d.await_durable(task.id);
    }

    let (status, body) = d.get("/campaigns");
    assert_eq!(status, 200);
    let campaigns = cb_json::from_str::<CampaignsBody>(&body).unwrap().campaigns;
    assert!(!campaigns.is_empty(), "{body}");
    let clustered: u64 = campaigns.iter().map(|c| c.messages).sum();
    assert_eq!(
        clustered as usize,
        batch.len(),
        "every record in exactly one campaign"
    );

    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The states an ack may report for a task that was queued: the shard
/// worker may already have picked it up, or even committed it.
const IN_FLIGHT: [&str; 3] = ["queued", "scanning", "durable"];

/// The exact bytes of an ingest ack for `tasks` as `(id, content hash,
/// shard, state)`.
fn ack_body(tasks: &[(u64, u128, usize, &str)]) -> String {
    let tasks: Vec<String> = tasks
        .iter()
        .map(|(id, hash, shard, state)| {
            format!(
                r#"{{"content_hash":"{hash:032x}","id":{id},"shard":{shard},"state":"{state}"}}"#
            )
        })
        .collect();
    format!(r#"{{"tasks":[{}]}}"#, tasks.join(","))
}

/// Check an ack of freshly queued tasks byte for byte, allowing each task
/// any state in `states`; returns the states seen.
fn assert_ack(body: &str, tasks: &[(u64, u128, usize)], states: &[&str]) -> Vec<String> {
    let seen: Vec<String> = ingested_tasks(body).into_iter().map(|t| t.state).collect();
    assert_eq!(seen.len(), tasks.len(), "{body}");
    for state in &seen {
        assert!(states.contains(&state.as_str()), "{body}");
    }
    let want: Vec<(u64, u128, usize, &str)> = tasks
        .iter()
        .zip(&seen)
        .map(|(&(id, hash, shard), state)| (id, hash, shard, state.as_str()))
        .collect();
    assert_eq!(body, ack_body(&want));
    seen
}

/// The exact bytes of `GET /tasks/{id}`.
fn task_body(id: u64, hash: u128, shard: usize, state: &str, error: Option<&str>) -> String {
    let error = error.map_or("null".to_string(), |e| format!(r#""{e}""#));
    format!(
        r#"{{"content_hash":"{hash:032x}","error":{error},"id":{id},"shard":{shard},"state":"{state}"}}"#
    )
}

/// Every JSON body crawlboxd writes for ingest, tasks, records, health
/// and campaigns, pinned byte for byte on a fixed three-message subset:
/// keys come out sorted, `error` is `null` until a task fails, content
/// hashes are 32 lowercase hex digits.
#[test]
fn wire_bodies_are_pinned() {
    let (_corpus, subset) = corpus_subset(2024, 3);
    let dir = scratch("pins");
    let d = Daemon::spawn(&dir, &["--shards", "2", "--commit-batch", "4"]);
    let hash: Vec<u128> = subset
        .iter()
        .map(|m| message_content_hash(&m.raw))
        .collect();
    let shard: Vec<usize> = hash.iter().map(|&h| route_shard(h, 2)).collect();

    // A raw message: task 1.
    let (status, body) = d.post_raw("/ingest", &subset[0].raw);
    assert_eq!(status, 202);
    assert_ack(&body, &[(1, hash[0], shard[0])], &IN_FLIGHT);
    d.await_durable(1);
    assert_eq!(
        d.get("/tasks/1"),
        (200, task_body(1, hash[0], shard[0], "durable", None))
    );
    let partition = |w: usize| {
        let n = usize::from(shard[0] == w);
        format!(
            r#"{{"acked":{n},"append_errors":0,"appended":{n},"commit_batches":{n},"degraded":false,"id":{w},"pending":0}}"#
        )
    };
    assert_eq!(
        d.get("/health"),
        (
            200,
            format!(
                r#"{{"partitions":[{},{}],"queued":0,"shards":2,"status":"ok"}}"#,
                partition(0),
                partition(1)
            )
        )
    );

    // A JSON batch of the other two: tasks 2 and 3.
    let (status, body) = d.post_json("/ingest", &batch_payload(&subset[1..]));
    assert_eq!(status, 202);
    assert_ack(
        &body,
        &[(2, hash[1], shard[1]), (3, hash[2], shard[2])],
        &IN_FLIGHT,
    );
    d.await_durable(2);
    d.await_durable(3);

    // Resubmissions are durable in the ack itself, raw or batched.
    let (status, body) = d.post_raw("/ingest", &subset[0].raw);
    assert_eq!(status, 202);
    assert_eq!(body, ack_body(&[(4, hash[0], shard[0], "durable")]));
    let (status, body) = d.post_json("/ingest", &batch_payload([&subset[2], &subset[0]]));
    assert_eq!(status, 202);
    assert_eq!(
        body,
        ack_body(&[
            (5, hash[2], shard[2], "durable"),
            (6, hash[0], shard[0], "durable"),
        ])
    );
    assert_eq!(
        d.get("/tasks/5"),
        (200, task_body(5, hash[2], shard[2], "durable", None))
    );

    // Records: present by its hash, absent by any other; upper-case hex
    // is read, lower-case hex is written.
    assert_eq!(
        d.get(&format!("/records/{:032x}", hash[1])),
        (
            200,
            format!(
                r#"{{"content_hash":"{:032x}","present":true,"shard":{}}}"#,
                hash[1], shard[1]
            )
        )
    );
    assert_eq!(
        d.get("/records/ABC"),
        (
            200,
            format!(
                r#"{{"content_hash":"{:032x}","present":false,"shard":{}}}"#,
                0xabc,
                route_shard(0xabc, 2)
            )
        )
    );

    let (status, body) = d.get("/campaigns");
    assert_eq!(status, 200);
    assert_eq!(body, CAMPAIGNS_OF_THREE);

    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `/campaigns` over the first three messages of the seed-2024,
/// scale-0.01 corpus, ingested as tasks 1–3 on two shards.
const CAMPAIGNS_OF_THREE: &str = concat!(
    r#"{"campaigns":[{"classes":{"ErrorPage":1},"domains":["fare10gic0.com"],"id":0,"#,
    r#""messages":1,"url_schemes":["m8"]},{"classes":{"NoResource":1},"domains":[],"#,
    r#""id":1,"messages":1,"url_schemes":[]},{"classes":{"NoResource":1},"domains":[],"#,
    r#""id":2,"messages":1,"url_schemes":[]}]}"#
);

/// A task the wire could not queue fails with its reason: `/tasks/{id}`
/// carries it in `error`.
#[test]
fn failed_task_body_carries_its_error() {
    let (_corpus, subset) = corpus_subset(2024, 12);
    let dir = scratch("queue-full");
    let d = Daemon::spawn(&dir, &["--shards", "1", "--queue", "1"]);
    // Twelve messages into a one-slot queue in one request: the worker
    // scans for milliseconds per message, so most find the queue full.
    let (status, body) = d.post_json("/ingest", &batch_payload(&subset));
    assert_eq!(status, 202);
    let tasks: Vec<(u64, u128, usize)> = subset
        .iter()
        .zip(1..)
        .map(|(m, id)| (id, message_content_hash(&m.raw), 0))
        .collect();
    let states = assert_ack(&body, &tasks, &["queued", "scanning", "durable", "failed"]);
    let mut failed = 0;
    for (&(id, hash, shard), state) in tasks.iter().zip(&states) {
        if state == "failed" {
            failed += 1;
            assert_eq!(
                d.get(&format!("/tasks/{id}")),
                (
                    200,
                    task_body(id, hash, shard, "failed", Some("shard queue full"))
                )
            );
        } else {
            d.await_durable(id);
        }
    }
    assert!(failed > 0, "a one-slot queue took twelve messages: {body}");
    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_bursts_survive_clean_shutdown() {
    let (_corpus, subset) = corpus_subset(2024, 24);
    let dir = scratch("burst-shutdown");
    let shards = 4;
    let d = Daemon::spawn(
        &dir,
        &["--shards", "4", "--workers", "2", "--commit-batch", "8"],
    );

    // Three clients blast bursts concurrently over fresh connections.
    let accepted: BTreeSet<String> = std::thread::scope(|scope| {
        let d = &d;
        let mut handles = Vec::new();
        for chunk in subset.chunks(8) {
            handles.push(scope.spawn(move || {
                let mut hashes = Vec::new();
                for m in chunk {
                    let (status, body) = d.post_raw("/ingest", &m.raw);
                    assert_eq!(status, 202, "{body}");
                    for task in ingested_tasks(&body) {
                        assert_ne!(task.state, "failed", "{body}");
                        hashes.push(task.content_hash);
                    }
                }
                hashes
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(accepted.len(), 24, "distinct content hashes");

    // Shut down while scans are still in flight: the daemon must drain
    // the queues, flush the pending commit batches and only then exit.
    d.shutdown_and_wait();

    // Each partition verifies clean: every record frame, every blob
    // (including screenshots the store drew from an undrawn capture, e.g.
    // a page hit delivered before its miss) and every blob ref.
    let mut on_disk = 0usize;
    for w in 0..shards {
        let mut store = cb_store::Store::open(&dir.join(format!("part-{w:02}"))).unwrap();
        assert!(store.quarantined().is_empty());
        let report = store.verify().unwrap();
        assert!(report.is_clean(), "partition {w}: {:?}", report.faults);
        on_disk += store.len();
        for hash in &accepted {
            let h = u128::from_str_radix(hash, 16).unwrap();
            if crawlerbox::tasks::route_shard(h, shards) == w {
                assert!(
                    store.contains_hash(h),
                    "accepted {hash} missing after clean shutdown"
                );
            }
        }
    }
    assert_eq!(on_disk, 24);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn keepalive_pipelining_and_torn_requests() {
    let dir = scratch("pipeline");
    let d = Daemon::spawn(&dir, &["--shards", "1"]);

    // Two pipelined requests, one write, one connection: two responses.
    let wire = b"GET /health HTTP/1.1\r\nHost: t\r\n\r\nGET /health HTTP/1.1\r\nHost: t\r\n\r\n";
    let text = raw_exchange(&d.addr, wire, 2);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 2, "{text}");
    assert!(text.contains("Connection: keep-alive"), "{text}");

    // Explicit close is honored.
    let text = raw_exchange(
        &d.addr,
        b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n",
        1,
    );
    assert!(text.contains("Connection: close"), "{text}");

    // A torn request (half a head, then FIN) is dropped silently and
    // takes nothing down.
    {
        let mut stream = TcpStream::connect(&d.addr).unwrap();
        stream
            .write_all(b"POST /ingest HTTP/1.1\r\nContent-Le")
            .unwrap();
    }
    assert_eq!(d.get("/health").0, 200, "daemon survives torn requests");

    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn protocol_abuse_maps_to_4xx_never_down() {
    let dir = scratch("abuse");
    let d = Daemon::spawn(
        &dir,
        &[
            "--shards",
            "1",
            "--max-body",
            "4096",
            "--read-timeout-ms",
            "300",
        ],
    );

    // Oversized request-line → 414.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    assert!(
        raw_exchange(&d.addr, long.as_bytes(), 1).contains("414"),
        "long URI"
    );

    // Oversized header block → 431.
    let mut heads = String::from("GET /health HTTP/1.1\r\n");
    for i in 0..700 {
        heads.push_str(&format!("X-Pad-{i}: {}\r\n", "v".repeat(48)));
    }
    heads.push_str("\r\n");
    assert!(
        raw_exchange(&d.addr, heads.as_bytes(), 1).contains("431"),
        "huge heads"
    );

    // Body over the configured cap → 413, before any body is read.
    let big = b"POST /ingest HTTP/1.1\r\nContent-Length: 8000\r\n\r\n";
    assert!(
        raw_exchange(&d.addr, big, 1).contains("413"),
        "oversized body"
    );

    // Smuggling-shaped framing → 400.
    let smuggle =
        b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
    assert!(raw_exchange(&d.addr, smuggle, 1).contains("400"), "CL+TE");

    // Unsupported version → 505; non-HTTP garbage → 400.
    assert!(raw_exchange(&d.addr, b"GET /health HTTP/2.0\r\n\r\n", 1).contains("505"));
    assert!(raw_exchange(&d.addr, b"\x16\x03\x01\x02\x00garbage\r\n\r\n", 1).contains("400"));

    // Slowloris: a never-finished head times out with 408.
    let mut stream = TcpStream::connect(&d.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /health HTTP/1.1\r\nHost: t")
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    assert!(
        String::from_utf8_lossy(&out).contains("408"),
        "slowloris: {out:?}"
    );

    // After all of that the daemon still answers.
    assert_eq!(d.get("/health").0, 200);
    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance matrix: kill -9 mid-ingest at commit batch {1,16} ×
/// shards {1,4}; every task that was acked `durable` before the kill must
/// be present after recovery.
#[test]
fn kill_and_restart_preserves_durable_acks() {
    let (_corpus, subset) = corpus_subset(2024, 12);
    for (commit_batch, shards) in [(1usize, 1usize), (1, 4), (16, 1), (16, 4)] {
        let dir = scratch(&format!("kill-b{commit_batch}-s{shards}"));
        let flags = [
            String::from("--shards"),
            shards.to_string(),
            "--commit-batch".into(),
            commit_batch.to_string(),
        ];
        let flags: Vec<&str> = flags.iter().map(String::as_str).collect();
        let d = Daemon::spawn(&dir, &flags);

        let mut ids = Vec::new();
        for m in &subset {
            let (status, body) = d.post_raw("/ingest", &m.raw);
            assert_eq!(status, 202, "{body}");
            let task = &ingested_tasks(&body)[0];
            ids.push((task.id, task.content_hash.clone()));
        }

        // Poll until at least half the tasks are acked durable, then
        // SIGKILL with the rest mid-flight.
        let mut durable: BTreeSet<String> = BTreeSet::new();
        let deadline = Instant::now() + Duration::from_secs(180);
        while durable.len() < ids.len() / 2 {
            assert!(
                Instant::now() < deadline,
                "only {} durable acks",
                durable.len()
            );
            for (id, hash) in &ids {
                let (_, body) = d.get(&format!("/tasks/{id}"));
                let task: TaskBody = cb_json::from_str(&body).unwrap();
                if task.state == "durable" {
                    durable.insert(hash.clone());
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        d.kill();

        let d = Daemon::spawn(&dir, &flags);
        for hash in &durable {
            let (status, body) = d.get(&format!("/records/{hash}"));
            assert_eq!(status, 200);
            let record: RecordBody = cb_json::from_str(&body).unwrap();
            assert!(
                record.present,
                "durable-acked {hash} lost across SIGKILL (batch {commit_batch}, shards {shards})"
            );
        }
        // The restarted daemon still ingests.
        let (_, body) = d.post_raw("/ingest", &subset[0].raw);
        let task = &ingested_tasks(&body)[0];
        if task.state != "durable" {
            d.await_durable(task.id);
        }
        d.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `--commit-batch N` bounds the records per durable barrier: one
/// 40-message batch at N = 16 is committed in barriers of at most 16
/// records, never one barrier per drained burst.
#[test]
fn commit_batch_bounds_records_per_barrier() {
    let (_corpus, subset) = corpus_subset(2024, 40);
    assert_eq!(subset.len(), 40);
    let dir = scratch("commit-batch");
    let d = Daemon::spawn(&dir, &["--shards", "1", "--commit-batch", "16"]);
    let (status, body) = d.post_json("/ingest", &batch_payload(&subset));
    assert_eq!(status, 202, "{body}");
    let tasks = ingested_tasks(&body);
    assert_eq!(tasks.len(), 40);
    for task in &tasks {
        d.await_durable(task.id);
    }

    let (status, text) = d.get("/metrics?mode=canonical");
    assert_eq!(status, 200);
    let value = |series: &str| -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {series} in {text}"))
    };
    let barriers = value("cb_store_commit_batch_records_count{partition=\"0\"}");
    let at_most_16 = value("cb_store_commit_batch_records_bucket{partition=\"0\",le=\"16\"}");
    assert!(
        barriers >= 3,
        "40 records in barriers of at most 16: {barriers}"
    );
    assert_eq!(
        at_most_16, barriers,
        "a barrier covered more than 16 records: {text}"
    );
    d.shutdown_and_wait();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// For a fixed seed and request sequence the canonical Prometheus
/// exposition is byte-identical at scan worker counts 1 and 4.
#[test]
fn metrics_canonical_byte_identical_across_worker_counts() {
    let (_corpus, subset) = corpus_subset(2024, 6);
    let mut exports = Vec::new();
    for workers in ["1", "4"] {
        let dir = scratch(&format!("metrics-{workers}"));
        let d = Daemon::spawn(
            &dir,
            &["--shards", "2", "--commit-batch", "1", "--workers", workers],
        );
        // Sequential, awaited ingest: the commit-barrier sequence is part
        // of what must not depend on the worker count.
        for m in &subset {
            let (status, body) = d.post_raw("/ingest", &m.raw);
            assert_eq!(status, 202, "{body}");
            d.await_durable(ingested_tasks(&body)[0].id);
        }
        let (status, text) = d.get("/metrics?mode=canonical");
        assert_eq!(status, 200);
        assert!(text.contains("cb_scan_messages"), "{text}");
        exports.push((workers, text));
        d.shutdown_and_wait();
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let (base_name, base) = &exports[0];
    for (name, text) in &exports[1..] {
        assert_eq!(
            text, base,
            "canonical /metrics differs between {base_name} and {name} worker(s)"
        );
    }
}

/// CLI satellite: bad flags exit 2 with usage on stderr, before any
/// socket or store is touched.
#[test]
fn crawlboxd_cli_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_crawlboxd");
    for args in [
        vec!["--bogus"],
        vec!["--store"],
        vec![],
        vec!["--store", "/tmp/x", "--scheduler", "stealing"],
        vec!["--store", "/tmp/x", "--shards", "zero"],
        vec!["--store", "/tmp/x", "--scale", "7"],
        vec!["--store", "/tmp/x", "--scale", "0"],
        vec!["--store", "/tmp/x", "--port", "notaport"],
    ] {
        let out = Command::new(bin).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?} stderr: {stderr}");
        assert!(stderr.contains("error:"), "{args:?} stderr: {stderr}");
    }
}
